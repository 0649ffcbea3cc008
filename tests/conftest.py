"""Shared pytest set-up: a derandomized hypothesis profile.

Property tests draw the same examples on every run and keep no example
database, so every run of the suite checks the same cases.
"""

from hypothesis import settings

settings.register_profile("eselend", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("eselend")

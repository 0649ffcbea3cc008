"""Shared pytest set-up: a derandomized hypothesis profile.

Property tests draw the same examples on every run and keep no example
database, so every run of the suite checks the same cases. The ``fuzz``
profile is the same with fresh random examples on each run; select it with
``--hypothesis-profile=fuzz``.
"""

from hypothesis import settings

settings.register_profile("eselend", derandomize=True, database=None,
                          deadline=None)
settings.register_profile("fuzz", settings.get_profile("eselend"),
                          derandomize=False)
settings.load_profile("eselend")

"""Joint-liability microcredit contracts driven by a composite ESE score.

A borrower's Environmental-Social-Economics score maps linearly to project
success probability; groups of borrowers cover each other's repayment. The
package provides the closed-form contract quantities (break-even repayment,
loan ceilings, expected profit), optimal-score solvers for pairs and larger
groups including the large-group limit, a mean-variance extension for
risk-averse members, exact-enumeration and Monte Carlo validation oracles,
and the composite scoring pipeline that produces the score itself.

The package exports every name in its modules' ``__all__`` lists; the
command line front end, `eselend.cli`, is imported on its own.
"""

from .errors import *
from .model_core import *
from .optimizer import *
from .mean_variance import *
from .oracle_sim import *
from .scoring import *

__version__ = "0.1.0"

__all__ = (errors.__all__ + model_core.__all__ + optimizer.__all__
           + mean_variance.__all__ + oracle_sim.__all__ + scoring.__all__
           + ["__version__"])

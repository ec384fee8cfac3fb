"""Linear programming substrate: a from-scratch, warm-startable simplex.

:func:`maximize` / :func:`minimize` are the front-end every LP of the
system calls; a :class:`SimplexState` shared across the calls of one
constraint system runs phase 1 once and re-optimises each objective from
the previous basis.  scipy's HiGHS is only the test suite's oracle.
"""

from .interface import LPResult, maximize, minimize
from .simplex import SimplexError, SimplexResult, SimplexState, simplex_maximize

__all__ = [
    "LPResult",
    "SimplexError",
    "SimplexResult",
    "SimplexState",
    "maximize",
    "minimize",
    "simplex_maximize",
]

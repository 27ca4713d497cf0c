"""Finite-domain toolkit for function classes, generalized constraints and clusters.

Everything here works over explicit finite domains {0, ..., k-1} and is
exhaustively checkable: operations are stored as value tables, constraints
and clusters are finitely presented, and every satisfaction predicate is a
brute-force enumeration with a deterministic witness order.  Each public
name is declared once, in its module's ``__all__``.
"""

from .errors import *
from .extnat import *
from .operations import *
from .multisets import *
from .repetition import *
from .constraints import *
from .minors import *
from .clusters import *
from .galois import *
from .textio import *
from .verify import *

__all__ = [
    *errors.__all__, *extnat.__all__, *operations.__all__, *multisets.__all__,
    *repetition.__all__, *constraints.__all__, *minors.__all__, *clusters.__all__,
    *galois.__all__, *textio.__all__, *verify.__all__,
]

"""Exact arithmetic in the free monoid generated by two shear matrices.

The monoid of L = [[1,0],[u,1]] and R = [[1,v],[0,1]] under product is
free, and its depth-n elements form the rows of a binary tree. This
package computes the exact maximal entry per depth (Lucas-sequence
closed forms with brute-force oracles), the witness words attaining it,
the polynomial dominance machinery behind the proofs, and an SL2(F_p)
bit-string hash whose collision-free length bound drops out of the
maximal-entry sequence.
"""

from . import bsvhash, errors, extremal, matrix, polydom, tree
from .bsvhash import *
from .errors import *
from .extremal import *
from .matrix import *
from .polydom import *
from .tree import *

__version__ = "0.1.0"

__all__ = sorted(
    set().union(*(m.__all__ for m in (bsvhash, errors, extremal, matrix, polydom, tree)))
)

"""Exact arithmetic in the free monoid generated by two shear matrices.

The monoid of L = [[1,0],[u,1]] and R = [[1,v],[0,1]] under product is
free, and its depth-n elements form the rows of a binary tree. This
package computes the exact maximal entry per depth (Lucas-sequence
closed forms with brute-force oracles), the witness words attaining it,
the polynomial dominance machinery behind the proofs, and an SL2(F_p)
bit-string hash whose collision-free length bound drops out of the
maximal-entry sequence.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each module is imported on first use (PEP 562), so a caller loads only
# what it runs. A public name is found in the first module, in dependency
# order, whose __all__ lists it: a lookup imports no module it does not need.
_MODULES = ("errors", "matrix", "extremal", "bsvhash", "polydom", "tree")


def __getattr__(name: str):
    if name in _MODULES:
        return import_module(f".{name}", __name__)
    if name == "__all__":
        return sorted(set().union(*(__getattr__(m).__all__ for m in _MODULES)))
    for module in map(__getattr__, _MODULES):
        if name in module.__all__:
            return globals().setdefault(name, getattr(module, name))
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), "__all__", *_MODULES, *__getattr__("__all__")})

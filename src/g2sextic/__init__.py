"""Exact-arithmetic toolkit for the sextic GL(2) geometry of cuspidal cubics.

Everything here is computed over exact coefficient domains (arbitrary
precision rationals and the field Q(i, sqrt2, sqrt5)); no floating point
ever enters a verdict.
"""

__version__ = "0.1.0"

from .scalar import AlgebraicScalar

__all__ = ["AlgebraicScalar", "__version__"]

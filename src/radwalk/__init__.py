"""Radial random walks on matrix spaces: Kronecker algebra, multiset
combinatorics, matrix-Gaussian moment formulas, radial-measure samplers, and
Monte Carlo verification of the associated central limit theorems.

Each name has one import path: its own module (``radwalk.kron_algebra``,
``radwalk.gaussian_moments``, ...).  The package itself exports only the
version and the error classes.
"""

__version__ = "0.3.1"

from .errors import (
    BadArity,
    NoConvergence,
    NotPSD,
    RadwalkError,
    RankDeficient,
    ShapeMismatch,
    SizeOverflow,
    TooFewSamples,
)

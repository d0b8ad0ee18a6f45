"""Dense real matrix kernels shared by every other module.

All operations work on plain float64 ``numpy`` arrays in row-major (C)
order.  Symmetric outputs are symmetrized exactly via ``(M + M') / 2`` so
callers can rely on bitwise symmetry.  Public operations never return
NaN or Inf entries for finite inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence, NotPSD, ShapeMismatch

__all__ = [
    "PSD_TOL",
    "as_matrix",
    "symmetrize",
    "gram",
    "frobenius_norm",
    "sym_eig",
    "psd_sqrt",
    "chol_psd",
    "solve_lower_t",
]

# Relative eigenvalue tolerance for treating a slightly indefinite matrix
# (rounding noise on a Gram matrix) as PSD.
PSD_TOL = 1e-10


def as_matrix(x, name: str = "x") -> np.ndarray:
    """Coerce ``x`` to a 2-D float64 array and reject non-finite entries."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise ShapeMismatch(f"{name} must be 2-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def symmetrize(s) -> np.ndarray:
    """Exact symmetrization (M + M') / 2 over the last two axes of a stack."""
    s = np.asarray(s, dtype=np.float64)
    return (s + np.swapaxes(s, -1, -2)) / 2.0


def gram(x) -> np.ndarray:
    """Gram matrix x'x, exactly symmetric, PSD up to rounding."""
    x = as_matrix(x)
    return symmetrize(x.T @ x)


def frobenius_norm(x) -> float:
    """Frobenius norm sqrt(tr(x'x)), in units of the power of two just above
    max |x|: exact, and no square over- or underflows whatever x's scale."""
    x = np.asarray(x, dtype=np.float64)
    e = int(np.frexp(np.abs(x).max(initial=0.0))[1])
    return float(np.ldexp(np.linalg.norm(np.ldexp(x, -e)), e))


def sym_eig(s) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix.

    Parameters
    ----------
    s : array_like
        Symmetric square matrix (symmetrized defensively before the solve).

    Returns
    -------
    (eigenvalues, eigenvectors)
        Eigenvalues in descending order and the orthogonal matrix ``V``
        with matching columns, so that ``V @ diag(w) @ V.T`` reconstructs
        the input.
    """
    s = as_matrix(s, "s")
    if s.shape[0] != s.shape[1]:
        raise ShapeMismatch(f"s must be square, got shape {s.shape}")
    s = symmetrize(s)
    try:
        w, v = np.linalg.eigh(s)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigendecomposition failed for dim {s.shape[0]}: {exc}") from exc
    return w[::-1].copy(), v[:, ::-1].copy()


def psd_sqrt(s) -> np.ndarray:
    """Unique PSD square root of a PSD matrix.

    Eigenvalues in ``[-PSD_TOL * ||s||_F, 0)`` are treated as rounding noise
    and clamped to zero; anything below that floor raises :class:`NotPSD`.
    """
    w, v = sym_eig(s)
    scale = float(np.linalg.norm(np.asarray(s, dtype=np.float64)))
    floor = -PSD_TOL * scale
    if w[-1] < floor:
        raise NotPSD(f"eigenvalue {w[-1]:.3e} below tolerance floor {floor:.3e}")
    w = np.clip(w, 0.0, None)
    return symmetrize((v * np.sqrt(w)) @ v.T)


def chol_psd(g, low):
    """Lower L with L L' = g written into ``low``, for a trials-last PSD stack:
    g[i][j] and low[i][j] hold entry (i, j) over m trials, as a (q, q, m) array
    or nested lists of its entry views, and each entry is one vector op.  Only
    lower triangles are read and written.  Pivots are clamped at 0 and a zero
    pivot gives a zero column, so g = 0 and rank-deficient g need no special case."""
    q = len(low)
    for j in range(q):
        row, piv = low[j][:j], low[j][j]
        np.sqrt(np.maximum(g[j][j] - sum(x * x for x in row) if j else g[j][j], 0.0, out=piv), out=piv)
        den = np.where(piv > 0.0, piv, np.inf) if j + 1 < q else None  # e / inf = 0 under a zero pivot
        for i in range(j + 1, q):
            np.divide(g[i][j] - sum(x * y for x, y in zip(low[i][:j], row)) if j else g[i][j], den, out=low[i][j])
    return low


def solve_lower_t(b, low) -> np.ndarray:
    """b L^{-T} for trials-last (k, q, m) rows b and a (q, q, m) lower L with
    nonzero pivots, by forward substitution: column j is
    (b_j - sum_{i<j} x_i L_ji) / L_jj, one (k, m) op per term."""
    x = np.array(b, dtype=np.float64)
    for j in range(len(low)):
        for i in range(j):
            x[:, j] -= x[:, i] * low[j][i]
        x[:, j] /= low[j][j]
    return x

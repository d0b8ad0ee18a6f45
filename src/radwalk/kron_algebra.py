"""Kronecker and Hadamard products, Kronecker powers, vec, and the
factor-reordering permutation matrices for products of several factors.

The reordering constructor decomposes the factor permutation into adjacent
transpositions and composes one exact permutation pair per step, so the
defining identity

    A_{sigma(0)} x ... x A_{sigma(k-1)} = P (A_0 x ... x A_{k-1}) Q

holds with pure integer index arithmetic, no rounding.
"""

from __future__ import annotations

from functools import reduce
from math import prod

import numpy as np

from .errors import BadArity, ShapeMismatch, SizeOverflow

__all__ = [
    "DEFAULT_ENTRY_CAP",
    "kron",
    "hadamard",
    "kron_power",
    "vec",
    "unvec",
    "PermMat",
    "reorder_perm",
]

# Dense results above this many entries are refused; every experiment in
# this package needs far less (k <= 8 factors of size q <= 8).
DEFAULT_ENTRY_CAP = 1_000_000


def _check_cap(rows: int, cols: int, entry_cap: int) -> None:
    if rows * cols > entry_cap:
        raise SizeOverflow(f"result would have {rows}x{cols} = {rows * cols} entries, cap is {entry_cap}")


def _kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two 2-D arrays, unchecked.

    Forms the same products a_ij * b_kl as ``np.kron``, so the result is
    bit-identical, without its general-rank set-up.
    """
    rows, cols = a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(rows, cols)


def kron(a, b, entry_cap: int = DEFAULT_ENTRY_CAP) -> np.ndarray:
    """Kronecker product [a_ij * b] as a dense block matrix."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    _check_cap(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1], entry_cap)
    return _kron2(a, b)


def hadamard(a, b) -> np.ndarray:
    """Entrywise product of two matrices of equal shape."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeMismatch(f"shapes {a.shape} and {b.shape} differ")
    return a * b


def kron_power(a, k: int, entry_cap: int = DEFAULT_ENTRY_CAP) -> np.ndarray:
    """k-fold Kronecker power a x a x ... x a (k >= 1)."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    if k < 1:
        raise BadArity(f"k must be >= 1, got {k}")
    _check_cap(a.shape[0] ** k, a.shape[1] ** k, entry_cap)
    out = a
    for _ in range(k - 1):
        out = _kron2(a, out)
    return out


def vec(x) -> np.ndarray:
    """Row-stacking vec: entries of row i are contiguous.

    For C-ordered storage this is a memory reinterpretation of the matrix,
    returned as a 1-D array of length rows*cols.
    """
    return np.asarray(x, dtype=np.float64).reshape(-1)


def unvec(v, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec` for the given target shape."""
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if v.size != rows * cols:
        raise ShapeMismatch(f"vector of length {v.size} cannot fill {rows}x{cols}")
    return v.reshape(rows, cols)


class PermMat:
    """Permutation matrix stored as an index map, applied in O(size).

    ``image[r]`` is the column holding the 1 in row ``r`` of the dense
    matrix, so ``(P @ M)[r] = M[image[r]]``.
    """

    __slots__ = ("size", "image")

    def __init__(self, image):
        image = np.asarray(image, dtype=np.int64)
        if image.ndim != 1:
            raise ShapeMismatch("image must be a 1-D index array")
        n = image.size
        seen = np.zeros(n, dtype=bool)
        if n and (image.min() < 0 or image.max() >= n):
            raise ValueError("image entries out of range")
        seen[image] = True
        if not seen.all():
            raise ValueError("image is not a bijection")
        self.size = n
        self.image = image
        self.image.flags.writeable = False

    @classmethod
    def identity(cls, size: int) -> "PermMat":
        return cls(np.arange(size, dtype=np.int64))

    def inverse(self) -> "PermMat":
        inv = np.empty(self.size, dtype=np.int64)
        inv[self.image] = np.arange(self.size, dtype=np.int64)
        return PermMat(inv)

    def transpose(self) -> "PermMat":
        # P' = P^{-1} for permutation matrices.
        return self.inverse()

    def compose(self, other: "PermMat") -> "PermMat":
        """Matrix product self @ other as a permutation."""
        if self.size != other.size:
            raise ShapeMismatch("permutation sizes differ")
        return PermMat(other.image[self.image])

    def apply_left(self, m) -> np.ndarray:
        """P @ M (row permutation)."""
        m = np.asarray(m)
        if m.shape[0] != self.size:
            raise ShapeMismatch(f"matrix has {m.shape[0]} rows, permutation size is {self.size}")
        return m[self.image]

    def apply_right(self, m) -> np.ndarray:
        """M @ P (column permutation)."""
        m = np.asarray(m)
        if m.shape[1] != self.size:
            raise ShapeMismatch(f"matrix has {m.shape[1]} cols, permutation size is {self.size}")
        return m[:, self.inverse().image]

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.size, self.size))
        out[np.arange(self.size), self.image] = 1.0
        return out

    def __eq__(self, other):
        return isinstance(other, PermMat) and np.array_equal(self.image, other.image)

    def __repr__(self):
        return f"PermMat({self.image.tolist()})"


def _perm_kron(p1: PermMat, p2: PermMat) -> PermMat:
    """Kronecker product of two permutation matrices, as an index map."""
    n2 = p2.size
    img = (p1.image[:, None] * n2 + p2.image[None, :]).reshape(-1)
    return PermMat(img)


def _swap_pair(rows_a: int, rows_b: int, cols_a: int, cols_b: int) -> tuple[PermMat, PermMat]:
    """Permutations (P, Q) with B x A = P (A x B) Q for the given shapes."""
    ia = np.arange(rows_a, dtype=np.int64)
    ib = np.arange(rows_b, dtype=np.int64)
    p_img = np.empty(rows_a * rows_b, dtype=np.int64)
    # row (i_b, i_a) of B x A comes from row (i_a, i_b) of A x B
    p_img[(ib[:, None] * rows_a + ia[None, :]).reshape(-1)] = (
        ia[None, :] * rows_b + ib[:, None]
    ).reshape(-1)
    ja = np.arange(cols_a, dtype=np.int64)
    jb = np.arange(cols_b, dtype=np.int64)
    q_img = np.empty(cols_a * cols_b, dtype=np.int64)
    # column (j_a, j_b) of A x B lands at column (j_b, j_a) of B x A
    q_img[(ja[:, None] * cols_b + jb[None, :]).reshape(-1)] = (
        jb[None, :] * cols_a + ja[:, None]
    ).reshape(-1)
    return PermMat(p_img), PermMat(q_img)


def reorder_perm(shapes, sigma, entry_cap: int = DEFAULT_ENTRY_CAP) -> tuple[PermMat, PermMat]:
    """Permutation pair (P, Q) for reordering the factors of a Kronecker product.

    Parameters
    ----------
    shapes : sequence of (rows_i, cols_i)
        Shapes of the factors A_0, ..., A_{k-1}.
    sigma : sequence of int
        A permutation of 0..k-1; position t of the reordered product holds
        factor ``sigma[t]``.

    Returns
    -------
    (P, Q) such that for all matrices of the given shapes::

        A_{sigma[0]} x ... x A_{sigma[k-1]} == P @ (A_0 x ... x A_{k-1}) @ Q
    """
    shapes = [(int(r), int(c)) for r, c in shapes]
    k = len(shapes)
    if k < 1:
        raise BadArity("need at least one factor")
    if sorted(sigma) != list(range(k)):
        raise BadArity(f"sigma must be a permutation of 0..{k - 1}")
    total_rows = prod(r for r, _ in shapes)
    total_cols = prod(c for _, c in shapes)
    _check_cap(total_rows, 1, entry_cap)
    _check_cap(total_cols, 1, entry_cap)

    p_total = PermMat.identity(total_rows)
    q_total = PermMat.identity(total_cols)
    order = list(range(k))
    target = list(sigma)
    for t in range(k):
        j = order.index(target[t])
        while j > t:
            # swap adjacent factors at positions j-1, j of the current order
            left_rows = prod(shapes[f][0] for f in order[: j - 1])
            right_rows = prod(shapes[f][0] for f in order[j + 1 :])
            left_cols = prod(shapes[f][1] for f in order[: j - 1])
            right_cols = prod(shapes[f][1] for f in order[j + 1 :])
            ra, ca = shapes[order[j - 1]]
            rb, cb = shapes[order[j]]
            p2, q2 = _swap_pair(ra, rb, ca, cb)
            p_step = reduce(_perm_kron, [PermMat.identity(left_rows), p2, PermMat.identity(right_rows)])
            q_step = reduce(_perm_kron, [PermMat.identity(left_cols), q2, PermMat.identity(right_cols)])
            p_total = p_step.compose(p_total)
            q_total = q_total.compose(q_step)
            order[j - 1], order[j] = order[j], order[j - 1]
            j -= 1
    return p_total, q_total

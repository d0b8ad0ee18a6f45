"""Shared test oracles: independent constructions kept deliberately dumb."""

import numpy as np

from radwalk.errors import BadArity, RankDeficient
from radwalk.kron_algebra import kron
from radwalk.matrix_core import symmetrize
from radwalk.radial_measures import _MAX_RESAMPLES, _RANK_TOL, RadialLaw, r2


def householder_orthogonal(dim, rng):
    """Random orthogonal matrix as a product of dim Householder reflections."""
    a = np.eye(dim)
    for _ in range(dim):
        v = rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        a = (np.eye(dim) - 2.0 * np.outer(v, v)) @ a
    return a


def random_psd(dim, rng, scale=1.0):
    """PSD matrix from an orthogonal conjugation of a nonnegative diagonal."""
    q = householder_orthogonal(dim, rng)
    d = scale * rng.random(dim)
    return (q * d) @ q.T


def gram_loop(x):
    """Entrywise brute-force Gram matrix via an explicit double sum."""
    rows, cols = x.shape
    out = np.zeros((cols, cols))
    for k in range(cols):
        for l in range(cols):
            acc = 0.0
            for i in range(rows):
                acc += x[i, k] * x[i, l]
            out[k, l] = acc
    return out


def frobenius_loop(x, y):
    """Sequential row-major accumulation of sum_ij x_ij y_ij."""
    acc = 0.0
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            acc += x[i, j] * y[i, j]
    return acc


def kron_loop(a, b):
    """Definition-level Kronecker product via explicit index arithmetic."""
    m, n = a.shape
    p, q = b.shape
    out = np.zeros((m * p, n * q))
    for i in range(m):
        for j in range(n):
            for k in range(p):
                for l in range(q):
                    out[i * p + k, j * q + l] = a[i, j] * b[k, l]
    return out


def apply_perm_kron(word, ms) -> np.ndarray:
    """Kronecker product of the matrices ``ms`` in word order, the literal
    per-word term of the multinomial expansion.

    Symbol ``i`` of the word selects ``ms[i-1]``; the result is the k-fold
    product m_{word[0]} x m_{word[1]} x ... for a word of length k.
    """
    word = tuple(int(s) for s in word)
    if not word:
        raise BadArity("word must have length >= 1")
    if any(s < 1 or s > len(ms) for s in word):
        raise BadArity(f"word symbols must index the {len(ms)} operands")
    return kron(*[ms[s - 1] for s in word])


def pair_blocks(word) -> tuple[tuple[int, int], ...]:
    """Positions (0-based) of the two occurrences of each symbol of a pairing word.

    The word must realize the multiplicity vector (2, ..., 2); block ``i``
    of the result holds the two positions of symbol ``i+1``.  The blocks
    partition {0..k-1}.
    """
    word = tuple(int(s) for s in word)
    if not word:
        raise BadArity("empty word has no blocks")
    u = max(word)
    positions: list[list[int]] = [[] for _ in range(u)]
    for pos, sym in enumerate(word):
        if sym < 1 or sym > u:
            raise BadArity(f"symbol {sym} outside alphabet 1..{u}")
        positions[sym - 1].append(pos)
    if any(len(ps) != 2 for ps in positions):
        raise BadArity("every symbol must occur exactly twice in a pairing word")
    return tuple((ps[0], ps[1]) for ps in positions)


def _orbit_batch(p: int, radii: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """(m, p, q) uniform draws on the orbits of the given radii; the tests' full-frame oracle."""
    m, q, _ = radii.shape
    if p < q:
        raise BadArity(f"need p >= q, got p={p}, q={q}")
    g = rng.standard_normal((m, p, q))
    for _ in range(_MAX_RESAMPLES):
        w, v = np.linalg.eigh(g.transpose(0, 2, 1) @ g)
        bad = w[:, 0] <= _RANK_TOL * w[:, -1]
        if not bad.any():
            break
        g[bad] = rng.standard_normal((int(bad.sum()), p, q))
    else:
        raise RankDeficient(f"Gram matrix stayed singular after {_MAX_RESAMPLES} resamples (p={p}, q={q})")
    inv_sqrt = (v / np.sqrt(w)[:, None, :]) @ v.transpose(0, 2, 1)
    return g @ (inv_sqrt @ radii)


def _walk_chunk(nu: RadialLaw, n: int, p: int, m: int, rng: np.random.Generator):
    """m direct-path trials; returns (xi, a) as (m, q, q) arrays.

    The full (m, p, q) walk is kept, so this costs O(n p q) per trial.  It is
    the oracle the Gram-state kernel ``clt_experiments._gram_chunk`` is
    checked against.
    """
    q = nu.q
    r2m = r2(nu)
    s = np.zeros((m, p, q))
    a = np.zeros((m, q, q))
    for _ in range(n):
        radii = np.ascontiguousarray(nu.draw_radii(m, rng).transpose(2, 0, 1))
        x = _orbit_batch(p, radii, rng)
        s += x
        # x'x rather than r r: keeps the frames' orthonormality under test
        a += x.transpose(0, 2, 1) @ x - r2m
    xi = symmetrize(s.transpose(0, 2, 1) @ s - n * r2m)
    return xi, symmetrize(a)

import numpy as np
import pytest

from radwalk import NotPSD, ShapeMismatch
from radwalk.matrix_core import (
    chol_psd,
    frobenius_norm,
    gram,
    psd_sqrt,
    solve_lower_t,
    sym_eig,
)

from helpers import gram_loop, householder_orthogonal, random_psd


def test_frobenius_norm_scales_exactly_by_powers_of_two():
    # squares of 2^600 overflow and of 2^-600 underflow; the norm is taken in
    # power-of-two units, so it scales exactly and raises no warning
    x = np.random.default_rng(3).standard_normal((4, 4))
    for k in (600, -600, 0):
        assert frobenius_norm(np.ldexp(x, k)) == np.ldexp(frobenius_norm(x), k)
    assert frobenius_norm(np.zeros((2, 2))) == 0.0
    assert np.isnan(frobenius_norm([[np.nan, 1.0]])) and frobenius_norm([[np.inf, 1.0]]) == np.inf


def test_gram_column_vector():
    assert np.array_equal(gram([[3.0], [4.0]]), [[25.0]])


def test_gram_orthonormal_columns():
    rng = np.random.default_rng(11)
    a = householder_orthogonal(6, rng)[:, :3]
    assert np.abs(gram(a) - np.eye(3)).max() < 1e-12


def test_gram_matches_double_loop():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((5, 2))
    assert np.abs(gram(x) - gram_loop(x)).max() < 1e-13


def test_gram_is_bitwise_symmetric():
    rng = np.random.default_rng(13)
    g = gram(rng.standard_normal((7, 4)))
    assert np.array_equal(g, g.T)


def test_gram_orthogonal_invariance():
    rng = np.random.default_rng(14)
    for _ in range(50):
        x = rng.standard_normal((8, 3))
        a = householder_orthogonal(8, rng)
        assert frobenius_norm(gram(a @ x) - gram(x)) < 1e-9


def test_gram_rejects_nonfinite():
    with pytest.raises(ValueError):
        gram(np.array([[np.nan, 1.0]]))


def test_psd_sqrt_identity():
    assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3), atol=1e-14)


def test_psd_sqrt_diagonal():
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-13)


def test_psd_sqrt_recovers_root():
    rng = np.random.default_rng(15)
    for _ in range(20):
        r = random_psd(4, rng)
        assert frobenius_norm(psd_sqrt(r @ r) - r) < 1e-9


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_psd_sqrt_of_a_huge_or_tiny_matrix_is_exact(scale):
    # the eigenvalue floor's norm squares no entry, so 1e200 raises no overflow
    # warning (an error under this suite's filterwarnings)
    np.testing.assert_array_max_ulp(psd_sqrt(np.eye(2) * scale), np.eye(2) * np.sqrt(scale), maxulp=1)


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NotPSD):
        psd_sqrt(np.diag([1.0, -1.0]))


def test_psd_sqrt_clamps_rounding_noise():
    s = np.diag([1.0, -1e-14])
    r = psd_sqrt(s)
    assert np.all(np.linalg.eigvalsh(r) >= 0.0)


def test_psd_sqrt_idempotent_under_squaring():
    rng = np.random.default_rng(16)
    for _ in range(1000):
        dim = int(rng.integers(1, 7))
        s = random_psd(dim, rng, scale=float(rng.uniform(0.1, 10.0)))
        r = psd_sqrt(s)
        assert frobenius_norm(r @ r - s) <= 1e-9 * max(1.0, frobenius_norm(s))


def test_sym_eig_diagonal():
    w, v = sym_eig(np.diag([5.0, 1.0]))
    assert np.allclose(w, [5.0, 1.0])
    assert np.allclose(np.abs(v), np.eye(2), atol=1e-14)


def test_sym_eig_identity():
    w, _ = sym_eig(np.eye(4))
    assert np.allclose(w, np.ones(4))


def test_sym_eig_reconstruction_and_orthogonality():
    rng = np.random.default_rng(17)
    for _ in range(50):
        s = rng.standard_normal((4, 4))
        s = (s + s.T) / 2.0
        w, v = sym_eig(s)
        assert np.all(np.diff(w) <= 0)  # descending
        assert frobenius_norm((v * w) @ v.T - s) < 1e-9 * max(1.0, frobenius_norm(s))
        assert np.abs(v.T @ v - np.eye(4)).max() < 1e-12


def test_sym_eig_rejects_nonsquare():
    with pytest.raises(ShapeMismatch):
        sym_eig(np.ones((2, 3)))


def _psd_stacks():
    rng = np.random.default_rng(21)
    stacks = {}
    for q in (2, 3):
        a = rng.standard_normal((64, q + 5, q))
        stacks[f"pd-{q}"] = a.transpose(0, 2, 1) @ a
        stacks[f"zero-{q}"] = np.zeros((4, q, q))
        v = rng.standard_normal((64, q, 1))
        stacks[f"rank1-{q}"] = v @ v.transpose(0, 2, 1)
    # first row and column exactly 0: the radius diag(0, 1), and PD blocks after it
    b = stacks["pd-3"][:8].copy()
    b[:, 0, :] = b[:, :, 0] = 0.0
    stacks["zero-first-2"] = np.diag([0.0, 1.0])[None]
    stacks["zero-first-3"] = b
    return stacks


def _entry_views(a):
    """The q x q nested lists of entry views of a trials-last (q, q, m) array."""
    return [list(row) for row in a]


@pytest.mark.parametrize("name", sorted(_psd_stacks()))
def test_chol_psd_reproduces_stack(name):
    g = _psd_stacks()[name]
    m, q, _ = g.shape
    g_last = g.transpose(1, 2, 0).copy()  # trials-last (q, q, m)
    g_last[np.triu_indices(q, 1)] = np.nan  # only the lower triangle is read
    for views in (False, True):
        low = np.full((q, q, m), np.nan)
        chol_psd(_entry_views(g_last) if views else g_last, _entry_views(low) if views else low)
        assert np.isnan(low[np.triu_indices(q, 1)]).all()  # and only the lower one written
        low = np.tril(low.transpose(2, 0, 1))
        assert np.all(low.diagonal(axis1=1, axis2=2) >= 0.0)
        err = np.abs(low @ low.transpose(0, 2, 1) - g).max(axis=(1, 2))
        assert np.all(err <= 1e-12 * np.abs(g).max(axis=(1, 2))), views


@pytest.mark.parametrize("q", [2, 3])
def test_solve_lower_t_matches_solve(q):
    rng = np.random.default_rng(22 + q)
    g = _psd_stacks()[f"pd-{q}"]
    m = g.shape[0]
    low = chol_psd(g.transpose(1, 2, 0), np.zeros((q, q, m)))
    for k in (1, q, 8):
        b = rng.standard_normal((k, q, m))  # trials-last rows
        b0 = b.copy()
        x = solve_lower_t(b, low)
        # per trial x' = L^{-1} b', with the trials moved to the front and back
        want = np.linalg.solve(low.transpose(2, 0, 1), b.transpose(2, 1, 0)).transpose(2, 1, 0)
        assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max(), k
        assert np.array_equal(b, b0)  # b is left as it was

from itertools import permutations, product
from math import factorial

import numpy as np
import pytest

from radwalk import BadArity, SizeOverflow
from radwalk.combinatorics import multiset_perms
from radwalk.gaussian_moments import (
    MatrixNormalSpec,
    _pairings,
    moment_tensor,
    sample_matrix_normal,
    sum_moment,
    wick_moment,
)

from helpers import pair_blocks


def _centered(q, cov):
    return MatrixNormalSpec(q, np.zeros((q, q)), cov)


def _random_spec(q, rng):
    m = rng.standard_normal((q * q, q * q))
    return _centered(q, m @ m.T)


def _double_factorial(k):
    return factorial(k) // (2 ** (k // 2) * factorial(k // 2))


def test_spec_symmetrizes_covariance():
    rng = np.random.default_rng(50)
    cov = rng.standard_normal((4, 4))
    spec = MatrixNormalSpec(2, np.zeros((2, 2)), cov)
    assert np.array_equal(spec.cov, (cov + cov.T) / 2.0)
    assert spec.centered


def test_sampling_zero_covariance_returns_mean():
    rng = np.random.default_rng(51)
    mean = np.array([[1.0, 2.0], [3.0, 4.0]])
    spec = MatrixNormalSpec(2, mean, np.zeros((4, 4)))
    for _ in range(5):
        assert np.array_equal(sample_matrix_normal(spec, rng), mean)


def test_sampling_scalar_variance_mc():
    rng = np.random.default_rng(52)
    sigma2 = 1.7
    spec = _centered(1, np.array([[sigma2]]))
    n = 100_000
    draws = sample_matrix_normal(spec, rng, size=n).reshape(-1)
    assert abs(draws.var(ddof=1) - sigma2) <= 3.0 * np.sqrt(2.0 / n) * sigma2


def test_sampling_matches_requested_covariance():
    rng = np.random.default_rng(53)
    spec = _random_spec(2, rng)
    n = 100_000
    draws = sample_matrix_normal(spec, rng, size=n).reshape(n, 4)
    emp = np.cov(draws, rowvar=False)
    rel = np.linalg.norm(emp - spec.cov) / np.linalg.norm(spec.cov)
    assert rel < 0.05


def test_wick_univariate_fourth_moment():
    spec = _centered(1, np.array([[2.0]]))
    assert wick_moment(spec, ((0, 0),) * 4) == 3.0 * 2.0**2


def test_wick_odd_order_vanishes():
    rng = np.random.default_rng(54)
    spec = _random_spec(2, rng)
    assert wick_moment(spec, (((0, 0), (1, 1), (0, 1)))) == 0.0


def test_wick_double_factorial_family():
    for sigma2 in (1.0, 2.0, 0.25):
        spec = _centered(1, np.array([[sigma2]]))
        for k in (2, 4, 6, 8):
            assert wick_moment(spec, ((0, 0),) * k) == _double_factorial(k) * sigma2 ** (k // 2)


def test_wick_moment_bookkeeping():
    # q = 3; with 1-based pairs I = ((2,1),(2,2),(3,2),(2,1)) the moment is the
    # sum over the 3 matchings of the 4 positions of their covariance products
    rng = np.random.default_rng(55)
    q = 3
    m = rng.standard_normal((q * q, q * q))
    cov = (m + m.T) / 2.0
    pairs = ((1, 0), (1, 1), (2, 1), (1, 0))  # 0-based
    f = [i * q + j for i, j in pairs]
    got = wick_moment(_centered(q, cov), pairs)
    expected = (cov[f[0], f[1]] * cov[f[2], f[3]]
                + cov[f[0], f[2]] * cov[f[1], f[3]]
                + cov[f[0], f[3]] * cov[f[1], f[2]])
    assert got == expected


@pytest.mark.parametrize("k", [1, 3])
def test_wick_odd_order_checks_indices(k):
    rng = np.random.default_rng(64)
    spec = _random_spec(2, rng)
    with pytest.raises(BadArity):
        wick_moment(spec, ((0, 0),) * (k - 1) + ((5, 5),))
    with pytest.raises(BadArity):
        wick_moment(spec, ((0, 2),) + ((0, 0),) * (k - 1))


@pytest.mark.parametrize("u", [1, 2, 3, 4, 5])
def test_pairings_are_the_distinct_perfect_matchings(u):
    pairings = _pairings(u)
    assert len(pairings) == _double_factorial(2 * u)
    seen = set()
    for blocks in pairings:
        assert len(blocks) == u
        assert sorted(t for block in blocks for t in block) == list(range(2 * u))
        seen.add(frozenset(frozenset(block) for block in blocks))
    assert len(seen) == len(pairings)
    if u <= 4:
        # the canonical pairing words (blocks start in increasing position), in lexicographic order
        matchings = (pair_blocks(word) for word in multiset_perms((2,) * u))
        canonical = [b for b in matchings if all(x[0] < y[0] for x, y in zip(b, b[1:]))]
        assert list(pairings) == canonical


def _labelled_word_sum(spec, pairs):
    # every pairing word over (2,...,2): each matching u! times, once per block labelling
    q, cov = spec.q, spec.cov
    u = len(pairs) // 2
    total = 0.0
    for word in multiset_perms((2,) * u):
        term = 1.0
        for a, b in pair_blocks(word):
            term *= cov[pairs[a][0] * q + pairs[a][1], pairs[b][0] * q + pairs[b][1]]
        total += term
    return total / factorial(u)


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("k", [2, 4, 6, 8])
def test_wick_moment_matches_labelled_word_sum(q, k):
    rng = np.random.default_rng(65 + 10 * q + k)
    spec = _random_spec(q, rng)
    for _ in range(3):
        pairs = tuple((int(i), int(j)) for i, j in rng.integers(0, q, size=(k, 2)))
        want = _labelled_word_sum(spec, pairs)
        assert abs(wick_moment(spec, pairs) - want) <= 1e-13 * abs(want)


def test_wick_invariant_under_simultaneous_pair_permutation():
    rng = np.random.default_rng(56)
    spec = _random_spec(2, rng)
    pairs_space = list(product(range(2), repeat=2))
    for idx in product(pairs_space, repeat=4):
        base = wick_moment(spec, idx)
        for perm in permutations(range(4)):
            assert wick_moment(spec, tuple(idx[t] for t in perm)) == pytest.approx(base, rel=1e-12, abs=1e-12)


def test_moment_tensor_order_two_is_covariance():
    rng = np.random.default_rng(57)
    spec = _random_spec(2, rng)
    m2 = moment_tensor(spec, 2)
    q = 2
    for i, j, l, k in product(range(q), repeat=4):
        assert m2[i * q + l, j * q + k] == spec.cov[i * q + j, l * q + k]


def test_moment_tensor_odd_is_zero():
    rng = np.random.default_rng(58)
    spec = _random_spec(2, rng)
    assert not moment_tensor(spec, 3).any()


def test_moment_tensor_univariate_sixth():
    spec = _centered(1, np.array([[1.0]]))
    assert moment_tensor(spec, 6)[0, 0] == 15.0


def test_moment_tensor_entries_equal_wick_moment():
    rng = np.random.default_rng(59)
    spec = _random_spec(2, rng)
    t = moment_tensor(spec, 4)
    for idx in [(((0, 0), (0, 1), (1, 0), (1, 1))), (((1, 1), (1, 1), (0, 0), (0, 0)))]:
        assert t[_pack(idx, 0), _pack(idx, 1)] == wick_moment(spec, idx)
    # every entry is the Wick sum at its index, bit for bit
    for q, k in [(2, 4), (3, 4), (2, 6)]:
        spec = _random_spec(q, rng)
        dense = moment_tensor(spec, k)
        rows = list(product(range(q), repeat=k))
        for r, ridx in enumerate(rows):
            for c, cidx in enumerate(rows):
                assert dense[r, c] == wick_moment(spec, tuple(zip(ridx, cidx)))


@pytest.mark.parametrize("q, k", [(3, 8), (2, 10)])
def test_dense_moments_refused_beyond_entry_cap(q, k):
    # q^k = 6561 and 1024 per axis: both above the 10^6-entry cap
    spec = _random_spec(q, np.random.default_rng(60))
    with pytest.raises(SizeOverflow):
        moment_tensor(spec, k)
    with pytest.raises(SizeOverflow):
        sum_moment(spec, spec, k)


def test_moment_tensor_matches_monte_carlo():
    rng = np.random.default_rng(61)
    spec = _random_spec(2, rng)
    n = 200_000
    draws = sample_matrix_normal(spec, rng, size=n).reshape(n, 4)
    for k in (2, 3, 4):
        dense = moment_tensor(spec, k)
        for idx in product(product(range(2), repeat=2), repeat=k):
            prod_samples = np.ones(n)
            for i, j in idx:
                prod_samples *= draws[:, i * 2 + j]
            se = prod_samples.std(ddof=1) / np.sqrt(n)
            got = dense[_pack(idx, 0), _pack(idx, 1)]
            assert abs(prod_samples.mean() - got) <= 5.0 * se


def _pack(idx, side):
    out = 0
    for pair in idx:
        out = out * 2 + pair[side]
    return out


def test_sum_moment_with_degenerate_partner():
    rng = np.random.default_rng(62)
    spec1 = _random_spec(2, rng)
    spec2 = _centered(2, np.zeros((4, 4)))
    lhs = sum_moment(spec1, spec2, 4)
    rhs = moment_tensor(spec1, 4)
    assert np.allclose(lhs, rhs, rtol=0, atol=1e-12)


@pytest.mark.parametrize("k", [0, -1])
def test_sum_moment_rejects_order_below_one(k):
    spec = _centered(1, np.array([[1.0]]))
    with pytest.raises(BadArity):
        sum_moment(spec, spec, k)


def test_sum_moment_univariate_variances_add():
    s1 = _centered(1, np.array([[1.0]]))
    s2 = _centered(1, np.array([[1.0]]))
    assert sum_moment(s1, s2, 2)[0, 0] == 2.0


def test_sum_moment_matches_summed_covariance():
    rng = np.random.default_rng(63)
    for _ in range(10):
        q = int(rng.integers(1, 3))
        k = int(rng.integers(2, 5))
        s1, s2 = _random_spec(q, rng), _random_spec(q, rng)
        lhs = sum_moment(s1, s2, k)
        rhs = moment_tensor(_centered(q, s1.cov + s2.cov), k)
        scale = max(1.0, float(np.abs(rhs).max()))
        assert np.abs(lhs - rhs).max() <= 1e-10 * scale


def _sum_moment_loop(spec1, spec2, k):
    # the Hadamard-split double sum, entry by entry, over every split and word
    q = spec1.q
    rows = list(product(range(q), repeat=k))
    out = np.zeros((q**k, q**k))
    for split in range(k + 1):
        for word in multiset_perms((split, k - split)):
            for r, ridx in enumerate(rows):
                for c, cidx in enumerate(rows):
                    pairs = tuple(zip(ridx, cidx))
                    f1 = wick_moment(spec1, tuple(pairs[t] for t, sym in enumerate(word) if sym == 1))
                    f2 = wick_moment(spec2, tuple(pairs[t] for t, sym in enumerate(word) if sym == 2))
                    out[r, c] += f1 * f2
    return out


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_sum_moment_matches_entrywise_double_loop(q, k):
    rng = np.random.default_rng(70 + 10 * q + k)
    s1, s2 = _random_spec(q, rng), _random_spec(q, rng)
    got = sum_moment(s1, s2, k)
    if k % 2 == 1:
        assert got.shape == (q**k, q**k) and not got.any()
        return
    want = _sum_moment_loop(s1, s2, k)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_wick_requires_centered_spec():
    spec = MatrixNormalSpec(1, np.ones((1, 1)), np.eye(1))
    with pytest.raises(ValueError):
        wick_moment(spec, ((0, 0), (0, 0)))

from math import comb, factorial, prod

import numpy as np
import pytest

from radwalk import BadArity
import radwalk.combinatorics
from radwalk.combinatorics import (
    compositions,
    kron_multinomial_expand,
    multiset_perms,
    ordered_tuples,
)
from radwalk.kron_algebra import kron_power, reorder_perm

from helpers import apply_perm_kron, pair_blocks


def test_compositions_strict_example():
    assert compositions(4, 2) == [(1, 3), (2, 2), (3, 1)]


def test_compositions_zero_weight():
    assert compositions(0, 3) == []


def test_compositions_with_more_parts_than_units_are_none():
    # k < u: no cut set exists, and at k = 0, u = 1 the one empty cut set would give the part 0
    assert compositions(0, 1) == []
    assert compositions(2, 3) == []


def test_compositions_membership():
    assert (1, 3, 2) in compositions(6, 3)


@pytest.mark.parametrize("k,u", [(4, 2), (6, 3), (5, 5), (7, 2)])
def test_composition_counts(k, u):
    assert len(compositions(k, u)) == comb(k - 1, u - 1)


def test_compositions_lexicographic():
    cs = compositions(7, 3)
    assert cs == sorted(cs)


def test_multiset_perms_single_symbol():
    assert list(multiset_perms((2,))) == [(1, 1)]


def test_multiset_perms_example_membership_and_count():
    words = list(multiset_perms((1, 3, 2)))
    assert (2, 1, 2, 3, 3, 2) in words
    assert len(words) == 60
    assert factorial(6) // (factorial(1) * factorial(3) * factorial(2)) == 60
    assert len(set(words)) == len(words)
    assert words == sorted(words)


def test_multiset_perms_drops_zero_parts():
    assert list(multiset_perms((0, 4))) == [(2, 2, 2, 2)]


@pytest.mark.parametrize("lam", [(2, 2), (2, 2, 2), (3, 1, 2), (1, 1, 1, 1), (4, 4)])
def test_multiset_perms_counts_no_duplicates(lam):
    words = list(multiset_perms(lam))
    assert len(words) == factorial(sum(lam)) // prod(factorial(x) for x in lam)
    assert len(set(words)) == len(words)


def test_ordered_tuples_examples():
    assert list(ordered_tuples(3, 3)) == [(1, 2, 3)]
    assert list(ordered_tuples(3, 2)) == [(1, 2), (1, 3), (2, 3)]
    assert sum(1 for _ in ordered_tuples(5, 2)) == comb(5, 2)


def test_ordered_tuples_bad_arity():
    with pytest.raises(BadArity):
        ordered_tuples(2, 3)


def test_pair_blocks_positions():
    assert pair_blocks((1, 2, 1, 2)) == ((0, 2), (1, 3))
    with pytest.raises(BadArity):
        pair_blocks((1, 1, 2))


def test_apply_perm_kron_single():
    m = np.arange(4.0).reshape(2, 2)
    assert np.array_equal(apply_perm_kron((1,), [m]), m)


def test_apply_perm_kron_scalar_word():
    a, b, c = [[2.0]], [[3.0]], [[5.0]]
    out = apply_perm_kron((2, 1, 2, 3, 3, 2), [a, b, c])
    assert out[0, 0] == 3.0 * 2.0 * 3.0 * 5.0 * 5.0 * 3.0


def test_apply_perm_kron_word_order_matches_reordering():
    rng = np.random.default_rng(41)
    m1 = rng.integers(-3, 4, size=(2, 2)).astype(float)
    m2 = rng.integers(-3, 4, size=(2, 2)).astype(float)
    fwd = apply_perm_kron((1, 2), [m1, m2])
    rev = apply_perm_kron((2, 1), [m1, m2])
    p, q = reorder_perm([(2, 2), (2, 2)], [1, 0])
    assert np.array_equal(rev, p.apply_left(q.apply_right(fwd)))


def test_apply_perm_kron_bad_symbol():
    with pytest.raises(BadArity):
        apply_perm_kron((1, 3), [np.eye(2), np.eye(2)])


def test_expand_single_matrix_reduces_to_power():
    rng = np.random.default_rng(42)
    x = rng.standard_normal((2, 2))
    assert np.allclose(kron_multinomial_expand([x], 3), kron_power(x, 3), rtol=0, atol=1e-12)


def test_expand_two_matrices_order_two_terms():
    rng = np.random.default_rng(43)
    x1 = rng.standard_normal((2, 2))
    x2 = rng.standard_normal((2, 2))
    expected = (np.kron(x1, x1) + np.kron(x1, x2) + np.kron(x2, x1) + np.kron(x2, x2))
    assert np.allclose(kron_multinomial_expand([x1, x2], 2), expected, rtol=0, atol=1e-12)


def test_expand_matches_kron_power_of_sum():
    rng = np.random.default_rng(44)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        xs = [rng.standard_normal((2, 1)) for _ in range(n)]
        lhs = kron_multinomial_expand(xs, k)
        rhs = kron_power(sum(xs), k)
        scale = max(1.0, float(np.abs(rhs).max()))
        assert np.abs(lhs - rhs).max() <= 1e-12 * scale


def _literal_expansion(xs, k):
    """One Kronecker product per word, every u, as the expansion is written."""
    n = len(xs)
    acc = 0.0
    for u in range(1, min(k, n) + 1):
        for mu in ordered_tuples(n, u):
            for lam in compositions(k, u):
                for word in multiset_perms(lam):
                    acc = acc + apply_perm_kron(word, [xs[i - 1] for i in mu])
    return acc


@pytest.mark.parametrize("shape", [(1, 3), (2, 1)])
def test_expand_matches_the_literal_per_word_sum(shape):
    rng = np.random.default_rng(45)
    for n in range(1, 5):
        for k in range(1, 6):
            xs = [rng.standard_normal(shape) for _ in range(n)]
            expected = _literal_expansion(xs, k)
            scale = max(1.0, float(np.abs(expected).max()))
            assert np.abs(kron_multinomial_expand(xs, k) - expected).max() <= 1e-12 * scale


def _count_products(monkeypatch):
    calls = [0]
    kron2 = radwalk.combinatorics._kron2

    def counted(a, b):
        calls[0] += 1
        return kron2(a, b)

    monkeypatch.setattr(radwalk.combinatorics, "_kron2", counted)
    return calls


def test_expand_forms_each_word_sum_once(monkeypatch):
    # the literal per-word sum forms 4^6 words of 5 products each, 20 480 in all; a memo per
    # composition instead of per index subset forms 2 944
    calls = _count_products(monkeypatch)
    xs = [np.random.default_rng(46).standard_normal((2, 2)) for _ in range(4)]
    kron_multinomial_expand(xs, 6)
    assert 0 < calls[0] <= 2000


def test_expand_of_scalars_at_k_60_needs_no_word_enumeration(monkeypatch):
    # 2^60 words; the count vectors of two symbols summing to at most 60 number under 2 000
    calls = _count_products(monkeypatch)
    out = kron_multinomial_expand([[[0.3]], [[0.5]]], 60)
    assert calls[0] <= 10_000
    assert out.shape == (1, 1)
    assert abs(out[0, 0] / 0.8**60 - 1.0) <= 1e-12


@pytest.mark.parametrize("n,k", [(2, 2), (2, 3), (3, 3), (4, 2), (3, 5), (4, 5)])
def test_expansion_term_count_is_n_to_the_k(n, k):
    total = 0
    for u in range(1, min(k, n) + 1):
        per_u = sum(factorial(k) // prod(factorial(x) for x in lam) for lam in compositions(k, u))
        total += comb(n, u) * per_u
    assert total == n**k

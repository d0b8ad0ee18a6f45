import numpy as np
import pytest

from radwalk import BadArity, ShapeMismatch, SizeOverflow
from radwalk.gaussian_moments import MatrixNormalSpec, moment_tensor
from radwalk.kron_algebra import PermMat, _digit_perm, _kron2, hadamard, kron, kron_power, reorder_perm, unvec, vec

from helpers import frobenius_loop, kron_loop


def _int_mat(rng, shape, lo=-4, hi=5):
    return rng.integers(lo, hi, size=shape).astype(float)


def test_kron2_matches_np_kron_bitwise():
    rng = np.random.default_rng(30)
    shapes = [(r, c) for r in range(1, 5) for c in range(1, 5)]  # includes 1 x n and n x 1
    for sa in shapes:
        for sb in shapes:
            a, b = rng.standard_normal(sa), rng.standard_normal(sb)
            assert np.array_equal(_kron2(a, b), np.kron(a, b))


def test_kron_scalar_factor():
    b = np.arange(6.0).reshape(2, 3)
    assert np.array_equal(kron([[2.0]], b), 2.0 * b)


def test_kron_identity_block_diagonal():
    b = np.arange(4.0).reshape(2, 2)
    expected = np.zeros((4, 4))
    expected[:2, :2] = b
    expected[2:, 2:] = b
    assert np.array_equal(kron(np.eye(2), b), expected)


def test_kron_matches_definition_loop():
    rng = np.random.default_rng(21)
    a = rng.standard_normal((2, 3))
    b = rng.standard_normal((3, 2))
    assert np.array_equal(kron(a, b), kron_loop(a, b))


def test_mixed_product_property_exact():
    rng = np.random.default_rng(22)
    for _ in range(25):
        a, b, c, d = (_int_mat(rng, (2, 2)) for _ in range(4))
        assert np.array_equal(kron(a, b) @ kron(c, d), kron(a @ c, b @ d))


def test_kron_bilinearity_exact_on_integers():
    rng = np.random.default_rng(23)
    for _ in range(25):
        a, b = _int_mat(rng, (2, 3)), _int_mat(rng, (2, 3))
        c = _int_mat(rng, (3, 2))
        assert np.array_equal(kron(a + b, c), kron(a, c) + kron(b, c))


def test_kron_associativity_exact_on_integers():
    rng = np.random.default_rng(24)
    for _ in range(25):
        a, b, c = (_int_mat(rng, (2, 2)) for _ in range(3))
        assert np.array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))


def test_kron_entry_cap():
    with pytest.raises(SizeOverflow):
        kron(np.ones((100, 100)), np.ones((200, 200)))


def test_hadamard_ones_is_identity():
    rng = np.random.default_rng(25)
    a = rng.standard_normal((3, 4))
    assert np.array_equal(hadamard(a, np.ones_like(a)), a)
    assert np.array_equal(hadamard(a, np.zeros_like(a)), np.zeros_like(a))


def test_hadamard_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        hadamard(np.ones((2, 2)), np.ones((3, 2)))


def test_kron_as_hadamard_of_padded_factors():
    rng = np.random.default_rng(26)
    for _ in range(25):
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((3, 2))
        lhs = kron(a, b)
        rhs = hadamard(kron(a, np.ones_like(b)), kron(np.ones_like(a), b))
        assert np.array_equal(lhs, rhs)


def test_kron_power_base_case():
    a = np.arange(4.0).reshape(2, 2)
    assert np.array_equal(kron_power(a, 1), a)


def test_kron_power_scalar():
    x = 1.7
    assert kron_power([[x]], 3)[0, 0] == x * (x * x)


def test_kron_power_matches_nested_kron():
    rng = np.random.default_rng(27)
    a = rng.standard_normal((2, 2))
    assert np.array_equal(kron_power(a, 3), kron(a, kron(a, a)))


def test_kron_power_entry_cap():
    with pytest.raises(SizeOverflow):
        kron_power(np.ones((10, 10)), 4)


@pytest.mark.parametrize("build", [
    lambda: kron_power(np.ones((2, 2)), 10**5),
    lambda: moment_tensor(MatrixNormalSpec(2, np.zeros((2, 2)), np.eye(4)), 20000),
], ids=["kron_power", "moment_tensor"])
def test_refusing_a_size_too_long_for_decimal_is_size_overflow(build):
    # 2^200000 and 2^40000 entries: past the 4300-digit limit of int-to-str conversion
    with pytest.raises(SizeOverflow, match="ENTRY_CAP"):
        build()


def test_vec_examples():
    assert np.array_equal(vec(np.eye(2)), [1.0, 0.0, 0.0, 1.0])
    row = np.array([[1.0, 2.0, 3.0]])
    assert np.array_equal(vec(row), [1.0, 2.0, 3.0])


def test_vec_preserves_inner_product():
    rng = np.random.default_rng(28)
    x = rng.standard_normal((3, 4))
    y = rng.standard_normal((3, 4))
    assert frobenius_loop(vec(x)[None, :], vec(y)[None, :]) == frobenius_loop(x, y)


def test_unvec_round_trip():
    rng = np.random.default_rng(29)
    x = rng.standard_normal((3, 5))
    assert np.array_equal(unvec(vec(x), 3, 5), x)
    with pytest.raises(ShapeMismatch):
        unvec(np.ones(5), 2, 2)


def test_permmat_validates_bijection():
    with pytest.raises(ValueError):
        PermMat([0, 0, 1])


def test_permmat_rejects_non_integer_image():
    with pytest.raises(ValueError):
        PermMat([0.0, 1.7])
    with pytest.raises(ValueError):
        PermMat(np.array([1.5, 0.0, 2.0]))
    assert PermMat([1.0, 0.0]) == PermMat([1, 0])  # integral floats cast exactly


def test_permmat_matches_dense_actions():
    rng = np.random.default_rng(30)
    p = PermMat(rng.permutation(5))
    m = rng.standard_normal((5, 5))
    assert np.array_equal(p.apply_left(m), p.to_dense() @ m)
    assert np.array_equal(p.apply_right(m), m @ p.to_dense())
    assert np.array_equal(p.transpose().to_dense(), p.to_dense().T)


def test_reorder_identity_sigma():
    p, q = reorder_perm([(2, 3), (3, 1)], [0, 1])
    assert np.array_equal(p.image, np.arange(6))
    assert np.array_equal(q.image, np.arange(3))


def test_reorder_rejects_non_integer_sigma():
    for sigma in ([0.0, 1.0], np.array([1.0, 0.0])):
        with pytest.raises(BadArity):
            reorder_perm([(2, 2), (3, 3)], sigma)


def test_reorder_two_square_factors_similarity():
    rng = np.random.default_rng(31)
    a, b = _int_mat(rng, (2, 2)), _int_mat(rng, (3, 3))
    p, q = reorder_perm([(2, 2), (3, 3)], [1, 0])
    assert q == p.transpose()
    assert np.array_equal(p.apply_left(q.apply_right(kron(a, b))), kron(b, a))
    # permutation similarity: P (B x A) P' = A x B
    assert np.array_equal(p.transpose().apply_left(p.apply_right(kron(b, a))), kron(a, b))


def test_reorder_four_factors_example():
    rng = np.random.default_rng(32)
    mats = [_int_mat(rng, (2, 2)) for _ in range(4)]
    sigma = [0, 2, 1, 3]
    p, q = reorder_perm([(2, 2)] * 4, sigma)
    lhs = kron(mats[0], kron(mats[2], kron(mats[1], mats[3])))
    base = kron(mats[0], kron(mats[1], kron(mats[2], mats[3])))
    assert np.array_equal(lhs, p.apply_left(q.apply_right(base)))


def test_reorder_random_cases_exact():
    rng = np.random.default_rng(33)
    cases = [[(1, 3), (3, 1)], [(3, 1), (1, 1), (1, 2)], [(1, 2), (2, 3), (3, 1), (1, 1), (2, 1)]]
    for _ in range(100):
        k = int(rng.integers(1, 6))
        cases.append([(int(rng.integers(1, 4)), int(rng.integers(1, 4))) for _ in range(k)])
    for shapes in cases:
        k = len(shapes)
        mats = [_int_mat(rng, sh) for sh in shapes]
        sigma = rng.permutation(k)
        p, q = reorder_perm(shapes, sigma)
        lhs = mats[sigma[0]]
        for i in sigma[1:]:
            lhs = kron(lhs, mats[i])
        base = mats[0]
        for m in mats[1:]:
            base = kron(base, m)
        assert np.array_equal(lhs, p.apply_left(q.apply_right(base)))


def test_reorder_column_map_is_the_inverse_of_the_column_digit_transpose():
    # oracle: the column map built forward, as the row map is, then inverted
    rng = np.random.default_rng(35)
    for _ in range(300):
        k = int(rng.integers(1, 6))
        shapes = [(int(rng.integers(1, 5)), int(rng.integers(1, 5))) for _ in range(k)]
        sigma = rng.permutation(k)
        _, q = reorder_perm(shapes, sigma)
        assert q == PermMat(_digit_perm([c for _, c in shapes], sigma)).transpose()


def test_hadamard_conjugation_by_permutations():
    rng = np.random.default_rng(34)
    for _ in range(50):
        rows, cols = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        a = rng.standard_normal((rows, cols))
        b = rng.standard_normal((rows, cols))
        p = PermMat(rng.permutation(rows))
        q = PermMat(rng.permutation(cols))
        lhs = p.apply_left(q.apply_right(hadamard(a, b)))
        rhs = hadamard(p.apply_left(q.apply_right(a)), p.apply_left(q.apply_right(b)))
        assert np.array_equal(lhs, rhs)

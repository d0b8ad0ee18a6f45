import re
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

from radwalk import BadArity, NotPSD, RankDeficient
from radwalk.matrix_core import frobenius_norm, gram
from radwalk.radial_measures import (
    RadialLaw,
    _stiefel_rows,
    kappa_all_rows_even,
    normalize_kappa,
    phi,
    r2,
    radial_moment_mc,
    sample_radial_batch,
    sigma_nu,
    t_nu,
    uniform_sphere_cosine,
)

from helpers import _orbit_batch, householder_orthogonal


TWO_POINT = RadialLaw.two_point(1.0, 0.5, np.sqrt(3.0))
Q2_ATOMS = RadialLaw.from_atoms(
    np.array([[[1.5, 0.5], [0.5, 0.5]], [[1.0, 0.0], [0.0, 1.0]]]), [0.5, 0.5]
)


def test_r2_point_mass_identity_radius():
    nu = RadialLaw.from_atoms(np.eye(3)[None, :, :], [1.0])
    assert np.array_equal(r2(nu), np.eye(3))


def test_r2_two_point():
    # the law stores radii, so r2 = 0.5 + 0.5 * sqrt(3)**2 is exact to 1 ulp
    assert r2(TWO_POINT)[0, 0] == pytest.approx(2.0, rel=1e-15)


def test_r2_q2_diagonal_atoms():
    nu = RadialLaw.from_atoms(np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]), [0.5, 0.5])
    assert np.array_equal(r2(nu), np.diag([0.5, 0.5]))


def test_sigma_point_mass_is_zero():
    assert not sigma_nu(RadialLaw.point_mass(2.0)).any()


def test_sigma_two_point():
    # r4 = 5, r2 = 2, so the squared-radius variance is 1 (to rounding of sqrt(3)**2)
    assert TWO_POINT.moment_scalar(4) == pytest.approx(5.0, rel=1e-15)
    assert sigma_nu(TWO_POINT)[0, 0] == pytest.approx(1.0, rel=1e-14)


def test_sigma_matches_scalar_oracle():
    rng = np.random.default_rng(71)
    radii = rng.uniform(0.2, 2.0, size=4)
    w = rng.dirichlet(np.ones(4))
    nu = RadialLaw.from_atoms(radii, w)
    oracle = float(np.sum(w * radii**4) - np.sum(w * radii**2) ** 2)
    assert sigma_nu(nu)[0, 0] == pytest.approx(oracle, rel=1e-12)


def test_t_scalar_values():
    assert t_nu(RadialLaw.point_mass(1.0))[0, 0] == 2.0
    assert t_nu(TWO_POINT)[0, 0] == pytest.approx(8.0, rel=1e-15)


def test_t_identity_radius_structure():
    nu = RadialLaw.from_atoms(np.eye(2)[None, :, :], [1.0])
    t = t_nu(nu)
    q = 2
    for i in range(q):
        for j in range(q):
            for k in range(q):
                for l in range(q):
                    expected = float(i == k) * float(j == l) + float(i == l) * float(j == k)
                    assert t[i * q + j, k * q + l] == expected


def test_uniform_interval_moments_match_quadrature():
    nu = RadialLaw.uniform_interval(0.5, 2.0)
    for k in (2, 4):
        oracle, _ = integrate.quad(lambda x: x**k / 1.5, 0.5, 2.0)
        assert nu.moment_scalar(k) == pytest.approx(oracle, rel=1e-10)
    assert sigma_nu(nu)[0, 0] == pytest.approx(
        nu.moment_scalar(4) - nu.moment_scalar(2) ** 2, rel=1e-12
    )


def test_law_validation():
    with pytest.raises(BadArity, match=r"^atoms: weights sum to 1.2, not 1"):
        RadialLaw.from_atoms(np.array([1.0, 2.0]), [0.6, 0.6])
    with pytest.raises(NotPSD):
        RadialLaw.from_atoms(np.array([[[0.0, 1.0], [-1.0, 0.0]]]), [1.0])
    with pytest.raises(NotPSD):
        RadialLaw.from_atoms(np.array([[[-1.0]]]), [1.0])


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("radii, weights, field", [
    ([1.0, 2.0], [NAN, 0.5], "atoms[0].weight"),
    ([1.0, 2.0], [0.5, INF], "atoms[1].weight"),
    ([1.0, 2.0], [-INF, 0.5], "atoms[0].weight"),
    ([NAN, 2.0], [0.5, 0.5], "atoms[0].radius"),
    ([1.0, INF], [0.5, 0.5], "atoms[1].radius"),
    ([np.eye(2), [[1.0, NAN], [NAN, 1.0]]], [0.5, 0.5], "atoms[1].radius"),
], ids=["nan-weight", "inf-weight", "minus-inf-weight", "nan-radius", "inf-radius", "q2-nan-radius"])
def test_a_non_finite_atom_field_is_refused_naming_that_field(radii, weights, field):
    with pytest.raises(BadArity, match=rf"^{re.escape(field)}: must be finite$"):
        RadialLaw.from_atoms(np.array(radii), weights)


def test_law_config_round_trip():
    for nu in (TWO_POINT, Q2_ATOMS, RadialLaw.uniform_interval(0.0, 1.0)):
        again = RadialLaw.from_config(nu.to_config())
        assert again.q == nu.q
        assert np.array_equal(r2(again), r2(nu))


def test_from_config_names_bad_atom():
    cfg = {"q": 2, "atoms": [
        {"weight": 0.5, "radius": [1.0, 0.0, 0.0, 1.0]},
        {"weight": 0.5, "radius": [1.0, 0.3, 0.0, 1.0]},
    ]}
    with pytest.raises(NotPSD, match=r"^atoms\[1\]\.radius: "):
        RadialLaw.from_config(cfg)


@pytest.mark.parametrize("cfg", [5, None, "x", [1]], ids=["int", "none", "str", "list"])
def test_a_law_that_is_not_an_object_is_refused_naming_the_law(cfg):
    with pytest.raises(BadArity, match=r"^law: expected an object, got "):
        RadialLaw.from_config(cfg)


def test_slightly_asymmetric_radius_is_refused_naming_the_field():
    cfg = {"q": 2, "atoms": [{"weight": 1.0, "radius": [1.0, 1e-15, 0.0, 1.0]}]}
    with pytest.raises(NotPSD, match=r"^atoms\[0\]\.radius: matrix is not symmetric"):
        RadialLaw.from_config(cfg)


def test_unit_sphere_draw_has_unit_norm():
    rng = np.random.default_rng(72)
    for _ in range(20):
        x = sample_radial_batch(7, RadialLaw.point_mass(1.0), 1, rng).samples[0]
        assert abs(np.linalg.norm(x) - 1.0) < 1e-10


def test_orbit_gram_reproduces_radius():
    rng = np.random.default_rng(73)
    batch = sample_radial_batch(50, Q2_ATOMS, 500, rng)
    for x, r in zip(batch.samples, batch.radii):
        rr = r @ r
        assert frobenius_norm(gram(x) - rr) <= 1e-8 * frobenius_norm(rr)


def test_orbit_mean_is_zero():
    rng = np.random.default_rng(74)
    n = 100_000
    batch = sample_radial_batch(4, TWO_POINT, n, rng)
    means = batch.samples.reshape(n, 4).mean(axis=0)
    ses = batch.samples.reshape(n, 4).std(ddof=1, axis=0) / np.sqrt(n)
    assert np.all(np.abs(means) <= 4.0 * ses)


def test_point_mass_samples_sit_on_the_orbit():
    rng = np.random.default_rng(75)
    nu = RadialLaw.point_mass(2.0)
    for _ in range(10):
        x = sample_radial_batch(6, nu, 1, rng).samples[0]
        assert phi(x)[0, 0] == pytest.approx(2.0, abs=1e-10)


def test_coordinate_second_moment_on_unit_sphere():
    rng = np.random.default_rng(76)
    n = 100_000
    batch = sample_radial_batch(4, RadialLaw.point_mass(1.0), n, rng)
    sq = batch.samples[:, 0, 0] ** 2
    se = sq.std(ddof=1) / np.sqrt(n)
    assert abs(sq.mean() - 0.25) <= 4.0 * se


def test_row_covariance_matches_r2_over_p():
    rng = np.random.default_rng(77)
    p, n = 50, 100_000
    batch = sample_radial_batch(p, Q2_ATOMS, n, rng)
    rows = batch.samples[:, 0, :]
    emp = np.cov(rows, rowvar=False)
    target = r2(Q2_ATOMS) / p
    assert np.linalg.norm(emp - target) / np.linalg.norm(target) < 0.05


def test_phi_orthonormal_columns():
    rng = np.random.default_rng(78)
    a = householder_orthogonal(5, rng)[:, :2]
    assert np.allclose(phi(a), np.eye(2), atol=1e-10)


def test_phi_is_norm_for_vectors():
    v = np.array([[3.0], [4.0]])
    assert phi(v)[0, 0] == pytest.approx(5.0, rel=1e-14)


def test_phi_orthogonal_invariance():
    rng = np.random.default_rng(79)
    x = rng.standard_normal((6, 2))
    a = householder_orthogonal(6, rng)
    assert frobenius_norm(phi(a @ x) - phi(x)) < 1e-9


def test_radial_invariance_of_moments():
    rng = np.random.default_rng(80)
    n, p = 20_000, 6
    batch = sample_radial_batch(p, Q2_ATOMS, n, rng)
    a = householder_orthogonal(p, np.random.default_rng(81))
    x = batch.samples.reshape(n, p, 2)
    ax = np.einsum("ij,njq->niq", a, x)
    for moment in (lambda z: z, lambda z: z**2):
        mx = moment(x).reshape(n, -1)
        max_ = moment(ax).reshape(n, -1)
        diff = mx.mean(axis=0) - max_.mean(axis=0)
        se = np.sqrt(mx.var(ddof=1, axis=0) / n + max_.var(ddof=1, axis=0) / n)
        assert np.all(np.abs(diff) <= 4.0 * np.maximum(se, 1e-12))


def test_sampler_determinism():
    b1 = sample_radial_batch(10, TWO_POINT, 100, np.random.Generator(np.random.Philox(123)))
    b2 = sample_radial_batch(10, TWO_POINT, 100, np.random.Generator(np.random.Philox(123)))
    assert np.array_equal(b1.samples, b2.samples)
    assert np.array_equal(b1.radii, b2.radii)


def test_atom_frequencies_chi_square():
    # classify sampled matrices by their radial part, then compare to the weights
    rng = np.random.default_rng(82)
    nu = RadialLaw.from_atoms(np.array([0.5, 1.0, 2.0]), [0.2, 0.3, 0.5])
    n = 10_000
    batch = sample_radial_batch(6, nu, n, rng)
    norms = np.linalg.norm(batch.samples.reshape(n, -1), axis=1)
    counts = [int(np.sum(np.abs(norms - v) < 1e-6)) for v in (0.5, 1.0, 2.0)]
    assert sum(counts) == n
    _, pvalue = stats.chisquare(counts, [0.2 * n, 0.3 * n, 0.5 * n])
    assert pvalue > 0.001


@pytest.mark.parametrize("p", [2, 3, 4, 40, 100, 100_000])
def test_uniform_sphere_cosine_second_moment(p):
    rng = np.random.default_rng(83)
    n = 200_000
    u = uniform_sphere_cosine(p, n, rng)
    assert np.all(np.abs(u) <= 1.0)
    se_mean = u.std(ddof=1) / np.sqrt(n)
    assert abs(u.mean()) <= 4.0 * se_mean
    for power, exact in ((2, 1.0 / p), (4, 3.0 / (p * (p + 2)))):
        v = u**power
        se = v.std(ddof=1) / np.sqrt(n)
        assert abs(v.mean() - exact) <= 4.0 * se, (power, (v.mean() - exact) / se)
    # the exact law: (u + 1)/2 ~ Beta((p-1)/2, (p-1)/2)
    law = stats.beta((p - 1) / 2.0, (p - 1) / 2.0, loc=-1.0, scale=2.0)
    assert stats.kstest(u, law.cdf).pvalue > 1e-4


class _FixedUniforms:
    """Stands in for a generator whose next uniforms are known: one array per
    call, in order, the last one repeated."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def random(self, size):
        u = self.draws.pop(0) if len(self.draws) > 1 else self.draws[0]
        assert size == u.size
        return u.copy()


@pytest.mark.parametrize("p", [2, 3, 40, 100_000])
def test_uniform_sphere_cosine_edges_of_the_uniforms(p):
    edges = np.array([0.0, 0.25, 0.5, 0.75, np.nextafter(1.0, 0.0)])
    if p == 2:  # one uniform per draw, the angle's; the ends and the middle map to -1, 0 and 1
        u = uniform_sphere_cosine(p, edges.size, _FixedUniforms(edges))
        assert u[[0, 2, 4]].tolist() == [-1.0, 0.0, 1.0]
    else:  # every pair (U1 for the radius, U2 for the angle)
        u1, u2 = (x.ravel() for x in np.meshgrid(edges, edges, indexing="ij"))
        u = uniform_sphere_cosine(p, u1.size, _FixedUniforms(u1, u2))
        assert np.all(u[u1 == 0.0] == 0.0)
    assert np.all(np.isfinite(u))
    assert np.all(np.abs(u) <= 1.0)


@pytest.mark.parametrize("atoms", [2, 5, 50])
def test_draw_radii_atom_index_matches_searchsorted(atoms):
    rng = np.random.default_rng(atoms)
    weights = rng.uniform(0.5, 1.5, atoms)
    for total in (1.0, 1.0 - 1e-13):
        w = weights / weights.sum() * total
        cum = np.cumsum(w)
        # interior points, every edge exactly and one ulp either side, 0, the
        # last double below 1, and the gap above a cumsum that ends below 1
        u = np.concatenate([rng.random(4096), cum, np.nextafter(cum, 0.0), np.nextafter(cum, 2.0),
                            [0.0, np.nextafter(1.0, 0.0)], rng.uniform(cum[-1], 1.0, 16)])
        u = u[(u >= 0.0) & (u < 1.0)]
        want = np.minimum(np.searchsorted(cum, u, side="right"), atoms - 1)
        # atom j has radius j I + (j / 10)(J - I), J all ones: symmetric, PSD, and
        # distinct off the diagonal, so a swapped axis shows in the whole draw
        for q in (1, 2, 3):
            j = np.arange(atoms)[:, None, None]
            law = RadialLaw.from_atoms(j * np.eye(q) + j / 10 * (np.ones((q, q)) - np.eye(q)), w)
            radii = law.draw_radii(u.size, _FixedUniforms(u))
            assert radii.shape == (q, q, u.size)
            assert np.array_equal(radii, law.radii[want].transpose(1, 2, 0))


def test_uniform_interval_draws_trials_last():
    radii = RadialLaw.uniform_interval(0.5, 2.0).draw_radii(1000, np.random.default_rng(3))
    assert radii.shape == (1, 1, 1000)
    assert np.array_equal(radii[0, 0], np.random.default_rng(3).uniform(0.5, 2.0, 1000))


def test_uniform_sphere_cosine_p1_is_sign():
    rng = np.random.default_rng(84)
    u = uniform_sphere_cosine(1, 1000, rng)
    assert set(np.unique(u)) == {-1.0, 1.0}


def test_orbit_rank_deficient_after_retries():
    class ZeroRng:
        def standard_normal(self, shape):
            return np.zeros(shape)

        def chisquare(self, df, size):
            return np.zeros(size)

    # Bartlett, empty and trapezoidal (rank-1) Wishart parts; a whole frame
    for p, k in ((4, 1), (2, 2), (3, 2), (4, 4)):
        with pytest.raises(RankDeficient):
            _stiefel_rows(p, k, 2, 3, ZeroRng())


class _FixedFirstSamples:
    """Normal and chi-square draws, recorded in order, except that the first
    normal block (G_K) is ``value`` on the samples in ``bad``."""

    def __init__(self, seed, bad, value=0.0):
        self.rng = np.random.default_rng(seed)
        self.bad = bad
        self.value = value
        self.normals = []
        self.chisquares = []

    def standard_normal(self, shape):
        z = self.rng.standard_normal(shape)
        if not self.normals:
            z[self.bad] = self.value
        self.normals.append(z.copy())
        return z

    def chisquare(self, df, size):
        c = self.rng.chisquare(df, size)
        self.chisquares.append(c.copy())
        return c


def _recorded_stacks(rng, q):
    # each draw of H = [G_K; F]: G_K's normals, then F's normals row by row
    # right of its diagonal, then the chi-squares whose roots are that diagonal
    stacks = []
    for g, up, chi in zip(rng.normals[0::2], rng.normals[1::2], rng.chisquares):
        f = chi.shape[1]
        fac = np.zeros((g.shape[0], f, q))
        right = iter(up.T)
        for i in range(f):
            fac[:, i, i] = np.sqrt(chi[:, i])
            for j in range(i + 1, q):
                fac[:, i, j] = next(right)
        assert next(right, None) is None
        stacks.append((g, fac))
    return stacks


def _redrawn_rows_oracle(rng, bad, q):
    # G_K and F, then one redraw of both for the bad samples only
    (g0, f0), (g1, f1) = _recorded_stacks(rng, q)
    g, fac = g0.copy(), f0.copy()
    g[bad], fac[bad] = g1, f1
    low = np.linalg.cholesky(g.transpose(0, 2, 1) @ g + fac.transpose(0, 2, 1) @ fac)
    return np.linalg.solve(low, g.transpose(0, 2, 1)).transpose(0, 2, 1)


@pytest.mark.parametrize("p", [2, 3])  # empty and trapezoidal (rank-1) Wishart parts: G_K = 0 is singular
def test_stiefel_rows_redraw_only_singular_samples(p):
    k, q, m = 2, 2, 10
    bad = np.zeros(m, dtype=bool)
    bad[[1, 4, 5]] = True
    rng = _FixedFirstSamples(90 + p, bad)
    rows = _stiefel_rows(p, k, q, m, rng).transpose(2, 0, 1)  # trials-last to (m, k, q)
    assert len(rng.normals) == 4 and len(rng.chisquares) == 2
    (g1, f1), = _recorded_stacks(rng, q)[1:]
    assert g1.shape == (3, k, q) and f1.shape == (3, p - k, q)
    assert np.all(np.isfinite(rows))
    assert np.allclose(rows, _redrawn_rows_oracle(rng, bad, q), rtol=0.0, atol=1e-12)


def test_stiefel_rows_redraw_nearly_singular_samples():
    # p = k = q = 2, so W = 0 and G_K'G_K is the whole Gram matrix.  Its
    # smallest squared pivot is det(G_K)^2 / 2 = 2e-14, about 1e-14 of its
    # largest diagonal entry: positive, but below the rank guard's scale.
    k = q = p = 2
    m = 10
    near = np.array([[1.0, 1.0], [1.0, 1.0 + 2e-7]])
    low = np.linalg.cholesky(near.T @ near)
    ratio = low[1, 1] ** 2 / (near.T @ near).diagonal().max()
    assert 5e-15 < ratio < 2e-14
    bad = np.zeros(m, dtype=bool)
    bad[[0, 7]] = True
    rng = _FixedFirstSamples(95, bad, near)
    rows = _stiefel_rows(p, k, q, m, rng).transpose(2, 0, 1)  # trials-last to (m, k, q)
    assert len(rng.normals) == 4 and rng.normals[2].shape == (2, k, q)
    assert np.allclose(rows, _redrawn_rows_oracle(rng, bad, q), rtol=0.0, atol=1e-12)


def test_p_smaller_than_q_rejected():
    with pytest.raises(BadArity):
        sample_radial_batch(1, Q2_ATOMS, 10, np.random.default_rng(0))
    with pytest.raises(BadArity):
        _stiefel_rows(1, 1, 2, 10, np.random.default_rng(0))
    with pytest.raises(BadArity):
        _stiefel_rows(3, 4, 2, 10, np.random.default_rng(0))


def _orbit_rows_oracle(p, k, q, m, rng, chunk=25_000):
    # the full (m, p, q) frame, drawn in chunks to keep the oracle's memory small
    parts = [_orbit_batch(p, np.broadcast_to(np.eye(q), (c, q, q)), rng)[:, :k, :]
             for c in (min(chunk, m - start) for start in range(0, m, chunk))]
    return np.concatenate(parts)


@pytest.mark.parametrize("p,k,q", [(1, 1, 1), (2, 2, 2), (3, 1, 2), (5, 3, 2), (40, 2, 3), (6, 6, 2),
                                   (3, 2, 2), (4, 2, 3)])
def test_stiefel_rows_match_full_frame(p, k, q):
    # the edge shapes: p = 1, p - k = 0, p - k = q and p - k > q (square Bartlett
    # factor), k = p > q (the whole frame of a lifted batch), and 0 < p - k < q
    # (singular Wishart, a trapezoidal factor)
    m = 200_000
    rng = np.random.default_rng(1000 + 100 * p + 10 * k + q)
    fast = _stiefel_rows(p, k, q, m, rng).transpose(2, 0, 1)  # trials-last to (m, k, q)
    full = _orbit_rows_oracle(p, k, q, m, rng)
    assert fast.shape == full.shape == (m, k, q)
    a, b = fast.reshape(m, -1), full.reshape(m, -1)
    for col in range(k * q):
        # at p = 1 the rows are +-1, exactly here and to an ulp in the oracle;
        # rounding off the last few bits keeps that noise from splitting the ties
        assert stats.ks_2samp(np.round(a[:, col], 12), np.round(b[:, col], 12)).pvalue > 1e-4
    for power in (2, 4):
        ap, bp = a**power, b**power
        diff = ap.mean(axis=0) - bp.mean(axis=0)
        se = np.sqrt((ap.var(ddof=1, axis=0) + bp.var(ddof=1, axis=0)) / m)
        assert np.all(np.abs(diff) <= 4.5 * se + 1e-12)


def test_normalize_kappa_and_parity():
    kap = normalize_kappa([((0, 0), 2), ((1, 0), 1), ((1, 0), 1)])
    assert kap == {(0, 0): 2, (1, 0): 2}
    assert kappa_all_rows_even(kap)
    assert not kappa_all_rows_even({(0, 0): 1, (1, 0): 2})


def test_moment_mc_parity_z_score():
    rng = np.random.default_rng(85)
    est, se = radial_moment_mc(10, TWO_POINT, {(0, 0): 1, (1, 0): 2}, 20_000, rng)
    assert abs(est) <= 4.0 * se


def test_moment_mc_exact_inverse_p_law():
    rng = np.random.default_rng(86)
    for p in (8, 32):
        est, se = radial_moment_mc(p, RadialLaw.point_mass(1.0), {(0, 0): 2}, 40_000, rng)
        assert abs(est - 1.0 / p) <= 4.0 * se
        # two rows away from the top: E[u_i^2 u_j^2] = 1 / (p (p + 2)) on the unit sphere
        est, se = radial_moment_mc(p, RadialLaw.point_mass(1.0), {(p - 1, 0): 2, (3, 0): 2},
                                   40_000, rng)
        assert abs(est - 1.0 / (p * (p + 2))) <= 4.0 * se


def test_moment_mc_memory_does_not_grow_with_p():
    # the full (20000, 10^6, 2) sample would take about 0.3 TB
    p = 10**6
    rng = np.random.default_rng(88)
    tracemalloc.start()
    try:
        est, se = radial_moment_mc(p, Q2_ATOMS, {(0, 0): 2}, 20_000, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert abs(est - r2(Q2_ATOMS)[0, 0] / p) <= 6.0 * se


def test_moment_mc_validates_inputs():
    rng = np.random.default_rng(87)
    state = rng.bit_generator.state
    with pytest.raises(BadArity):
        radial_moment_mc(5, TWO_POINT, {(0, 0): 10}, 2000, rng)
    with pytest.raises(BadArity):
        radial_moment_mc(5, TWO_POINT, {(0, 0): 2}, 10, rng)
    with pytest.raises(BadArity):
        radial_moment_mc(5, TWO_POINT, {(9, 0): 2}, 2000, rng)
    with pytest.raises(BadArity, match=r"^kappa: "):  # not truncated to {(0, 0): 2}
        radial_moment_mc(10, RadialLaw.point_mass(1.0), {(0.5, 0): 2.7}, 2000, rng)
    assert rng.bit_generator.state == state  # each was refused before any draw

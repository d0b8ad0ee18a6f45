import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from radwalk import BadArity, TooFewSamples, cli, clt_experiments
from radwalk.clt_experiments import (
    CHECKS,
    CHUNK_TRIALS,
    P_CAP,
    TRIAL_STEPS_CAP,
    WORKERS_CAP,
    _GROUP_CHUNKS,
    _POOL_WORK,
    _STEP_BLOCK,
    MomentSweep,
    WalkConfig,
    _compare_covariance,
    _gram_chunk,
    _ks_projections,
    _ks_statistic,
    estimate_covariance,
    moment_decay_experiment,
    predict_covariances,
    trial_stream,
    verify_clt,
)
from radwalk.radial_measures import (ATOMS_CAP, Q_CAP, SAMPLE_BYTES_CAP, RadialLaw, _stiefel_rows, r2, sigma_nu, t_nu,
                                     uniform_sphere_cosine)

from helpers import _walk_chunk

TWO_POINT = RadialLaw.two_point(1.0, 0.5, np.sqrt(3.0))
Q2_ATOMS = RadialLaw.from_atoms(
    np.array([[[1.5, 0.5], [0.5, 0.5]], [[1.0, 0.0], [0.0, 1.0]]]), [0.5, 0.5]
)
# both radii have rank 1, so the Gram matrix stays singular on some walks
Q2_RANK1 = RadialLaw.from_atoms(
    np.array([[[1.0, 0.0], [0.0, 0.0]], [[1.0, 1.0], [1.0, 1.0]]]), [0.5, 0.5]
)

Q3_ATOMS = RadialLaw.from_atoms(
    np.array([np.diag([1.5, 1.0, 0.5]), [[1.0, 0.3, 0.0], [0.3, 0.8, 0.2], [0.0, 0.2, 0.6]]]), [0.5, 0.5]
)


def _cfg(**kw):
    base = dict(nu=TWO_POINT, n=20, p=100, trials=2000, regime="CLT_II", seed=7)
    base.update(kw)
    return WalkConfig(**base)


def test_config_validation():
    with pytest.raises(BadArity):
        _cfg(regime="CLT_III")
    with pytest.raises(BadArity):
        _cfg(trials=10)
    with pytest.raises(BadArity):
        WalkConfig(nu=Q2_ATOMS, n=5, p=1, trials=200, regime="CLT_II")
    assert _cfg().scale == pytest.approx(1.0 / np.sqrt(20))
    assert _cfg(regime="CLT_I").scale == pytest.approx(np.sqrt(100) / 20)
    assert _cfg(p=P_CAP).p == P_CAP


@pytest.mark.parametrize("make, field", [
    (lambda: _cfg(n=2.5), "n"),
    (lambda: _cfg(checks=("exct",)), "checks"),
    (lambda: _cfg(checks=[]), "checks"),  # with no check requested, any walk would read PASS
    (lambda: MomentSweep(RadialLaw.point_mass(1.0), {(0.5, 0): 2.7}, [10, 20, 40], 2000), "kappa"),
    (lambda: _cfg(p=P_CAP + 1), "p"),
    (lambda: MomentSweep(TWO_POINT, {(0, 0): 2}, [10, P_CAP + 1, 40], 2000), r"p_grid\[1\]"),
    # one rule for both branches: a repeated point is refused by parity and decay sweeps alike
    (lambda: MomentSweep(TWO_POINT, {(0, 0): 2}, [10, 20, 40, 20], 2000), r"p_grid\[3\]"),
    (lambda: MomentSweep(TWO_POINT, {(0, 0): 1, (1, 0): 2}, [10, 10], 2000), r"p_grid\[1\]"),
], ids=["float-n", "misspelt-check", "no-checks", "float-kappa", "p-beyond-2^53", "grid-p-beyond-2^53",
        "repeated-p-decay", "repeated-p-parity"])
def test_configs_refuse_a_bad_field_naming_it(make, field):
    # construction draws nothing, so a bad field is refused before any trial runs
    with pytest.raises(BadArity, match=rf"^{field}: "):
        make()


@pytest.mark.parametrize("make, sample_bytes", [
    (lambda trials: _cfg(trials=trials), 8),
    (lambda trials: WalkConfig(nu=Q2_ATOMS, n=5, p=10, trials=trials, regime="CLT_II"), 32),
    (lambda trials: WalkConfig(nu=Q3_ATOMS, n=5, p=10, trials=trials, regime="CLT_II"), 72),
    (lambda trials: MomentSweep(Q2_ATOMS, {(0, 0): 2}, [10, 20, 40], trials), 8),
], ids=["walk-q1", "walk-q2", "walk-q3", "sweep"])
def test_trials_cap_counts_the_bytes_of_an_entrys_samples(make, sample_bytes):
    # construction only: the largest admitted entry is never run
    most = SAMPLE_BYTES_CAP // sample_bytes
    assert make(most).trials == most
    with pytest.raises(BadArity, match=rf"^trials: expected an integer <= {most}, got {most + 1}$"):
        make(most + 1)


@pytest.mark.parametrize("make, refusal", [
    # steps of 2000 trials: the walk's rule is a bound on n
    (lambda work: _cfg(n=work // 2000), rf"^n: expected an integer <= {TRIAL_STEPS_CAP // 2000}, got "),
    (lambda work: MomentSweep(TWO_POINT, {(0, 0): 2}, list(range(2, 2 + work // 10**6)), 10**6),
     rf"^p_grid: .* exceed the cap of {TRIAL_STEPS_CAP} trial-steps"),
], ids=["walk", "sweep"])
def test_time_rule_counts_trial_steps(make, refusal):
    # construction only: the largest admitted entry is never run
    make(TRIAL_STEPS_CAP)
    with pytest.raises(BadArity, match=refusal):
        make(TRIAL_STEPS_CAP + 10**6)


@pytest.mark.parametrize("make, field, bound", [
    (lambda v: _cfg(trials=v).trials, "trials", SAMPLE_BYTES_CAP // 8),
    (lambda v: WalkConfig(nu=Q2_ATOMS, n=5, p=10, trials=v, regime="CLT_II").trials, "trials", SAMPLE_BYTES_CAP // 32),
    (lambda v: WalkConfig(nu=Q3_ATOMS, n=5, p=10, trials=v, regime="CLT_II").trials, "trials", SAMPLE_BYTES_CAP // 72),
    (lambda v: MomentSweep(Q2_ATOMS, {(0, 0): 2}, [10, 20, 40], v).trials, "trials", SAMPLE_BYTES_CAP // 8),
    (lambda v: _cfg(n=v).n, "n", TRIAL_STEPS_CAP // 2000),
    (lambda v: _cfg(p=v).p, "p", P_CAP),
    (lambda v: MomentSweep(TWO_POINT, {(0, 0): 2}, [10, v, 40], 2000).p_grid[1], r"p_grid\[1\]", P_CAP),
    (lambda v: cli._parse_entry({"id": "s", "kind": "selftest", "cases": v}, ""), "cases", cli.SELFTEST_CASES_CAP),
    (lambda v: clt_experiments._workers(v), "workers", WORKERS_CAP),
    (lambda v: RadialLaw.from_atoms(np.eye(v)[None], [1.0]).q, "q", Q_CAP),
    (lambda v: RadialLaw.from_atoms(np.ones((v, 1, 1)), np.full(v, 1 / v)).weights.size, "atoms", ATOMS_CAP),
], ids=["walk-trials-q1", "walk-trials-q2", "walk-trials-q3", "sweep-trials", "walk-n", "p", "p_grid",
        "selftest-cases", "workers", "law-q", "law-atoms"])
def test_every_bounded_count_admits_its_bound_and_refuses_one_more(make, field, bound):
    # construction only: no entry runs, and each refusal has the one wording of _integer
    assert make(bound) == bound
    refusal = rf"^{field}: expected an integer <= {bound}, got {bound + 1}$"
    with pytest.raises((BadArity, cli.ManifestError), match=refusal):  # cases is refused through cli's prefixer
        make(bound + 1)


def test_single_step_trial_has_no_cross_terms():
    rng = np.random.default_rng(90)
    for runner in (_walk_chunk, _gram_chunk):
        xi, a = runner(Q2_ATOMS, 1, 10, 64, rng)
        # Xi_1 = gram(X_1) - r2 means a = xi
        assert np.array_equal(xi, a)


def test_point_mass_unit_radius_has_zero_a_part():
    # the direct path takes a from x'x, so this checks the frames are orthonormal
    rng = np.random.default_rng(91)
    _, a = _walk_chunk(RadialLaw.point_mass(1.0), 15, 8, 5, rng)
    assert np.abs(a).max() < 1e-11


def test_fast_path_single_step_is_radius_squared():
    rng = np.random.default_rng(93)
    xi, a = _gram_chunk(TWO_POINT, 1, 50, 200, rng)
    assert not (xi - a).any()
    s2 = xi[:, 0, 0] + 1 * float(r2(TWO_POINT)[0, 0])
    assert set(np.round(np.unique(s2), 12)) <= {1.0, 3.0}


def test_fast_and_direct_paths_agree_in_distribution():
    n_trials = 10_000
    xi_fast, _ = _gram_chunk(TWO_POINT, 20, 50, n_trials, np.random.default_rng(95))
    xi_direct, _ = _walk_chunk(TWO_POINT, 20, 50, n_trials, np.random.default_rng(96))
    res = stats.ks_2samp(xi_fast.reshape(-1), xi_direct.reshape(-1))
    assert res.pvalue > 0.001


# n = _STEP_BLOCK + 5 walks a full block of draws and a tail block
@pytest.mark.parametrize("nu, p, n", [(Q2_ATOMS, 2, 6), (Q2_ATOMS, 3, 6), (Q2_ATOMS, 1000, 6), (Q2_RANK1, 3, 6),
                                      (TWO_POINT, 1, 6), (TWO_POINT, 2, 6), (Q2_ATOMS, 3, _STEP_BLOCK + 5),
                                      (Q3_ATOMS, 4, 6)],
                         ids=["p=q", "q<p<2q", "p=1000", "rank1", "q1-p=1", "q1-p=2", "block-tail", "q3-q<p<2q"])
def test_gram_kernel_matches_direct_path(nu, p, n):
    def draw(runner, tag, trials):
        return np.concatenate([runner(nu, n, p, CHUNK_TRIALS, trial_stream(1, tag, k))[0]
                               for k in range(trials // CHUNK_TRIALS)])

    gram, direct = draw(_gram_chunk, 1, 32768), draw(_walk_chunk, 2, 4096)
    for i, j in ((i, j) for i in range(nu.q) for j in range(i, nu.q)):
        # the rank-1 law puts atoms on Xi; rounding off the last few bits keeps
        # the two paths' different rounding noise from splitting the ties
        res = stats.ks_2samp(np.round(gram[:, i, j], 9), np.round(direct[:, i, j], 9))
        assert res.pvalue > 1e-4, (i, j, res)
    _, _, cov = predict_covariances(nu, n, p)
    est = estimate_covariance(gram.reshape(gram.shape[0], -1))
    z = np.abs(est.cov - cov) / est.stderr
    assert np.all(z <= 4.5), z


@pytest.mark.parametrize("nu", [TWO_POINT, Q2_ATOMS], ids=["q1", "q2"])
def test_gram_chunk_draws_radii_and_orientations_once_per_block(monkeypatch, nu):
    calls = {"draw_radii": 0, "_stiefel_rows": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(RadialLaw, "draw_radii", counted("draw_radii", RadialLaw.draw_radii))
    monkeypatch.setattr(clt_experiments, "_stiefel_rows", counted("_stiefel_rows", _stiefel_rows))
    _gram_chunk(nu, 2 * _STEP_BLOCK + 3, 5, 16, np.random.default_rng(97))
    assert calls == {"draw_radii": 3, "_stiefel_rows": 3}
    # a group of three chunks draws each block once per chunk, from the chunk's own stream
    calls.update(dict.fromkeys(calls, 0))
    _gram_chunk(nu, 2 * _STEP_BLOCK + 3, 5, 2 * CHUNK_TRIALS + 16, *(np.random.default_rng(97 + k) for k in range(3)))
    assert calls == {"draw_radii": 9, "_stiefel_rows": 9}


# no symmetrize pass: G's mirrored lower triangle and the symmetric radii make both outputs symmetric
@pytest.mark.parametrize("nu, p", [(Q2_RANK1, 2), (Q3_ATOMS, 4)], ids=["q2-rank1", "q3-q<p<2q"])
def test_gram_chunk_outputs_equal_their_transposes(nu, p):
    xi, a = _gram_chunk(nu, _STEP_BLOCK + 5, p, CHUNK_TRIALS + 100, trial_stream(3, 1, 0), trial_stream(3, 1, 1))
    for x in (xi, a):
        assert np.array_equal(x, x.transpose(0, 2, 1))


def test_gram_chunk_q1_reproduces_scalar_recursion():
    # a literal loop of s2 <- s2 + 2 sqrt(s2) r u + r^2, one step at a time,
    # over the kernel's block-ordered draws: each block draws its radii, then
    # its cosines, and a takes the block's sum of r^2 - r2.  n covers a full
    # block and a tail block; p = 1 exercises the clamp at 0
    n, m = _STEP_BLOCK + 5, 64
    r2s = float(r2(TWO_POINT)[0, 0])
    for p in (1, 2, 7):
        xi, a = _gram_chunk(TWO_POINT, n, p, m, trial_stream(2024, 6, p))
        rng = trial_stream(2024, 6, p)
        s2 = np.zeros(m)
        a_want = np.zeros(m)
        for start in range(0, n, _STEP_BLOCK):
            k = min(_STEP_BLOCK, n - start)
            r = TWO_POINT.draw_radii(k * m, rng).reshape(k, m)
            u = uniform_sphere_cosine(p, k * m, rng).reshape(k, m)
            block_a = np.zeros(m)
            for j in range(k):
                s2 = s2 + np.sqrt(np.maximum(s2, 0.0)) * (2.0 * r[j] * u[j]) + r[j] * r[j]
                block_a = block_a + (r[j] * r[j] - r2s)
            a_want = a_want + block_a
        assert xi.shape == a.shape == (m, 1, 1)
        assert np.array_equal(xi.reshape(-1), s2 - n * r2s), p
        assert np.array_equal(a.reshape(-1), a_want), p


@pytest.mark.parametrize("nu, p", [(Q2_ATOMS, 3), (Q2_ATOMS, 1000), (Q3_ATOMS, 4)], ids=["q2-p3", "q2-p1000", "q3-p4"])
def test_gram_chunk_reproduces_matrix_recursion(nu, p):
    # the twin of the q = 1 test: a literal per-trial loop of c = L W r and
    # G <- G + c + c' + r r, with L = cholesky(G) and c = 0 while G = 0, over
    # the kernel's block-ordered draws: each block draws its radii, then its
    # rows.  n covers a full block and a tail block
    n, m, q = _STEP_BLOCK + 5, 16, nu.q
    r2m = r2(nu)
    xi, a = _gram_chunk(nu, n, p, m, trial_stream(2024, 7, p))
    rng = trial_stream(2024, 7, p)
    steps = []
    for start in range(0, n, _STEP_BLOCK):
        k = min(_STEP_BLOCK, n - start)
        r = nu.draw_radii(k * m, rng).reshape(q, q, k, m).transpose(2, 3, 0, 1)
        w = _stiefel_rows(p, q, q, k * m, rng).transpose(2, 0, 1).reshape(k, m, q, q)
        steps += zip(r, w)
    assert xi.shape == a.shape == (m, q, q)
    for t in range(m):
        g, a_want = np.zeros((q, q)), np.zeros((q, q))
        for r, w in steps:
            c = np.linalg.cholesky(g) @ w[t] @ r[t] if g.any() else np.zeros((q, q))
            g = g + c + c.T + r[t] @ r[t]
            a_want += r[t] @ r[t] - r2m
        for got, want in ((xi[t], g - n * r2m), (a[t], a_want)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), t


@pytest.mark.parametrize("nu, p", [(TWO_POINT, 1), (TWO_POINT, 2), (TWO_POINT, 1000), (Q2_ATOMS, 2), (Q2_ATOMS, 3),
                                   (Q2_ATOMS, 1000), (Q3_ATOMS, 3), (Q3_ATOMS, 4), (Q3_ATOMS, 1000)],
                         ids=["q1-p=1", "q1-p=2", "q1-p=1000", "q2-p=q", "q2-q<p<2q", "q2-p=1000",
                              "q3-p=q", "q3-q<p<2q", "q3-p=1000"])
def test_grouped_chunks_give_the_bytes_of_one_call_per_chunk(nu, p):
    # 1 300 trials are two full chunks and a partial one, stepped side by side
    # by one call; n covers a full block and a tail block
    n, trials = _STEP_BLOCK + 5, 1300
    bounds = [*range(0, trials, CHUNK_TRIALS), trials]

    def streams():
        return [trial_stream(2024, 8, k) for k in range(len(bounds) - 1)]

    grouped = _gram_chunk(nu, n, p, trials, *streams())
    alone = [_gram_chunk(nu, n, p, hi - lo, rng) for rng, lo, hi in zip(streams(), bounds, bounds[1:])]
    for got, parts in zip(grouped, zip(*alone)):
        assert np.array_equal(got, np.concatenate(parts))


@pytest.mark.parametrize("nu", [TWO_POINT, Q2_ATOMS], ids=["q1", "q2"])
def test_mean_z_sees_radii_scaled_by_one_percent(monkeypatch, nu):
    # E[Xi_n] = 0 exactly; radii x 1.01 shift it by n (1.01^2 - 1) r2, about
    # 12 standard errors of the mean at this shape (z grows as sqrt(trials))
    cfg = WalkConfig(nu=nu, n=50, p=10_000, trials=2000, regime="CLT_II", seed=11)
    assert verify_clt(cfg).max_abs_z_mean < 4.0
    draw = RadialLaw.draw_radii
    monkeypatch.setattr(RadialLaw, "draw_radii", lambda self, size, rng: 1.01 * draw(self, size, rng))
    assert verify_clt(cfg).max_abs_z_mean > 6.0


def test_predict_covariances_two_point_values():
    cov_a, cov_b, cov_xi = predict_covariances(TWO_POINT, 100, 1000)
    assert cov_xi[0, 0] / 100 == pytest.approx(1.792, rel=1e-12)
    assert cov_a[0, 0] == pytest.approx(100.0, rel=1e-12)


def test_predict_covariances_degenerate_cases():
    cov_a, cov_b, _ = predict_covariances(RadialLaw.point_mass(1.0), 50, 100)
    assert not cov_a.any()
    _, cov_b1, _ = predict_covariances(TWO_POINT, 1, 100)
    assert not cov_b1.any()


def test_estimate_covariance_constant_samples():
    est = estimate_covariance(np.ones((50, 3)))
    assert not est.cov.any()


def test_estimate_covariance_two_antipodal_samples():
    v = np.array([1.0, -2.0])
    est = estimate_covariance(np.stack([v, -v]))
    assert np.allclose(est.cov, 2.0 * np.outer(v, v))
    assert np.all(np.isinf(est.stderr))
    with pytest.raises(TooFewSamples):
        estimate_covariance(v[None, :])


def test_estimate_covariance_matches_known_law():
    rng = np.random.default_rng(98)
    m = rng.standard_normal((3, 3))
    cov = m @ m.T
    lfac = np.linalg.cholesky(cov)
    draws = rng.standard_normal((100_000, 3)) @ lfac.T
    est = estimate_covariance(draws)
    assert np.linalg.norm(est.cov - cov) / np.linalg.norm(cov) < 0.05


def test_jackknife_matches_literal_leave_one_out():
    rng = np.random.default_rng(97)
    for n in (3, 7):
        x = rng.standard_normal((n, 3)) ** 3
        loo = np.stack([np.cov(np.delete(x, i, axis=0), rowvar=False) for i in range(n)])
        want = np.sqrt((n - 1) / n * np.sum((loo - loo.mean(axis=0)) ** 2, axis=0))
        assert np.allclose(estimate_covariance(x).stderr, want, rtol=1e-12, atol=0.0), n


def test_jackknife_stderr_of_constant_magnitude_rows_is_zero():
    # one step of the two-point walk: Xi = r^2 - 2 is -1 or +1, so every
    # centred row has |c| = 1, every leave-one-out variance is the same, and
    # the closed form's rounding can fall below 0; it must not become NaN
    r = np.array([1.0, np.sqrt(3.0)])
    xi = np.tile(r * r - 2.0, 3)
    est = estimate_covariance(xi)
    assert np.all(np.isfinite(est.stderr))
    assert est.stderr[0, 0] <= 1e-7
    assert _compare_covariance(est.cov, est.stderr, np.array([[1.2]]), 0.05)[0] == "PASS"


def test_jackknife_stderr_scale_for_gaussian_variance():
    # for iid normals the variance estimator has stderr ~ sigma^2 sqrt(2/n)
    rng = np.random.default_rng(99)
    n = 20_000
    est = estimate_covariance(rng.standard_normal((n, 1)))
    theory = np.sqrt(2.0 / n)
    assert est.stderr[0, 0] == pytest.approx(theory, rel=0.3)


def test_zero_cross_covariance_of_parts():
    # exhaustively checkable corner: p = q = 1, n = 2, every step is +-r
    rng = np.random.default_rng(100)
    xi, a = _walk_chunk(TWO_POINT, 2, 1, 20_000, rng)
    av, bv = a.reshape(-1), (xi - a).reshape(-1)
    n = av.size
    prod = (av - av.mean()) * (bv - bv.mean())
    se = prod.std(ddof=1) / np.sqrt(n)
    assert abs(prod.mean()) <= 4.0 * se


def test_verify_clt_exact_check_passes():
    cfg = _cfg(n=30, p=900, trials=4096, seed=11, checks=("exact",))
    rep = verify_clt(cfg)
    assert rep.checks["exact"]["verdict"] == "PASS"
    assert rep.overall == "PASS"
    target = sigma_nu(TWO_POINT)[0, 0] + 29 / 900 * t_nu(TWO_POINT)[0, 0]
    assert rep.predicted_exact[0, 0] == pytest.approx(target, rel=1e-12)


def test_fast_path_p1_covariance_is_finite():
    # at p = 1 the cosine is +-1, so a step can cancel the walk to a rounding
    # error below zero; the square root of that must not turn into NaN.  At
    # 2048 trials the stderr (about 8 % of the variance) only allows a PASS
    # at a 20 % relative band; at the default 5 % the verdict is INCONCLUSIVE.
    cfg = WalkConfig(nu=TWO_POINT, n=50, p=1, trials=2048, regime="CLT_I", seed=20240811,
                     checks=("exact",), rel_tol=0.2)
    rep = verify_clt(cfg)
    assert np.all(np.isfinite(rep.empirical_cov))
    assert np.all(np.isfinite(rep.stderr))
    assert rep.checks["exact"]["verdict"] == "PASS"


def test_compare_covariance_nan_fails():
    se = np.array([[0.1]])
    for bad in (np.nan, np.inf, -np.inf):  # a non-finite estimate or stderr fails, whatever its band
        for pred in (np.zeros((1, 1)), np.ones((1, 1))):  # zero-prediction and band branches
            verdict, _ = _compare_covariance(np.array([[bad]]), se, pred, 0.05)
            assert verdict == "FAIL"
            verdict, _ = _compare_covariance(pred.copy(), np.array([[bad]]), pred, 0.05)
            assert verdict == "FAIL"


@pytest.mark.parametrize("n", [100, 1000, 20000])
@pytest.mark.parametrize("kind", ["normal", "shifted", "scaled", "tied"])
def test_ks_statistic_matches_scipy(n, kind):
    rng = np.random.default_rng(n)
    z = rng.standard_normal(n)
    z = {"normal": z, "shifted": z + 0.05, "scaled": 1.1 * z, "tied": np.round(z, 1)}[kind]
    assert abs(_ks_statistic(z) - stats.kstest(z, "norm").statistic) <= 1e-15


@pytest.mark.parametrize("n", [100, 1000, 1024, 2048, 20000])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_ks_projections_critical_value_matches_two_sided_exact(n, q):
    # q = 1, 2, 3 test k = 1, 3, 6 upper-triangle projections at level alpha / k each
    alpha, k = 1e-3, q * (q + 1) // 2
    samples = np.random.default_rng(q).standard_normal((n, q * q))
    stat, critical, per_projection = _ks_projections(samples, q, alpha)
    expected = stats.kstwo.isf(alpha / k, n)
    assert abs(critical - expected) <= 1e-6 * expected
    assert len(per_projection) == k and stat == max(per_projection)


def test_verify_clt_inconclusive_below_trial_floor():
    cfg = _cfg(trials=512, seed=3, checks=("exact",))
    rep = verify_clt(cfg)
    assert rep.overall in ("INCONCLUSIVE", "FAIL")
    assert rep.overall != "PASS"


def test_verify_clt_degenerate_limit_skips_ks():
    # point mass with a single step: Xi is identically zero, limit is a point mass
    cfg = WalkConfig(nu=RadialLaw.point_mass(1.0), n=1, p=16, trials=1024,
                     regime="CLT_II", seed=5, checks=("limit",))
    rep = verify_clt(cfg)
    assert rep.checks["ks"]["verdict"] == "SKIPPED"
    assert not rep.predicted_limit.any()
    assert not rep.empirical_cov.any()
    assert rep.checks["limit"]["verdict"] == "PASS"
    assert rep.checks["exact"]["verdict"] == "PASS"


def test_a_requested_check_that_is_skipped_gives_no_pass():
    # a point mass has Sigma = 0, so the CLT II limit is a point mass and KS has nothing to test
    cfg = WalkConfig(nu=RadialLaw.point_mass(1.0), n=10, p=100, trials=2000, regime="CLT_II", seed=5, checks=["ks"])
    rep = verify_clt(cfg)
    assert rep.checks["ks"]["verdict"] == "SKIPPED"
    assert (rep.overall, rep.decided_by) == ("INCONCLUSIVE", ["ks"])


def test_verify_clt_deterministic_and_worker_independent(forced_pools):
    cfg = _cfg(trials=CHUNK_TRIALS * 2 + 100, seed=21, checks=("exact",))
    reps = [verify_clt(cfg, workers).to_dict() for workers in (1, 2, 3)]
    assert forced_pools == [2, 3]
    assert reps[0] == reps[1] == reps[2]


def _record_pools(monkeypatch):
    """The size of each process pool the walk runner opens; the pools run their tasks in this process."""
    sizes = []

    class Recorder:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Recorder)
    return sizes


@pytest.fixture
def pool_sizes(monkeypatch):
    return _record_pools(monkeypatch)


def _covering_task(trials, tasks):
    """A stand-in chunk task: records its chunk count and returns the indices
    of the trials it covers, so the merged result shows order and coverage."""
    def task(args):
        _, first, last = args
        tasks.append(last - first)
        return np.arange(first * CHUNK_TRIALS, min(last * CHUNK_TRIALS, trials))[:, None]
    return task


@pytest.mark.parametrize("chunks", [1, 2, 7, 40])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_chunk_groups_spread_over_the_workers_in_chunk_order(monkeypatch, pool_sizes, workers, chunks):
    trials = chunks * CHUNK_TRIALS - 100
    # n = 20 never pays for a pool; n = 2000 pays for one worker per chunk from 2 chunks on
    for n, w in ((20, 1), (2000, min(workers, chunks))):
        tasks = []
        pool_sizes.clear()
        monkeypatch.setattr(clt_experiments, "_chunk_task", _covering_task(trials, tasks))
        merged = clt_experiments._run_all_chunks(_cfg(n=n, trials=trials), workers)
        assert np.array_equal(merged[:, 0], np.arange(trials))
        assert pool_sizes == ([w] if w > 1 else [])
        assert len(tasks) % w == 0  # so every worker gets a task when chunks >= workers
        assert max(tasks) <= _GROUP_CHUNKS and max(tasks) - min(tasks) <= 1


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(n=st.integers(1, 10**5), trials=st.integers(100, 40 * CHUNK_TRIALS), q=st.integers(1, 3),
       workers=st.integers(1, 64))
def test_each_pool_worker_gets_a_pools_worth_of_work(n, trials, q, workers):
    nu = {1: TWO_POINT, 2: Q2_ATOMS, 3: Q3_ATOMS}[q]
    trials, tasks = max(trials, 8 * q * q), []
    chunks, work = -(-trials // CHUNK_TRIALS), n * trials * q ** 3
    with pytest.MonkeyPatch.context() as mp:
        sizes = _record_pools(mp)
        mp.setattr(clt_experiments, "_chunk_task", _covering_task(trials, tasks))
        merged = clt_experiments._run_all_chunks(_cfg(nu=nu, n=n, p=10, trials=trials), workers)
    assert np.array_equal(merged[:, 0], np.arange(trials))
    assert len(sizes) <= 1 and sizes != [1]
    w = sizes[0] if sizes else 1
    assert 1 <= w <= min(workers, chunks)
    assert w == 1 or work >= w * _POOL_WORK
    assert w == min(workers, chunks) or work < (w + 1) * _POOL_WORK  # no worker that would pay is left out
    assert len(tasks) % w == 0


@pytest.mark.parametrize("workers", [0, -1, 2.5, True, pytest.param(WORKERS_CAP + 1, id="over-cap")])
def test_bad_workers_are_refused_before_any_pool_starts(monkeypatch, pool_sizes, workers):
    def ran(args):
        raise AssertionError("a chunk ran")

    monkeypatch.setattr(clt_experiments, "_chunk_task", ran)
    with pytest.raises(BadArity, match=r"^workers: expected "):
        verify_clt(_cfg(trials=4 * CHUNK_TRIALS), workers)
    assert pool_sizes == []


def test_pool_is_sized_by_the_work(tmp_path, pool_sizes):
    # a fork pool starts all its workers at its first task, so each walk entry
    # gets a pool of min(workers, its chunks, its trial-steps n trials q^3 over
    # _POOL_WORK), none when that is 1, and a run of moments and selftest
    # entries starts none
    law = {"family": "two_point", "params": {"r_a": 1.0, "p_a": 0.5, "r_b": 2.0}}

    def walk(eid, n, chunks, nu=law):
        return {"id": eid, "regime": "CLT_II", "n": n, "p": 10, "trials": chunks * CHUNK_TRIALS, "law": nu,
                "checks": ["exact"]}

    two = 2 * _POOL_WORK // (4 * CHUNK_TRIALS)
    walks = [walk("tiny", 3, 5),  # a tiny entry starts no pool at 3 workers
             walk("under_two", two - 1, 4),  # just under 2 _POOL_WORK: one worker
             walk("two", two, 4),
             walk("three", 3 * _POOL_WORK // (5 * CHUNK_TRIALS) + 1, 5),
             walk("q2_two", two // 8, 4, Q2_ATOMS.to_config())]  # q^3 = 8 times the work per trial-step
    rest = [{"id": "m", "kind": "moments", "law": law, "kappa": [[[0, 0], 2]], "p_grid": [2, 4, 8], "trials": 2000},
            {"id": "s", "kind": "selftest", "cases": 5}]
    for name, entries, sizes in (("walk", walks, [2, 3, 2]), ("rest", rest, [])):
        manifest = tmp_path / f"{name}.json"
        manifest.write_text(json.dumps({"entries": entries}))
        argv = ["clt", "--manifest", str(manifest), "--out", str(tmp_path / name), "--workers", "3"]
        assert cli.main(argv) in (0, 1)
        assert pool_sizes == sizes
        pool_sizes.clear()


def test_every_demo_walk_opens_a_pool_at_two_workers(monkeypatch, pool_sizes):
    # the demo's walks are large enough that a second worker pays for its start
    demo = Path(__file__).resolve().parents[1] / "manifests" / "demo.json"
    walks = [cfg for cfg in cli.load_manifest(demo)[2] if isinstance(cfg, WalkConfig)]
    monkeypatch.setattr(clt_experiments, "_chunk_task", lambda args: np.zeros((0, 1)))
    for cfg in walks:
        clt_experiments._run_all_chunks(cfg, 2)
    assert len(walks) == 4 and pool_sizes == [2, 2, 2, 2]


def test_a_task_holds_at_most_a_group_of_chunks_in_memory(monkeypatch):
    # the peak of each task, over what was allocated when it began, is that
    # of a group of chunks however many trials the entry has
    peaks = []
    task = clt_experiments._chunk_task

    def traced(args):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        out = task(args)
        peaks[-1] = max(peaks[-1], tracemalloc.get_traced_memory()[1] - start)
        return out

    monkeypatch.setattr(clt_experiments, "_chunk_task", traced)
    tracemalloc.start()
    try:
        for trials in (_GROUP_CHUNKS * CHUNK_TRIALS, 16 * _GROUP_CHUNKS * CHUNK_TRIALS):
            peaks.append(0)
            clt_experiments._run_all_chunks(WalkConfig(nu=Q3_ATOMS, n=4, p=5, trials=trials, regime="CLT_II"))
    finally:
        tracemalloc.stop()
    assert peaks[1] <= 1.05 * peaks[0], peaks


def test_a_walk_task_holds_two_block_buffers():
    # each stream writes its 2 W r and r r straight into the two (q, q, 32, m)
    # buffers that the steps read, so no staging copy of its radii or frames
    # lives as long as a block: q = 2, 4 096 trials in 8 streams
    buffer = 2 * 2 * 32 * 4096 * 8
    streams = [trial_stream(5, 0, k) for k in range(8)]
    tracemalloc.start()
    try:
        _gram_chunk(Q2_ATOMS, 32, 5, 4096, *streams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * buffer, peak / buffer


@pytest.mark.parametrize("nu", [TWO_POINT, Q2_ATOMS], ids=["q1", "q2"])
def test_a_walks_verdict_does_not_depend_on_the_scale_of_its_radii(nu):
    # radii times 2^k scale xi by 2^(2k) exactly, so every covariance by
    # 2^(4k): at k = 130 the jackknife's fourth powers would overflow, at
    # k = -130 underflow, were they not taken in power-of-two units
    def report(k):
        law = RadialLaw.from_atoms(np.ldexp(nu.radii, k), nu.weights)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return verify_clt(WalkConfig(nu=law, n=50, p=300, trials=2000, regime="CLT_II", seed=3))

    base = report(0)
    for k in (130, -130):
        scaled = report(k)
        assert (scaled.overall, scaled.decided_by) == (base.overall, base.decided_by)
        assert scaled.max_abs_z_mean == base.max_abs_z_mean
        assert scaled.checks["ks"]["stat"] == base.checks["ks"]["stat"]
        for name in ("exact", "limit"):
            assert scaled.checks[name]["verdict"] == base.checks[name]["verdict"]
            assert scaled.checks[name]["rel_frob_err"] == base.checks[name]["rel_frob_err"]
        assert np.array_equal(scaled.checks["exact"]["z_scores"], base.checks["exact"]["z_scores"])
        for field in ("empirical_cov", "stderr", "predicted_exact"):
            assert np.array_equal(getattr(scaled, field), np.ldexp(getattr(base, field), 4 * k)), field


def test_verify_clt_report_is_self_contained():
    cfg = _cfg(trials=1100, seed=33)
    rep = verify_clt(cfg)
    echo = rep.config
    again = verify_clt(WalkConfig(nu=RadialLaw.from_config(echo["law"]), n=echo["n"], p=echo["p"],
                                  trials=echo["trials"], regime=echo["regime"],
                                  seed=echo["seed"], stream_tag=echo["stream_tag"]))
    assert rep.to_dict() == again.to_dict()


def test_report_config_echoes_every_walk_config_field():
    echo = verify_clt(_cfg(n=2, trials=100)).config
    names = {f.name for f in dataclasses.fields(WalkConfig)} - {"nu"}
    assert set(echo) == names | {"law", "q", "c", "ks_alpha"}
    assert echo["checks"] == list(CHECKS) and echo["law"] == TWO_POINT.to_config()


def test_clt1_normalization_and_a_part_shrinks():
    # along a CLT I schedule the per-step part contributes p Sigma / n -> 0
    variances = []
    for n in (100, 400, 1600):
        p = int(np.ceil(np.sqrt(n)))
        rng = trial_stream(17, 0, n)
        _, a = _gram_chunk(TWO_POINT, n, p, 3000, rng)
        scale = np.sqrt(p) / n
        variances.append((scale * a.reshape(-1)).var(ddof=1))
    assert variances[0] > variances[1] > variances[2]


def test_moment_decay_slope_inverse_p():
    rng = np.random.default_rng(101)
    rep = moment_decay_experiment(MomentSweep(RadialLaw.point_mass(1.0), {(0, 0): 2},
                                              [8, 16, 32, 64, 128], 10_000), rng)
    assert rep.branch == "decay"
    assert abs(rep.slope - (-1.0)) <= 0.3
    for p, est, se in zip(rep.p_grid, rep.estimates, rep.stderrs):
        assert abs(est - 1.0 / p) <= 4.0 * se


def test_moment_decay_parity_branch():
    rng = np.random.default_rng(102)
    rep = moment_decay_experiment(MomentSweep(TWO_POINT, {(0, 0): 1, (1, 0): 2}, [10, 50], 5000), rng)
    assert rep.branch == "parity"
    assert rep.max_abs_z < 4.0


def test_moment_sweep_refuses_only_a_column_every_radius_leaves_zero():
    nu = RadialLaw.from_atoms(np.array([[[0.0, 0.0], [0.0, 1.0]]]), [1.0])
    assert MomentSweep(nu, {(0, 1): 2}, [4, 8, 16], 1000).kappa == (((0, 1), 2),)
    with pytest.raises(BadArity, match=r"^kappa: column 0 of every radius is 0"):
        MomentSweep(nu, {(0, 1): 1, (1, 0): 1}, [4, 8, 16], 1000)


def test_moment_decay_needs_three_points_for_slope():
    rng = np.random.default_rng(103)
    with pytest.raises(BadArity):
        moment_decay_experiment(MomentSweep(RadialLaw.point_mass(1.0), {(0, 0): 2}, [8], 2000), rng)


def test_trial_stream_reproducible_and_split():
    a = trial_stream(5, 1, 0).standard_normal(4)
    b = trial_stream(5, 1, 0).standard_normal(4)
    c = trial_stream(5, 1, 1).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # the stream's first doubles, pinned: a change of bit generator or of
    # seeding fails here instead of silently moving every report
    assert trial_stream(5, 1, 0).random(4).tolist() == [
        0.7742041803738812, 0.47072268318809307, 0.6958803443421149, 0.8165376458429717]


_COVARIANCE_DIGEST = """
import hashlib
import numpy as np
from radwalk.clt_experiments import estimate_covariance
est = estimate_covariance(np.random.Generator(np.random.PCG64(11)).standard_normal((20000, 1)))
print(hashlib.sha256(b"".join(x.tobytes() for x in (est.mean, est.cov, est.stderr))).hexdigest())
"""


def test_estimate_covariance_bytes_do_not_depend_on_blas_threads():
    # OpenBLAS splits a long sum by thread count, so a BLAS product would
    # give the same seed different trailing digits on different hosts
    src = str(Path(clt_experiments.__file__).resolve().parents[1])
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", _COVARIANCE_DIGEST], capture_output=True, text=True,
                             env=env, timeout=120, check=True)
        digests.add(run.stdout.strip())
    assert len(digests) == 1, digests

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Expected values are frozen from independent oracles:
closed-form law moments, the double-factorial family, explicit index loops,
and the exact finite-n variance identity
Var(vec Xi_n) = n Sigma + (n(n-1)/p) T.
"""

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from itertools import product
from math import factorial

import numpy as np

from radwalk import cli
from radwalk.clt_experiments import (
    MomentSweep,
    WalkConfig,
    moment_decay_experiment,
    trial_stream,
    verify_clt,
)
from radwalk.combinatorics import kron_multinomial_expand
from radwalk.gaussian_moments import (
    MatrixNormalSpec,
    moment_tensor,
    sample_matrix_normal,
    sum_moment,
    wick_moment,
)
from radwalk.kron_algebra import PermMat, hadamard, kron, kron_power, reorder_perm
from radwalk.matrix_core import frobenius_norm
from radwalk.radial_measures import (
    RadialLaw,
    phi,
    r2,
    radial_moment_mc,
    sample_radial_batch,
    sigma_nu,
    t_nu,
)

TWO_POINT = RadialLaw.two_point(1.0, 0.5, np.sqrt(3.0))
Q2_ATOMS = RadialLaw.from_atoms(
    np.array([[[1.5, 0.5], [0.5, 0.5]], [[1.0, 0.0], [0.0, 1.0]]]), [0.5, 0.5]
)
WORKERS = min(4, os.cpu_count() or 1)


def _pool():
    """A pool of WORKERS processes, or none on a single core."""
    return ProcessPoolExecutor(WORKERS) if WORKERS > 1 else nullcontext()


def _verdict(number, name, ok, detail):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_01_exact_algebra_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240801)
    reorder_ok = True
    for _ in range(200):
        k = int(rng.integers(1, 5))
        shapes = [(int(rng.integers(1, 4)), int(rng.integers(1, 4))) for _ in range(k)]
        mats = [rng.integers(-4, 5, size=sh).astype(float) for sh in shapes]
        sigma = rng.permutation(k)
        p, q = reorder_perm(shapes, sigma)
        lhs = mats[sigma[0]]
        for i in sigma[1:]:
            lhs = kron(lhs, mats[i])
        base = mats[0]
        for m in mats[1:]:
            base = kron(base, m)
        reorder_ok &= np.array_equal(lhs, p.apply_left(q.apply_right(base)))

    expand_worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        xs = [rng.standard_normal((2, 2)) for _ in range(n)]
        lhs = kron_multinomial_expand(xs, k)
        rhs = kron_power(sum(xs), k)
        expand_worst = max(expand_worst, float(np.abs(lhs - rhs).max()) / max(1.0, float(np.abs(rhs).max())))

    conj_ok = True
    for _ in range(100):
        rows, cols = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        a, b = rng.standard_normal((rows, cols)), rng.standard_normal((rows, cols))
        pm, qm = PermMat(rng.permutation(rows)), PermMat(rng.permutation(cols))
        lhs = pm.apply_left(qm.apply_right(hadamard(a, b)))
        rhs = hadamard(pm.apply_left(qm.apply_right(a)), pm.apply_left(qm.apply_right(b)))
        conj_ok &= np.array_equal(lhs, rhs)

    elapsed = time.perf_counter() - t0
    ok = reorder_ok and expand_worst <= 1e-12 and conj_ok and elapsed < 10.0
    assert _verdict(1, "exact-algebra", ok,
                    f"reorder exact={reorder_ok}, expand max rel={expand_worst:.2e}, "
                    f"conjugation exact={conj_ok}, {elapsed:.1f}s")


def test_criterion_02_wick_suite():
    t0 = time.perf_counter()
    wick_ok = True
    for sigma2 in (1.0, 2.0):
        spec = MatrixNormalSpec(1, np.zeros((1, 1)), np.array([[sigma2]]))
        for k in (2, 4, 6, 8):
            u = k // 2
            closed_form = sigma2**u * factorial(k) / (2**u * factorial(u))
            wick_ok &= wick_moment(spec, ((0, 0),) * k) == closed_form

    rng = np.random.default_rng(20240802)
    m = rng.standard_normal((4, 4))
    spec2 = MatrixNormalSpec(2, np.zeros((2, 2)), m @ m.T)
    n_draws = 1_000_000
    v = sample_matrix_normal(spec2, rng, size=n_draws).reshape(n_draws, 4)
    # E[v_a v_b v_c v_d] as the Gram matrix of the pairwise products v_a v_b
    o = (v[:, :, None] * v[:, None, :]).reshape(n_draws, 16)
    first = (o.T @ o / n_draws).reshape(4, 4, 4, 4)
    o = o * o
    second = (o.T @ o / n_draws).reshape(4, 4, 4, 4)
    se = np.sqrt(np.maximum(second - first**2, 0.0) / n_draws)
    max_z = 0.0
    for a, b, c, d in product(range(4), repeat=4):
        idx = tuple(divmod(x, 2) for x in (a, b, c, d))
        z = abs(first[a, b, c, d] - wick_moment(spec2, idx)) / se[a, b, c, d]
        max_z = max(max_z, float(z))

    sum_worst = 0.0
    for _ in range(50):
        q = int(rng.integers(1, 3))
        k = int(rng.integers(2, 5))
        covs = []
        for _ in range(2):
            g = rng.standard_normal((q * q, q * q))
            covs.append(g @ g.T)
        s1 = MatrixNormalSpec(q, np.zeros((q, q)), covs[0])
        s2 = MatrixNormalSpec(q, np.zeros((q, q)), covs[1])
        lhs = sum_moment(s1, s2, k)
        rhs = moment_tensor(MatrixNormalSpec(q, np.zeros((q, q)), covs[0] + covs[1]), k)
        sum_worst = max(sum_worst, float(np.abs(lhs - rhs).max()) / max(1.0, float(np.abs(rhs).max())))

    elapsed = time.perf_counter() - t0
    ok = wick_ok and max_z <= 5.0 and sum_worst <= 1e-10 and elapsed < 30.0
    assert _verdict(2, "wick-moments", ok,
                    f"double-factorial exact={wick_ok}, q=2 k=4 MC max|z|={max_z:.2f}, "
                    f"sum-moment max rel={sum_worst:.2e}, {elapsed:.1f}s")


def _batch_sqrt_psd(mats):
    w, v = np.linalg.eigh(mats)
    w = np.clip(w, 0.0, None)
    return np.einsum("mij,mj,mkj->mik", v, np.sqrt(w), v)


def test_criterion_03_radial_sampler_suite():
    t0 = time.perf_counter()
    n_draws = 100_000
    p = 50
    ok = True
    details = []
    for label, nu in (("q=1", TWO_POINT), ("q=2", Q2_ATOMS)):
        rng = trial_stream(20240803, 0, 1 if nu.q == 1 else 2)
        batch = sample_radial_batch(p, nu, n_draws, rng)
        radii_sq = np.einsum("mij,mjk->mik", batch.radii, batch.radii)
        roots = _batch_sqrt_psd(np.einsum("mpi,mpj->mij", batch.samples, batch.samples))
        num = np.linalg.norm((roots - batch.radii).reshape(n_draws, -1), axis=1)
        den = np.linalg.norm(batch.radii.reshape(n_draws, -1), axis=1)
        radius_ok = bool(np.all(num <= 1e-8 * den))
        for idx in range(0, n_draws, n_draws // 200):
            x = batch.samples[idx]
            radius_ok &= frobenius_norm(phi(x) - batch.radii[idx]) <= 1e-8 * frobenius_norm(batch.radii[idx])

        flat = batch.samples.reshape(n_draws, -1)
        mean_z = np.abs(flat.mean(axis=0)) / (flat.std(ddof=1, axis=0) / np.sqrt(n_draws))
        mean_ok = bool(np.all(mean_z <= 5.0))

        rows = batch.samples[:, 0, :]
        target = r2(nu) / p
        rc = rows - rows.mean(axis=0)
        emp = (rc.T @ rc) / (n_draws - 1)
        prods = np.einsum("ni,nj->nij", rc, rc)
        se = prods.std(ddof=1, axis=0) / np.sqrt(n_draws)
        row_ok = bool(np.all(np.abs(emp - target) <= 5.0 * se))

        ok &= radius_ok and mean_ok and row_ok
        details.append(f"{label}: radius={radius_ok}, mean max|z|={mean_z.max():.2f}, rowcov={row_ok}")
        del radii_sq
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    assert _verdict(3, "radial-sampler", ok, "; ".join(details) + f", {elapsed:.1f}s")


def _two_point_variance_run(n, p, trials, regime, seed, rel_tol, checks):
    cfg = WalkConfig(nu=TWO_POINT, n=n, p=p, trials=trials, regime=regime, seed=seed, checks=checks,
                     rel_tol=rel_tol, stream_tag=cli._entry_tag(f"acceptance-{n}-{p}"))
    with _pool() as pool:
        return verify_clt(cfg, pool=pool, workers=WORKERS)


def test_criterion_04_finite_n_variance_identity():
    t0 = time.perf_counter()
    cases = [(50, 500, 1.784), (100, 1000, 1.792), (200, 500, 4.184)]
    ok = True
    details = []
    for n, p, target in cases:
        formula = 1.0 + 8.0 * (n - 1) / p
        assert abs(formula - target) < 1e-12
        rep = _two_point_variance_run(n, p, 20_000, "CLT_II", 20240804, 0.03, ("exact",))
        assert abs(rep.predicted_exact[0, 0] - target) < 1e-12
        emp = rep.empirical_cov[0, 0]
        se = rep.stderr[0, 0]
        within = abs(emp - target) <= max(5.0 * se, 0.03 * target)
        ok &= within and rep.verdicts["exact_covariance"] == "PASS"
        details.append(f"(n={n},p={p}): {emp:.4f} vs {target}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    assert _verdict(4, "finite-n-variance", ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_05_clt2_c0_verdict():
    t0 = time.perf_counter()
    rep = _two_point_variance_run(60, 3600, 20_000, "CLT_II", 20240805, 0.05, ("limit", "ks"))
    emp = rep.empirical_cov[0, 0]
    var_ok = abs(emp - 1.0) <= 0.05 * 1.0
    ks_ok = rep.ks_stat < rep.ks_critical
    elapsed = time.perf_counter() - t0
    ok = var_ok and ks_ok and elapsed < 300.0
    _verdict(5, "clt2-c0", ok,
             f"var {emp:.4f} vs 1.0 within 5%={var_ok} "
             f"(exact finite-n value is 1+8*59/3600={1 + 8 * 59 / 3600:.4f}), "
             f"KS {rep.ks_stat:.5f} < {rep.ks_critical:.5f}={ks_ok}, {elapsed:.1f}s")
    assert var_ok, (
        "criterion as specified is unattainable: the exact finite-n variance "
        f"is 1 + 8*59/3600 = {1 + 8 * 59 / 3600:.4f}, which is 13% above the "
        f"1.0 limit target; measured {emp:.4f}"
    )
    assert ks_ok


def test_criterion_06_clt2_mixed_regime_verdict():
    t0 = time.perf_counter()
    rep = _two_point_variance_run(400, 400, 20_000, "MIXED", 20240806, 0.05, ("exact",))
    emp = rep.empirical_cov[0, 0]
    exact_target = 8.98
    limit_target = 9.0
    exact_ok = abs(emp - exact_target) <= 0.05 * exact_target
    limit_ok = abs(emp - limit_target) <= 0.07 * limit_target
    elapsed = time.perf_counter() - t0
    ok = exact_ok and limit_ok and elapsed < 300.0
    assert _verdict(6, "clt2-mixed", ok,
                    f"var {emp:.4f} vs exact {exact_target} (5%)={exact_ok}, "
                    f"vs limit {limit_target} (7%)={limit_ok}, {elapsed:.1f}s")


def test_criterion_07_clt1_verdict():
    t0 = time.perf_counter()
    n, p = 10_000, 100
    rep = _two_point_variance_run(n, p, 10_000, "CLT_I", 20240807, 0.07, ("exact",))
    emp = rep.empirical_cov[0, 0]
    exact_target = 8.0 * (n - 1) / n + p * 1.0 / n
    assert abs(exact_target - 8.009) < 2e-4
    exact_ok = abs(emp - exact_target) <= 0.07 * exact_target
    limit_ok = abs(emp - 8.0) <= 0.07 * 8.0
    elapsed = time.perf_counter() - t0
    ok = exact_ok and limit_ok and elapsed < 600.0
    assert _verdict(7, "clt1", ok,
                    f"var {emp:.4f} vs exact {exact_target:.4f} (7%)={exact_ok}, "
                    f"limit 8.0={limit_ok}, {elapsed:.1f}s")


def _oracle_sigma_t_q2():
    weights = [0.5, 0.5]
    radii = [np.array([[1.5, 0.5], [0.5, 0.5]]), np.eye(2)]
    squares = [r @ r for r in radii]
    mean = sum(w * s for w, s in zip(weights, squares))
    sig = np.zeros((4, 4))
    for w, s in zip(weights, squares):
        dv = (s - mean).reshape(-1)
        sig += w * np.outer(dv, dv)
    t = np.zeros((4, 4))
    for i, j, k, l in product(range(2), repeat=4):
        t[i * 2 + j, k * 2 + l] = mean[i, k] * mean[j, l] + mean[i, l] * mean[j, k]
    return sig, t


def test_criterion_08_matrix_case_q2():
    t0 = time.perf_counter()
    n, p = 100, 1000
    sig, t = _oracle_sigma_t_q2()
    assert np.allclose(sig, sigma_nu(Q2_ATOMS), atol=1e-14)
    assert np.allclose(t, t_nu(Q2_ATOMS), atol=1e-14)
    target = sig + (n - 1) / p * t
    cfg = WalkConfig(nu=Q2_ATOMS, n=n, p=p, trials=10_000, regime="CLT_II", seed=20240808,
                     checks=("exact",), rel_tol=0.10, stream_tag=cli._entry_tag("acceptance-q2"))
    with _pool() as pool:
        rep = verify_clt(cfg, pool=pool, workers=WORKERS)
    assert np.allclose(rep.predicted_exact, target, atol=1e-12)
    rel = frobenius_norm(rep.empirical_cov - target) / frobenius_norm(target)
    elapsed = time.perf_counter() - t0
    ok = rel <= 0.10 and elapsed < 600.0
    assert _verdict(8, "matrix-q2", ok, f"rel Frobenius {rel:.4f} <= 0.10, {elapsed:.1f}s")


def _random_odd_kappa(rng, p, q):
    while True:
        n_terms = int(rng.integers(1, 4))
        kap = {}
        for _ in range(n_terms):
            key = (int(rng.integers(0, min(p, 6))), int(rng.integers(0, q)))
            kap[key] = kap.get(key, 0) + int(rng.integers(1, 3))
        if sum(kap.values()) <= 5:
            rows = {}
            for (i, _), e in kap.items():
                rows[i] = rows.get(i, 0) + e
            if any(s % 2 == 1 for s in rows.values()):
                return kap


def test_criterion_09_moment_parity_and_decay():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240809)
    max_z = 0.0
    for case in range(20):
        nu = TWO_POINT if case % 2 == 0 else Q2_ATOMS
        kap = _random_odd_kappa(rng, 6, nu.q)
        for p in (10, 50):
            est, se = radial_moment_mc(p, nu, kap, 20_000, rng)
            max_z = max(max_z, abs(est) / se)
    parity_ok = max_z < 4.0

    grid = [8, 16, 32, 64, 128]
    delta = RadialLaw.point_mass(1.0)
    rep1 = moment_decay_experiment(MomentSweep(delta, {(0, 0): 2}, grid, 40_000),
                                   trial_stream(20240810, 1, 0))
    slope1_ok = abs(rep1.slope - (-1.0)) <= 0.5
    pointwise_ok = all(abs(est - 1.0 / p) <= 4.0 * se
                       for p, est, se in zip(grid, rep1.estimates, rep1.stderrs))
    rep2 = moment_decay_experiment(MomentSweep(delta, {(0, 0): 2, (1, 0): 2}, grid, 40_000),
                                   trial_stream(20240810, 2, 0))
    slope2_ok = abs(rep2.slope - (-2.0)) <= 0.5
    elapsed = time.perf_counter() - t0
    ok = parity_ok and slope1_ok and pointwise_ok and slope2_ok and elapsed < 300.0
    assert _verdict(9, "moment-parity-decay", ok,
                    f"parity max|z|={max_z:.2f}, slopes {rep1.slope:.2f}/{rep2.slope:.2f}, "
                    f"pointwise 1/p={pointwise_ok}, {elapsed:.1f}s")


def test_criterion_10_determinism_across_worker_counts(tmp_path):
    entries = [
        {"id": "walk1", "kind": "clt", "regime": "CLT_II", "n": 25, "p": 625, "trials": 1500,
         "law": TWO_POINT.to_config(), "checks": ["exact"]},
        {"id": "walk2", "kind": "clt", "regime": "MIXED", "n": 10, "p": 10, "trials": 1200,
         "law": Q2_ATOMS.to_config(), "checks": ["exact"]},
        {"id": "parity", "kind": "moments", "law": TWO_POINT.to_config(),
         "kappa": [[[0, 0], 1], [[1, 0], 2]], "p_grid": [10], "trials": 2000},
        {"id": "algebra", "kind": "selftest", "cases": 25},
    ]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"suite": "determinism", "seed": 20240810, "entries": entries}))
    cli.cmd_clt(manifest, tmp_path / "w1", workers=1)
    cli.cmd_clt(manifest, tmp_path / "w4", workers=4)
    names = ["summary.csv", "walk1.json", "walk2.json", "parity.json", "algebra.json"]
    same = all((tmp_path / "w1" / name).read_bytes() == (tmp_path / "w4" / name).read_bytes()
               for name in names)
    assert _verdict(10, "determinism", same, f"{len(names)} files byte-identical across 1 vs 4 workers")

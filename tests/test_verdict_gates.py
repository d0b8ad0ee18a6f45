"""Each rule that turns a walk's statistics into a verdict, pinned just
inside and just outside its boundary, mostly on synthetic inputs: the
covariance band and its INCONCLUSIVE gate (a non-finite estimate is pinned in
test_clt_experiments.py), the 1 000-trial floor, the KS
critical value, the CLT normalization and limit ratio, the mean's z-score
and the moment sweep's one check, each folded by ``judge``."""

from math import sqrt

import numpy as np
import pytest

from radwalk import clt_experiments
from radwalk.clt_experiments import (MomentDecayReport, WalkConfig, _compare_covariance, _moment_checks,
                                     _smirnov_isf, judge, verify_clt)
from radwalk.radial_measures import RadialLaw, sigma_nu, t_nu

TWO_POINT = RadialLaw.two_point(1.0, 0.5, np.sqrt(3.0))
Q2_ATOMS = RadialLaw.from_atoms(
    np.array([[[1.5, 0.5], [0.5, 0.5]], [[1.0, 0.0], [0.0, 1.0]]]), [0.5, 0.5]
)
EPS = 1e-9
# the family-wise level of the KS check that the README states
README_KS_ALPHA = 1e-3

# A prediction whose off-diagonal entry is small, so its band is 5 SE; the
# diagonal's band is the rel_tol floor.  SE 0.004 is under rel_tol scale / 2 = 0.025.
PRED = np.array([[1.0, 0.01], [0.01, 1.0]])
SE = np.full((2, 2), 0.004)
REL_TOL = 0.05


def _shifted(entries, delta):
    emp = PRED.copy()
    for i, j in entries:
        emp[i, j] += delta
    return emp


@pytest.mark.parametrize("factor, verdict", [(1 - EPS, "PASS"), (1 + EPS, "FAIL")], ids=["inside", "outside"])
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["above", "below"])
def test_band_of_five_stderr_where_the_rel_tol_floor_is_smaller(factor, verdict, sign):
    # off-diagonal band max(5 * 0.004, 0.05 * 0.01) = 0.02, set by the stderr
    emp = _shifted([(0, 1), (1, 0)], sign * 5.0 * 0.004 * factor)
    assert _compare_covariance(emp, SE, PRED, REL_TOL)[0] == verdict


@pytest.mark.parametrize("factor, verdict", [(1 - EPS, "PASS"), (1 + EPS, "FAIL")], ids=["inside", "outside"])
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["above", "below"])
def test_band_of_the_rel_tol_floor_where_five_stderr_is_smaller(factor, verdict, sign):
    # diagonal band max(5 * 0.004, 0.05 * 1.0) = 0.05, set by rel_tol
    emp = _shifted([(0, 0)], sign * REL_TOL * 1.0 * factor)
    assert _compare_covariance(emp, SE, PRED, REL_TOL)[0] == verdict


@pytest.mark.parametrize("factor, verdict", [(1 - EPS, "PASS"), (1 + EPS, "INCONCLUSIVE")],
                         ids=["inside", "outside"])
def test_inconclusive_when_the_largest_stderr_exceeds_half_the_relative_band(factor, verdict):
    # the matrix scale is the largest |entry|, here the negative -4: the gate is 0.05 * 4 / 2 = 0.1
    pred = np.array([[1.0, -4.0], [-4.0, 2.0]])
    se = np.full((2, 2), 0.01)
    se[1, 1] = REL_TOL * 4.0 / 2.0 * factor
    assert _compare_covariance(pred.copy(), se, pred, REL_TOL)[0] == verdict


@pytest.mark.parametrize("factor, verdict", [(1 - EPS, "PASS"), (1 + EPS, "FAIL")], ids=["inside", "outside"])
def test_a_zero_prediction_is_judged_by_five_stderr_alone(factor, verdict):
    # no rel_tol floor and no INCONCLUSIVE gate: a stderr of 1 still passes
    pred, se = np.zeros((2, 2)), np.full((2, 2), 1.0)
    emp = np.full((2, 2), 0.1)
    emp[0, 1] = emp[1, 0] = -5.0 * factor
    verdict_got, rel_frob = _compare_covariance(emp, se, pred, REL_TOL)
    assert verdict_got == verdict
    assert rel_frob == pytest.approx(np.sqrt(0.02 + 50.0 * factor ** 2), rel=1e-15)


def _all_pass_cfg(trials):
    # at this shape every check passes with room at 999 and 1 000 trials: the
    # largest stderr is under half its gate and the KS distance a third of its critical value
    return WalkConfig(nu=TWO_POINT, n=50, p=10_000, trials=trials, regime="CLT_II", seed=0, rel_tol=0.2)


@pytest.mark.parametrize("trials, overall", [(999, "INCONCLUSIVE"), (1000, "PASS")])
def test_every_check_passing_gives_pass_from_a_thousand_trials(trials, overall):
    rep = verify_clt(_all_pass_cfg(trials))
    assert {check["verdict"] for check in rep.checks.values()} == {"PASS"}
    assert rep.overall == overall
    assert rep.decided_by == (["trials"] if trials < 1000 else ["exact", "limit", "ks"])


@pytest.mark.parametrize("nu, k", [(TWO_POINT, 1), (Q2_ATOMS, 3)], ids=["q1-k1", "q2-k3"])
@pytest.mark.parametrize("factor, overall", [(1 - EPS, "PASS"), (1 + EPS, "FAIL")], ids=["below", "above"])
def test_ks_statistic_against_the_critical_value_split_over_projections(monkeypatch, nu, k, factor, overall):
    trials = 1000
    critical = _smirnov_isf(trials, README_KS_ALPHA / k / 2)
    monkeypatch.setattr(clt_experiments, "_ks_statistic", lambda z: critical * factor)
    cfg = WalkConfig(nu=nu, n=5, p=50, trials=trials, regime="CLT_II", seed=1, checks=("ks",))
    rep = verify_clt(cfg)
    assert (rep.overall, rep.decided_by) == (overall, ["ks"])


@pytest.mark.parametrize("regime, scale, c", [
    ("CLT_I", sqrt(7) / 3, 3 / 7),
    ("CLT_II", 1 / sqrt(3), 0.0),
    ("MIXED", 1 / sqrt(3), 3 / 7),
])
def test_normalization_and_limit_ratio_are_stated_exactly(regime, scale, c):
    cfg = WalkConfig(nu=TWO_POINT, n=3, p=7, trials=100, regime=regime)
    assert (cfg.scale, cfg.limit_c) == (scale, c)
    rep = verify_clt(cfg)
    assert rep.normalization == scale and rep.config["c"] == c
    limit = t_nu(TWO_POINT) if regime == "CLT_I" else sigma_nu(TWO_POINT) + c * t_nu(TWO_POINT)
    assert np.array_equal(rep.predicted_limit, limit)


def test_mean_z_is_the_mean_over_its_standard_error_from_all_trials(monkeypatch):
    # n = 4 at CLT II scales Xi by 1/2, so the samples are 0, 2, 0, 2, ...: mean 1,
    # sample variance 100/99, and z = 1 / sqrt((100/99) / 100) = sqrt(99)
    xi = np.tile([0.0, 4.0], 50)[:, None]
    monkeypatch.setattr(clt_experiments, "_run_all_chunks", lambda cfg, workers=1: xi)
    cfg = WalkConfig(nu=TWO_POINT, n=4, p=10, trials=100, regime="CLT_II", checks=("exact",))
    assert verify_clt(cfg).max_abs_z_mean == pytest.approx(sqrt(99), rel=1e-13)


def _decay(slope, weight=2):
    return MomentDecayReport("decay", [8, 16, 32], [0.1] * 3, [0.01] * 3, weight, slope=slope)


def _parity(z):
    return MomentDecayReport("parity", [10, 50], [0.0] * 2, [1.0] * 2, 3, max_abs_z=z)


def _sweep_verdict(report):
    """The verdict ``judge`` gives a sweep's one check, which it names."""
    checks = _moment_checks(report)
    overall, decided_by = judge(checks, checks)
    assert list(checks) == decided_by == [report.branch] and checks[report.branch]["verdict"] == overall
    return overall


@pytest.mark.parametrize("weight", [2, 4])
@pytest.mark.parametrize("side", [1.0, -1.0], ids=["steeper", "flatter"])
@pytest.mark.parametrize("offset, verdict", [(0.5 - 1e-6, "PASS"), (0.5 + 1e-6, "FAIL")], ids=["inside", "outside"])
def test_moment_decay_slope_within_half_of_minus_weight_over_two(weight, side, offset, verdict):
    assert _sweep_verdict(_decay(-weight / 2 - side * offset, weight)) == verdict


@pytest.mark.parametrize("z, verdict", [(4.0 - 1e-9, "PASS"), (4.0, "FAIL"), (4.0 + 1e-9, "FAIL")])
def test_moment_parity_passes_under_four_z(z, verdict):
    assert _sweep_verdict(_parity(z)) == verdict


@pytest.mark.parametrize("report, verdict", [
    (_parity(np.nextafter(4.0, 0.0)), "PASS"),
    (_parity(4.0), "FAIL"),
    (_decay(-1.5), "PASS"),
    (_decay(-0.5), "PASS"),
    (_decay(-1.5 - 1e-12), "FAIL"),
    (_decay(-0.5 + 1e-12), "FAIL"),
    (_decay(-2.5, weight=4), "PASS"),
    (_decay(-1.5 + 1e-12, weight=4), "FAIL"),
], ids=["z-under-4", "z-at-4", "slope-target-less-half", "slope-target-plus-half", "slope-beyond-minus",
        "slope-beyond-plus", "weight-4-at-edge", "weight-4-beyond"])
def test_moment_report_verdict_at_its_boundaries(report, verdict):
    # parity passes for max |z| < 4, decay for |slope + weight/2| <= 0.5
    assert _sweep_verdict(report) == verdict

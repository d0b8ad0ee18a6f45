"""Each correctness check of the benchmark rejects a wrong output.

Run from the root of a checkout: ``python3 -m pytest bench/tests -q``.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from radwalk import cli  # noqa: E402
from radwalk.radial_measures import RadialLaw, r2, sigma_nu, t_nu  # noqa: E402

TWO_POINT = {"family": "two_point", "params": {"r_a": 1.0, "p_a": 0.5, "r_b": 1.7}}
Q2 = {"q": 2, "atoms": [{"weight": 0.5, "radius": [1.5, 0.5, 0.5, 0.5]},
                        {"weight": 0.5, "radius": [1.0, -0.25, -0.25, 1.2]}]}
MANIFEST = {"suite": "t", "seed": 11, "entries": [
    {"id": "walk", "kind": "clt", "regime": "MIXED", "n": 40, "p": 60, "trials": 1024,
     "law": TWO_POINT, "checks": ["exact"]},
    {"id": "walk_q2", "kind": "clt", "regime": "CLT_II", "n": 5, "p": 20, "trials": 600,
     "law": Q2, "checks": ["exact"]},
    {"id": "decay", "kind": "moments", "law": Q2, "kappa": [[[0, 0], 2]], "p_grid": [4, 8, 16], "trials": 4000},
    {"id": "parity", "kind": "moments", "law": TWO_POINT, "kappa": [[[0, 0], 1], [[1, 0], 2]],
     "p_grid": [4, 8], "trials": 4000},
    {"id": "algebra", "kind": "selftest", "cases": 10},
]}


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("reports")
    (tmp / "m.json").write_text(json.dumps(MANIFEST))
    cli.cmd_clt(tmp / "m.json", tmp / "out", workers=1)
    return tmp / "out"


def _doc(out, eid):
    return json.loads((out / f"{eid}.json").read_text())


def _entry(eid):
    return next(e for e in MANIFEST["entries"] if e["id"] == eid)


@pytest.mark.parametrize("law", [TWO_POINT, Q2, {"family": "uniform_interval", "params": {"a": 0.5, "b": 1.25}},
                                 {"family": "point_mass", "params": {"radius": 1.3}}])
def test_oracle_matches_the_program_moment_functionals(law):
    nu = RadialLaw.from_config(law)
    m, sigma, t = checks.law_moments(law)
    np.testing.assert_allclose(m, r2(nu), rtol=1e-13)
    np.testing.assert_allclose(sigma, sigma_nu(nu), rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(t, t_nu(nu), rtol=1e-13)


def test_correct_outputs_pass(out):
    assert checks.check_outputs(MANIFEST, out) == {e["id"]: [] for e in MANIFEST["entries"]}


@pytest.mark.parametrize("eid", ["walk", "walk_q2"])
def test_perturbed_covariance_is_rejected(out, eid):
    doc = _doc(out, eid)
    rep = doc["report"]
    bad = copy.deepcopy(doc)
    emp, se = np.array(rep["empirical_cov"]), np.array(rep["stderr"])
    bad["report"]["empirical_cov"] = (emp + 7.0 * se.max() * np.eye(len(emp))).tolist()
    assert checks.check_clt(_entry(eid), bad)
    bad = copy.deepcopy(doc)
    bad["report"]["predicted_exact"] = (np.array(rep["predicted_exact"]) * (1 + 1e-9)).tolist()
    assert checks.check_clt(_entry(eid), bad) == ["predicted_exact differs from scale^2 (n Sigma + n(n-1)/p T)"]


def test_nan_covariance_is_rejected_even_when_the_program_says_pass(out):
    bad = copy.deepcopy(_doc(out, "walk"))
    bad["report"]["empirical_cov"] = [[float("nan")]]
    bad["report"]["overall"] = "PASS"
    assert checks.check_clt(_entry("walk"), bad) == ["empirical covariance or its stderr is not finite"]


def test_moment_estimates_off_their_exact_values_are_rejected(out):
    for eid in ("decay", "parity"):
        bad = copy.deepcopy(_doc(out, eid))
        rep = bad["report"]
        rep["estimates"][-1] += 7.0 * rep["stderrs"][-1]
        assert checks.check_moments(_entry(eid), bad), eid
    for eid in ("decay", "parity"):
        bad = copy.deepcopy(_doc(out, eid))
        rep = bad["report"]
        rep["estimates"] = [e + 4.5 * s for e, s in zip(rep["estimates"], rep["stderrs"])]
        assert checks.check_moments(_entry(eid), bad), eid
    bad = copy.deepcopy(_doc(out, "parity"))
    bad["report"]["branch"] = "decay"
    assert checks.check_moments(_entry("parity"), bad)


def test_failed_selftest_suite_is_rejected(out):
    bad = copy.deepcopy(_doc(out, "algebra"))
    bad["suites"][1]["passed"] = False
    assert checks.check_selftest(_entry("algebra"), bad)


def test_summary_verdict_must_match_the_report(out, tmp_path):
    shutil.copytree(out, tmp_path / "o")
    csv = tmp_path / "o" / "summary.csv"
    csv.write_text(csv.read_text().replace(",PASS\n", ",FAIL\n").replace(",INCONCLUSIVE\n", ",FAIL\n"))
    fails = checks.check_outputs(MANIFEST, tmp_path / "o")
    assert fails["walk"] and fails["walk_q2"] and not fails["decay"]


def test_parallel_output_differing_by_one_byte_is_rejected(out, tmp_path):
    other = tmp_path / "par"
    shutil.copytree(out, other)
    assert checks.differing_entries(MANIFEST, out, other) == set()
    data = bytearray((other / "decay.json").read_bytes())
    data[-2] ^= 1
    (other / "decay.json").write_bytes(bytes(data))
    assert checks.differing_entries(MANIFEST, out, other) == {"decay"}
    (other / "summary.csv").write_text((out / "summary.csv").read_text() + " ")
    assert checks.differing_entries(MANIFEST, out, other) == {"decay", "walk", "walk_q2"}
    (other / "algebra.json").unlink()
    assert "algebra" in checks.differing_entries(MANIFEST, out, other)


def test_span_self_times_add_up():
    tracer = spans.Tracer()
    leaf = tracer.wrap("radial_measures.draw_radii", lambda: sum(range(20000)))

    def body():
        leaf()
        leaf()
        return sum(range(20000))

    tracer.wrap("clt_experiments.verify_clt", body)()
    summary = tracer.summary()
    (name, start, end, parent), *children = tracer.spans
    assert name == "clt_experiments.verify_clt" and parent == -1 and [c[3] for c in children] == [0, 0]
    inner = sum(e - s for _, s, e, _ in children)
    assert summary["clt_experiments.verify_clt_s"] == end - start
    assert summary["clt_experiments.walk_self_s"] + inner == pytest.approx(end - start, abs=1e-12)
    assert summary["radial_measures.draw_radii_calls"] == 2


def test_traced_pass_counts_work_and_leaves_outputs_unchanged(out, tmp_path):
    (tmp_path / "m.json").write_text(json.dumps(MANIFEST))
    original = cli.verify_clt
    tracer = spans.Tracer()
    with spans.patched(tracer):
        tracer.wrap("cli.cmd_clt", cli.cmd_clt)(tmp_path / "m.json", tmp_path / "traced", workers=1)
    assert cli.verify_clt is original
    assert checks.differing_entries(MANIFEST, out, tmp_path / "traced") == set()
    summary = tracer.summary()
    assert summary["clt_experiments.trials"] == 1024 + 600
    assert summary["clt_experiments.steps"] == 1024 * 40 + 600 * 5
    assert summary["radial_measures.sample_bytes_max"] == 4000 * 16 * 2 * 8
    assert summary["clt_experiments.jackknife_bytes"] == 600 * 4 * 4 * 8
    assert summary["cli.selftest_s"] > 0 and summary["kron_algebra.s"] > 0


def test_workloads_repeat_per_seed_and_keep_their_sizes():
    for name in workloads.WORKLOADS:
        a, b, c = (workloads.build(name, s) for s in (1, 1, 2))
        assert a == b and a != c
        sizes = [[{k: v for k, v in e.items() if k != "law"} for e in doc["entries"]] for _, doc in a]
        other = [[{k: v for k, v in e.items() if k != "law"} for e in doc["entries"]] for _, doc in c]
        assert sizes == other
        for (_, doc), (_, doc2) in zip(a, c):
            if any(e["id"] in workloads.KNOWN_FAULTS.get(name, ()) for e in doc["entries"]):
                assert doc == doc2


def test_pass_time_is_scaled_by_the_calibration_and_skips_the_warm_up_round():
    ref = calibrate.REFERENCE_S
    rounds = [{"w1": {"a": [9.0, None, None], "b": [9.0, None, None]}},
              {"w1": {"a": [1.0, ref, ref], "b": [2.0, 2 * ref, 2 * ref]}},
              {"w1": {"a": [1.2, ref, ref], "b": [1.0, ref, ref]}},
              {"w1": {"a": [5.0, ref, 3 * ref], "b": [1.0, ref, ref]}}]
    # a scales to 1.0, 1.2, 2.5 (median 1.2); b to 1.0 in every round.
    assert run._pass_time(rounds, "w1") == pytest.approx(2.2)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "walk_scalar", "--seed", "1",
                           "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_tracing_skips_a_name_the_program_no_longer_has(monkeypatch, capsys):
    monkeypatch.delattr(cli, "kron_multinomial_expand")
    original = cli.verify_clt
    with spans.patched(spans.Tracer()):
        assert cli.verify_clt is not original
    assert cli.verify_clt is original
    assert "kron_multinomial_expand not found" in capsys.readouterr().err

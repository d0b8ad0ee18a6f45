import json
import multiprocessing
import os
import subprocess
import sys
import threading
from concurrent.futures import process
from pathlib import Path

import numpy as np
import pytest

from radwalk import cli, clt_experiments
from radwalk.clt_experiments import CHUNK_TRIALS, WORKERS_CAP, MomentSweep, WalkConfig
from radwalk.radial_measures import SAMPLE_BYTES_CAP


TWO_POINT_LAW = {"family": "two_point",
                 "params": {"r_a": 1.0, "p_a": 0.5, "r_b": 1.7320508075688772}}


def _write_manifest(path, entries, seed=7, **extra):
    doc = {"suite": "test", "seed": seed, "entries": entries}
    doc.update(extra)
    path.write_text(json.dumps(doc))
    return path


def test_empty_manifest_gives_header_only_csv(tmp_path):
    manifest = _write_manifest(tmp_path / "m.json", [])
    code = cli.cmd_clt(manifest, tmp_path / "out", workers=1)
    assert code == 0
    lines = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert lines[0].startswith("# tool=radwalk")
    assert lines[1] == ",".join(cli.CSV_COLUMNS)
    assert len(lines) == 2


# a missing or misspelt entries key would otherwise run nothing and exit 0
@pytest.mark.parametrize("doc, message", [
    ({"suite": "t", "seed": 7}, "entries: missing"),
    ({"suite": "t", "seed": 7, "entires": []}, "entires: unknown field"),
    ({"suite": "t", "seeds": 3, "entries": []}, "seeds: unknown field"),
], ids=["no-entries", "misspelt-entries", "unknown-top-level-key"])
def test_bad_manifest_top_level_is_config_error(tmp_path, capsys, doc, message):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(doc))
    code = cli.main(["clt", "--manifest", str(manifest), "--out", str(tmp_path / "out")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_clt_entry_reports_limit_prediction_of_one(tmp_path):
    entries = [{"id": "c0", "kind": "clt", "regime": "CLT_II", "n": 20, "p": 400,
                "trials": 256, "law": TWO_POINT_LAW}]
    manifest = _write_manifest(tmp_path / "m.json", entries)
    cli.cmd_clt(manifest, tmp_path / "out", workers=1)
    rows = (tmp_path / "out" / "summary.csv").read_text().splitlines()[2:]
    fields = rows[0].split(",")
    assert fields[0] == "c0"
    assert float(fields[cli.CSV_COLUMNS.index("predicted_var")]) == 1.0
    report = json.loads((tmp_path / "out" / "c0.json").read_text())
    assert report["meta"]["master_seed"] == 7
    assert report["report"]["config"]["law"] == TWO_POINT_LAW
    assert float(fields[cli.CSV_COLUMNS.index("max_abs_z_mean")]) == report["report"]["max_abs_z_mean"]
    assert fields[-1] == report["report"]["overall"]  # the verdict stays the last column


def test_summary_rows_end_in_the_report_verdict_and_hold_no_comma(tmp_path):
    law_q1_point = {"family": "point_mass", "params": {"radius": 1.0}}
    entries = [
        # under the trial floor: INCONCLUSIVE, decided by the inconclusive checks or the floor
        {"id": "few", "kind": "clt", "regime": "CLT_II", "n": 20, "p": 400, "trials": 256, "law": TWO_POINT_LAW},
        # every check passes: PASS, decided by all three
        {"id": "all", "kind": "clt", "regime": "CLT_II", "n": 50, "p": 10_000, "trials": 1000,
         "law": TWO_POINT_LAW, "rel_tol": 0.2},
        # a point mass has a point-mass limit, so the requested KS check is SKIPPED
        {"id": "skip", "kind": "clt", "regime": "CLT_II", "n": 1, "p": 16, "trials": 1024,
         "law": law_q1_point, "checks": ["ks", "exact"]},
    ]
    manifest = _write_manifest(tmp_path / "m.json", entries)
    cli.cmd_clt(manifest, tmp_path / "out", workers=1)
    rows = (tmp_path / "out" / "summary.csv").read_text().splitlines()[2:]
    column = {name: k for k, name in enumerate(cli.CSV_COLUMNS)}
    assert cli.CSV_COLUMNS[-1] == "verdict" and len(rows) == len(entries)
    decided = []
    for row, entry in zip(rows, entries):
        fields = row.split(",")
        report = json.loads((tmp_path / "out" / f"{entry['id']}.json").read_text())["report"]
        assert len(fields) == len(cli.CSV_COLUMNS) and fields[0] == entry["id"]
        assert fields[-1] == report["overall"]
        assert fields[column["decided_by"]] == "+".join(report["decided_by"])
        assert float(fields[column["rel_frob_err_exact"]]) == report["checks"]["exact"]["rel_frob_err"]
        assert float(fields[column["rel_frob_err"]]) == report["checks"]["limit"]["rel_frob_err"]
        decided.append((fields[-1], fields[column["decided_by"]]))
    assert decided[1:] == [("PASS", "exact+limit+ks"), ("INCONCLUSIVE", "ks")]
    assert decided[0][0] == "INCONCLUSIVE"


def test_clt_run_with_ks_check_loads_no_scipy(tmp_path):
    # a fresh interpreter, so no module loaded by the tests counts
    entries = [{"id": "ks", "kind": "clt", "regime": "CLT_II", "n": 10, "p": 50, "trials": 200,
                "law": TWO_POINT_LAW, "checks": ["exact", "limit", "ks"]}]
    manifest = _write_manifest(tmp_path / "m.json", entries)
    script = ("import sys\n"
              "from radwalk import cli\n"
              f"cli.cmd_clt({str(manifest)!r}, {str(tmp_path / 'out')!r}, workers=1)\n"
              "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env,
                         timeout=120, check=True)
    report = json.loads((tmp_path / "out" / "ks.json").read_text())["report"]
    assert report["checks"]["ks"]["verdict"] in ("PASS", "FAIL")
    assert run.stdout.splitlines()[-1] == "[]"


def _numbers(node):
    """Every number in a decoded JSON document, in a fixed order."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _numbers(node[key])
    elif isinstance(node, list):
        for item in node:
            yield from _numbers(item)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield node


def test_q1_report_agrees_across_cpu_dispatch(tmp_path):
    # numpy's AVX-512 loops for log, expm1 and tan can round differently from
    # the AVX2 ones, and the q = 1 cosine draw uses all three: the bytes may
    # differ, but no verdict may and every number stays within 1e-10
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    # numpy ignores, with a warning, a target it does not dispatch
    targets = [t for t in ("X86_V4", "AVX512_ICL", "AVX512_SPR") if t in __cpu_dispatch__ and __cpu_features__.get(t)]
    if not targets:
        pytest.skip("numpy dispatches no AVX-512 target on this host")
    entries = [{"id": "q1", "kind": "clt", "regime": "CLT_I", "n": 200, "p": 45, "trials": 1024,
                "law": TWO_POINT_LAW}]
    manifest = _write_manifest(tmp_path / "m.json", entries)
    src = str(Path(cli.__file__).resolve().parents[1])
    reports = []
    for name, disabled in (("default", None), ("no-avx512", " ".join(targets))):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
        if disabled:
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
        run = subprocess.run([sys.executable, "-m", "radwalk.cli", "clt", "--manifest", str(manifest),
                              "--out", str(tmp_path / name), "--workers", "1"],
                             capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode in (0, 1), run.stderr
        reports.append(json.loads((tmp_path / name / "q1.json").read_text())["report"])
    default, other = reports
    judged = [({name: check["verdict"] for name, check in report["checks"].items()}, report["decided_by"],
               report["overall"]) for report in reports]
    assert judged[0] == judged[1]
    pairs = list(zip(_numbers(default), _numbers(other), strict=True))
    assert all(x == pytest.approx(y, rel=1e-10, abs=0) for x, y in pairs)


def test_nonsymmetric_radius_names_atom_index(tmp_path, capsys):
    entries = [{"id": "bad", "kind": "clt", "regime": "CLT_II", "n": 5, "p": 10,
                "trials": 200,
                "law": {"q": 2, "atoms": [
                    {"weight": 1.0, "radius": [1.0, 0.5, 0.0, 1.0]}]}}]
    manifest = _write_manifest(tmp_path / "m.json", entries)
    code = cli.main(["clt", "--manifest", str(manifest), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "atoms[0]" in err


def test_duplicate_entry_ids_rejected(tmp_path, capsys):
    entries = [{"id": "x", "kind": "selftest"}, {"id": "x", "kind": "selftest"}]
    manifest = _write_manifest(tmp_path / "m.json", entries)
    code = cli.main(["clt", "--manifest", str(manifest), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "entries[1].id" in capsys.readouterr().err


def test_exit_one_on_failed_verdict(tmp_path):
    # 256 trials cannot yield a PASS verdict (noise floor), so exit is 1
    entries = [{"id": "c0", "kind": "clt", "regime": "CLT_II", "n": 20, "p": 400,
                "trials": 256, "law": TWO_POINT_LAW, "checks": ["exact"]}]
    manifest = _write_manifest(tmp_path / "m.json", entries)
    assert cli.cmd_clt(manifest, tmp_path / "out", workers=1) == 1


def test_selftest_passes_and_seed_override_keeps_each_verdict(capsys):
    assert cli.main(["selftest"]) == 0
    first = capsys.readouterr().out
    assert first.count("PASS") == 5
    assert cli.main(["selftest", "--seed", "4242"]) == 0
    second = capsys.readouterr().out
    assert second.count("PASS") == 5


def test_selftest_draws_from_named_streams(tmp_path, monkeypatch, capsys):
    # the suites' cases come from trial_stream, never numpy's default bit generator
    def refuse(*args, **kwargs):
        raise AssertionError("np.random.default_rng called")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    assert cli.main(["selftest"]) == 0
    assert capsys.readouterr().out.count("PASS") == 5
    manifest = _write_manifest(tmp_path / "m.json", [{"id": "algebra", "kind": "selftest", "cases": 10}])
    assert cli.cmd_clt(manifest, tmp_path / "out", workers=1) == 0


def _skew_first_entry(out):
    """One ulp more on the first entry alone: a skew that depends on the position."""
    out = out.copy()
    out.flat[0] = np.nextafter(out.flat[0], np.inf)
    return out


# the function each suite checks, and a skew of its result that the suite's rule must
# catch: one ulp where the tolerance is 0, ten times the tolerance where it is not
# (relative to max(1, max |result|), as the rule is); hadamard's skew depends on the
# position, since conjugation by permutations commutes with any entrywise map
_SKEWS = {
    "kron-reorder": ("kron", lambda out: np.nextafter(out, np.inf)),
    "kron-multinomial": ("kron_multinomial_expand", lambda out: out + 1e-11 * max(1.0, np.abs(out).max())),
    "hadamard-conjugation": ("hadamard", _skew_first_entry),
    "wick-univariate": ("wick_moment", lambda out: np.nextafter(out, np.inf)),
    "gaussian-sum-moment": ("sum_moment", lambda out: out + 1e-9 * max(1.0, np.abs(out).max())),
}


@pytest.mark.parametrize("suite", list(_SKEWS))
def test_selftest_canary_fails_only_its_suite(monkeypatch, capsys, suite):
    name, skew = _SKEWS[suite]
    original = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *args: skew(original(*args)))
    assert cli.main(["selftest"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == list(cli.SUITES)
    assert [line.split(":")[0] for line in lines if ": FAIL" in line] == [suite]


def test_selftest_entry_without_cases_runs_as_many_as_the_command(tmp_path, capsys):
    assert cli.main(["selftest"]) == 0
    command = [line.split("(")[1].split(",")[0] for line in capsys.readouterr().out.splitlines()]
    manifest = _write_manifest(tmp_path / "m.json", [{"id": "s", "kind": "selftest"}])
    assert cli.cmd_clt(manifest, tmp_path / "out", workers=1) == 0
    suites = json.loads((tmp_path / "out" / "s.json").read_text())["suites"]
    assert [s["detail"].split(",")[0] for s in suites] == command
    assert command[0] == f"{cli.SELFTEST_CASES} cases"


def test_moments_parity_verdict(tmp_path, capsys):
    law_path = tmp_path / "law.json"
    law_path.write_text(json.dumps({"family": "point_mass", "params": {"radius": 1.0}}))
    code = cli.main(["moments", "--law", str(law_path), "--kappa", "0,0:1;1,0:2",
                     "--p-grid", "10,50", "--trials", "5000",
                     "--out", str(tmp_path / "out"), "--seed", "3"])
    assert code == 0
    assert "parity: PASS" in capsys.readouterr().out
    lines = (tmp_path / "out" / "moments.csv").read_text().splitlines()
    assert lines[1] == "p,estimate,stderr"
    assert len(lines) == 4


def test_moments_decay_slope_near_inverse_p(tmp_path, capsys):
    law_path = tmp_path / "law.json"
    law_path.write_text(json.dumps({"family": "point_mass", "params": {"radius": 1.0}}))
    code = cli.main(["moments", "--law", str(law_path), "--kappa", "0,0:2",
                     "--p-grid", "8,16,32,64,128", "--trials", "20000",
                     "--out", str(tmp_path / "out"), "--seed", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "decay: PASS" in out
    slope_line = [l for l in (tmp_path / "out" / "moments.csv").read_text().splitlines()
                  if l.startswith("slope,")][0]
    slope = float(slope_line.split(",")[1])
    assert -1.3 <= slope <= -0.7


def test_moments_short_grid_is_config_error(tmp_path, capsys):
    law_path = tmp_path / "law.json"
    law_path.write_text(json.dumps({"family": "point_mass", "params": {"radius": 1.0}}))
    code = cli.main(["moments", "--law", str(law_path), "--kappa", "0,0:2",
                     "--p-grid", "8", "--trials", "2000", "--out", str(tmp_path / "out")])
    assert code == 2
    assert "p_grid" in capsys.readouterr().err


def test_moments_spellings_of_one_sweep_write_identical_csv(tmp_path, capsys):
    law_path = tmp_path / "law.json"
    law_path.write_text(json.dumps(TWO_POINT_LAW))
    sweeps = [
        [("0,0:2", "8,16,32"), ("0,0:2;", "8,16,32"), (" 0,0:2", " 8, 16,32")],
        # one multi-index with its terms reordered or split
        [("0,0:1;1,0:2", "10,50"), ("1,0:2;0,0:1", "10,50"), ("0,0:1;1,0:1;1,0:1", "10,50")],
    ]
    for s, spellings in enumerate(sweeps):
        outputs = []
        for k, (kappa, p_grid) in enumerate(spellings):
            out = tmp_path / f"out{s}{k}"
            code = cli.main(["moments", "--law", str(law_path), "--kappa", kappa, "--p-grid", p_grid,
                             "--trials", "2000", "--out", str(out)])
            assert code in (0, 1)
            outputs.append((out / "moments.csv").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]


def test_bad_kappa_spec_is_config_error(tmp_path, capsys):
    law_path = tmp_path / "law.json"
    law_path.write_text(json.dumps({"family": "point_mass", "params": {"radius": 1.0}}))
    code = cli.main(["moments", "--law", str(law_path), "--kappa", "zzz",
                     "--p-grid", "8,16,32", "--trials", "2000", "--out", str(tmp_path / "out")])
    assert code == 2
    assert "kappa" in capsys.readouterr().err


def test_outputs_byte_identical_across_worker_counts(tmp_path, forced_pools):
    entries = [
        {"id": "walk", "kind": "clt", "regime": "MIXED", "n": 12, "p": 12, "trials": 1200,
         "law": TWO_POINT_LAW, "checks": ["exact"]},
        {"id": "algebra", "kind": "selftest", "cases": 10},
    ]
    manifest = _write_manifest(tmp_path / "m.json", entries, seed=2024)
    cli.cmd_clt(manifest, tmp_path / "out1", workers=1)
    cli.cmd_clt(manifest, tmp_path / "out2", workers=3)
    assert forced_pools == [3]
    for name in ("summary.csv", "walk.json", "algebra.json"):
        assert (tmp_path / "out1" / name).read_bytes() == (tmp_path / "out2" / name).read_bytes()


def test_seed_override_changes_outputs(tmp_path):
    entries = [{"id": "walk", "kind": "clt", "regime": "CLT_II", "n": 10, "p": 100,
                "trials": 512, "law": TWO_POINT_LAW, "checks": ["exact"]}]
    manifest = _write_manifest(tmp_path / "m.json", entries, seed=1)
    cli.cmd_clt(manifest, tmp_path / "a", workers=1)
    cli.cmd_clt(manifest, tmp_path / "b", workers=1, seed_override=2)
    ra = json.loads((tmp_path / "a" / "walk.json").read_text())
    rb = json.loads((tmp_path / "b" / "walk.json").read_text())
    assert ra["report"]["empirical_cov"] != rb["report"]["empirical_cov"]
    assert rb["meta"]["master_seed"] == 2


def test_demo_manifest_entries_parse_into_their_configs():
    doc, _, configs = cli.load_manifest(Path(__file__).resolve().parents[1] / "manifests" / "demo.json")
    kinds = {"clt": WalkConfig, "moments": MomentSweep, "selftest": int}
    assert [type(cfg) for cfg in configs] == [kinds[entry.get("kind", "clt")] for entry in doc["entries"]]


def test_csv_floats_round_trip():
    assert cli._fmt(1.792) == "1.792"
    x = 1.0 + 8.0 * 99 / 1000
    assert float(cli._fmt(x)) == x


def _clt_entry(eid, **extra):
    entry = {"id": eid, "kind": "clt", "regime": "CLT_II", "n": 5, "p": 50,
             "trials": 512, "law": TWO_POINT_LAW, "checks": ["exact"]}
    entry.update(extra)
    return entry


def test_entry_id_cannot_name_a_path_outside_out(tmp_path, capsys):
    manifest = _write_manifest(tmp_path / "m.json", [_clt_entry("../evil")])
    code = cli.main(["clt", "--manifest", str(manifest), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "entries[0].id" in capsys.readouterr().err
    assert not (tmp_path / "evil.json").exists()
    assert not (tmp_path / "out").exists()


# <id>.json must fit the usual 255-byte limit on a file name, and ids are ASCII
@pytest.mark.parametrize("length", [250, 251])
def test_entry_id_length_is_bounded_by_its_report_file_name(tmp_path, capsys, length):
    eid = "a" * length
    manifest = _write_manifest(tmp_path / "m.json", [{"id": eid, "kind": "selftest", "cases": 2}])
    code = cli.main(["clt", "--manifest", str(manifest), "--out", str(tmp_path / "out")])
    if length == 250:
        assert code == 0
        assert (tmp_path / "out" / f"{eid}.json").exists()
    else:
        assert code == 2
        assert "config error: entries[0].id: expected a file name of at most 250 " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_checks_string_rejected_before_any_entry_runs(tmp_path, capsys):
    entries = [_clt_entry("first"), _clt_entry("second", checks="exact")]
    manifest = _write_manifest(tmp_path / "m.json", entries)
    code = cli.main(["clt", "--manifest", str(manifest), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "entries[1].checks" in err and "'e'" not in err
    assert not (tmp_path / "out").exists()


def test_negative_rel_tol_rejected(tmp_path, capsys):
    manifest = _write_manifest(tmp_path / "m.json", [_clt_entry("c0", rel_tol=-1)])
    code = cli.main(["clt", "--manifest", str(manifest), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "entries[0].rel_tol" in capsys.readouterr().err


def _atom_law(q=1, weight=1.0, radius=(1.0,)):
    return {"q": q, "atoms": [{"weight": weight, "radius": list(radius)}]}


# c and fast_path (retired fields) and reltol (a misspelt rel_tol) are unknown fields;
# a law field is named by its path inside the law
@pytest.mark.parametrize("field, value", [
    ("rel_tol", "abc"), ("rel_tol", 0), ("c", "x"), ("c", -0.5), ("fast_path", "false"), ("reltol", 0.1),
    pytest.param("kind", ["clt"], id="kind-list"),
    pytest.param("rel_tol", 10**400, id="rel_tol-int-beyond-float"),
    pytest.param("law.q", _atom_law(q=1.5), id="law.q-1.5"),
    pytest.param("law.q", _atom_law(q=0, radius=()), id="law.q-0"),
    pytest.param("law.q", _atom_law(q=9, radius=np.eye(9).reshape(-1)), id="law.q-beyond-cap"),
    pytest.param("law.params.b", {"family": "uniform_interval", "params": {"a": 0.0, "b": float("inf")}},
                 id="law.params.b-inf"),
    pytest.param("law.atoms[0].weight", _atom_law(weight="a"), id="law.atoms.weight-a"),
    pytest.param("law.atoms[0].radius", _atom_law(q=2, radius=(1.0, float("nan"), 0.0, 1.0)),
                 id="law.atoms.radius-nan"),
    # finite numbers whose moments up to order 4 overflow a float
    pytest.param("law.params.b", {"family": "uniform_interval", "params": {"a": 0.0, "b": 1e200}},
                 id="law.params.b-1e200"),
    pytest.param("law.atoms[0].radius", _atom_law(radius=(1e200,)), id="law.atoms.radius-1e200"),
    pytest.param("law.params.p_a", {"family": "two_point", "params": {"r_a": 1.0, "p_a": 1.5, "r_b": 2.0}},
                 id="law.params.p_a-1.5"),
    pytest.param("law.params.r_a", {"family": "two_point", "params": {"r_a": -1.0, "p_a": 0.5, "r_b": 2.0}},
                 id="law.params.r_a-negative"),
    pytest.param("law.atoms[0].radius: missing", {"q": 1, "atoms": [{"weight": 1.0}]},
                 id="law.atoms.radius-missing"),
    pytest.param("law.bogus: unknown field", {**TWO_POINT_LAW, "bogus": 1}, id="law.unknown-key"),
    pytest.param("law.atoms: expected an integer <= 64, got 65",
                 {"q": 1, "atoms": [{"weight": 1 / 65, "radius": [1.0]}] * 65}, id="law.atoms-beyond-cap"),
    # refused by the sample cap before any chunk task or sample array is made
    pytest.param("trials", 10**12, id="trials-beyond-sample-cap"),
    pytest.param("p", 10**400, id="p-beyond-2^53"),  # would overflow a float in the cosine draw
    pytest.param("checks", [], id="checks-empty"),  # with no check requested, any walk would read PASS
])
def test_bad_clt_field_is_config_error(tmp_path, capsys, field, value):
    manifest = _write_manifest(tmp_path / "m.json", [_clt_entry("c0", **{field.split(".")[0]: value})])
    code = cli.main(["clt", "--manifest", str(manifest), "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"entries[0].{field}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bad_selftest_cases_is_config_error(tmp_path, capsys):
    for field, value in (("cases", "abc"), ("trials", 100)):  # trials is not a selftest field
        manifest = _write_manifest(tmp_path / "m.json", [{"id": "s", "kind": "selftest", field: value}])
        code = cli.main(["clt", "--manifest", str(manifest), "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"entries[0].{field}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def _moments_entry(eid, **extra):
    entry = {"id": eid, "kind": "moments", "law": TWO_POINT_LAW, "kappa": [[[0, 0], 2]],
             "p_grid": [2, 4, 8], "trials": 2000}
    entry.update(extra)
    return entry


@pytest.mark.parametrize("field, value", [
    ("kappa", [[[5, 0], 2]]),  # row index >= the smallest p
    ("kappa", [[[0, 1], 2]]),  # column index >= q
    ("kappa", [[[-1, 0], 2]]),
    ("kappa", [[[0, 0], 9]]),
    ("kappa", [[[0.5, 0], 2.7]]),  # would truncate to [[0, 0], 2]
    ("kappa", [[["1", 0], True]]),  # would run as [[1, 0], 1]
    ("p_grid[1]", [2, 4.5, "8"]),
    ("p_grid[2]", [2, 4, "8"]),
    ("p_grid[0]", [0, 4, 8]),
    ("rel_tol", 0.05),  # a clt field, unknown to moments
    ("trials", 10**12),
    ("p_grid[1]", [8, 8, 8]),  # one distinct point: the decay fit is singular
    ("p_grid[1]", [2, 10**400, 8]),
], ids=["row-outside-p", "col-outside-q", "negative-index", "weight-9", "float-kappa", "string-bool-kappa",
        "float-p", "string-p", "zero-p", "unknown-field", "trials-beyond-sample-cap", "repeated-p", "p-beyond-2^53"])
def test_bad_moments_entry_rejected_before_any_entry_runs(tmp_path, capsys, field, value):
    key = field.split("[")[0]
    entries = [_clt_entry("first"), _moments_entry("m", **{key: value})]
    manifest = _write_manifest(tmp_path / "m.json", entries)
    code = cli.main(["clt", "--manifest", str(manifest), "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"entries[1].{field}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


POINT_MASS_LAW = {"family": "point_mass", "params": {"radius": 1.0}}
ZERO_LAW = {"family": "point_mass", "params": {"radius": 0.0}}
GOOD_MOMENTS_ARGS = ["--kappa", "0,0:2", "--p-grid", "2,4,8", "--trials", "2000"]


@pytest.mark.parametrize("field, args, law", [
    ("trials", ["--kappa", "0,0:2", "--p-grid", "8,16,32", "--trials", "10"], POINT_MASS_LAW),
    ("trials", ["--kappa", "0,0:2", "--p-grid", "8,16,32", "--trials", str(10**12)], POINT_MASS_LAW),
    ("p_grid[0]", ["--kappa", "0,0:2", "--p-grid", "0,4,8", "--trials", "2000"], POINT_MASS_LAW),
    ("p_grid[1]", ["--kappa", "0,0:2", "--p-grid", "2,4.5,8", "--trials", "2000"], POINT_MASS_LAW),
    ("p_grid[1]", ["--kappa", "0,0:2", "--p-grid", "8,8,8", "--trials", "2000"], POINT_MASS_LAW),
    ("kappa", ["--kappa", "5,0:2", "--p-grid", "2,4,8", "--trials", "2000"], POINT_MASS_LAW),
    ("law", GOOD_MOMENTS_ARGS, {"q": 2, "atoms": [{"weight": 1.0, "radius": [1.0, 2.0, 2.0, 1.0]}]}),
    ("law", GOOD_MOMENTS_ARGS, {"family": "point_mass", "params": {"radius": 1.0, "bogus": 2}}),
    ("law", GOOD_MOMENTS_ARGS, [POINT_MASS_LAW]),
    ("law.q", GOOD_MOMENTS_ARGS, _atom_law(q=1.5)),
    ("law.params.radius", GOOD_MOMENTS_ARGS, {"family": "point_mass", "params": {"radius": float("nan")}}),
    ("law.atoms[0].weight", GOOD_MOMENTS_ARGS, _atom_law(weight="a")),
    # the moment is 0 at every p: the decay and the parity branch at q = 1, and a zero column at q = 2
    ("kappa", ["--kappa", "0,0:2", "--p-grid", "4,8,16", "--trials", "1000"], ZERO_LAW),
    ("kappa", ["--kappa", "0,0:1;1,0:2", "--p-grid", "4,8,16", "--trials", "1000"], ZERO_LAW),
    ("kappa", ["--kappa", "1,0:2", "--p-grid", "4,8,16", "--trials", "1000"], _atom_law(2, radius=(0, 0, 0, 1))),
], ids=["few-trials", "trials-beyond-sample-cap", "zero-p", "float-p", "repeated-p", "row-outside-p", "non-psd-law", "unknown-param-law", "list-law",
        "float-q-law", "nan-param-law", "string-weight-law", "zero-law-decay", "zero-law-parity",
        "zero-column-q2"])
def test_bad_moments_command_is_config_error(tmp_path, capsys, field, args, law):
    law_path = tmp_path / "law.json"
    law_path.write_text(json.dumps(law))
    code = cli.main(["moments", "--law", str(law_path), *args, "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"config error: {field}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# each gets past json.JSONDecodeError: a ValueError on the integer digit limit,
# a UnicodeDecodeError, and a RecursionError
@pytest.mark.parametrize("raw", [b"[" + b"1" * 5000 + b"]", b'["\xff"]', b"[" * 100_000 + b"]" * 100_000],
                         ids=["5000-digit-int", "non-utf8-byte", "nested-100000-deep"])
@pytest.mark.parametrize("field", ["manifest", "law"])
def test_undecodable_json_document_is_config_error(tmp_path, capsys, raw, field):
    doc = tmp_path / "doc.json"
    doc.write_bytes(raw)
    command = (["clt", "--manifest", str(doc)] if field == "manifest"
               else ["moments", "--law", str(doc), *GOOD_MOMENTS_ARGS])
    code = cli.main([*command, "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"config error: {field}: invalid JSON: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# an unusable --out is refused before any walk or sweep runs
@pytest.mark.parametrize("command", ["clt", "moments"])
@pytest.mark.parametrize("where", ["file", "under-file"])
def test_out_that_cannot_be_a_directory_is_config_error(tmp_path, capsys, monkeypatch, command, where):
    def ran(*args, **kwargs):
        raise AssertionError("ran before --out was made")

    monkeypatch.setattr(cli, "verify_clt", ran)
    monkeypatch.setattr(cli, "moment_decay_experiment", ran)
    taken = tmp_path / "taken"
    taken.write_text("kept")
    out = str(taken if where == "file" else taken / "out")
    law_path = tmp_path / "law.json"
    law_path.write_text(json.dumps(POINT_MASS_LAW))
    manifest = _write_manifest(tmp_path / "m.json", [_clt_entry("c0")])
    args = {"clt": ["--manifest", str(manifest), "--workers", "1"],
            "moments": ["--law", str(law_path), *GOOD_MOMENTS_ARGS]}[command]
    code = cli.main([command, *args, "--out", out])
    assert code == 2
    assert "config error: --out: " in capsys.readouterr().err
    assert taken.read_text() == "kept"


@pytest.mark.parametrize("value", ["0", "-3", "100000"], ids=["flag-0", "flag--3", "flag-over-cap"])
def test_bad_workers_flag_is_config_error(tmp_path, capsys, monkeypatch, value):
    def no_pool(*args, **kwargs):  # a pool of 100 000 workers would fork them all at once
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(clt_experiments, "ProcessPoolExecutor", no_pool)
    manifest = _write_manifest(tmp_path / "m.json", [_clt_entry("c0")])
    code = cli.main(["clt", "--manifest", str(manifest), "--out", str(tmp_path / "out"), "--workers", value])
    assert code == 2
    assert "config error: --workers" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["clt", "moments", "selftest"])
def test_negative_seed_is_config_error(tmp_path, capsys, command):
    law_path = tmp_path / "law.json"
    law_path.write_text(json.dumps(POINT_MASS_LAW))
    manifest = _write_manifest(tmp_path / "m.json", [_moments_entry("m")])
    args = {"clt": ["--manifest", str(manifest), "--out", str(tmp_path / "out")],
            "moments": ["--law", str(law_path), *GOOD_MOMENTS_ARGS, "--out", str(tmp_path / "out")],
            "selftest": []}[command]
    code = cli.main([command, *args, "--seed", "-1"])
    assert code == 2
    assert "config error: --seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, entry", [
    ("n", _clt_entry("c0", n=10**30)),  # 10^32 trial-steps
    ("p_grid", _moments_entry("m", p_grid=list(range(2, 400)), trials=SAMPLE_BYTES_CAP // 8)),
    ("cases", {"id": "s", "kind": "selftest", "cases": 10**30}),
], ids=["walk", "sweep", "selftest"])
def test_entry_beyond_the_time_cap_is_config_error(tmp_path, capsys, monkeypatch, field, entry):
    # the runners are stubbed, so an entry that passed validation fails at once instead of running for years
    def ran(*args, **kwargs):
        raise AssertionError("an entry ran")

    for runner in ("verify_clt", "moment_decay_experiment", "run_selftest_suites"):
        monkeypatch.setattr(cli, runner, ran)
    manifest = _write_manifest(tmp_path / "m.json", [entry])
    code = cli.main(["clt", "--manifest", str(manifest), "--out", str(tmp_path / "out"), "--workers", "1"])
    assert code == 2
    assert f"config error: entries[0].{field}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_load_manifest_checks_every_entry_in_document_order(tmp_path):
    # one pass: a bad value is refused by load_manifest itself, and of several
    # faults the one in the first entry is named, before the later duplicate id
    manifest = _write_manifest(tmp_path / "m.json", [_clt_entry("c0"), _clt_entry("c1", n=0)])
    with pytest.raises(cli.ManifestError, match=r"^entries\[1\]\.n: "):
        cli.load_manifest(manifest)
    manifest = _write_manifest(tmp_path / "m.json", [_clt_entry("c0", n=0), _clt_entry("c0")])
    with pytest.raises(cli.ManifestError, match=r"^entries\[0\]\.n: "):
        cli.load_manifest(manifest)


@pytest.mark.parametrize("entry", [_clt_entry("c0"), _moments_entry("m"), {"id": "s", "kind": "selftest", "cases": 2}],
                         ids=["walk", "moments", "selftest"])
@pytest.mark.parametrize("argument, value", [
    ("seed_override", -1), ("seed_override", 2.5),
    ("workers", 0), ("workers", -1), ("workers", 2.5), ("workers", True),
    pytest.param("workers", WORKERS_CAP + 1, id="workers-over-cap"),
])
def test_bad_run_argument_is_config_error_before_out_is_made(tmp_path, entry, argument, value):
    manifest = _write_manifest(tmp_path / "m.json", [entry])
    kwargs = {"workers": 1, argument: value}
    with pytest.raises(cli.ManifestError, match=rf"^{argument}: expected "):
        cli.cmd_clt(manifest, tmp_path / "out", **kwargs)
    assert not (tmp_path / "out").exists()


def test_the_benchmarks_two_calls_into_src(tmp_path):
    # the benchmark's worker loads each manifest with one argument and runs it
    # with cmd_clt(path, out, workers=...); a change to either call fails here
    entries = [_clt_entry("c0"), _moments_entry("m"), {"id": "s", "kind": "selftest", "cases": 2}]
    manifest = _write_manifest(tmp_path / "m.json", entries)
    cli.load_manifest(manifest)
    assert cli.cmd_clt(manifest, tmp_path / "out", workers=2) in (0, 1)
    assert sorted(f.name for f in (tmp_path / "out").iterdir()) == ["c0.json", "m.json", "s.json", "summary.csv"]


def test_a_walk_on_a_pool_leaves_nothing_running(tmp_path, forced_pools):
    # a worker or manager thread left behind by an entry's pool would outlive the run
    manifest = _write_manifest(tmp_path / "m.json", [_clt_entry("c0", trials=2 * CHUNK_TRIALS)])
    code = cli.main(["clt", "--manifest", str(manifest), "--out", str(tmp_path / "out"), "--workers", "2"])
    assert code in (0, 1) and forced_pools == [2]
    assert multiprocessing.active_children() == []
    assert not [t for t in threading.enumerate() if isinstance(t, process._ExecutorManagerThread)]

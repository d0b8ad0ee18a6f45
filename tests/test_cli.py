import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from radwalk import cli


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
    assert report["verdicts"]["ks_normality"] in ("PASS", "FAIL")
    assert run.stdout.splitlines()[-1] == "[]"


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


def test_selftest_passes_and_seed_override_keeps_verdicts(capsys):
    assert cli.main(["selftest"]) == 0
    first = capsys.readouterr().out
    assert first.count("PASS") == 5
    assert cli.main(["selftest", "--seed", "4242"]) == 0
    second = capsys.readouterr().out
    assert second.count("PASS") == 5


def test_selftest_canary_detects_skewed_kron(monkeypatch, capsys):
    monkeypatch.setenv(cli.ENV_SKEW_KRON, "1")
    assert cli.main(["selftest"]) == 1
    assert "FAIL" in capsys.readouterr().out


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


def test_outputs_byte_identical_across_worker_counts(tmp_path):
    entries = [
        {"id": "walk", "kind": "clt", "regime": "MIXED", "n": 12, "p": 12, "trials": 1200,
         "law": TWO_POINT_LAW, "checks": ["exact"]},
        {"id": "algebra", "kind": "selftest", "cases": 10},
    ]
    manifest = _write_manifest(tmp_path / "m.json", entries, seed=2024)
    cli.cmd_clt(manifest, tmp_path / "out1", workers=1)
    cli.cmd_clt(manifest, tmp_path / "out2", workers=3)
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


# fast_path (a retired field) and reltol (a misspelt rel_tol) are unknown fields;
# a law field is named by its path inside the law
@pytest.mark.parametrize("field, value", [
    ("rel_tol", "abc"), ("rel_tol", 0), ("c", "x"), ("c", -0.5), ("fast_path", "false"), ("reltol", 0.1),
    pytest.param("rel_tol", 10**400, id="rel_tol-int-beyond-float"),
    pytest.param("law.q", _atom_law(q=1.5), id="law.q-1.5"),
    pytest.param("law.q", _atom_law(q=0, radius=()), id="law.q-0"),
    pytest.param("law.params.b", {"family": "uniform_interval", "params": {"a": 0.0, "b": float("inf")}},
                 id="law.params.b-inf"),
    pytest.param("law.atoms[0].weight", _atom_law(weight="a"), id="law.atoms.weight-a"),
    pytest.param("law.atoms[0].radius", _atom_law(q=2, radius=(1.0, float("nan"), 0.0, 1.0)),
                 id="law.atoms.radius-nan"),
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
], ids=["row-outside-p", "col-outside-q", "negative-index", "weight-9", "float-kappa", "string-bool-kappa",
        "float-p", "string-p", "zero-p", "unknown-field"])
def test_bad_moments_entry_rejected_before_any_entry_runs(tmp_path, capsys, field, value):
    key = field.split("[")[0]
    entries = [_clt_entry("first"), _moments_entry("m", **{key: value})]
    manifest = _write_manifest(tmp_path / "m.json", entries)
    code = cli.main(["clt", "--manifest", str(manifest), "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"entries[1].{field}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


POINT_MASS_LAW = {"family": "point_mass", "params": {"radius": 1.0}}
GOOD_MOMENTS_ARGS = ["--kappa", "0,0:2", "--p-grid", "2,4,8", "--trials", "2000"]


@pytest.mark.parametrize("field, args, law", [
    ("trials", ["--kappa", "0,0:2", "--p-grid", "8,16,32", "--trials", "10"], POINT_MASS_LAW),
    ("p_grid[0]", ["--kappa", "0,0:2", "--p-grid", "0,4,8", "--trials", "2000"], POINT_MASS_LAW),
    ("p_grid[1]", ["--kappa", "0,0:2", "--p-grid", "2,4.5,8", "--trials", "2000"], POINT_MASS_LAW),
    ("kappa", ["--kappa", "5,0:2", "--p-grid", "2,4,8", "--trials", "2000"], POINT_MASS_LAW),
    ("law", GOOD_MOMENTS_ARGS, {"q": 2, "atoms": [{"weight": 1.0, "radius": [1.0, 2.0, 2.0, 1.0]}]}),
    ("law", GOOD_MOMENTS_ARGS, {"family": "point_mass", "params": {"radius": 1.0, "bogus": 2}}),
    ("law", GOOD_MOMENTS_ARGS, [POINT_MASS_LAW]),
    ("law.q", GOOD_MOMENTS_ARGS, _atom_law(q=1.5)),
    ("law.params.radius", GOOD_MOMENTS_ARGS, {"family": "point_mass", "params": {"radius": float("nan")}}),
    ("law.atoms[0].weight", GOOD_MOMENTS_ARGS, _atom_law(weight="a")),
], ids=["few-trials", "zero-p", "float-p", "row-outside-p", "non-psd-law", "unknown-param-law", "list-law",
        "float-q-law", "nan-param-law", "string-weight-law"])
def test_bad_moments_command_is_config_error(tmp_path, capsys, field, args, law):
    law_path = tmp_path / "law.json"
    law_path.write_text(json.dumps(law))
    code = cli.main(["moments", "--law", str(law_path), *args, "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"config error: {field}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, value", [
    (cli.ENV_WORKERS, "abc"), (cli.ENV_WORKERS, "0"), (cli.ENV_WORKERS, "-2"),
    ("--workers", "0"), ("--workers", "-3"),
], ids=["abc", "0", "-2", "flag-0", "flag--3"])
def test_bad_workers_env_is_config_error(tmp_path, capsys, monkeypatch, name, value):
    manifest = _write_manifest(tmp_path / "m.json", [_clt_entry("c0")])
    args = ["clt", "--manifest", str(manifest), "--out", str(tmp_path / "out")]
    if name == cli.ENV_WORKERS:
        monkeypatch.setenv(cli.ENV_WORKERS, value)
    else:
        monkeypatch.delenv(cli.ENV_WORKERS, raising=False)
        args += [name, value]
    code = cli.main(args)
    assert code == 2
    assert name in capsys.readouterr().err
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

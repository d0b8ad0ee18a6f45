"""Property tests of the config boundary.

Mutants of a shrunk demo manifest (values swapped for other types, NaN,
infinities, 1e308 and huge integers; keys renamed or deleted; list items
repeated; values at both sides of every cap) go through ``load_manifest``
only, so no walk runs.  Each must give a config per entry or a ``ManifestError`` whose message
starts with a field path present in the mutated document (the last step of
the path may be absent when the message says it is missing); any other
exception fails.

Mutants of a tiny manifest of the same five shapes also run end to end
through ``radwalk clt``, unless their work exceeds a small budget: the exit
code must be 0, 1 or 2, with no exception, and exit 2 must leave ``--out``
uncreated.
"""

import copy
import json
import math
import re
import subprocess
import sys
from pathlib import Path

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from radwalk import cli
from radwalk.clt_experiments import P_CAP, TRIAL_STEPS_CAP, MomentSweep, WalkConfig
from radwalk.radial_measures import Q_CAP, SAMPLE_BYTES_CAP

ROOT = Path(__file__).resolve().parents[1]
DEMO = json.loads((ROOT / "manifests" / "demo.json").read_text())
# one entry of each shape: a q = 1 family walk, a q = 2 atom walk, a parity
# and a decay sweep, and a selftest
SHRUNK = {**DEMO, "entries": DEMO["entries"][2:]}

# each cap and one past it: the dimension, the trials of a moment sweep's
# 8-byte samples, the trial-steps, the selftest cases and a law's q; and an
# entry id of 250 characters and of one more
CAPS = [P_CAP, SAMPLE_BYTES_CAP // 8, TRIAL_STEPS_CAP, cli.SELFTEST_CASES_CAP, Q_CAP]
VALUES = st.sampled_from([None, True, "x", "", [], {}, [1], math.nan, math.inf, -math.inf,
                          1e308, -1e308, 10**30, -(10**30), 10**400, 0, -1, 1.5,
                          *(v + extra for v in CAPS for extra in (0, 1)), "a" * 250, "a" * 251])
NEW_KEYS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8)


def _paths(node, path=()):
    """Every path below ``node``, as tuples of keys and list indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _mutate(doc, data):
    path = data.draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    action = data.draw(st.sampled_from(["swap", "delete", "rename"] if isinstance(parent, dict)
                                       else ["swap", "delete", "repeat"]))
    if action == "swap":
        parent[key] = data.draw(VALUES)
    elif action == "delete":
        del parent[key]
    elif action == "repeat":
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[data.draw(NEW_KEYS)] = parent.pop(key)


def _names_a_path(doc, message):
    head, _, rest = message.partition(": ")
    steps = re.findall(r"\[(\d+)\]|([^.\[\]]+)", head)
    node = doc
    for k, (index, key) in enumerate(steps):
        step = int(index) if index else key
        present = isinstance(node, list) and step < len(node) if index else isinstance(node, dict) and step in node
        if not present:
            return k == len(steps) - 1 and rest == "missing"
        node = node[step]
    return bool(steps)


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_manifest_mutants_give_configs_or_errors_naming_a_field(tmp_path_factory, data):
    doc = copy.deepcopy(SHRUNK)
    for _ in range(data.draw(st.integers(1, 2))):
        _mutate(doc, data)
    path = tmp_path_factory.getbasetemp() / "fuzz_manifest.json"
    path.write_text(json.dumps(doc))
    try:
        _, _, configs = cli.load_manifest(path)
        assert len(configs) == len(doc["entries"])
    except cli.ManifestError as exc:
        assert _names_a_path(doc, str(exc)), (str(exc), doc)


# the same five shapes, at sizes that run in milliseconds; the q = 2 walk has q < p < 2q
TINY = copy.deepcopy(SHRUNK)
for _entry, _small in zip(TINY["entries"], ({"n": 3, "p": 5, "trials": 100}, {"n": 3, "p": 3, "trials": 100},
                                            {"trials": 1000}, {"p_grid": [4, 8, 16], "trials": 1000}, {"cases": 2})):
    _entry.update(_small)
# trial-steps, draws and (weighted) selftest cases: the tiny manifest does 9 600
WORK_BUDGET = 20_000


def _work(cfg):
    if isinstance(cfg, WalkConfig):
        return cfg.n * cfg.trials
    if isinstance(cfg, MomentSweep):
        return len(cfg.p_grid) * cfg.trials
    return 1000 * cfg


@settings(derandomize=True, database=None, max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(data=st.data())
def test_manifest_mutants_run_end_to_end_to_an_exit_code(tmp_path_factory, data):
    doc = copy.deepcopy(TINY)
    for _ in range(data.draw(st.integers(1, 2))):
        _mutate(doc, data)
    path = tmp_path_factory.getbasetemp() / "fuzz_run_manifest.json"
    path.write_text(json.dumps(doc))
    try:
        work = sum(map(_work, cli.load_manifest(path)[2]))
    except cli.ManifestError:
        work = 0
    assume(work <= WORK_BUDGET)
    out = tmp_path_factory.mktemp("fuzz_run") / "out"
    code = cli.main(["clt", "--manifest", str(path), "--out", str(out), "--workers", "1"])
    assert code in (0, 1, 2)
    assert code != 2 or not out.exists()


def test_a_failing_property_reports_one_failure(tmp_path):
    # under the repo's warning filters, hypothesis's report hook on a failing
    # property must not raise, which would end the session with INTERNALERROR
    (tmp_path / "test_prop.py").write_text("from hypothesis import given, strategies as st\n\n\n"
                                           "@given(st.integers())\ndef test_negative(x):\n    assert x < 0\n")
    run = subprocess.run([sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir",
                          str(tmp_path), "-p", "no:cacheprovider", "test_prop.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout[-2000:]
    assert "1 failed" in run.stdout and "INTERNALERROR" not in run.stdout + run.stderr

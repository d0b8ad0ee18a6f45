"""Benchmark of radwalk's manifest runner, end to end and by module.

Usage (from the root of a checkout):

    python3 bench/run.py --workload walk_matrix --seed 1 --seconds 30 --trace 0

The run writes the workload's manifests (generated from ``--seed``), one per
entry, and warms the file cache with one untimed import.  It then starts
``SETUP_SAMPLES`` fresh interpreters (``worker.py``) that each import
radwalk, load the manifests and exit; ``setup_s`` is the median of their
times.  One more fresh interpreter measures: it repeats rounds until
``--seconds`` have passed since the run began.  A round runs
``radwalk.cli.cmd_clt`` on every manifest at 1 worker and at
``os.cpu_count()`` workers, and with ``--trace 1`` once more at 1 worker
with spans recorded.  The parent checks the first round's reports against
``checks.py`` and every pass's outputs against them byte for byte.  An
operation is one manifest entry in one round.

The host is shared, and other tenants slow every process on it for
stretches of seconds, by 40 % and more.  So each timed pass is bracketed by
two samples of a fixed calibration kernel (``calibrate.py``), and each call
in it is scaled by ``calibrate.REFERENCE_S`` over their mean: its time at
the reference speed.  A pass time is the sum over entries of each entry's
median scaled time, over every call but those of the first 1-worker pass,
which warms up.  ``setup_s`` is scaled the same way.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and the end-to-end metrics (``--trace 0``) or
the per-layer metrics (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
TRACE = ROOT / ".bench_trace"
# Every worker is killed once the run has taken this long, so the run ends
# well within three minutes even if the program hangs.
DEADLINE_S = 160
# Fresh interpreters whose time to ready gives setup_s, as their median.
SETUP_SAMPLES = 5
# BLAS and OpenMP pools pinned to one thread, so the parallel pass never
# runs more threads than it has worker processes.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {"setup_s": "s", "run_s": "s", "run_s_par": "s", "trials_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "radial_measures.orientation_s": "s", "radial_measures.orientation_calls": "count",
    "radial_measures.draw_radii_s": "s", "radial_measures.draw_radii_calls": "count",
    "radial_measures.moment_mc_s": "s", "radial_measures.sample_bytes_max": "bytes",
    "radial_measures.predict_s": "s",
    "clt_experiments.verify_clt_s": "s", "clt_experiments.walk_self_s": "s",
    "clt_experiments.estimate_covariance_s": "s", "clt_experiments.jackknife_bytes": "bytes",
    "clt_experiments.ks_s": "s", "clt_experiments.trials": "count", "clt_experiments.steps": "count",
    "clt_experiments.steps_per_s": "1/s", "clt_experiments.moment_decay_s": "s",
    "clt_experiments.parallel_speedup": "ratio", "clt_experiments.speedup_base_run_s": "s",
    "clt_experiments.speedup_base_run_s_par": "s",
    "cli.self_s": "s", "cli.output_bytes": "bytes", "cli.selftest_s": "s",
    "gaussian_moments.s": "s", "kron_algebra.s": "s", "combinatorics.s": "s",
    "trace_overhead_s": "s", "calibration_s": "s",
}


class RoundError(Exception):
    """A worker did not finish."""


def _kill_group(proc: subprocess.Popen) -> None:
    """Kill a worker and every process it started, and wait until they end."""
    os.killpg(proc.pid, signal.SIGKILL)
    proc.communicate()
    give_up = time.perf_counter() + 10.0
    while time.perf_counter() < give_up:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _spawn(spec: dict, spec_path: Path, env: dict, deadline: float) -> tuple[float, dict | None]:
    """Run one worker; returns (seconds to READY, its result or None in mode setup)."""
    spec_path.write_text(json.dumps(spec))
    log = spec_path.with_suffix(".stderr")
    with open(log, "w") as err:
        start = time.perf_counter()
        # A session of its own, so that the worker's process pool can be
        # killed with it.
        proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), str(spec_path)],
                                stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT, text=True,
                                start_new_session=True)
        try:
            line = proc.stdout.readline()
            setup = time.perf_counter() - start
            proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            _kill_group(proc)
            raise RoundError(f"worker still running {DEADLINE_S} s into the run") from None
    if proc.returncode != 0 or line != "READY\n":
        raise RoundError(f"worker exited with {proc.returncode}:\n{log.read_text()[-2000:]}")
    if spec["mode"] == "setup":
        return setup, None
    return setup, json.loads(Path(spec["result"]).read_text())


def _failed_per_round(manifests, out: Path, rounds) -> list[set[str]]:
    """Entries that failed in each round.  The first round's 1-worker reports
    are checked; every pass of every round must match them byte for byte."""
    ref = out / "round0" / "w1"
    first = set()
    for name, doc in manifests:
        first |= {eid for eid, msgs in checks.check_outputs(doc, ref / name).items() if msgs}
    bad = []
    for k, rnd in enumerate(rounds):
        differ = set()
        for name, doc in manifests:
            for tag in ("w1", "par", "traced"):
                if tag in rnd:
                    differ |= checks.differing_entries(doc, ref / name, out / f"round{k}" / tag / name)
        bad.append(first | differ)
    return bad


def _scaled(seconds: float, before: float, after: float) -> float:
    """A time at the reference speed, from the calibration samples around it."""
    return seconds * calibrate.REFERENCE_S / (0.5 * (before + after))


def _pass_time(rounds, tag) -> float:
    """Sum over entries of each entry's median scaled time over its calibrated
    calls: all but those of the first 1-worker pass, which warms up."""
    return sum(statistics.median(_scaled(*r[tag][name]) for r in rounds if r[tag][name][1] is not None)
               for name in rounds[0][tag])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "radwalk" / "__init__.py").is_file():
        print(f"bench: no radwalk sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2

    began = time.perf_counter()
    deadline = began + DEADLINE_S
    manifests = workloads.build(args.workload, args.seed)
    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "manifests").mkdir(parents=True)
    paths = []
    for name, doc in manifests:
        path = work / "manifests" / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1))
        paths.append([name, str(path)])
    TRACE.mkdir(exist_ok=True)
    env = {**os.environ, **THREAD_ENV}
    base = {"src": str(src), "manifests": paths, "mode": "setup"}
    known = workloads.KNOWN_FAULTS.get(args.workload, set())

    try:
        _spawn(base, work / "warmup.json", env, deadline)
        calibrate.sample()  # untimed: the first call pays for numpy's lazy set-up
        setups, before = [], calibrate.sample()
        for i in range(SETUP_SAMPLES):
            seconds = _spawn(base, work / f"setup{i}.json", env, deadline)[0]
            after = calibrate.sample()
            setups.append(_scaled(seconds, before, after))
            before = after
        out = work / "out"
        spec = {**base, "mode": "measure", "out": str(out), "result": str(work / "result.json"),
                "workers": os.cpu_count() or 1, "trace": args.trace,
                "trace_path": str(TRACE / f"{args.workload}.jsonl"),
                "seconds": max(0.0, args.seconds - (time.perf_counter() - began))}
        result = _spawn(spec, work / "measure.json", env, deadline)[1]
    except RoundError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    rounds = result["rounds"]
    bad = _failed_per_round(manifests, out, rounds)
    shutil.rmtree(out)
    for k, (rnd, b) in enumerate(zip(rounds, bad)):
        print(f"round {k + 1}: run {sum(t for t, _, _ in rnd['w1'].values()):.3f} s, "
              f"parallel {sum(t for t, _, _ in rnd['par'].values()):.3f} s, "
              f"failed {sorted(b)}", file=sys.stderr)
    unexpected = set().union(*bad) - known
    if unexpected:
        print(f"bench: unexpected failures in {sorted(unexpected)}", file=sys.stderr)
    correct = not unexpected
    if args.trace:
        metrics = _layer_metrics(rounds)
        repeat = ("clt_experiments.trials", "clt_experiments.steps")
        if any(r["layers"][k] != rounds[0]["layers"][k] for r in rounds for k in repeat):
            print("bench: work counts differ between rounds", file=sys.stderr)
            correct = False
    else:
        run_s = _pass_time(rounds, "w1")
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s": run_s,
            "run_s_par": _pass_time(rounds, "par"),
            "trials_per_s": workloads.draws(manifests) / run_s,
            "peak_rss_mb": rounds[0]["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    print(json.dumps({"correct": correct, "attempted": len(manifests) * len(rounds),
                      "failed": sum(len(b) for b in bad), "metrics": metrics}))
    return 0


def _layer_metrics(rounds):
    """Per-layer metrics of the traced rounds.  Span times are medians over
    the rounds, as measured; ``calibration_s``, the median calibration
    sample, gives the speed they were measured at.  Pass times (the speed-up
    bases, the tracing overhead) are scaled as end to end."""
    layers = [r["layers"] for r in rounds]
    out = {k: statistics.median([lay[k] for lay in layers]) for k in layers[0]}
    out["clt_experiments.steps_per_s"] = statistics.median(
        [lay["clt_experiments.steps"] / lay["clt_experiments.verify_clt_s"]
         if lay["clt_experiments.verify_clt_s"] else 0.0 for lay in layers])
    run_s, run_s_par = _pass_time(rounds, "w1"), _pass_time(rounds, "par")
    out["clt_experiments.parallel_speedup"] = run_s / run_s_par
    out["clt_experiments.speedup_base_run_s"] = run_s
    out["clt_experiments.speedup_base_run_s_par"] = run_s_par
    out["cli.output_bytes"] = rounds[-1]["output_bytes"]
    out["trace_overhead_s"] = _pass_time(rounds, "traced") - run_s
    out["calibration_s"] = statistics.median(
        c for r in rounds for tag in ("w1", "par", "traced") for _, c, _ in r[tag].values() if c is not None)
    return {k: {"value": out[k], "unit": unit} for k, unit in PER_LAYER.items()}


if __name__ == "__main__":
    sys.exit(main())

"""The measuring process of a run, in a fresh interpreter started by ``run.py``.

Usage: ``python3 bench/worker.py SPEC.json``.  The worker imports radwalk
from the checkout, loads and parses the workload manifests, and prints
``READY`` (the parent times set-up up to that line).  In mode ``setup`` it
then exits.  In mode ``measure`` it repeats rounds until the spec's
``seconds`` have passed, and at least ``MIN_ROUNDS`` of them.  A round runs
``cmd_clt`` on every manifest at 1 worker, then at the parallel worker
count, and with ``trace`` set once more at 1 worker with spans recorded.
Each call is timed on its own; a sample of ``calibrate``'s machine-speed
kernel follows every pass.  Timings go to the spec's result file; the reports
stay in the round's output directories for the parent to check.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import calibrate

MIN_ROUNDS = 3


def _bytes_under(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, spec["src"])
    from radwalk import cli

    manifests = spec["manifests"]
    for _, path in manifests:
        cli.load_manifest(path)
    print("READY", flush=True)
    if spec["mode"] == "setup":
        return 0

    stop = time.perf_counter() + spec["seconds"]
    out = Path(spec["out"])

    calibration = []  # kernel samples, one between each two timed passes

    def run_pass(tag, workers, cmd_clt=cli.cmd_clt):
        """{manifest name: [seconds, calibration before, calibration after]};
        the first pass runs before any calibration and records None."""
        times = {}
        for name, path in manifests:
            start = time.perf_counter()
            cmd_clt(path, tag / name, workers=workers)
            times[name] = [time.perf_counter() - start, None, None]
        if calibration:
            calibration.append(calibrate.sample())
            for record in times.values():
                record[1:] = calibration[-2:]
        return times

    rounds, tracer = [], None
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < stop:
        tag = out / f"round{len(rounds)}"
        rnd = {"w1": run_pass(tag / "w1", 1)}
        if not rounds:
            # ru_maxrss is a high-water mark: read it before any larger pass,
            # and before the calibration kernel has run.
            rnd["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            calibration.append(calibrate.sample())
        rnd["par"] = run_pass(tag / "par", spec["workers"])
        if spec["trace"]:
            from spans import Tracer, patched

            tracer = Tracer()
            with patched(tracer):
                rnd["traced"] = run_pass(tag / "traced", 1, tracer.wrap("cli.cmd_clt", cli.cmd_clt))
            rnd["layers"] = tracer.summary()
            rnd["output_bytes"] = _bytes_under(tag / "traced")
        rounds.append(rnd)
    if tracer is not None:
        tracer.write(spec["trace_path"])
    Path(spec["result"]).write_text(json.dumps({"rounds": rounds}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

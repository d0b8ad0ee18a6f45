"""Spans around the calls that cross radwalk's module boundaries, recorded
from outside the program by patching the names the calling module looks up.

A span is ``(name, start, end, parent)``; spans stay in memory and are
written out after the traced pass.  A span's self time is its duration
minus the durations of its direct children (calls nest, so children never
overlap).  Sizes are computed from call arguments at the same boundaries.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

# Per-layer metric -> (span name, "self" or "total" time).  Container layers
# report their whole span; leaf layers and the walk's own loop report self time.
TIMES = {
    "radial_measures.orientation_s": ("radial_measures.orientation", "self"),
    "radial_measures.draw_radii_s": ("radial_measures.draw_radii", "self"),
    "radial_measures.moment_mc_s": ("radial_measures.radial_moment_mc", "total"),
    "radial_measures.predict_s": ("radial_measures.predict", "total"),
    "clt_experiments.verify_clt_s": ("clt_experiments.verify_clt", "total"),
    "clt_experiments.walk_self_s": ("clt_experiments.verify_clt", "self"),
    "clt_experiments.estimate_covariance_s": ("clt_experiments.estimate_covariance", "total"),
    "clt_experiments.ks_s": ("scipy.stats.kstest", "total"),
    "clt_experiments.moment_decay_s": ("clt_experiments.moment_decay_experiment", "total"),
    "cli.self_s": ("cli.cmd_clt", "self"),
    "cli.selftest_s": ("cli.run_selftest_suites", "total"),
    "gaussian_moments.s": ("gaussian_moments", "self"),
    "kron_algebra.s": ("kron_algebra", "self"),
    "combinatorics.s": ("combinatorics", "self"),
}
CALLS = {
    "radial_measures.orientation_calls": "radial_measures.orientation",
    "radial_measures.draw_radii_calls": "radial_measures.draw_radii",
}
FLOAT64 = 8


class Tracer:
    """Records the spans of wrapped calls and the counts made at their boundaries."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # (name, start, end, parent index)
        self.counts = {"clt_experiments.trials": 0, "clt_experiments.steps": 0,
                       "radial_measures.sample_bytes_max": 0, "clt_experiments.jackknife_bytes": 0}
        self._stack: list[int] = []

    def wrap(self, name, fn, meter=None):
        def traced(*args, **kwargs):
            if meter is not None:
                meter(self.counts, *args, **kwargs)
            idx = len(self.spans)
            self.spans.append((name, 0.0, 0.0, self._stack[-1] if self._stack else -1))
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, self.spans[idx][3])
        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")

    def summary(self) -> dict:
        """Per-layer totals; raises if a span's children do not fit inside it."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                _, pstart, pend, _ = self.spans[parent]
                if start < pstart or end > pend:
                    raise RuntimeError(f"span {name} lies outside its parent")
                child[parent] += end - start
        total, self_time, calls = {}, {}, {}
        for (name, start, end, _), inner in zip(self.spans, child):
            own = end - start - inner
            if own < -1e-9:
                raise RuntimeError(f"span {name}: children exceed the span by {-own:.3g} s")
            total[name] = total.get(name, 0.0) + end - start
            self_time[name] = self_time.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
        out = {metric: (self_time if kind == "self" else total).get(span, 0.0)
               for metric, (span, kind) in TIMES.items()}
        out.update({metric: calls.get(span, 0) for metric, span in CALLS.items()})
        out.update(self.counts)
        return out


def _walk_meter(counts, cfg, *args, **kwargs):
    counts["clt_experiments.trials"] += cfg.trials
    counts["clt_experiments.steps"] += cfg.trials * cfg.n


def _max(counts, key, size):
    counts[key] = max(counts[key], size * FLOAT64)


def _orbit_meter(counts, p, radii, *args, **kwargs):
    _max(counts, "radial_measures.sample_bytes_max", radii.shape[0] * p * radii.shape[1])


def _batch_meter(counts, p, nu, count, *args, **kwargs):
    _max(counts, "radial_measures.sample_bytes_max", count * p * nu.q)


def _cosine_meter(counts, p, size, *args, **kwargs):
    _max(counts, "radial_measures.sample_bytes_max", size)


def _jackknife_meter(counts, samples, *args, **kwargs):
    trials, d = samples.shape
    _max(counts, "clt_experiments.jackknife_bytes", trials * d * d)


class _StatsProxy:
    """Stands in for ``scipy.stats`` inside clt_experiments, timing kstest."""

    def __init__(self, stats, kstest):
        self._stats = stats
        self.kstest = kstest

    def __getattr__(self, attr):
        return getattr(self._stats, attr)


def _targets():
    """(owner, attribute, span name, meter) for each boundary call."""
    from radwalk import cli, clt_experiments as ce, radial_measures as rm

    targets = [
        (cli, "verify_clt", "clt_experiments.verify_clt", _walk_meter),
        (cli, "moment_decay_experiment", "clt_experiments.moment_decay_experiment", None),
        (cli, "run_selftest_suites", "cli.run_selftest_suites", None),
        (ce, "_orbit_batch", "radial_measures.orientation", _orbit_meter),
        (ce, "uniform_sphere_cosine", "radial_measures.orientation", _cosine_meter),
        (rm, "sample_radial_batch", "radial_measures.orientation", _batch_meter),
        (rm.RadialLaw, "draw_radii", "radial_measures.draw_radii", None),
        (ce, "radial_moment_mc", "radial_measures.radial_moment_mc", None),
        (ce, "estimate_covariance", "clt_experiments.estimate_covariance", _jackknife_meter),
        (ce, "r2", "radial_measures.predict", None),
        (ce, "sigma_nu", "radial_measures.predict", None),
        (ce, "t_nu", "radial_measures.predict", None),
        (cli, "kron_multinomial_expand", "combinatorics", None),
    ]
    targets += [(cli, name, "gaussian_moments", None)
                for name in ("MatrixNormalSpec", "moment_tensor", "sum_moment", "wick_moment")]
    targets += [(cli, name, "kron_algebra", None) for name in ("PermMat", "hadamard", "kron", "reorder_perm")]
    targets += [(getattr(cli, "PermMat", None), name, "kron_algebra", None) for name in ("apply_left", "apply_right")]
    return ce, targets


@contextmanager
def patched(tracer: Tracer):
    """Route radwalk's cross-module calls through the tracer, then restore.

    A name the program no longer has is skipped with a note on stderr, so
    the traced run still works after a refactor; its layer then reads 0.
    """
    ce, targets = _targets()
    values = []
    for owner, name, span, meter in targets:
        original = getattr(owner, name, None)
        if original is None:
            print(f"trace: {name} not found, layer {span} not traced", file=sys.stderr)
            continue
        values.append((owner, name, original, tracer.wrap(span, original, meter)))
    stats = getattr(ce, "stats", None)
    if stats is not None:
        values.append((ce, "stats", stats, _StatsProxy(stats, tracer.wrap("scipy.stats.kstest", stats.kstest))))
    try:
        for owner, name, _, value in values:
            setattr(owner, name, value)
        yield tracer
    finally:
        for owner, name, original, _ in values:
            setattr(owner, name, original)

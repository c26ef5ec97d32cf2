#!/usr/bin/env python3
"""Benchmark of polyred: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload series --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src``.  A
closed loop with one client runs whole passes over the workload's ops, each
checked against a known answer: as many passes as the first one says fit in
``--seconds`` of op time.  The checks between ops are not timed.  Each op has
a deadline of ``DEADLINE_S``; an op that runs past it is abandoned and
counted as overran.

Times are reported at a reference pace of the machine.  A shared host runs
the same code two to three times slower in spells that last from a fraction
of a second to minutes, which no run length averages out.  So a fixed piece of
exact arithmetic that shares no code with ``polyred``, the pace sample, is
timed before the first op and after every op, and each op's wall time is
scaled by ``PACE_REF_S`` over the median of the four samples nearest it.
Set-up times are scaled by the samples around them.  The ops slow somewhat
less than the sample does (log-log slope about 0.8), so in a slow spell the
scaled times read a little low.  The summary line also gives the unscaled
wall-clock figures and the pace.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one pass
over the corpus untraced, then the same pass with every layer wrapped by
:mod:`tracer`, and prints the per-layer metrics; it ignores ``--seconds``, so
its counts repeat exactly for a seed.  The second-to-last line of output is a
summary with every end-to-end metric, the outcome classes and the digest of
canonical outputs; the last line is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import types
from collections import Counter
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import exact  # noqa: E402
import workloads  # noqa: E402
from workloads import CORRECT, UNDETERMINED, WRONG  # noqa: E402

DEADLINE_S = 10.0
SETUPS = 5
MIN_OPS = 100  # so that at least ten ops lie beyond the 90th percentile
MODULES = ["gaussian", "poly", "couplings", "series", "jacobian", "elimination",
           "reduction", "family", "samples", "io", "cli", "acceptance"]
RAISED, OVERRAN = "raised", "overran"
FAILED = (WRONG, RAISED, OVERRAN)
# Time of one pace sample in the fast spells of a 2-vCPU cloud VM; it sets the
# scale of the reported times, which read as milliseconds at that pace.
PACE_REF_S = 2.2e-3
_PACE_POLY = exact.Poly(2, {(a, b): exact.scalar(Fraction(k + 1, 3), Fraction(k % 3 - 1, 2))
                            for k, (a, b) in enumerate((a, b) for a in range(5)
                                                       for b in range(5 - a))})


def pace_sample() -> float:
    """Seconds to square a fixed 15-term polynomial with exact complex coefficients."""
    t0 = perf_counter()
    _PACE_POLY * _PACE_POLY
    return perf_counter() - t0


def at_reference_pace(seconds: list[float], pace: list[float]) -> list[float]:
    """Op times scaled to the reference pace; op ``i`` ran between ``pace[i]`` and
    ``pace[i + 1]``, and is scaled by the median of the two samples before it
    and the two after."""
    return [dt * PACE_REF_S / statistics.median(pace[max(0, i - 1):i + 3])
            for i, dt in enumerate(seconds)]


class Overran(BaseException):
    """Raised into an op when it runs past the deadline; not an ``Exception``,
    so the library cannot catch it."""


class Deadline:
    """Interval-timer deadline for one call at a time."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise Overran()

    def call(self, fn):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        try:
            return fn()
        finally:
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)


def import_polyred() -> types.SimpleNamespace:
    """Import polyred from scratch, so set-up pays the real import cost every time."""
    for name in [m for m in sys.modules if m == "polyred" or m.startswith("polyred.")]:
        del sys.modules[name]
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"polyred.{m}") for m in MODULES})


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.deadline = Deadline(DEADLINE_S)
        self.workdir = os.path.join(ROOT, ".perfbench_work", f"{workload}-{seed}-{os.getpid()}")
        self.check_s = 0.0
        self.pace: list[float] = []

    def setup(self) -> float:
        t0 = perf_counter()
        self.lib = import_polyred()
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        os.chdir(self.workdir)
        self.ops = workloads.WORKLOADS[self.workload](self.lib, self.seed, self.workdir)
        self.warmup = self.run_op(self.ops[0])
        return perf_counter() - t0

    def run_op(self, op, tracing=None):
        """(outcome, canonical bytes, op seconds); only the call itself is timed.

        ``tracing``, a :class:`tracer.Tracer`, records spans during the call only.
        """
        if tracing:
            tracing.active = True
        t0 = perf_counter()
        try:
            out = self.deadline.call(op.call)
            status = None
        except Overran:
            status, out = OVERRAN, None
        except Exception as exc:  # any library failure is an outcome, not a crash
            status, out = RAISED, exc
        finally:
            dt = perf_counter() - t0
            if tracing:
                tracing.active = False
        t1 = perf_counter()
        if status is None:
            try:
                outcome, raw = op.check(out)
            except Exception as exc:  # malformed output is a wrong answer
                outcome, raw = WRONG, f"check failed: {type(exc).__name__}".encode()
        else:
            outcome, raw = status, f"{status}: {type(out).__name__}".encode()
        self.check_s += perf_counter() - t1
        return outcome, raw, dt

    def one_pass(self, tracing=None, reference=None):
        """Every op once: (wall seconds, seconds at the reference pace, outcome
        counts, canonical outputs).

        An op whose output differs from ``reference``, the outputs of an
        earlier pass over the same inputs, is wrong.
        """
        wall, outcomes, raws = [], Counter(), []
        pace = [pace_sample()]
        for i, op in enumerate(self.ops):
            outcome, raw, dt = self.run_op(op, tracing)
            pace.append(pace_sample())
            if reference is not None and raw != reference[i]:
                outcome = WRONG
            wall.append(dt)
            outcomes[outcome] += 1
            raws.append(raw)
        self.pace += pace
        return wall, at_reference_pace(wall, pace), outcomes, raws

    def timed(self, seconds: float):
        """Whole passes over the corpus: as many as the first pass says fit in
        ``seconds`` at the reference pace, and at least ``MIN_OPS`` ops.

        Whole passes keep every run's mix of ops the same as the corpus's.
        """
        wall, latencies, outcomes, first = self.one_pass()
        passes = max(round(seconds / sum(latencies)), math.ceil(MIN_OPS / len(self.ops)))
        for _ in range(passes - 1):
            more_wall, more, more_outcomes, _ = self.one_pass(reference=first)
            wall += more_wall
            latencies += more
            outcomes += more_outcomes
        return wall, latencies, outcomes, first

    def probe(self) -> str:
        outcome, raw, _ = self.run_op(workloads.known_defect_probe(self.lib, self.workdir))
        return outcome if outcome == CORRECT else raw.decode()

    def digest(self, raws: list[bytes]) -> str:
        h = hashlib.sha256()
        for i, raw in enumerate(raws):
            h.update(f"{i} {self.ops[i].kind}\n".encode())
            h.update(raw)
            h.update(b"\n")
        return "sha256:" + h.hexdigest()

    def cleanup(self):
        os.chdir(ROOT)
        shutil.rmtree(self.workdir, ignore_errors=True)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _outcome_counts(outcomes: Counter) -> dict:
    return {k: outcomes[k] for k in (CORRECT, UNDETERMINED, WRONG, RAISED, OVERRAN)}


def _timings(latencies: list[float], setups: list[float]) -> dict:
    return {
        "ops_per_s": _metric(len(latencies) / sum(latencies), "op/s"),
        "op_ms.p50": _metric(statistics.median(latencies) * 1e3, "ms"),
        "op_ms.p90": _metric(statistics.quantiles(latencies, n=10)[8] * 1e3, "ms"),
        "setup_s": _metric(statistics.median(setups), "s"),
    }


def run_end_to_end(runner: Runner, seconds: float):
    wall_setups, setups = [], []
    for _ in range(SETUPS):
        before = [pace_sample() for _ in range(3)]
        dt = runner.setup()
        pace = before + [pace_sample() for _ in range(3)]
        wall_setups.append(dt)
        setups.append(dt * PACE_REF_S / statistics.median(pace))
    wall, latencies, outcomes, first = runner.timed(seconds)
    attempted = len(latencies)
    failed = sum(outcomes[k] for k in FAILED)
    metrics = _timings(latencies, setups)
    metrics["peak_rss_mb"] = _metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    shown = dict(metrics)
    shown["failed_frac"] = _metric(failed / attempted, "ratio")
    shown["undetermined_frac"] = _metric(outcomes[UNDETERMINED] / attempted, "ratio")
    pace_deciles = statistics.quantiles(runner.pace, n=10)
    summary = {
        "workload": runner.workload, "seed": runner.seed, "trace": 0,
        "end_to_end": shown, "wall_clock": _timings(wall, wall_setups),
        "pace_ms": {"p10": pace_deciles[0] * 1e3, "p50": statistics.median(runner.pace) * 1e3,
                    "p90": pace_deciles[8] * 1e3, "reference": PACE_REF_S * 1e3},
        "outcomes": _outcome_counts(outcomes),
        "corpus_ops": len(runner.ops), "digest": runner.digest(first),
        "deadline_s": DEADLINE_S, "setups_s": setups, "check_s": runner.check_s,
        "warmup": runner.warmup[0], "known_defect_probe": runner.probe(),
    }
    return summary, attempted, failed, metrics


def run_traced(runner: Runner):
    import tracer  # numpy stays out of the untraced runs' memory and start-up

    runner.setup()
    _, plain_latencies, _, plain = runner.one_pass()
    tracing = tracer.Tracer()
    tracing.install()
    # Wrapping must not change any output, so the untraced pass is the reference.
    _, traced_latencies, outcomes, raws = runner.one_pass(tracing, reference=plain)
    plain_clock, traced_clock = sum(plain_latencies), sum(traced_latencies)
    values = tracing.layer_metrics()
    values["trace.wall_ratio"] = traced_clock / plain_clock
    spans_path = os.path.join(ROOT, ".perfbench_work",
                              f"spans-{runner.workload}-{runner.seed}.npz")
    tracing.write(spans_path)
    tracing.uninstall()
    units = tracer.metric_units()
    metrics = {name: _metric(values[name], unit) for name, unit in units.items()}
    attempted = len(runner.ops)
    failed = sum(outcomes[k] for k in FAILED)
    summary = {
        "workload": runner.workload, "seed": runner.seed, "trace": 1,
        "outcomes": _outcome_counts(outcomes), "digest": runner.digest(raws),
        "untraced_s": plain_clock, "traced_s": traced_clock, "spans": len(tracing.name_id),
        "spans_file": os.path.relpath(spans_path, ROOT), "missing_targets": tracing.missing,
        "deadline_s": DEADLINE_S, "known_defect_probe": runner.probe(),
    }
    return summary, attempted, failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        import_polyred()
    except ImportError as exc:
        sys.stderr.write(f"cannot import polyred from {os.path.join(ROOT, 'src')}: {exc}\n")
        return 2
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            summary, attempted, failed, metrics = run_traced(runner)
        else:
            summary, attempted, failed, metrics = run_end_to_end(runner, args.seconds)
    finally:
        runner.cleanup()
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

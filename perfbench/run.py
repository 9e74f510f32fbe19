#!/usr/bin/env python3
"""qtrw benchmark: oracle-checked workloads, end to end and layer by layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload dna-cold --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one process each

One workload runs as a closed loop with a single caller in this one
single-threaded process.  Its queries form a round fixed by the seed; whole
rounds repeat until the loop time is nearest to ``--seconds``.  Every answer
of the first round is checked against an oracle or known verdict (witnesses
are replayed outside the timed loop); every later round must reproduce it
exactly.  ``--trace 1`` runs the same rounds untraced, then traced, and
prints the per-layer metrics instead of the end-to-end ones.

Timings are reported at a nominal machine speed.  While queries run, a
``SIGALRM`` interval timer times a fixed reference loop, independent of
qtrw, every ``PROBE_EVERY_S``; a query's latency leaves the probes out and
is divided by the slowdown the probes during and around it show, their mean
time over ``REF_NOMINAL_S``.  This cancels the drift of a shared machine's
speed, which moves every wall time by up to 1.9x within minutes.  The
traced run also reports the raw wall figures and the slowdown itself.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 1
when an answer is wrong or the rounds disagree, and 2 when the qtrw sources
are missing.  See README.md beside this file for the metrics.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import heapq
import importlib
import json
import math
import random
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

import tracing
import workloads
from workloads import FAILED, OK, WRONG, Outcome, Plan

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
QTRW_MODULES = ("qtrw", "qtrw.quantale", "qtrw.term", "qtrw.qtrs",
                "qtrw.graded", "qtrw.search", "qtrw.qrel", "qtrw.systems",
                "qtrw.dsl", "qtrw.cli")
WORKLOADS = tuple(workloads.BUILDERS)
SETUP_REPEATS = 9
MIN_ROUNDS = 2  # every query is timed at least twice
PROBE_CAP = 2048  # deepest numeral the recursion probe tries
PROBE_EVERY_S = 0.05  # wall time between two reference probes
# about the reference probe's fastest time on the 2-vCPU Xeon VM with
# CPython 3.11 the baseline was taken on; it only fixes the scale of the
# reported timings
REF_NOMINAL_S = 0.0015
END_TO_END = (("setup_s", "s"), ("queries_per_s", "1/s"),
              ("query_p50_ms", "ms"), ("query_tail_ms", "ms"),
              ("peak_rss_mb", "MB"), ("ok_share", "ratio"),
              ("decided_share", "ratio"))


def tail_percentiles() -> Dict[str, int]:
    """Each workload's tail percentile, as BENCHMARK.json fixes it
    (``tail=pNN`` in the workload's ``why``)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    found = {w["name"]: re.search(r"\btail=p(\d+)\b", w["why"])
             for w in spec["workloads"]}
    missing = [name for name in WORKLOADS if not found.get(name)]
    if missing:
        raise ValueError(f"BENCHMARK.json fixes no tail=pNN for {missing}")
    return {name: int(found[name].group(1)) for name in WORKLOADS}


# ---------------------------------------------------------------------------
# machine speed


def reference_work() -> int:
    """Fixed pure-Python work in qtrw's style, independent of qtrw: builds
    nested tuples, hashes them into a dict, keeps a heap, adds fractions."""

    def tree(n: int) -> tuple:
        return (n,) if n < 2 else (n, tree(n - 1), tree(n - 2))

    seen: Dict[tuple, int] = {}
    heap: List[tuple] = []
    w = Fraction(0)
    for i in range(6):
        stack = [tree(11)]
        while stack:
            node = stack.pop()
            seen[node] = seen.get(node, 0) + 1
            heapq.heappush(heap, (len(node), node[0]))
            stack.extend(node[1:])
        w += Fraction(len(seen), i + 3)
    return len(heap) + w.numerator


class Prober:
    """Reference probes every ``PROBE_EVERY_S`` of wall time while active.

    A ``SIGALRM`` interval timer runs each probe in this thread between two
    bytecodes, so probes also land inside long queries; no thread or
    process is started.  The collector is off during a probe, so it never
    pays for scanning qtrw's heap.  ``probes`` holds (start, end) pairs; one
    probe is taken on entry and one on exit.
    """

    def __init__(self) -> None:
        self.probes: List[Tuple[float, float]] = []
        self._busy = False

    def take(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.probes.append((t0, t1))

    def _fire(self, signum, frame) -> None:
        if not self._busy:  # a probe slower than the interval is not nested
            self._busy = True
            try:
                self.take()
            finally:
                self._busy = False

    def __enter__(self) -> "Prober":
        self.take()
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.take()

    def correct(self, t0: float, t1: float) -> Tuple[float, float]:
        """Wall time of the interval [t0, t1] without the probes inside it,
        and the slowdown over it: the mean probe time of those probes and
        the nearest one before and after, over ``REF_NOMINAL_S``."""
        probes = self.probes
        lo = bisect.bisect_left(probes, (t0,))
        hi = bisect.bisect_left(probes, (t1,), lo)
        inside = [e - s for s, e in probes[lo:hi]]
        around = inside + [probes[lo - 1][1] - probes[lo - 1][0],
                           probes[hi][1] - probes[hi][0]]
        return (t1 - t0 - sum(inside),
                statistics.fmean(around) / REF_NOMINAL_S)


def import_qtrw() -> SimpleNamespace:
    """Import qtrw afresh from the checkout's ``src``; returns its modules."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "qtrw" or m.startswith("qtrw.")]:
        del sys.modules[name]
    mods = {name.rsplit(".", 1)[-1]: importlib.import_module(name)
            for name in QTRW_MODULES}
    if Path(mods["qtrw"].__file__).resolve().parent != SRC / "qtrw":
        raise ImportError(f"qtrw imported from {mods['qtrw'].__file__}")
    return SimpleNamespace(**mods)


def setup(workload: str, seed: int) -> Tuple[SimpleNamespace, Plan,
                                              List[float], List[float]]:
    """Import, build systems and generate inputs, several times; keep the
    last.  Returns the set-up times at nominal speed and as wall times."""
    nominal, wall = [], []
    for _ in range(SETUP_REPEATS):
        with Prober() as prober:
            t0 = time.perf_counter()
            Q = import_qtrw()
            plan = workloads.BUILDERS[workload](
                Q, random.Random(f"{workload}/{seed}"))
            t1 = time.perf_counter()
        dt, slowdown = prober.correct(t0, t1)
        wall.append(dt)
        nominal.append(dt / slowdown)
    return Q, plan, nominal, wall


# ---------------------------------------------------------------------------
# measurement


class Tally:
    def __init__(self) -> None:
        self.attempted = self.failed = self.wrong = self.decided = 0
        self.problems: List[str] = []

    def add(self, label: str, outcome: Outcome) -> None:
        self.attempted += 1
        self.decided += outcome.decided
        if outcome.status == FAILED:
            self.failed += 1
        elif outcome.status == WRONG:
            self.wrong += 1
        if outcome.status != OK and len(self.problems) < 20:
            self.problems.append(f"{outcome.status}: {label}: {outcome.detail}")


@dataclass
class Timing:
    """What the timed loop saw: per query, latency at nominal speed, wall
    latency and slowdown; per round, queries per second both ways."""
    latencies: List[float] = field(default_factory=list)
    wall: List[float] = field(default_factory=list)
    slowdowns: List[float] = field(default_factory=list)
    round_qps: List[float] = field(default_factory=list)
    wall_round_qps: List[float] = field(default_factory=list)

    @property
    def loop_s(self) -> float:
        return sum(self.wall)


def run_round(plan: Plan, tracer: Optional[tracing.Tracer]
              ) -> Tuple[List[tuple], List[float]]:
    """One closed-loop pass over the queries: (latency, answer, error) and
    the slowdown of each query, from the reference probes during and
    around it.  The latency leaves out the probes' own time."""
    plan.new_round()
    spans = []
    with Prober() as prober:
        for q in plan.queries:
            t0 = time.perf_counter()
            try:
                out = tracer.span("query", q.run) if tracer else q.run()
                err = None
            except Exception as exc:  # a crash is a failed query, not a stop
                out, err = None, exc
                traceback.print_exc(limit=3, file=sys.stderr)
            spans.append((t0, time.perf_counter(), out, err))
    results, slowdowns = [], []
    for t0, t1, out, err in spans:
        dt, slowdown = prober.correct(t0, t1)
        results.append((dt, out, err))
        slowdowns.append(slowdown)
    return results, slowdowns


def judge(plan: Plan, results: List[tuple], reference: Optional[List[tuple]],
          tally: Tally, full_check: bool) -> List[tuple]:
    """Outcomes of one round: a full oracle check, or agreement with the
    reference round, or both.  Returns (outcome, digest) per query."""
    judged = []
    for i, (q, (_, out, err)) in enumerate(zip(plan.queries, results)):
        if err is not None:
            outcome, digest = Outcome(FAILED, False, f"raised {err!r}"), "raised"
        else:
            digest = q.digest(out)
            if full_check or reference is None:
                outcome = q.check(out)
            else:
                outcome = reference[i][0]
            if reference is not None and digest != reference[i][1]:
                outcome = Outcome(WRONG, False, "answer differs from round one")
        tally.add(q.label, outcome)
        judged.append((outcome, digest))
    return judged


def measure(plan: Plan, seconds: float, tally: Tally,
            reference: Optional[List[tuple]] = None,
            tracer: Optional[tracing.Tracer] = None):
    """Whole rounds until the loop time is nearest to ``seconds``, and at
    least ``MIN_ROUNDS``.

    Returns the timing, the first round's judgement and, when traced, the
    per-layer metrics of each round.
    """
    timing = Timing()
    rounds = 0
    first = reference
    layers: List[Dict[str, float]] = []
    while True:
        gc.collect()
        if tracer:
            tracer.reset()
        results, slowdowns = run_round(plan, tracer)
        rounds += 1
        wall = [r[0] for r in results]
        nominal = [t / f for t, f in zip(wall, slowdowns)]
        timing.wall.extend(wall)
        timing.latencies.extend(nominal)
        timing.slowdowns.extend(slowdowns)
        timing.round_qps.append(len(nominal) / sum(nominal))
        timing.wall_round_qps.append(len(wall) / sum(wall))
        if tracer:
            with tracer.aside():
                judged = judge(plan, results, first, tally, full_check=True)
            layers.append(tracer.layer_metrics())
        else:
            judged = judge(plan, results, first, tally, full_check=rounds == 1)
        if first is None:
            first = judged
        loop_s = timing.loop_s
        if rounds >= MIN_ROUNDS and loop_s + loop_s / rounds / 2 >= seconds:
            return timing, first, layers


def percentile(values: List[float], p: float) -> Tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def max_safe_depth(Q: SimpleNamespace) -> int:
    """Deepest numeral ``one_step`` handles under the default recursion
    limit, by doubling then bisection (capped at ``PROBE_CAP``)."""

    def ok(d: int) -> bool:
        try:
            Q.qtrs.one_step(Q.systems.make_nat(), Q.systems.nat_term(d))
            return True
        except RecursionError:
            return False

    lo, hi = 0, 1
    while hi <= PROBE_CAP and ok(hi):
        lo, hi = hi, hi * 2
    if hi > PROBE_CAP:
        return lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if ok(mid) else (lo, mid)
    return lo


# ---------------------------------------------------------------------------
# one workload


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    tail_p = tail_percentiles()[workload]
    Q, plan, setup_times, setup_wall = setup(workload, seed)
    labels = "\n".join(q.label for q in plan.queries)
    print(f"workload {workload}, seed {seed}: {len(plan.queries)} queries"
          f" per round, inputs {hashlib.sha256(labels.encode()).hexdigest()[:12]}")
    tally = Tally()
    timing, first, _ = measure(plan, seconds, tally)
    qps = statistics.median(timing.round_qps)
    ok_share = 1 - (tally.failed + tally.wrong) / tally.attempted
    decided_share = tally.decided / tally.attempted
    print(f"{len(timing.wall)} queries in {len(timing.round_qps)} rounds,"
          f" {timing.loop_s:.3f} s wall; slowdown median"
          f" {statistics.median(timing.slowdowns):.3f}, range"
          f" {min(timing.slowdowns):.3f}-{max(timing.slowdowns):.3f};"
          f" wall set-up {[round(t, 4) for t in setup_wall]} s")

    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, _, layers = measure(plan, seconds, tally,
                                        reference=first, tracer=tracer)
        finally:
            tracer.remove()
        # counts repeat exactly on every round; times are averaged
        values = {
            name: layers[0][name] if name in tracing.COUNT_METRICS
            else statistics.fmean(r[name] for r in layers)
            for name, _ in tracing.LAYER_METRICS if name in layers[0]}
        unsteady = [name for name in tracing.COUNT_METRICS
                    if len({r[name] for r in layers}) > 1]
        if unsteady:
            tally.problems.append(f"counts differ between rounds: {unsteady}")
        traced_qps = statistics.median(traced.round_qps)
        values["trace.queries_per_s"] = traced_qps
        values["trace.overhead_queries_per_s"] = qps - traced_qps
        values["term.max_safe_depth"] = max_safe_depth(Q)
        values["wall.queries_per_s"] = statistics.median(timing.wall_round_qps)
        values["wall.query_p50_ms"] = statistics.median(timing.wall) * 1000
        values["wall.query_tail_ms"] = percentile(timing.wall, tail_p)[0] * 1000
        values["machine.slowdown"] = statistics.median(timing.slowdowns)
        metrics = {name: metric(values[name], unit)
                   for name, unit in tracing.LAYER_METRICS}
        print(f"traced rounds: {len(layers)}; untraced {qps:.4g} queries/s,"
              f" traced {traced_qps:.4g} queries/s")
        correct = tally.wrong == 0 and not unsteady
    else:
        tail, beyond = percentile(timing.latencies, tail_p)
        print(f"tail is p{tail_p} with {beyond} samples beyond it")
        values = {
            "setup_s": statistics.median(setup_times),
            "queries_per_s": qps,
            "query_p50_ms": statistics.median(timing.latencies) * 1000,
            "query_tail_ms": tail * 1000,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_share": ok_share,
            "decided_share": decided_share,
        }
        metrics = {name: metric(values[name], unit) for name, unit in END_TO_END}
        correct = tally.wrong == 0

    for line in tally.problems:
        print(line)
    for name, m in metrics.items():
        print(f"  {name:36} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed + tally.wrong,
                      "metrics": metrics}))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# every workload, one process each


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Run each workload in its own process, one after another."""
    summary: Dict[str, Dict[str, object]] = {}
    correct, attempted, failed, status = True, 0, 0, 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = max(status, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{workload}: no result (exit {proc.returncode})")
            correct = False
            continue
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, m in result["metrics"].items():
            summary[f"{workload}/{name}"] = m
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": summary}))
    return status if status else (0 if correct else 1)


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "qtrw" / "__init__.py").is_file():
        print(f"error: no qtrw sources under {SRC}; run from the root of a"
              " qtrw checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())

"""Out-of-program tracing for the benchmark's traced run.

The tracer wraps qtrw's public layer entry points from the outside: every
wrapped function is replaced both in the module that defines it and in each
qtrw module that imported it by name, because callers look names up in their
own module globals at call time (``qtrw.search.one_step`` as well as
``qtrw.qtrs.one_step``).  Nothing under ``src/`` is modified.

Two kinds of wrapper exist:

* span wrappers record ``[name, start, end, parent, term_s, size]`` for each
  call and keep the records in memory until the run ends; self time is a
  span's duration minus its child spans and the term-layer time spent
  directly under it;
* hot wrappers, for the recursive ``term`` functions, only count calls and
  time the outermost call of each function, because one span per recursive
  call would dominate the run.

The ``quantale`` layer is deliberately not wrapped: its operations run once
per relaxation, so timing them would dominate the trace.
"""

from __future__ import annotations

import contextlib
import sys
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

# term functions: count and outermost-call time only
HOT_TERM = ("replace_at", "positions", "apply_substitution",
            "instantiate_params", "match", "unify")

DISTANCE = ("search.convertibility_distance", "search.reduction_distance")

# (span name, module, attribute path, size of the result or None)
SPANS: Tuple[Tuple[str, str, str, Optional[Callable[[object], int]]], ...] = (
    ("qtrs.one_step", "qtrw.qtrs", "one_step", len),
    ("qtrs.critical_pairs", "qtrw.qtrs", "critical_pairs", len),
    ("qtrs.strongly_closed_check", "qtrw.qtrs", "strongly_closed_check", None),
    ("qtrs.join_check", "qtrw.qtrs", "join_check", None),
    ("qtrs.term_graph", "qtrw.qtrs", "term_graph",
     lambda out: len(out[0].carrier)),
    ("qtrs.confluence_report", "qtrw.qtrs", "confluence_report", None),
    ("search.convertibility_distance", "qtrw.search",
     "convertibility_distance", lambda ans: ans.expanded),
    ("search.reduction_distance", "qtrw.search", "reduction_distance",
     lambda ans: ans.expanded),
    ("search.validate_witness", "qtrw.search", "validate_witness", None),
    ("graded.multi_step", "qtrw.graded", "multi_step", None),
    ("graded.multistep_diamond_probe", "qtrw.graded",
     "multistep_diamond_probe", None),
    ("qrel.star", "qtrw.qrel", "FiniteQRel.star", None),
    ("qrel.compose", "qtrw.qrel", "FiniteQRel.compose", None),
    ("dsl.parse_system", "qtrw.dsl", "parse_system", None),
    ("dsl.parse_term", "qtrw.dsl", "parse_term", None),
    ("cli.main", "qtrw.cli", "main", None),
)

# every per-layer metric the traced run reports, with its unit
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("term.replace_at.calls", "count"),
    ("term.replace_at.s", "s"),
    ("term.positions.calls", "count"),
    ("term.apply_substitution.calls", "count"),
    ("term.instantiate_params.calls", "count"),
    ("term.match.calls", "count"),
    ("term.match.s", "s"),
    ("term.unify.calls", "count"),
    ("term.max_safe_depth", "count"),
    ("qtrs.one_step.calls", "count"),
    ("qtrs.one_step.steps", "count"),
    ("qtrs.one_step.self_s", "s"),
    ("qtrs.one_step.steps_per_s", "1/s"),
    ("qtrs.critical_pairs.s", "s"),
    ("qtrs.critical_pairs.peaks", "count"),
    ("qtrs.strongly_closed_check.calls", "count"),
    ("qtrs.strongly_closed_check.s", "s"),
    ("qtrs.join_check.s", "s"),
    ("qtrs.term_graph.s", "s"),
    ("qtrs.term_graph.nodes", "count"),
    ("qtrs.confluence_report.s", "s"),
    ("search.expanded", "count"),
    ("search.expansions_per_s", "1/s"),
    ("search.self_s", "s"),
    ("search.one_step_per_expansion", "ratio"),
    ("search.validate_witness.s", "s"),
    ("graded.multi_step.calls", "count"),
    ("graded.multi_step.s", "s"),
    ("graded.multistep_diamond_probe.s", "s"),
    ("qrel.star.calls", "count"),
    ("qrel.star.s", "s"),
    ("qrel.compose.s", "s"),
    ("dsl.parse_system.s", "s"),
    ("dsl.parse_term.s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.queries_per_s", "1/s"),
    ("trace.overhead_queries_per_s", "1/s"),
    ("wall.queries_per_s", "1/s"),
    ("wall.query_p50_ms", "ms"),
    ("wall.query_tail_ms", "ms"),
    ("machine.slowdown", "ratio"),
)

# metrics that must repeat exactly on every traced round of one seed
COUNT_METRICS = tuple(name for name, unit in LAYER_METRICS
                      if unit == "count" and name != "term.max_safe_depth")


class Tracer:
    """Span and counter store; ``install`` patches qtrw, ``remove`` undoes it."""

    def __init__(self) -> None:
        self._patched: List[Tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._term_depth = 0
        self.hot: Dict[str, list] = {n: [0, 0, 0.0] for n in HOT_TERM}
        self.validate_s = 0.0

    @contextlib.contextmanager
    def aside(self) -> Iterator[None]:
        """Trace answer checking apart from the queries.

        Witness replay runs the same layers as the queries; recording it in
        separate storage keeps it out of every per-layer figure except
        ``search.validate_witness.s``.
        """
        saved = (self.spans, self._stack, self._term_depth, self.hot,
                 self.validate_s)
        self.reset()
        try:
            yield
        finally:
            spent = sum(end - start for name, start, end, *_ in self.spans
                        if name == "search.validate_witness")
            (self.spans, self._stack, self._term_depth, self.hot,
             self.validate_s) = saved
            self.validate_s += spent

    # -- recording -----------------------------------------------------------

    def span(self, name: str, fn: Callable, *args, size=None, **kwargs):
        """Run ``fn`` inside a span called ``name``; returns its result."""
        stack = self._stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0, 0]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            stack.pop()
        if size is not None:
            rec[5] = size(out)
        return out

    def _span_wrapper(self, name: str, fn: Callable, size) -> Callable:
        span = self.span

        def traced(*args, **kwargs):
            return span(name, fn, *args, size=size, **kwargs)

        return traced

    def _hot_wrapper(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            cell = tracer.hot[name]
            cell[0] += 1
            if cell[1]:
                return fn(*args, **kwargs)  # recursive call: count only
            cell[1] = 1
            outermost_term = tracer._term_depth == 0
            tracer._term_depth += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                cell[1] = 0
                cell[2] += dt
                tracer._term_depth -= 1
                if outermost_term and tracer._stack:
                    tracer.spans[tracer._stack[-1]][4] += dt

        return traced

    # -- patching ------------------------------------------------------------

    def _replace_everywhere(self, original: object, replacement: object) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "qtrw" or modname.startswith("qtrw.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        term = sys.modules["qtrw.term"]
        for name in HOT_TERM:
            fn = getattr(term, name)
            self._replace_everywhere(fn, self._hot_wrapper(name, fn))
        for name, modname, path, size in SPANS:
            mod = sys.modules[modname]
            if "." in path:  # a method: patch the class attribute once
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                self._patched.append((cls, meth, fn))
                setattr(cls, meth, self._span_wrapper(name, fn, size))
            else:
                fn = getattr(mod, path)
                self._replace_everywhere(fn, self._span_wrapper(name, fn, size))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    # -- derived metrics -----------------------------------------------------

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer metrics of everything recorded since the last reset."""
        spans = self.spans
        child = [0.0] * len(spans)
        in_distance = [False] * len(spans)
        # names of each span and its ancestors; parents precede children
        lineage: List[frozenset] = [frozenset()] * len(spans)
        nested = [False] * len(spans)
        for i, (name, start, end, parent, _, _) in enumerate(spans):
            above = lineage[parent] if parent >= 0 else frozenset()
            nested[i] = name in above
            lineage[i] = above if nested[i] else above | {name}
            in_distance[i] = not above.isdisjoint(DISTANCE) or name in DISTANCE
            if parent >= 0:
                child[parent] += end - start
        calls: Dict[str, int] = {}
        total: Dict[str, float] = {}
        self_s: Dict[str, float] = {}
        size: Dict[str, int] = {}
        one_step_in_search = 0
        for i, (name, start, end, parent, term_s, n) in enumerate(spans):
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            if not nested[i]:  # inclusive time counts the outermost span
                total[name] = total.get(name, 0.0) + dur
            self_s[name] = self_s.get(name, 0.0) + dur - child[i] - term_s
            size[name] = size.get(name, 0) + n
            if name == "qtrs.one_step" and parent >= 0 and in_distance[parent]:
                one_step_in_search += 1

        def c(name: str) -> int:
            return calls.get(name, 0)

        def s(name: str) -> float:
            return total.get(name, 0.0)

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        hot = self.hot
        expanded = sum(size.get(n, 0) for n in DISTANCE)
        distance_s = sum(s(n) for n in DISTANCE)
        return {
            "term.replace_at.calls": hot["replace_at"][0],
            "term.replace_at.s": hot["replace_at"][2],
            "term.positions.calls": hot["positions"][0],
            "term.apply_substitution.calls": hot["apply_substitution"][0],
            "term.instantiate_params.calls": hot["instantiate_params"][0],
            "term.match.calls": hot["match"][0],
            "term.match.s": hot["match"][2],
            "term.unify.calls": hot["unify"][0],
            "qtrs.one_step.calls": c("qtrs.one_step"),
            "qtrs.one_step.steps": size.get("qtrs.one_step", 0),
            "qtrs.one_step.self_s": self_s.get("qtrs.one_step", 0.0),
            "qtrs.one_step.steps_per_s": ratio(
                size.get("qtrs.one_step", 0), s("qtrs.one_step")),
            "qtrs.critical_pairs.s": s("qtrs.critical_pairs"),
            "qtrs.critical_pairs.peaks": size.get("qtrs.critical_pairs", 0),
            "qtrs.strongly_closed_check.calls": c("qtrs.strongly_closed_check"),
            "qtrs.strongly_closed_check.s": s("qtrs.strongly_closed_check"),
            "qtrs.join_check.s": s("qtrs.join_check"),
            "qtrs.term_graph.s": s("qtrs.term_graph"),
            "qtrs.term_graph.nodes": size.get("qtrs.term_graph", 0),
            "qtrs.confluence_report.s": s("qtrs.confluence_report"),
            "search.expanded": expanded,
            "search.expansions_per_s": ratio(expanded, distance_s),
            "search.self_s": sum(self_s.get(n, 0.0) for n in DISTANCE),
            "search.one_step_per_expansion": ratio(one_step_in_search, expanded),
            "search.validate_witness.s": self.validate_s,
            "graded.multi_step.calls": c("graded.multi_step"),
            "graded.multi_step.s": s("graded.multi_step"),
            "graded.multistep_diamond_probe.s": s(
                "graded.multistep_diamond_probe"),
            "qrel.star.calls": c("qrel.star"),
            "qrel.star.s": s("qrel.star"),
            "qrel.compose.s": s("qrel.compose"),
            "dsl.parse_system.s": s("dsl.parse_system"),
            "dsl.parse_term.s": s("dsl.parse_term"),
            "cli.main.self_s": self_s.get("cli.main", 0.0),
        }

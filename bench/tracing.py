"""Spans around the library's public functions, installed from outside it.

`Tracer.installed()` replaces every public function of `cli`, `core`,
`solver`, `rules`, `axioms` and `corpus` by a timing wrapper, at every module
attribute bound to it: `rules.optimize_committee` as well as
`solver.optimize_committee`, `corpus.score_committee` as well as
`core.score_committee`, and so on.  Calls made through a module global (for
example `check_ejr` calling `check_ell_jr`) therefore pass through the
wrapper too.  Spans are kept in memory; `layer_metrics` turns one pass's
spans into per-layer busy time, self time and counters.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
from collections import defaultdict, namedtuple
from time import perf_counter
from typing import Callable, Optional

LAYERS = ("cli", "core", "solver", "rules", "axioms", "corpus")

# what a span remembers about its call's result, beside its times
_INFO: dict[str, Callable] = {
    "cli.parse_profile": lambda args, result: len(args[0]),
    "solver.optimize_committee": lambda args, result: (result.nodes_explored, result.co_optimal_count or 0),
    "rules.sequential_trace": lambda args, result: len(result),
    "axioms.check_jr": lambda args, result: result.passed,
    "corpus.replay_expectation": lambda args, result: result.ok,
}


Span = namedtuple("Span", "name start end parent job info")
Span.__doc__ = "One wrapped call: times, index of the enclosing span (-1 if none), job id."


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.job: Optional[int] = None
        self.errors: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans = []
        self.errors = defaultdict(int)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        layer = name.partition(".")[0]
        info = _INFO.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[layer] += 1
                spans[index] = Span(name, start, perf_counter(), parent, tracer.job, None)
                raise
            finally:
                stack.pop()
            end = perf_counter()
            spans[index] = Span(name, start, end, parent, tracer.job, info(args, result) if info else None)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every public function of the library's layers while active."""
        modules = [importlib.import_module(f"jrvoting.{layer}") for layer in LAYERS]
        modules.append(importlib.import_module("jrvoting"))
        wrappers = {}
        for module in modules[:-1]:
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and not attr.startswith("_")
                    and value.__module__ == module.__name__
                ):
                    layer = module.__name__.rpartition(".")[2]
                    wrappers[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))
        replaced = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(module, attr, wrappers[id(value)][1])
                    replaced.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in replaced:
                setattr(module, attr, value)


# ---------------------------------------------------------------------------
# Metrics from one pass's spans
# ---------------------------------------------------------------------------


def _layer(name: str) -> str:
    return name.partition(".")[0]


def layer_metrics(spans: list, errors: dict[str, int], scales: list[float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass; times in ms, counts as counts.

    A span's duration is scaled by its job's host-speed factor `scales[job]`,
    as the end-to-end job times are.  A layer's busy time sums its outermost
    spans (those whose parent belongs to another layer); its self time sums
    each of its spans' duration minus the duration of that span's direct
    children.  No public function of the library is recursive, so spans of
    one name never overlap."""
    spans = [s._replace(end=s.start + (s.end - s.start) * scales[s.job]) for s in spans]
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start

    def parent_name(span) -> str:
        return spans[span.parent].name if span.parent >= 0 else ""

    busy = defaultdict(float)
    self_time = defaultdict(float)
    by_name = defaultdict(float)
    calls = defaultdict(int)
    for i, span in enumerate(spans):
        duration = span.end - span.start
        layer = _layer(span.name)
        self_time[layer] += duration - child_time[i]
        if _layer(parent_name(span)) != layer:
            busy[layer] += duration
        by_name[span.name] += duration
        calls[span.name] += 1

    def under(name: str, parents: tuple[str, ...]) -> list:
        return [s for s in spans if s.name == name and parent_name(s) in parents]

    def ms(value: float) -> float:
        return value * 1000.0

    solver_spans = [s for s in spans if s.name == "solver.optimize_committee" and s.info]
    nodes = sum(s.info[0] for s in solver_spans)
    filtered = ("rules.compute_ujrav", "rules.compute_ejrav")
    filtered_checks = under("axioms.check_jr", filtered)
    check_names = [n for n in calls if n.startswith("axioms.check_")]
    replays = [s for s in spans if s.name == "corpus.replay_expectation"]
    verify_self = sum(
        s.end - s.start - child_time[i]
        for i, s in enumerate(spans)
        if s.name in ("corpus.verify_fixture", "corpus.replay_expectation")
    )
    main_self = sum(
        s.end - s.start - child_time[i] for i, s in enumerate(spans) if s.name == "cli.main"
    )
    metrics = {
        "trace.spans": len(spans),
        "trace.job_ms": ms(sum(s.end - s.start for s in spans if s.name == "cli.main")),
        "cli.parse_ms": ms(by_name["cli.parse_profile"]),
        "cli.parse_bytes": sum(s.info for s in spans if s.name == "cli.parse_profile" and s.info),
        "cli.self_ms": ms(main_self),
        "core.score_ms": ms(by_name["core.score_committee"]),
        "solver.calls": calls["solver.optimize_committee"],
        "solver.busy_ms": ms(busy["solver"]),
        "solver.nodes": nodes,
        "solver.us_per_node": ms(busy["solver"]) * 1000.0 / nodes if nodes else 0.0,
        "solver.co_optima": sum(s.info[1] for s in solver_spans),
        "solver.jr_checks": len(under("axioms.check_jr", ("solver.optimize_committee",))),
        "rules.sequential_ms": ms(by_name["rules.sequential_trace"]),
        "rules.rounds": sum(s.info for s in spans if s.name == "rules.sequential_trace" and s.info),
        "rules.filtered_ms": ms(sum(by_name[n] for n in filtered)),
        "rules.filtered_jr_checks": len(filtered_checks),
        "rules.filtered_jr_passed": sum(1 for s in filtered_checks if s.info),
        "rules.filtered_jr_pass_ratio": (
            sum(1 for s in filtered_checks if s.info) / len(filtered_checks) if filtered_checks else 0.0
        ),
        "rules.report_score_ms": ms(by_name["rules.report_score"]),
        "axioms.check_ms": ms(sum(
            s.end - s.start for s in spans
            if s.name.startswith("axioms.check_") and not parent_name(s).startswith("axioms.check_")
        )),
        "axioms.check_calls": sum(calls[n] for n in check_names),
        "axioms.ejr_levels": len(under("axioms.check_ell_jr", ("axioms.check_ejr",))),
        "axioms.find_ms": ms(sum(v for n, v in by_name.items() if n.startswith("axioms.find_"))),
        "corpus.build_ms": ms(by_name["corpus.build_fixture"]),
        "corpus.verify_self_ms": ms(verify_self),
        "corpus.expectations": len(replays),
        "corpus.expectation_failures": sum(1 for s in replays if s.info is False),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = ms(self_time[layer])
        metrics[f"{layer}.errors"] = errors.get(layer, 0)
    return metrics


# counters that must repeat exactly between passes and runs of one seed
DETERMINISTIC = (
    "trace.spans",
    "cli.parse_bytes",
    "solver.calls",
    "solver.nodes",
    "solver.co_optima",
    "solver.jr_checks",
    "rules.rounds",
    "rules.filtered_jr_checks",
    "rules.filtered_jr_passed",
    "axioms.check_calls",
    "axioms.ejr_levels",
    "corpus.expectations",
    "corpus.expectation_failures",
)

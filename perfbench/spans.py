"""In-memory call spans around fourovern's public functions.

Tracer.install() replaces every binding of a traced function in the
loaded fourovern modules by one recording wrapper.  sweep.factorize,
construct_th2.factorize and construct_th34.factorize, for example, all
become the wrapper labelled core_arith.factorize, so the calls the package
makes to itself are seen from outside without changing its code.

Each call is one span: label, start, end, parent span and outcome (returned
a value, returned None, or raised).  Spans are kept in flat arrays while
the workload runs and written out once, by write(), when it has finished.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

RETURNED, RETURNED_NONE, RAISED = 0, 1, 2

# Label "<defining module>.<function>" of every traced public function.
TRACED = (
    "cli.cli_main",
    "sweep.sweep_range",
    "sweep.emit_report",
    "sweep.solve",
    "sweep.classify_hard",
    "construct_th2.theorem2_dispatch",
    "construct_th34.theorem4_search",
    "construct_th34.theorem3_search",
    "oracle.first_solution",
    "triples.make_triple",
    "core_arith.unit_sum",
    "core_arith.factorize",
    "core_arith.divisors",
    "core_arith.is_prime",
)


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.labels: list[str] = []
        self.label = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.outcome = array("b")
        self.active = True
        self._stack: list[int] = []
        self._clock = clock

    def wrap(self, fn, label: str):
        label_id = len(self.labels)
        self.labels.append(label)
        clock = self._clock
        stack = self._stack
        spans_label, spans_start, spans_end = self.label, self.start, self.end
        spans_parent, spans_outcome = self.parent, self.outcome

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans_start)
            spans_label.append(label_id)
            spans_parent.append(stack[-1] if stack else -1)
            spans_outcome.append(RETURNED)
            spans_end.append(0.0)
            stack.append(idx)
            spans_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans_outcome[idx] = RAISED
                raise
            finally:
                spans_end[idx] = clock()
                stack.pop()
            if result is None:
                spans_outcome[idx] = RETURNED_NONE
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str = "fourovern") -> None:
        """Wrap every binding of each TRACED function in the loaded package.

        Forked pool workers stop recording: their spans could never reach
        this process, so they would only cost time.
        """
        modules = [m for name, m in list(sys.modules.items())
                   if name == package or name.startswith(package + ".")]
        for label in TRACED:
            module_name, attr = label.split(".")
            original = getattr(sys.modules[f"{package}.{module_name}"], attr)
            wrapper = self.wrap(original, label)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
        os.register_at_fork(after_in_child=self._stop)

    def _stop(self) -> None:
        self.active = False

    def write(self, path: Path) -> None:
        """One tab-separated line per span: index, label, start, end, parent, outcome."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tlabel\tstart_s\tend_s\tparent\toutcome\n")
            fh.writelines(
                f"{i}\t{self.labels[lab]}\t{s:.9f}\t{e:.9f}\t{p}\t{o}\n"
                for i, (lab, s, e, p, o) in enumerate(
                    zip(self.label, self.start, self.end, self.parent, self.outcome))
            )


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    Children are clipped to their parent's interval and overlapping
    children are counted once.
    """
    out = [e - s for s, e in zip(start, end)]
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        run_start = run_end = None
        for s, e in sorted((max(start[k], lo), min(end[k], hi)) for k in kids):
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            else:
                run_end = max(run_end, e)
        if run_end is not None:
            covered += run_end - run_start
        out[p] -= covered
    return out


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer calls, times and ratios from the recorded spans.

    wall_s is the traced region's wall time; trace_coverage_frac is the
    share of it that top-level spans cover.
    """
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    hits: dict[str, int] = defaultdict(int)
    raised: dict[str, int] = defaultdict(int)
    top = 0.0
    for i, lab in enumerate(tracer.label):
        name = tracer.labels[lab]
        dur = tracer.end[i] - tracer.start[i]
        calls[name] += 1
        total[name] += dur
        own[name] += selfs[i]
        hits[name] += tracer.outcome[i] == RETURNED
        raised[name] += tracer.outcome[i] == RAISED
        if tracer.parent[i] < 0:
            top += dur

    def frac(num: int, den: int) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for name in ("core_arith.factorize", "core_arith.divisors",
                 "core_arith.is_prime", "core_arith.unit_sum"):
        m[f"{name}_calls"] = calls[name]
        m[f"{name}_s"] = total[name]
    mt = "triples.make_triple"
    m[f"{mt}_calls"] = calls[mt]
    m[f"{mt}_self_s"] = own[mt]
    m[f"{mt}_reject_frac"] = frac(raised[mt], calls[mt])
    for name in ("construct_th2.theorem2_dispatch", "construct_th34.theorem4_search",
                 "construct_th34.theorem3_search"):
        m[f"{name}_calls"] = calls[name]
        m[f"{name}_s"] = total[name]
        m[f"{name}_hit_frac"] = frac(hits[name], calls[name])
    m["oracle.first_solution_calls"] = calls["oracle.first_solution"]
    m["oracle.first_solution_s"] = total["oracle.first_solution"]
    m["sweep.solve_calls"] = calls["sweep.solve"]
    m["sweep.solve_s"] = total["sweep.solve"]
    m["sweep.classify_hard_s"] = total["sweep.classify_hard"]
    m["sweep.self_s"] = own["sweep.sweep_range"]
    m["sweep.emit_report_s"] = total["sweep.emit_report"]
    m["cli.self_s"] = own["cli.cli_main"]
    m["trace_coverage_frac"] = top / wall_s if wall_s > 0 else 0.0
    return m

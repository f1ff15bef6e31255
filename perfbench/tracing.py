"""Outside-in tracing of ramseykit's layers, installed from the benchmark.

`Tracer.install()` replaces each function in TARGETS, wherever a ramseykit
module binds it (its own module and every `from .x import f` copy), with a
wrapper that records a span: name, start, end, parent span and task id.
Spans live in memory and are written out when the run ends; nothing under
src/ changes. Calls that happen inside worker processes of `--threads` are
not seen; the parallel leg is timed as one span around the pool.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Optional

from workloads import CLAIMS, LEMMA_T_VALUES

# Module attributes that another layer calls, plus the search's DFS entry points.
TARGETS = (
    "cli.main",
    "search.threshold_multiplicity",
    "search.ramsey_number",
    "search.multiplicity",
    "search.find_zero_coloring",
    "search.enumerate_copy_masks",
    "search._multiplicity_parallel",
    "graphs.mono_counts",
    "graphs.count_copies",
    "graphs._count_cycles_backtrack",
    "regular.verify_counting_lemma",
    "regular.regularity_defect",
    "regular.density",
    "regular.check_regularity",
    "regular.count_transversal_paths",
    "regular.count_transversal_paths_between",
    "extremal.chi",
    "extremal.extremal_parameter",
    "extremal.case2_lower_bound",
    "stability.main2_classify",
    "stability.build_reduced",
    "battery.run_battery",
)
# Spans of these functions carry their first argument as a label.
LABELLED = ("regular.verify_counting_lemma", "battery.run_battery")
# Spans of these functions keep the counters the program itself returns.
PROBES = {
    "search.multiplicity": lambda r: r.stats.as_dict(),
    "search.find_zero_coloring": lambda r: r[1].as_dict(),
    "search.enumerate_copy_masks": lambda r: {"masks": len(r)},
}
DFS_SPANS = ("search.multiplicity", "search.find_zero_coloring")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    task: Optional[str]
    label: Optional[str] = None
    error: Optional[str] = None
    probe: Optional[dict] = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.task: Optional[str] = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "ramseykit" or name.startswith("ramseykit."))]
        for target in TARGETS:
            module_name, attr = target.split(".", 1)
            original = getattr(sys.modules[f"ramseykit.{module_name}"], attr)
            wrapper = self._wrap(target, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        probe = PROBES.get(name)
        labelled = name in LABELLED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            span = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.task,
                        str(args[0]) if labelled and args else None)
            stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span.error = type(err).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if probe is not None:
                span.probe = probe(result)
            return result

        return traced

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def write_spans(path, spans_by_pass: list[list[Span]]) -> None:
    with open(path, "w") as fh:
        for index, spans in enumerate(spans_by_pass):
            for span in spans:
                fh.write(json.dumps({"pass": index, **asdict(span)}) + "\n")


def layer_metrics(spans: list[Span], results: list) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    dur = [s.end - s.start for s in spans]
    child = [0.0] * len(spans)
    has_parallel_child = set()
    for i, s in enumerate(spans):
        if s.parent >= 0:
            child[s.parent] += dur[i]
            if s.name == "search._multiplicity_parallel":
                has_parallel_child.add(s.parent)
    total = defaultdict(float)
    calls = defaultdict(int)
    self_time = defaultdict(float)
    for i, s in enumerate(spans):
        key = f"{s.name}.{s.label}" if s.label else s.name
        total[key] += dur[i]
        calls[key] += 1
        self_time[key] += dur[i] - child[i]
    by_task = {r.name: r for r in results}

    search = defaultdict(int)
    dfs_self = dfs_nodes = 0.0
    masks = 0
    for i, s in enumerate(spans):
        if s.name in DFS_SPANS:
            dfs_self += dur[i] - child[i]
            if i not in has_parallel_child:
                dfs_nodes += s.probe["nodes"] if s.probe else 0
            if s.probe and by_task[s.task].kind != "resume":
                for counter in ("nodes", "leaves", "pruned_bound", "pruned_symmetry"):
                    search[counter] += s.probe[counter]
        elif s.name == "search.enumerate_copy_masks" and s.probe:
            masks += s.probe["masks"]
    mono = defaultdict(float)
    mono_calls = defaultdict(int)
    for i, s in enumerate(spans):
        if s.name == "graphs.mono_counts":
            caller = spans[s.parent].name.split(".")[0] if s.parent >= 0 else "bench"
            mono[caller] += dur[i]
            mono_calls[caller] += 1
    case2 = defaultdict(int)
    for s in spans:
        if s.name == "extremal.case2_lower_bound":
            outcome = ("certified" if s.error is None
                       else "exhausted" if s.error == "DecisionTreeExhaustedError" else "rejected")
            case2[outcome] += 1

    def summed(kind: str, key: str) -> float:
        return sum(r.measures.get(key, 0) for r in results if r.kind == kind)

    resume = {}
    if any(r.kind == "resume" for r in results):
        resume = {
            "search.resume.nodes_first": (summed("resume", "nodes_first"), "count"),
            "search.resume.nodes_second": (summed("resume", "nodes_second"), "count"),
            "search.resume.mismatches": (summed("resume", "mismatch"), "count"),
        }
    nodes = search["nodes"]
    battery_s = sum(total[f"battery.run_battery.{c}"] for c in CLAIMS)
    parallel = [r for r in results if r.kind == "parallel"]
    return {
        "search.enumerate_copy_masks.s": (total["search.enumerate_copy_masks"], "s"),
        "search.enumerate_copy_masks.calls": (calls["search.enumerate_copy_masks"], "count"),
        "search.masks": (masks, "count"),
        "search.dfs.self_s": (dfs_self, "s"),
        "search.us_per_node": (1e6 * dfs_self / dfs_nodes if dfs_nodes else 0.0, "us"),
        "search.nodes": (nodes, "count"),
        "search.pruned_bound": (search["pruned_bound"], "count"),
        "search.pruned_symmetry": (search["pruned_symmetry"], "count"),
        "search.leaves": (search["leaves"], "count"),
        "search.recurse_ratio": (
            (nodes - search["pruned_bound"] - search["pruned_symmetry"]) / nodes if nodes else 0.0,
            "ratio"),
        "search.parallel.s": (total["search._multiplicity_parallel"], "s"),
        "search.parallel.cpu_s": (sum(r.cpu_s for r in parallel), "s"),
        "search.parallel.extra_nodes": (
            by_task["K3_9_2w"].measures.get("nodes", 0) - by_task["K3_9"].measures.get("nodes", 0)
            if parallel else 0, "count"),
        **resume,
        "graphs.mono_counts.from_search.s": (mono["search"], "s"),
        "graphs.mono_counts.from_search.calls": (mono_calls["search"], "count"),
        "graphs.mono_counts.from_cli.s": (mono["cli"], "s"),
        "graphs.mono_counts.from_cli.calls": (mono_calls["cli"], "count"),
        "graphs.count_copies.s": (total["graphs.count_copies"], "s"),
        "graphs.count_copies.calls": (calls["graphs.count_copies"], "count"),
        "graphs._count_cycles_backtrack.s": (total["graphs._count_cycles_backtrack"], "s"),
        "graphs._count_cycles_backtrack.calls": (calls["graphs._count_cycles_backtrack"], "count"),
        "regular.regularity_defect.s": (total["regular.regularity_defect"], "s"),
        "regular.regularity_defect.calls": (calls["regular.regularity_defect"], "count"),
        "regular.count_transversal_paths.s": (total["regular.count_transversal_paths"], "s"),
        "regular.count_transversal_paths_between.s": (
            total["regular.count_transversal_paths_between"], "s"),
        "regular.density.s": (total["regular.density"], "s"),
        "regular.check_regularity.s": (total["regular.check_regularity"], "s"),
        **{f"regular.verify_counting_lemma.{lemma}.self_s":
           (self_time[f"regular.verify_counting_lemma.{lemma}"], "s") for lemma in LEMMA_T_VALUES},
        "regular.rows_truncated": (summed("lemma", "truncated"), "count"),
        "regular.rows_degenerate_pass": (summed("lemma", "degenerate_pass"), "count"),
        "extremal.extremal_parameter.s": (total["extremal.extremal_parameter"], "s"),
        "extremal.case2_lower_bound.s": (total["extremal.case2_lower_bound"], "s"),
        "extremal.case2.certified": (case2["certified"], "count"),
        "extremal.case2.exhausted": (case2["exhausted"], "count"),
        "extremal.case2.rejected": (case2["rejected"], "count"),
        "extremal.chi.s": (total["extremal.chi"], "s"),
        "stability.main2_classify.s": (total["stability.main2_classify"], "s"),
        "stability.build_reduced.s": (total["stability.build_reduced"], "s"),
        **{f"battery.run_battery.{claim}.s": (total[f"battery.run_battery.{claim}"], "s")
           for claim in CLAIMS},
        "battery.instances_per_s": (
            summed("claim", "instances") / battery_s if battery_s else 0.0, "1/s"),
        "cli.overhead_s": (self_time["cli.main"], "s"),
        "cli.main.calls": (calls["cli.main"], "count"),
        "trace.spans": (len(spans), "count"),
    }


def combine_passes(per_pass: list[dict]) -> dict:
    """Median of each timing over traced passes; counts from the first pass.

    The first traced pass has the same inputs in every run with a given
    seed, so its counts repeat exactly however many passes fit in the run.
    """
    return {name: (value if unit == "count" else statistics.median(p[name][0] for p in per_pass),
                   unit)
            for name, (value, unit) in per_pass[0].items()}

"""Per-layer spans and counters, recorded from outside the program.

`traced(tracer)` replaces every public function of the six nestrec modules,
and the names other modules imported from them, with a wrapper that records
a span (calls, inclusive time, time spent in wrapped children) and, for a
few functions, work counters read from the arguments and the result.
Leaving the block puts the original function objects back, so untraced
passes run the program exactly as shipped.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import Counter
from types import ModuleType
from typing import Callable, Iterator

MODULES = ("tree", "recursion", "families", "frequency", "pruning", "cli")
PRUNE_OPS = {"order2": "pruning.prune_order2", "orderp": "pruning.prune_orderp",
             "superposed": "pruning.prune_superposed", "kary": "pruning.prune_kary"}
STEP_KINDS = ("initial correction", "deletion", "lifting", "end correction", "relabelling")


def public_functions() -> Iterator[tuple[ModuleType, str, Callable]]:
    """(module, attribute, function) for each public nestrec function held by a module.

    Includes functions a module imported by name, such as pruning.node_stream,
    so calls that bypass the defining module are traced too.
    """
    for short in MODULES:
        module = importlib.import_module(f"nestrec.{short}")
        for attr, obj in vars(module).items():
            if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__.startswith("nestrec."):
                yield module, attr, obj


def span_name(fn: Callable) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


ORIGINALS = {(module.__name__, attr): fn for module, attr, fn in public_functions()}


def leaked_wrappers() -> list[str]:
    """Module attributes that are not the function objects the program was imported with."""
    return [f"{module.__name__}.{attr}" for module, attr, fn in public_functions()
            if ORIGINALS.get((module.__name__, attr)) is not fn]


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Spans and counters for one traced pass."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.child: Counter = Counter()
        self.counts: Counter = Counter()
        self.evaluations: set = set()  # (spec, ic, n) seen since the outermost call began
        self._stack: list[list] = []

    def self_time(self, name: str) -> float:
        return self.total[name] - self.child[name]

    def wrap(self, fn: Callable) -> Callable:
        name = span_name(fn)
        if inspect.isgeneratorfunction(fn):
            # a generator's work happens while it is consumed, inside the
            # caller's span; only the walks started are counted
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        hook = HOOKS.get(name)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is None:
                self.evaluations.clear()
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.calls[name] += 1
                self.total[name] += elapsed
                self.child[name] += frame[1]
                if parent is not None:
                    parent[1] += elapsed
            if hook is not None:
                # counting is tracing cost, kept out of the caller's self time
                hook_start = clock()
                hook(self, args, kwargs, result, parent)
                if parent is not None:
                    parent[1] += clock() - hook_start
            return result

        return spanned


@contextlib.contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    saved = list(public_functions())
    try:
        for module, attr, fn in saved:
            setattr(module, attr, tracer.wrap(fn))
        yield tracer
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


# -- work counters ----------------------------------------------------------------


def _evaluate(t, args, kwargs, result, parent):
    spec, initial, n_max = _arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 1, "initial"), _arg(args, kwargs, 2, "n_max")
    t.counts["recursion.terms"] += max(0, len(result.values) - len(initial))
    t.counts["recursion.dead"] += not result.alive
    key = (spec, tuple(initial), n_max)
    if key not in t.evaluations:
        t.evaluations.add(key)
        t.counts["recursion.distinct"] += 1


def _labels(counter: str, index: int, name: str):
    def hook(t, args, kwargs, result, parent):
        t.counts[counter] += _arg(args, kwargs, index, name)
    return hook


def _prune_steps(t, args, kwargs, result, parent):
    for step in result.steps:
        t.counts[step["step"]] += 1


def _compare(t, args, kwargs, result, parent):
    t.counts["frequency.values_checked"] += _arg(args, kwargs, 2, "vmax")


def _closed_form(t, args, kwargs, result, parent):
    if parent is not None and parent[0] == "frequency.empirical_matches_closed_form":
        t.counts["frequency.values_checked"] += 1


def _explore_rows(t, args, kwargs, result, parent):
    t.counts["cli.points"] += len(_arg(args, kwargs, 1, "points"))
    t.counts["cli.rows_dead"] += sum(1 for row in result if row.get("dead_reason"))
    t.counts["cli.rows_nonslow"] += sum(1 for row in result if str(row.get("slow", "")).startswith("no"))


HOOKS = {
    "recursion.evaluate": _evaluate,
    "tree.cell_count_sequence": _labels("tree.seq_labels", 1, "n_max"),
    "tree.cell_count": _labels("tree.point_labels", 1, "n"),
    "pruning.build_prefix": _labels("pruning.labels_built", 1, "n"),
    **{name: _prune_steps for name in PRUNE_OPS.values()},
    "frequency.compare": _compare,
    "frequency.closed_form": _closed_form,
    "cli.explore_rows": _explore_rows,
}


def layer_metrics(t: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    evaluations = t.calls["recursion.evaluate"]

    def share(part, whole):
        return part / whole if whole else 0.0

    return {
        "recursion.evaluate_s": t.total["recursion.evaluate"],
        "recursion.evaluate_calls": evaluations,
        "recursion.terms": t.counts["recursion.terms"],
        "recursion.useful_ratio": share(t.counts["recursion.distinct"], evaluations),
        "recursion.dead_share": share(t.counts["recursion.dead"], evaluations),
        "recursion.slowness_s": t.total["recursion.slowness_violation"] + t.total["recursion.is_slow"],
        "tree.seq_s": t.total["tree.cell_count_sequence"],
        "tree.seq_labels": t.counts["tree.seq_labels"],
        "tree.point_s": t.total["tree.cell_count"],
        "tree.point_calls": t.calls["tree.cell_count"],
        "tree.point_labels": t.counts["tree.point_labels"],
        "tree.walks": t.calls["tree.cell_positions"] + t.calls["tree.node_stream"],
        "frequency.check_s": t.total["frequency.empirical_matches_closed_form"],
        "frequency.closed_form_s": t.total["frequency.closed_form"],
        "frequency.closed_form_calls": t.calls["frequency.closed_form"],
        "frequency.values_checked": t.counts["frequency.values_checked"],
        "frequency.seq_s": (t.total["frequency.closed_form_sequence"] + t.total["frequency.compare"]
                            + t.total["recursion.frequency_of"]),
        "pruning.build_prefix_s": t.total["pruning.build_prefix"],
        "pruning.labels_built": t.counts["pruning.labels_built"],
        **{f"pruning.prune_s.{op}": t.total[name] for op, name in PRUNE_OPS.items()},
        "pruning.trees_equal_s": t.total["pruning.trees_equal"],
        **{f"pruning.steps.{kind.replace(' ', '_')}": t.counts[kind] for kind in STEP_KINDS},
        "families.s": sum(t.self_time(name) for name in t.calls if name.startswith("families.")),
        "families.calls": sum(calls for name, calls in t.calls.items() if name.startswith("families.")),
        "cli.explore_rows_s": t.self_time("cli.explore_rows"),
        "cli.points": t.counts["cli.points"],
        "cli.rows_dead": t.counts["cli.rows_dead"],
        "cli.rows_nonslow": t.counts["cli.rows_nonslow"],
    }

"""Spans and work counts recorded around netshuffle's public functions.

The benchmark does not edit the program.  `Tracer.install()` replaces each
traced function where its callers look it up (a module global, a name one
module imported from another, or a method defined on a class) and
`uninstall()` puts the original objects back.  Spans are kept in memory as
(name, start_ns, end_ns, parent_index, run_id) and written out at the end.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter, defaultdict

ROOT_SPAN = "harness.run_sweep"


class Patches:
    """Attribute replacements that can be undone with the same objects."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, make):
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _classes(module, base):
    return [obj for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, base)
            and obj.__module__ == module.__name__]


def traced_targets():
    """(owner, attribute, span name) for every traced function.

    Names follow the module that defines the function; the owner is where
    the caller looks it up, so a function imported by name into another
    module is replaced there.
    """
    from netshuffle import (algorithms, harness, metrics, objective, shuffling,
                            stepsize, topology, unified)

    targets = [
        (harness, "run_sweep", ROOT_SPAN),
        (harness, "build_objective", "harness.build_objective"),
        (harness, "build_mix", "harness.build_mix"),
        (harness, "method_transform", "harness.method_transform"),
        (harness, "build_schedule", "harness.build_schedule"),
        (harness, "build_graph", "topology.build_graph"),
        (harness, "metropolis_weights", "topology.metropolis_weights"),
        (harness, "lazify", "topology.lazify"),
        (topology, "spectral_info", "topology.spectral_info"),
        (topology, "psd_sqrt", "topology.psd_sqrt"),
        (algorithms, "psd_sqrt", "topology.psd_sqrt"),
        (unified, "psd_sqrt", "topology.psd_sqrt"),
        (objective, "estimate_minimum", "objective.estimate_minimum"),
        (algorithms, "run", "algorithms.run"),
        (algorithms, "make_method", "algorithms.make_method"),
        (metrics, "record", "metrics.record"),
        (metrics, "aggregate", "metrics.aggregate"),
        (metrics, "write_csv", "metrics.write_csv"),
        (unified, "build_operator", "unified.build_operator"),
        (unified, "transform_data", "unified.transform_data"),
        (unified.TransformData, "e_vector", "unified.e_vector"),
        (shuffling.PermutationStream, "epoch_orders", "shuffling.epoch_orders"),
    ]
    per_class = (
        (algorithms, algorithms._Method, ("epoch", "abc_state"), "algorithms"),
        (objective, objective.FiniteSumObjective,
         ("perm_grads", "values_at", "grads_at_consensus"), "objective"),
        (stepsize, stepsize.Schedule, ("alpha",), "stepsize"),
    )
    for module, base, attrs, prefix in per_class:
        for cls in _classes(module, base):
            targets.extend((cls, attr, f"{prefix}.{attr}")
                           for attr in attrs if attr in vars(cls))
    return targets


def _count_rows(key):
    def count(counts, args, result):
        counts[key] += len(result)
    return count


def _count_steps(counts, args, result):
    counts["algorithms.inner_steps"] += args[0].m


def _count_csv(counts, args, result):
    counts["metrics.csv_rows"] += len(args[1])
    counts["metrics.csv_bytes"] += os.path.getsize(args[0])


# work counted at a span boundary, beside the span's own call count
COUNTERS = {
    "objective.perm_grads": _count_rows("objective.grad_evals"),
    "shuffling.epoch_orders": _count_rows("shuffling.perms_drawn"),
    "algorithms.epoch": _count_steps,
    "metrics.write_csv": _count_csv,
}


class Tracer:
    """Records a span around each call of every traced function."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._open: list = []   # (index, name) of the spans still running
        self._run_id = "setup"
        self._patches = Patches()

    def install(self):
        from netshuffle import shuffling

        for owner, attr, name in traced_targets():
            self._patches.replace(owner, attr,
                                  lambda fn, name=name: self._wrap(name, fn))
        self._patches.replace(shuffling.PermutationStream, "permutation",
                              self._count_lone_permutations)

    def uninstall(self):
        self._patches.restore()

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._open, self.counts
        counter = COUNTERS.get(name)
        is_run = name == "algorithms.run"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            if is_run:
                seed = args[5] if len(args) > 5 else kwargs["seed"]
                self._run_id = f"{args[0]}/{seed}"
            spans.append(None)
            stack.append((index, name))
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self._run_id)
                if is_run:
                    self._run_id = "sweep"
            counts[name + ".calls"] += 1
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    def _count_lone_permutations(self, fn):
        """Count permutations drawn outside `epoch_orders` (centralized RR)."""
        stack, counts = self._open, self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not stack or stack[-1][1] != "shuffling.epoch_orders":
                counts["shuffling.perms_drawn"] += 1
            return fn(*args, **kwargs)

        return counted

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> dict:
    """Total self time in ns per span name.

    A span's self time is its duration minus the part of its interval that
    its child spans cover; overlapping children are merged, and children are
    clipped to the parent's interval.
    """
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals = defaultdict(int)
    for index, (name, start, end, _, _) in enumerate(spans):
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        totals[name] += (end - start) - covered
    return dict(totals)


class SetupClock:
    """Stamps the first `algorithms.run` call, where a sweep's set-up ends.

    This is the only replacement an untraced run makes.
    """

    def __init__(self):
        self.first_run: float | None = None
        self._patches = Patches()

    def install(self):
        from netshuffle import algorithms

        self._patches.replace(algorithms, "run", self._stamp)

    def uninstall(self):
        self._patches.restore()

    def _stamp(self, fn):
        @functools.wraps(fn)
        def stamped(*args, **kwargs):
            if self.first_run is None:
                self.first_run = time.perf_counter()
            return fn(*args, **kwargs)

        return stamped

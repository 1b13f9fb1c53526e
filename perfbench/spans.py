"""Layer spans recorded from outside the morphguard package.

A Tracer replaces every public function of the seven layer modules, and
every name one module binds to another module's public function (for
example ``experiment.train`` or ``cli.load_checkpoint``), with a wrapper
that appends ``(name, start, end, parent, iteration, counts)`` to an
in-memory list. Nothing under ``src/`` changes: the wrappers are set as
module attributes for the duration of one traced iteration and the
originals are put back afterwards. Functions look their callees up in
their module's globals at call time, so the wrappers see every call.

The span name is ``<defining module>.<function>``, whichever module the
binding lives in. A few spans also carry work counts, taken after the
call returns from its arguments and result.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import os
import statistics
import types
from contextlib import contextmanager
from time import perf_counter

LAYER_MODULES = ("datagen", "encoder", "losses", "metrics", "featviz", "experiment", "cli")

# The benchmark calls these as the recipe itself; the iteration is their span.
RECIPE_ENTRIES = frozenset({"experiment.run_sweep", "cli.main"})

# Fields of a span tuple.
NAME, START, END, PARENT, ITERATION, COUNTS = range(6)


def _train_counts(args, result):
    return {"samples": len(args["dataset"]) * args["config"].epochs}


def _pairing_counts(args, result):
    subsets = args["universe"].subsets
    side1 = sum(1 for s in args["samples"] if subsets[s.labels.first_label] == 1)
    side2 = len(args["samples"]) - side1
    return {"drawn": len(result.pairs), "candidates": side1 * side2}


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args["path"])}


COUNTERS = {
    "encoder.train": _train_counts,
    "datagen.pair_protocol": _pairing_counts,
    "datagen.save_dataset": _file_bytes,
    "datagen.save_protocol": _file_bytes,
    "datagen.load_dataset": _file_bytes,
    "datagen.load_protocol": _file_bytes,
    "featviz.align_feature_triplets": lambda args, result: {"triplets": len(result)},
    "metrics.fnmr_fmr_curves": lambda args, result: {"grid_points": result[0].thresholds.size},
    "metrics.mmpmr_curve": lambda args, result: {"grid_points": result.thresholds.size},
}


class Tracer:
    """Spans of the traced iterations of one run, kept in memory."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._iteration = None

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self._iteration, None)
            if counter:
                counts = counter(signature.bind(*args, **kwargs).arguments, result)
                spans[index] = (name, start, end, parent, self._iteration, counts)
            return result

        return traced

    @contextmanager
    def recording(self, iteration: int):
        """Wrap the layer functions for the duration of one iteration."""
        patched = []
        try:
            for short in LAYER_MODULES:
                module = importlib.import_module(f"morphguard.{short}")
                for attr, value in list(vars(module).items()):
                    if attr.startswith("_") or not isinstance(value, types.FunctionType):
                        continue
                    owner = value.__module__.rpartition(".")[2]
                    name = f"{owner}.{value.__name__}"
                    if owner not in LAYER_MODULES or name in RECIPE_ENTRIES:
                        continue
                    patched.append((module, attr, value))
                    setattr(module, attr, self._wrap(name, value))
            self._iteration = iteration
            yield
        finally:
            self._iteration = None
            for module, attr, value in reversed(patched):
                setattr(module, attr, value)

    def write(self, path):
        """Write the spans as gzipped JSON lines, one span per line."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for index, (name, start, end, parent, iteration, counts) in enumerate(self.spans):
                record = {"id": index, "name": name, "start": start, "end": end,
                          "parent": parent, "iteration": iteration}
                if counts:
                    record["counts"] = counts
                fh.write(json.dumps(record) + "\n")


# --- per-layer metrics ---------------------------------------------------------

# Metric name -> span names whose outermost spans are summed per iteration.
TIME_GROUPS = {
    "encoder.train.s": ("encoder.train",),
    "losses.morphguard_loss_arrays.s": ("losses.morphguard_loss_arrays",),
    "datagen.synth_identities.s": ("datagen.synth_identities",),
    "datagen.pair_protocol.s": ("datagen.pair_protocol",),
    "datagen.build_training_set.s": ("datagen.build_training_set",),
    "experiment.generate_bundle.s": ("experiment.generate_bundle",),
    "experiment.evaluate_model.s": ("experiment.evaluate_model",),
    "experiment.verification_scores.s": ("experiment.verification_scores",),
    "experiment.morph_trials.s": ("experiment.morph_trials",),
    "experiment.feature_analysis.s": ("experiment.feature_analysis",),
    "featviz.morph_spread.s": ("featviz.morph_spread",),
    "featviz.align_feature_triplets.s": ("featviz.align_feature_triplets",),
    "featviz.confidence_ellipse.s": ("featviz.confidence_ellipse",),
    "metrics.compute.s": (
        "metrics.fnmr_fmr_curves",
        "metrics.mmpmr_curve",
        "metrics.min_rmmr",
        "metrics.mmpmr_at_fnmr",
        "metrics.fnmr_at_fmr",
    ),
    "datagen.write.s": ("datagen.save_dataset", "datagen.save_protocol"),
    "datagen.read.s": ("datagen.load_dataset", "datagen.load_protocol"),
    "encoder.checkpoint_io.s": ("encoder.save_checkpoint", "encoder.load_checkpoint"),
    "metrics.write.s": (
        "metrics.save_curve_csv",
        "metrics.save_operating_points_csv",
        "metrics.save_scores_csv",
        "metrics.save_trials_json",
    ),
    "featviz.write.s": ("featviz.save_aligned_csv", "featviz.save_ellipse_csv", "featviz.render_svg"),
    "cli.gen-data.s": ("cli.cmd_gen_data",),
    "cli.eval.s": ("cli.cmd_eval",),
    "cli.analyze-features.s": ("cli.cmd_analyze_features",),
}

# Metric name -> span whose duration minus its children's is summed.
SELF_TIMES = {
    "encoder.train.self_s": "encoder.train",
    "encoder.batch_gradients.self_s": "encoder.batch_gradients",
    "experiment.evaluate_model.self_s": "experiment.evaluate_model",
}

CALL_COUNTS = {
    "encoder.batch_gradients.calls": "encoder.batch_gradients",
    "losses.morphguard_loss_arrays.calls": "losses.morphguard_loss_arrays",
    "experiment.generate_bundle.calls": "experiment.generate_bundle",
    "metrics.fnmr_fmr_curves.calls": "metrics.fnmr_fmr_curves",
}

# Metric name -> (span names, count key) summed per iteration.
WORK_COUNTS = {
    "datagen.pair_protocol.drawn": (("datagen.pair_protocol",), "drawn"),
    "datagen.pair_protocol.candidates": (("datagen.pair_protocol",), "candidates"),
    "featviz.triplets": (("featviz.align_feature_triplets",), "triplets"),
    "metrics.grid_points": (("metrics.fnmr_fmr_curves", "metrics.mmpmr_curve"), "grid_points"),
    "datagen.write.bytes": (("datagen.save_dataset", "datagen.save_protocol"), "bytes"),
    "datagen.read.bytes": (("datagen.load_dataset", "datagen.load_protocol"), "bytes"),
}


def _duration(span) -> float:
    return span[END] - span[START]


def _iteration_metrics(spans, wall: float) -> dict:
    """Per-layer numbers of one traced iteration from its (index, span) pairs."""
    by_id = dict(spans)
    by_name: dict[str, list] = {}
    child_time: dict[int, float] = {}
    for index, span in spans:
        by_name.setdefault(span[NAME], []).append((index, span))
        if span[PARENT] is not None:
            child_time[span[PARENT]] = child_time.get(span[PARENT], 0.0) + _duration(span)

    def named(names):
        return [pair for name in names for pair in by_name.get(name, ())]

    def has_ancestor_in(span, names):
        parent = span[PARENT]
        while parent is not None:
            if by_id[parent][NAME] in names:
                return True
            parent = by_id[parent][PARENT]
        return False

    def count(names, key):
        return sum((span[COUNTS] or {}).get(key, 0) for _, span in named(names))

    out = {}
    for metric, names in TIME_GROUPS.items():
        out[metric] = sum(_duration(s) for _, s in named(names) if not has_ancestor_in(s, names))
    for metric, name in SELF_TIMES.items():
        out[metric] = sum(_duration(s) - child_time.get(i, 0.0) for i, s in named((name,)))
    for metric, name in CALL_COUNTS.items():
        out[metric] = len(by_name.get(name, ()))
    for metric, (names, key) in WORK_COUNTS.items():
        out[metric] = count(names, key)

    train_s = out["encoder.train.s"]
    out["encoder.train.samples_per_s"] = count(("encoder.train",), "samples") / train_s if train_s else 0.0
    candidates = out["datagen.pair_protocol.candidates"]
    out["datagen.pair_protocol.useful_ratio"] = (
        out["datagen.pair_protocol.drawn"] / candidates if candidates else 0.0
    )
    out["untraced_s"] = wall - sum(_duration(s) for _, s in spans if s[PARENT] is None)
    return out


def _percentile(ordered: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list; 0 when it is empty."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] if ordered else 0.0


def layer_metrics(spans, iteration_walls: dict[int, float]) -> dict:
    """Median over traced iterations of each per-layer number.

    Batch-gradient latency percentiles pool every call of every traced
    iteration instead.
    """
    grouped: dict[int, list] = {iteration: [] for iteration in iteration_walls}
    for index, span in enumerate(spans):
        if span[ITERATION] in grouped:
            grouped[span[ITERATION]].append((index, span))
    per_iteration = [_iteration_metrics(grouped[i], wall) for i, wall in iteration_walls.items()]
    out = {name: statistics.median(m[name] for m in per_iteration) for name in per_iteration[0]}

    gradient_ms = sorted(
        _duration(span) * 1e3 for span in spans
        if span[NAME] == "encoder.batch_gradients" and span[ITERATION] in grouped
    )
    out["encoder.batch_gradients.p50_ms"] = _percentile(gradient_ms, 0.50)
    out["encoder.batch_gradients.p99_ms"] = _percentile(gradient_ms, 0.99)
    return out

"""Spans around the calls into each qamatch module's public functions.

``installed(tracer)`` replaces each traced function, in the namespace its
caller looks it up in, by a wrapper that records a span (name, start, end,
parent, work count) and then restores the originals. The wrappers read
only ``perf_counter_ns`` and the arguments' shapes, never the RNG, so a
traced run trains the same model as an untraced one. Spans stay in memory
until ``Tracer.fold`` sums them into per-layer totals.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from qamatch import calibration, cli, data, numerics, trainer


def _rows(args, result):
    return args[1].shape[0]


def _mixed_rows(args, result):
    return args[0].shape[0]


def _records(args, result):
    return len(result[1]) + len(result[2])


# (owner, attribute, span name, work count). The owner is the module or
# class the caller resolves the name in: the trainer imports most layer
# functions by name, the CLI reaches data and trainer through the module.
TARGETS = (
    (cli, "main", "cli.main", None),
    (data, "synth_generate", "data.synth_generate", None),
    (data, "load_dataset", "data.load_dataset", _records),
    (data, "load_truth", "data.load_truth", None),
    (data, "labeled_matrix", "data.labeled_matrix", None),
    (trainer, "labeled_matrix", "data.labeled_matrix", None),
    (trainer, "unlabeled_matrices", "data.unlabeled_matrices", None),
    (trainer, "mix_views", "softmix.mix_views", _mixed_rows),
    (trainer, "weighted_ce_gradient", "numerics.weighted_ce_gradient", _rows),
    (numerics.MlpClassifier, "forward_batch", "numerics.forward_batch", None),
    (trainer, "sgd_step", "numerics.sgd_step", None),
    (cli, "save_model", "numerics.save_model", None),
    (cli, "load_model", "numerics.load_model", None),
    (trainer, "calibrate", "calibration.calibrate", None),
    (trainer, "sharpen", "calibration.sharpen", None),
    (calibration.MarginalEstimator, "marginal", "calibration.marginal", None),
    (calibration.MarginalEstimator, "update", "calibration.update", None),
    (trainer, "evaluate_model", "metrics.evaluate_model", None),
    (cli, "evaluate_model", "metrics.evaluate_model", None),
    (trainer.QAMatchTrainer, "step", "trainer.step", None),
    (trainer.QAMatchTrainer, "run", "trainer.run", None),
    (trainer, "build_trainer", "trainer.build", None),
    (trainer, "write_report", "trainer.write_report", None),
)


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start_ns, end_ns, parent index, count)
        self._stack = []

    def wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, 0)
            if count is not None:
                spans[index] = (name, start, end, parent, count(args, result))
            return result

        return traced

    def fold(self, totals: "LayerTotals") -> None:
        """Add the recorded spans to ``totals`` and forget them."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, start, end, parent, count) in enumerate(self.spans):
            key = (name, self.spans[parent][0] if parent >= 0 else None)
            totals.calls[key] += 1
            totals.inclusive_ns[key] += end - start
            totals.self_ns[key] += end - start - child_ns[i]
            totals.work[key] += count
        self.spans.clear()


class LayerTotals:
    """Calls, inclusive time, self time and work count per (span, parent)."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.inclusive_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.work = defaultdict(int)

    def _sum(self, table, name, parent):
        return sum(v for (n, p), v in table.items() if n == name and (parent is None or p == parent))

    def calls_of(self, name, parent=None) -> int:
        return self._sum(self.calls, name, parent)

    def seconds(self, name, parent=None) -> float:
        return self._sum(self.inclusive_ns, name, parent) / 1e9

    def self_seconds(self, name) -> float:
        return self._sum(self.self_ns, name, None) / 1e9

    def work_of(self, name) -> int:
        return self._sum(self.work, name, None)

    def total_self_seconds(self) -> float:
        return sum(self.self_ns.values()) / 1e9


@contextmanager
def installed(tracer: Tracer):
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in TARGETS]
    try:
        for (owner, attr, name, count), (_, _, original) in zip(TARGETS, saved):
            setattr(owner, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def layer_metrics(totals: LayerTotals, rounds: int, untraced_sps: float, traced_sps: float) -> dict:
    """Per-layer metrics: per-step figures over every traced training step,
    per-call figures for save, load and report writing, per-round figures
    for the rest. Times are inclusive unless the name says ``self``."""
    steps = totals.calls_of("trainer.step")
    per_step_ms = lambda name, parent=None: 1e3 * totals.seconds(name, parent) / steps
    per_round = lambda seconds: seconds / rounds
    per_call_ms = lambda name: 1e3 * totals.seconds(name) / totals.calls_of(name)
    load_s = totals.seconds("data.load_dataset")
    values = {
        "data.synth_generate.s": (per_round(totals.seconds("data.synth_generate")), "s"),
        "data.load_dataset.s": (per_round(load_s), "s"),
        "data.load_dataset.records_per_s": (totals.work_of("data.load_dataset") / load_s, "records/s"),
        "data.matrices.s": (per_round(totals.seconds("data.labeled_matrix", "trainer.build")
                                      + totals.seconds("data.unlabeled_matrices")), "s"),
        "softmix.mix_views.ms_per_step": (per_step_ms("softmix.mix_views"), "ms"),
        "softmix.rows_mixed_per_step": (totals.work_of("softmix.mix_views") / steps, "count"),
        "numerics.weighted_ce_gradient.ms_per_step": (per_step_ms("numerics.weighted_ce_gradient"), "ms"),
        "numerics.weighted_ce_gradient.calls_per_step": (
            totals.calls_of("numerics.weighted_ce_gradient") / steps, "count"),
        "numerics.rows_per_step": (totals.work_of("numerics.weighted_ce_gradient") / steps, "count"),
        "numerics.forward_batch.ms_per_step": (per_step_ms("numerics.forward_batch", "trainer.step"), "ms"),
        "numerics.sgd_step.ms_per_step": (per_step_ms("numerics.sgd_step"), "ms"),
        "numerics.save_model.ms": (per_call_ms("numerics.save_model"), "ms"),
        "numerics.load_model.ms": (per_call_ms("numerics.load_model"), "ms"),
        "calibration.calibrate.ms_per_step": (per_step_ms("calibration.calibrate"), "ms"),
        "calibration.sharpen.ms_per_step": (per_step_ms("calibration.sharpen"), "ms"),
        "calibration.marginal.ms_per_step": (
            per_step_ms("calibration.marginal") + per_step_ms("calibration.update"), "ms"),
        "metrics.evaluate_model.ms": (1e3 * per_round(totals.seconds("metrics.evaluate_model")), "ms"),
        "metrics.evaluate_model.calls": (per_round(totals.calls_of("metrics.evaluate_model")), "count"),
        "trainer.step.self_ms": (1e3 * totals.self_seconds("trainer.step") / steps, "ms"),
        "trainer.run.self_ms_per_step": (1e3 * totals.self_seconds("trainer.run") / steps, "ms"),
        "trainer.build.s": (per_round(totals.self_seconds("trainer.build")), "s"),
        "trainer.write_report.ms": (per_call_ms("trainer.write_report"), "ms"),
        "cli.main.self_s": (per_round(totals.self_seconds("cli.main")), "s"),
        "trace.overhead_ms_per_step": (1e3 / traced_sps - 1e3 / untraced_sps, "ms"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}

"""Per-layer timing of the program from outside it.

``install`` replaces each public function named in ``LAYERS`` with a wrapper
in every loaded ``backflow`` module that refers to it, so calls made through
``from .model import forward`` are seen as well as ``comb_mod.verify_...``.
Each wrapper keeps calls, total time and self time in memory; self time is
total time minus the time of wrapped calls nested inside it, so the self
times of all layers never overlap.  Counters that need the call's arguments
or result (rows, clip activations, pool traffic) come from small observers.

Wrappers live in the process that installs them: with ``workers > 1`` the
pool workers' calls are not seen, so that run reports parent-side numbers.
"""

import functools
import importlib
import pathlib
import pickle
import sys
import time
from collections import Counter

import numpy as np

LAYERS = (
    "cli.cmd_run",
    "cli.cmd_oracle",
    "data.load_table",
    "protocol.build_dataset",
    "protocol.pretrain",
    "protocol.run_sweep",
    "protocol.collect_with_early_stop",
    "protocol.run_micro_experiment",
    "protocol.run_micro_experiment_detailed",
    "protocol.run_noncommute_curve",
    "instruments.sample_batch_plan",
    "instruments.apply_augmentation",
    "model.loss_and_grad",
    "model.forward",
    "optimizer.step",
    "divergences.div_avg",
    "divergences.div_row",
    "stats.bootstrap_mean_ci",
    "stats.t_test_mean",
    "stats.tost_equivalence",
    "diagnostics.linear_cka",
    "diagnostics.pca_project",
    "diagnostics.cosine",
    "comb.verify_no_backflow",
    "comb.two_time_laws",
    "seeding.derive_seed",
    "io.write",
)

# name -> unit of the counters reported as they are; the observer of
# ``optimizer.step`` also counts clip activations, reported as ``clip_frac``
COUNTERS = {
    "model.forward.rows": "count",
    "instruments.apply_augmentation.rows": "count",
    "protocol.retries": "count",
    "protocol.errors": "count",
    "protocol.early_stopped_cells": "count",
    "protocol.pool_tasks": "count",
    "protocol.pool_task_bytes": "B",
    "io.bytes_written": "B",
}


class Tracer:
    """Calls, total and self seconds per layer name, plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.layers: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: Counter = Counter()
        self._child_time: list[float] = []  # one accumulator per open span

    def wrap(self, name, fn, observe=None):
        stack = self._child_time
        clock = self.clock
        entry = self.layers.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                total = clock() - start
                nested = stack.pop()
                entry[0] += 1
                entry[1] += total
                entry[2] += total - nested
                if stack:
                    stack[-1] += total
            if observe is not None:
                observe(self.counters, args, kwargs, result)
            return result

        return wrapper

    def self_total(self) -> float:
        return sum(entry[2] for entry in self.layers.values())


def _observe_rows(counter_name, position):
    def observe(counters, args, kwargs, result):
        counters[counter_name] += np.shape(args[position])[0]

    return observe


def _observe_step(counters, args, kwargs, result):
    params, _, grad, config = args[:4]
    if config.clip_norm is not None:
        g = grad + config.weight_decay * params
        counters["optimizer.step.clipped"] += int(float(np.linalg.norm(g)) > config.clip_norm)


def _observe_collect(counters, args, kwargs, result):
    records, early_stopped = result
    counters["protocol.retries"] += sum(1 for r in records if r.retried)
    counters["protocol.errors"] += sum(1 for r in records if not r.ok)
    counters["protocol.early_stopped_cells"] += int(early_stopped)
    executor = args[3] if len(args) > 3 else kwargs.get("executor")
    if executor is not None:
        # executor.map pickles the callable with each task
        counters["protocol.pool_tasks"] += len(records)
        counters["protocol.pool_task_bytes"] += len(records) * len(pickle.dumps(args[0]))


def _observe_write(counters, args, kwargs, result):
    data = args[1]
    counters["io.bytes_written"] += len(data.encode() if isinstance(data, str) else data)


OBSERVERS = {
    "model.forward": _observe_rows("model.forward.rows", 2),
    "instruments.apply_augmentation": _observe_rows("instruments.apply_augmentation.rows", 1),
    "optimizer.step": _observe_step,
    "protocol.collect_with_early_stop": _observe_collect,
}


def replace(original, wrapper) -> None:
    """Put ``wrapper`` in place of ``original`` in every loaded ``backflow`` module."""
    for name, module in list(sys.modules.items()):
        if name == "backflow" or name.startswith("backflow."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def install(tracer: Tracer) -> list[str]:
    """Wrap every layer function; returns the layer names not found."""
    missing = []
    for layer in LAYERS:
        if layer == "io.write":
            for method in ("write_text", "write_bytes"):
                original = getattr(pathlib.Path, method)
                setattr(pathlib.Path, method, tracer.wrap(layer, original, _observe_write))
            continue
        module_name, attr = layer.split(".")
        original = getattr(importlib.import_module(f"backflow.{module_name}"), attr, None)
        if original is None:
            missing.append(layer)
            continue
        replace(original, tracer.wrap(layer, original, OBSERVERS.get(layer)))
    return missing


def metric_units() -> dict[str, str]:
    """Unit of every metric ``layer_metrics`` reports."""
    units = {f"{layer}.calls": "count" for layer in LAYERS}
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update(COUNTERS)
    units["optimizer.step.clip_frac"] = "frac"
    return units


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """``<layer>.calls`` and ``<layer>.self_s`` of every layer, and the counters."""
    metrics = {}
    for layer in LAYERS:
        calls, _, self_s = tracer.layers.get(layer, (0, 0.0, 0.0))
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.self_s"] = self_s
    for name in COUNTERS:
        metrics[name] = tracer.counters[name]
    steps = metrics["optimizer.step.calls"]
    metrics["optimizer.step.clip_frac"] = tracer.counters["optimizer.step.clipped"] / steps if steps else 0.0
    return metrics

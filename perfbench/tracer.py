"""Outside-in span tracer for the benchmark's traced runs.

Each traced function is replaced, for the duration of a run, by a wrapper
installed at the name its caller looks it up by. Functions that
fedqdp.federation imports by name (loss_and_grad, quantize_params, ...) are
wrapped in federation's namespace; functions reached through a module or
class attribute (backend.round_clip, rng.substream, BatchTrace.record) are
wrapped on that module or class. The program itself is not edited.

A wrapped name that no longer exists, for instance after a refactor deletes
a module, is reported as absent and its metrics read zero; the run goes on.

Spans are kept in memory as [name, start, end, parent index, round] and
written out by the caller when the run ends. A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from functools import wraps
from pathlib import Path
from time import perf_counter

# (module, attribute path, span name). The span name carries the module
# that defines the function, so a layer reads the same wherever it is called.
TARGETS = (
    ("fedqdp.config", "parse_config_dict", "config.parse_config_dict"),
    ("fedqdp.federation", "run_experiment", "federation.run_experiment"),
    ("fedqdp.federation", "make_datasets", "federation.make_datasets"),
    ("fedqdp.federation", "partition_dataset", "federation.partition_dataset"),
    ("fedqdp.federation", "init_params", "models.init_params"),
    ("fedqdp.federation", "select_clients", "federation.select_clients"),
    ("fedqdp.federation", "client_update", "federation.client_update"),
    ("fedqdp.federation", "aggregate", "federation.aggregate"),
    ("fedqdp.federation", "evaluate", "federation.evaluate"),
    ("fedqdp.federation", "comm_cost", "federation.comm_cost"),
    ("fedqdp.federation", "loss_and_grad", "models.loss_and_grad"),
    ("fedqdp.federation", "sgd_step", "models.sgd_step"),
    ("fedqdp.federation", "clip_gradient_l1", "models.clip_gradient_l1"),
    ("fedqdp.federation", "quantize_params", "quantize.quantize_params"),
    ("fedqdp.federation", "dequantize_params", "quantize.dequantize_params"),
    ("fedqdp.federation", "lipschitz_estimate", "privacy.lipschitz_estimate"),
    ("fedqdp.federation", "sensitivity", "privacy.sensitivity"),
    ("fedqdp.federation", "laplace_noise", "privacy.laplace_noise"),
    ("fedqdp.federation", "perturb", "privacy.perturb"),
    ("fedqdp.federation", "schedule_bits", "schedule.schedule_bits"),
    ("fedqdp.privacy", "BatchTrace.record", "privacy.BatchTrace.record"),
    ("fedqdp.backend", "round_clip", "backend.round_clip"),
    ("fedqdp.backend", "laplace_from_uniform", "backend.laplace_from_uniform"),
    ("fedqdp.rng", "substream", "rng.substream"),
    ("fedqdp.metrics", "write_records", "metrics.write_records"),
    ("fedqdp.metrics", "write_manifest", "metrics.write_manifest"),
)

# Functions called from two places report each caller's share under its
# own name, keyed by the name of the enclosing span.
SPLIT_BY_CALLER = {
    "quantize.quantize_params": {
        "federation.run_experiment": "broadcast",
        "federation.client_update": "upload",
    },
    "quantize.dequantize_params": {
        "federation.client_update": "client",
        "federation.aggregate": "aggregate",
    },
}

LAYERS = ("models", "quantize", "backend", "privacy", "schedule", "rng",
          "federation", "config", "metrics")

# Bytes a kernel reads and writes per element, from array sizes: quantize
# reads a float64 value and a float64 uniform and writes an int64 code;
# dequantize reads an int64 code and writes a float64 value.
QUANTIZE_BYTES_PER_ELEMENT = 24
DEQUANTIZE_BYTES_PER_ELEMENT = 16


def _span_names() -> list[str]:
    names = []
    for _, _, name in TARGETS:
        split = SPLIT_BY_CALLER.get(name)
        if split:
            names.extend(f"{name}.{part}" for part in split.values())
        else:
            names.append(name)
    return names


def metric_units() -> dict[str, str]:
    """Every metric Tracer.summary() reports, with its unit."""
    units = {}
    for name in _span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({
        "models.loss_and_grad.samples": "count",
        "models.clip_gradient_l1.clip_ratio": "ratio",
        "quantize.quantize_params.elements": "count",
        "quantize.bytes_computed": "B",
        "privacy.trace_bytes_peak": "B",
    })
    return units


def _resolve(module_name: str, path: str):
    """(owner, attribute, current value), or None when any part is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, parts[-1], None)
    if not callable(value):
        return None
    return owner, parts[-1], value


class Tracer:
    """Context manager that wraps TARGETS on entry and restores them on exit."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        # Completed rounds, set by the caller's round_hook: setup spans and
        # round 0's share round id 0.
        self.round = 0
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._records_per_client: dict[int, int] = defaultdict(int)
        self._counts = {
            "models.loss_and_grad": self._count_samples,
            "models.clip_gradient_l1": self._count_clipped,
            "quantize.quantize_params": self._count_quantized,
            "quantize.dequantize_params": self._count_dequantized,
            "privacy.BatchTrace.record": self._count_trace_record,
        }

    def __enter__(self):
        for module_name, path, name in self.targets:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.add(name)
                continue
            owner, attr, original = found
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    def _wrap(self, name: str, fn):
        split = SPLIT_BY_CALLER.get(name)
        count = self._counts.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span_name = name
            if split is not None:
                caller = self.spans[parent][0] if parent >= 0 else ""
                span_name = f"{name}.{split.get(caller, 'other')}"
            span = [span_name, perf_counter(), 0.0, parent, self.round]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if count is not None:
                try:
                    count(args, result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    # The signature moved under a refactor: the count is
                    # unknown, but the run and its spans are still good.
                    self.absent.add(name + " counters")
            return result

        return traced

    def _count_samples(self, args, result):
        self.counters["models.loss_and_grad.samples"] += len(args[3])

    def _count_clipped(self, args, result):
        self.counters["models.clip_gradient_l1.clipped"] += result is not args[0]

    def _count_quantized(self, args, result):
        n = int(args[0].num_elements)
        self.counters["quantize.quantize_params.elements"] += n
        self.counters["quantize.bytes_computed"] += QUANTIZE_BYTES_PER_ELEMENT * n

    def _count_dequantized(self, args, result):
        self.counters["quantize.bytes_computed"] += (
            DEQUANTIZE_BYTES_PER_ELEMENT * int(result.num_elements)
        )

    def _count_trace_record(self, args, result):
        client = next((i for i in reversed(self._stack)
                       if self.spans[i][0] == "federation.client_update"), -1)
        self._records_per_client[client] += 1
        held = self._records_per_client[client] * 2 * int(args[1].num_elements) * 8
        self.counters["privacy.trace_bytes_peak"] = max(
            self.counters["privacy.trace_bytes_peak"], held
        )

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far, keyed as in
        metric_units()."""
        calls: dict[str, int] = defaultdict(int)
        children: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            if parent >= 0:
                children[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), child in zip(self.spans, children):
            self_s[name] += (end - start) - child
        out = {}
        for name in _span_names():
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v for k, v in self_s.items() if k.split(".", 1)[0] == layer
            )
        clip_calls = calls["models.clip_gradient_l1"]
        out["models.clip_gradient_l1.clip_ratio"] = (
            self.counters["models.clip_gradient_l1.clipped"] / clip_calls if clip_calls else 0.0
        )
        for key in ("models.loss_and_grad.samples", "quantize.quantize_params.elements",
                    "quantize.bytes_computed", "privacy.trace_bytes_peak"):
            out[key] = int(self.counters[key])
        return out

    def write_spans(self, path: Path) -> None:
        """One JSON list per line: name, start, end, parent index, round."""
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")

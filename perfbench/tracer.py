"""Per-layer spans around calls into confcl, recorded from outside the package.

The tracer wraps each traced public function and rebinds the wrapper in the
module that defines it and in every confcl module that imported the name
(for example both ``losses.loss_decoupled`` and ``bench.loss_decoupled``), so
calls between layers pass through it.  Methods are rebound on their class.
Nothing under ``src/`` changes; ``installed()`` restores every original.

A span is (name, start, end, parent span, op id).  Spans stay in memory and
are written out when the run ends.  Self time is a span's duration minus the
time covered by its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
from time import perf_counter_ns

import numpy as np

# Traced functions per layer, named as they are defined in confcl.<layer>.
LAYERS: dict[str, tuple[str, ...]] = {
    "metadata": ("summarize", "kernel_matrix"),
    "losses": ("pairwise_distances", "loss_decoupled", "loss_gradient", "partition_batch"),
    "bench": (
        "train",
        "Encoder.forward",
        "Encoder.backward",
        "augment",
        "batch_loss_inputs",
        "generate_dataset",
        "linear_probe",
    ),
    "detection": (
        "threshold_volume",
        "connected_components",
        "lesion_candidates",
        "match_lesions",
        "dynamic_threshold",
        "evaluate_exam",
        "roc_auc",
        "average_precision",
    ),
    "io": (
        "read_volume",
        "read_mask",
        "read_metadata_csv",
        "read_matrix_csv",
        "read_embeddings",
        "write_matrix_csv",
        "write_json_atomic",
    ),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)
IO_NAMES = tuple(f"io.{fn}" for fn in LAYERS["io"])
IO_WRITES = frozenset(("io.write_matrix_csv", "io.write_json_atomic"))

# (counted span, enclosing span): calls of the first made inside the second.
NESTED = (
    ("losses.pairwise_distances", "bench.train"),
    ("losses.loss_gradient", "bench.train"),
    ("detection.connected_components", "detection.dynamic_threshold"),
)


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Spans and counts for the functions in LAYERS, taken while installed."""

    def __init__(self) -> None:
        self.ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.spans: list[tuple[int, int, int, int, int]] = []
        self.calls = [0] * len(SPAN_NAMES)
        self.self_ns = [0] * len(SPAN_NAMES)
        self.active = [0] * len(SPAN_NAMES)
        self.nested = {pair: 0 for pair in NESTED}
        self.bytes = {name: 0 for name in IO_NAMES}
        self.pairs = 0
        self.op_id = -1
        self._stack: list[list[int]] = []  # [span index, child ns]
        self._bindings = self._wrap_all()

    # -- wrapping ----------------------------------------------------------

    def _wrap_all(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every place a name is bound."""
        bindings = []
        loaded = [
            m for n, m in list(sys.modules.items()) if n == "confcl" or n.startswith("confcl.")
        ]
        for layer, fns in LAYERS.items():
            module = importlib.import_module(f"confcl.{layer}")
            for fn in fns:
                name = f"{layer}.{fn}"
                if "." in fn:
                    cls_name, attr = fn.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    bindings.append((owner, attr, original, self._wrap(name, original)))
                    continue
                original = getattr(module, fn)
                wrapper = self._wrap(name, original)
                for m in loaded:
                    if m.__dict__.get(fn) is original:
                        bindings.append((m, fn, original, wrapper))
        return bindings

    @contextlib.contextmanager
    def installed(self, op_id: int):
        self.op_id = op_id
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._bindings:
                setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        nid = self.ids[name]
        spans, stack, active = self.spans, self._stack, self.active
        counted = [(pair, self.ids[pair[1]]) for pair in NESTED if pair[0] == name]
        is_io = name in self.bytes
        is_write = name in IO_WRITES
        is_match = name == "detection.match_lesions"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for pair, outer in counted:
                if active[outer]:
                    self.nested[pair] += 1
            if is_match:
                self.pairs += len(_arg(args, kwargs, 0, "candidates")) * len(
                    _arg(args, kwargs, 1, "references")
                )
            if is_io and not is_write:
                self.bytes[name] += os.path.getsize(_arg(args, kwargs, 0, "path"))
            parent = stack[-1] if stack else None
            frame = [len(spans), 0]
            spans.append(None)  # type: ignore[arg-type]
            stack.append(frame)
            active[nid] += 1
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                active[nid] -= 1
                stack.pop()
                spans[frame[0]] = (nid, start, end, parent[0] if parent else -1, self.op_id)
                if parent is not None:
                    parent[1] += end - start
                self.calls[nid] += 1
                self.self_ns[nid] += end - start - frame[1]
                if is_write:
                    self.bytes[name] += os.path.getsize(_arg(args, kwargs, 0, "path"))

        return traced

    # -- results -----------------------------------------------------------

    def metrics(self, n_ops: int, time_scale: float) -> dict[str, tuple[float, str]]:
        """Per-op averages over ``n_ops`` traced operations, plus ratios.

        Self times are multiplied by ``time_scale``, the run's factor to
        seconds at the reference machine speed.
        """
        out: dict[str, tuple[float, str]] = {}
        for name, nid in self.ids.items():
            out[f"{name}.calls"] = (self.calls[nid] / n_ops, "calls/op")
            out[f"{name}.self_s"] = (self.self_ns[nid] / 1e9 / n_ops * time_scale, "s/op")
        for name, total in self.bytes.items():
            out[f"{name}.bytes"] = (total / n_ops, "bytes/op")
        out["detection.match_lesions.pairs"] = (self.pairs / n_ops, "pairs/op")
        calls = lambda name: self.calls[self.ids[name]]
        out["losses.distance_builds_per_step"] = (
            _ratio(self.nested[NESTED[0]], self.nested[NESTED[1]]),
            "ratio",
        )
        out["detection.labelings_per_exam"] = (
            _ratio(calls("detection.connected_components"), calls("detection.evaluate_exam")),
            "ratio",
        )
        out["detection.dynamic_threshold.labelings_per_search"] = (
            _ratio(self.nested[NESTED[2]], calls("detection.dynamic_threshold")),
            "ratio",
        )
        return out

    def dump(self, path: str) -> None:
        """Write every span as rows of (name id, start ns, end ns, parent, op id)."""
        np.savez_compressed(
            path,
            names=np.array(SPAN_NAMES),
            spans=np.array(self.spans, dtype=np.int64).reshape(-1, 5),
        )


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0

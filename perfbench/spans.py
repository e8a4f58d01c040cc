"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions of every ``ctprod`` module
and rebinds each wrapper wherever another ``ctprod`` module (or the
package) holds the same function object, so internal calls such as
``geninv.transform_slices`` are traced as well.  Each call becomes a span
(name, parent, start, end, op, raised) kept in memory; ``Tracer.layers``
turns them into per-op metrics, with a layer's self time taken as its
spans' duration minus the duration of their child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = ("io", "cli", "transform", "tensor", "product", "kernels", "decompositions", "geninv", "markov")

# A per-scalar helper called once per number written; tracing it would
# measure the tracer, not the layer.
SKIP = {"io.format_float"}

# Unit of each per-layer metric.  Per op means per timed operation of the
# traced run; per call is the mean over calls of that function.
UNITS = {
    "io.parse_s": "s/op",
    "io.write_s": "s/op",
    "io.bytes_in": "B/op",
    "io.bytes_out": "B/op",
    "cli.calls": "count/op",
    "cli.self_s": "s/op",
    "transform.context_s": "s/call",
    "transform.fwd_calls": "count/op",
    "transform.inv_calls": "count/op",
    "transform.self_s": "s/op",
    "transform.bytes_computed": "B/op",
    "tensor.new_calls": "count/op",
    "tensor.bytes_copied": "B/op",
    "product.cprod_calls": "count/op",
    "product.conj_transpose_calls": "count/op",
    "product.self_s": "s/op",
    "kernels.calls": "count/op",
    "kernels.svd_calls": "count/op",
    "kernels.self_s": "s/op",
    "decompositions.calls": "count/op",
    "decompositions.self_s": "s/op",
    "geninv.route_s": "s/op",
    "geninv.check_s": "s/op",
    "geninv.failed": "count/op",
    "markov.steps": "count/op",
    "markov.step_us": "us/step",
    "markov.projector_s": "s/call",
    "trace.overhead_s": "s/op",
}

FWD = {"transform.transform_slices", "transform.to_transform"}
INV = {"transform.tensor_from_transform_slices", "transform.from_transform"}
SVD = {"kernels.svd_matrix", "kernels.numerical_rank", "kernels.pinv_matrix"}


def _nbytes(x) -> int:
    return int(getattr(x, "nbytes", 0) or getattr(getattr(x, "slices", None), "nbytes", 0))


class Tracer:
    def __init__(self):
        self.on = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.raised = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.op_seq = -1
        self.op_label = ""
        self.op_labels: list[str] = []
        self.counts: Counter = Counter()  # (op label, counter) -> total
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def begin_op(self, label: str) -> None:
        self.op_seq += 1
        self.op_label = label
        self.op_labels.append(label)

    def count(self, key: str, n: int = 1) -> None:
        if self.on:
            self.counts[(self.op_label, key)] += n

    def _wrap(self, qual: str, fn, after=None):
        nid = self._ids.setdefault(qual, len(self.names))
        if nid == len(self.names):
            self.names.append(qual)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.op_seq)
            self.raised.append(1)
            self.start.append(clock())
            self.end.append(0.0)
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
                self.raised[idx] = 0
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if after is not None:
                after(args, out)
            return out

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        pkg = importlib.import_module("ctprod")
        mods = [pkg] + [importlib.import_module(f"ctprod.{m}") for m in LAYERS]
        swaps = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"ctprod.{layer}")
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                qual = f"{layer}.{attr}"
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and qual not in SKIP:
                    swaps[fn] = self._wrap(qual, fn, self._after(qual))
                elif inspect.isclass(fn) and fn.__module__ == mod.__name__ and layer == "decompositions":
                    for meth in ("reconstruct", "middle"):
                        if meth in vars(fn):
                            self._patch(fn, meth, self._wrap(f"{layer}.{attr}.{meth}", vars(fn)[meth]))
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in swaps:
                    self._patch(mod, attr, swaps[val])
        tensor3 = pkg.Tensor3
        init = tensor3.__init__

        def counted_init(obj, slices):
            init(obj, slices)
            if self.on:
                self.counts[(self.op_label, "tensor.new_calls")] += 1
                self.counts[(self.op_label, "tensor.bytes_copied")] += obj.slices.nbytes

        self._patch(tensor3, "__init__", counted_init)

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def _after(self, qual: str):
        if qual in FWD or qual in INV:
            key = "transform.fwd_calls" if qual in FWD else "transform.inv_calls"

            def after(args, out):
                ctx = args[1]
                mat = ctx.tube_map if qual in FWD else ctx.tube_map_inv
                self.count(key)
                self.count("transform.bytes_computed", mat.nbytes + _nbytes(args[0]) + _nbytes(out))

            return after
        if qual == "io.parse_tensor_file":
            return lambda args, out: self.count("io.bytes_in", len(args[0]))
        if qual == "io.write_tensor_file":
            return lambda args, out: self.count("io.bytes_out", len(out))
        if qual == "markov.limit_estimate":
            return lambda args, out: self.count("markov.steps", len(out.estimates))
        return None

    # -- results -----------------------------------------------------------------

    def layers(self, failed_ops: set[int]) -> dict[str, float]:
        """Per-op layer metrics over the spans recorded inside ops.

        Spans outside any op (set-up) count only towards the per-call
        mean of ``transform.context_s``.  ``failed_ops`` are the ops the
        benchmark judged failed; those that called into geninv count as
        ``geninv.failed``.
        """
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        op = np.frombuffer(self.op, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_t = dur - child
        qual = np.array(self.names, dtype=object)[name]
        layer = np.array([q.split(".", 1)[0] for q in self.names], dtype=object)[name]
        in_loop = op >= 0
        ops = max(len(self.op_labels), 1)

        # Geninv spans not nested in another geninv span: the public calls.
        is_gen = layer == "geninv"
        outer_gen = is_gen.copy()
        for i in np.nonzero(is_gen & has_parent)[0]:
            p = parent[i]
            while p >= 0 and not is_gen[p]:
                p = parent[p]
            outer_gen[i] = p < 0
        is_check = np.array([q.startswith("geninv.check_") for q in self.names], dtype=bool)[name]
        limit = qual == "markov.limit_estimate"
        proj = qual == "markov.ergodic_projector"
        proj_in_limit = proj & has_parent & np.isin(parent, np.nonzero(limit)[0])
        ctx = qual == "transform.build_context"

        def total(mask):
            return float(dur[mask & in_loop].sum())

        def selft(lyr):
            return float(self_t[(layer == lyr) & in_loop].sum()) / ops

        def calls(mask):
            return float(np.count_nonzero(mask & in_loop)) / ops

        def counted(key):
            return sum(v for (lab, k), v in self.counts.items() if k == key) / ops

        steps = counted("markov.steps") * ops
        return {
            "io.parse_s": total(qual == "io.parse_tensor_file") / ops,
            "io.write_s": total(qual == "io.write_tensor_file") / ops,
            "io.bytes_in": counted("io.bytes_in"),
            "io.bytes_out": counted("io.bytes_out"),
            "cli.calls": calls(qual == "cli.main"),
            "cli.self_s": selft("cli"),
            "transform.context_s": float(dur[ctx].mean()) if ctx.any() else 0.0,
            "transform.fwd_calls": counted("transform.fwd_calls"),
            "transform.inv_calls": counted("transform.inv_calls"),
            "transform.self_s": selft("transform"),
            "transform.bytes_computed": counted("transform.bytes_computed"),
            "tensor.new_calls": counted("tensor.new_calls"),
            "tensor.bytes_copied": counted("tensor.bytes_copied"),
            "product.cprod_calls": calls(qual == "product.cprod"),
            "product.conj_transpose_calls": calls(qual == "product.conj_transpose"),
            "product.self_s": selft("product"),
            "kernels.calls": calls(layer == "kernels"),
            "kernels.svd_calls": calls(np.isin(qual, list(SVD))),
            "kernels.self_s": selft("kernels"),
            "decompositions.calls": calls(layer == "decompositions"),
            "decompositions.self_s": selft("decompositions"),
            "geninv.route_s": (total(outer_gen) - total(is_check)) / ops,
            "geninv.check_s": total(is_check) / ops,
            "geninv.failed": len(failed_ops & set(op[outer_gen].tolist())) / ops,
            "markov.steps": steps / ops,
            "markov.step_us": 1e6 * (total(limit) - total(proj_in_limit)) / steps if steps else 0.0,
            "markov.projector_s": float(dur[proj & in_loop].mean()) if (proj & in_loop).any() else 0.0,
        }

    def per_label(self) -> dict[str, dict[str, float]]:
        """Transform counts per call of each op label (exact for whole cycles)."""
        runs = Counter(self.op_labels)
        out = {}
        for (lab, key), v in sorted(self.counts.items()):
            if key in ("transform.fwd_calls", "transform.inv_calls"):
                out.setdefault(lab, {})[key.split(".")[1].split("_")[0]] = v / runs[lab]
        return out

    def dump(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            raised=np.frombuffer(self.raised, dtype=np.int8),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            op_labels=np.array(self.op_labels),
        )
        path.with_suffix(".json").write_text(json.dumps(extra, indent=1, sort_keys=True))

"""Spans and work counters around rumexda's public functions, installed
from outside the package.

A wrapper has to replace the name where the caller looks it up: a name
bound by ``from .x import y`` is patched in the importing module, and a
method is patched on its class. Every span records its id, name, start,
end and parent id; the spans stay in memory until ``result()`` hands them
to the caller at the end of the pass.
"""

from __future__ import annotations

import itertools
import os
import threading
import time

from rumexda import adaptation, cli, evaluation, experiment, nn, optim, tensor, tiling
from rumexda.synthdata import CORPUS_FILE

# every tensor op the engine records; anything else lands in "other"
OPS = ("add", "sub", "mul", "pow_k", "relu", "exp", "log", "sum", "mean", "l2_norm",
       "matmul", "transpose", "add_bias", "softmax", "softmax_cross_entropy", "dropout")


def _file_bytes(path) -> int:
    return os.path.getsize(path)


def _dir_bytes(path) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counts: dict[str, float] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()
        self._call_counters: dict[str, itertools.count] = {}
        # leaf gradients filled by the last backward and not yet stepped, by id
        self._pending_leaves: dict[int, int] = {}

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, n: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(result, args)`` runs outside it."""

        def wrapper(*args, **kwargs):
            stack = self._stack()
            # a pool thread's first span hangs off the main thread's open span
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else -1)
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent))
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        """Count calls without a span; for functions called too often to time."""
        calls = itertools.count()  # next() is atomic, so pool threads lose no update
        self._call_counters[name] = calls

        def wrapper(*args, **kwargs):
            next(calls)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    # autodiff counters

    def walk_graph(self, loss) -> None:
        """Count op nodes per op and remember the requires_grad leaves."""
        seen: set[int] = set()
        stack = [loss]
        leaves = {}
        ops: dict[str, int] = {}
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node._grad_fn is not None:
                op = node._op if node._op in OPS else "other"
                ops[op] = ops.get(op, 0) + 1
                stack.extend(node._parents)
            elif node.requires_grad:
                leaves[id(node)] = node.size
        for op, n in ops.items():
            self.add(f"tensor.nodes.{op}", n)
        self.add("tensor.nodes", sum(ops.values()))
        self.add("tensor.leaf_grad_elems", sum(leaves.values()))
        self._pending_leaves = leaves

    def note_step(self, params) -> None:
        """Credit the leaf gradients an optimizer step consumed."""
        useful = 0
        for p in params:
            useful += self._pending_leaves.pop(id(p), 0)
        self.add("tensor.useful_grad_elems", useful)

    def result(self) -> dict:
        counts = {"tensor.nodes": 0, "tensor.leaf_grad_elems": 0, "tensor.useful_grad_elems": 0}
        counts.update({f"tensor.nodes.{op}": 0 for op in OPS + ("other",)})
        counts.update(self.counts)
        counts.update({name: next(calls) for name, calls in self._call_counters.items()})
        return {"spans": self.spans, "counts": counts}


def install(tracer: Tracer) -> None:
    """Replace every traced name; a missing name raises AttributeError."""

    def patch(owner, attr, name, after=None):
        setattr(owner, attr, tracer.span(name, getattr(owner, attr), after))

    def count_of(counter, measure):
        return lambda result, args: tracer.add(counter, measure(result, args))

    for command in ("synth", "train", "eval", "report", "tile", "split"):
        patch(cli, f"cmd_{command}", f"cli.{command}")

    patch(cli, "generate", "synthdata.generate")
    patch(cli, "write_corpus", "synthdata.write_corpus",
          count_of("synthdata.write_corpus.bytes", lambda r, a: _dir_bytes(a[1])))
    patch(cli, "read_corpus_domains", "synthdata.read_corpus_domains",
          count_of("synthdata.read_corpus_domains.bytes",
                   lambda r, a: _file_bytes(os.path.join(a[0], CORPUS_FILE))))

    patch(cli, "run_strategy", "experiment.run_strategy")
    for trainer in ("train_vanilla", "train_m2s2da", "train_m3sda_beta"):
        patch(experiment, trainer, "adaptation.train")
    for step in ("step_classify", "step_max_discrepancy", "step_min_discrepancy"):
        patch(adaptation.M3sdaStepper, step, f"adaptation.{step}")
    # looked up as a global by the per-epoch eval, imported at call time by cmd_eval
    patch(adaptation, "predict_labels", "adaptation.predict_labels")

    backward = tracer.span("tensor.backward", tensor.Tensor.backward)

    def traced_backward(self):
        tracer.walk_graph(self)
        return backward(self)

    tensor.Tensor.backward = traced_backward
    for cls in (optim.SGD, optim.Adam):
        patch(cls, "step", "optim.step", lambda r, a: tracer.note_step(a[0].params))
    patch(optim._Optimizer, "zero_grad", "optim.zero_grad")

    patch(nn.ModelBundle, "extract", "nn.extract")
    patch(nn.ClassifierHead, "forward", "nn.head_forward")
    patch(nn.ModelBundle, "snapshot", "nn.snapshot",
          count_of("nn.snapshot.bytes", lambda r, a: sum(v.nbytes for v in r.values())))
    patch(cli, "save_checkpoint", "nn.save_checkpoint",
          count_of("nn.save_checkpoint.bytes", lambda r, a: _file_bytes(a[1])))
    patch(cli, "load_checkpoint", "nn.load_checkpoint")

    for owner, names in (
        (cli, ("confusion_from_predictions", "report_from_counts", "format_report_table",
               "select_model_epoch", "sigma_epochs")),
        (adaptation, ("confusion_from_predictions", "report_from_counts")),
        # imported at call time by the per-epoch eval, a global inside evaluation
        (evaluation, ("f1_precision_recall",)),
    ):
        for attr in names:
            patch(owner, attr, "evaluation")

    patch(cli, "read_pnm", "tiling.read_pnm",
          count_of("tiling.read_pnm.bytes", lambda r, a: r.nbytes))
    patch(cli, "tile_image", "tiling.tile_image",
          count_of("tiling.tile_image.tiles", lambda r, a: len(r)))
    # looked up as a global inside tiling, imported at call time by cmd_split
    tiling.overlap_ratio = tracer.counter("tiling.overlap_ratio.calls", tiling.overlap_ratio)
    patch(cli, "read_annotations", "tiling.read_annotations")
    patch(cli, "build_splits", "tiling.build_splits")
    patch(cli, "write_manifest", "tiling.write_manifest",
          count_of("tiling.write_manifest.bytes", lambda r, a: _file_bytes(a[1])))
    patch(cli, "read_manifest", "tiling.read_manifest")

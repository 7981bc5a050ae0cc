"""Feature extractor G, classifier heads C, freeze policy and LoRA adapters.

G is a stack of linear+ReLU blocks standing in for an arbitrary backbone;
the adaptation math only ever touches its output embedding, so the block
internals are irrelevant to the training strategies. Its blocks are the
layer tuples ``tensor.mlp`` takes, built once by ``build_model``, so an
extraction of one batch, or of a (B, rows, d) stack of equal batches, is
one graph node, LoRA adapters included. Each classifier is fixed to linear
-> ReLU -> dropout (``ModelConfig.dropout``) -> linear -> 2 logits. A
bundle's H classifiers (one, or the 2N of the pair strategies) live in one
``ClassifierHead`` that keeps each layer's weights and biases as one
(H, ...) stack and runs every head as one ``tensor.head_stack`` node.
``ModelBundle.step_args`` hands the extractor blocks and the head stacks to
the training step nodes (``tensor.classify_loss``,
``tensor.max_discrepancy_loss`` and ``tensor.min_discrepancy_loss``),
which run the extractor and the heads inside them. Checkpoints store each
head's slab as its own ``head{j}.linear{1,2}.{weight,bias}`` entry.

``build_model`` takes the run config's ``model`` section as it is, plus
the pair count and seed that callers derive from the training settings.
"""

from __future__ import annotations

import base64
import json
from dataclasses import asdict

import numpy as np

from .config import ModelConfig
from .errors import ConfigError, DataError, RumexdaError, ShapeError
from .files import read_text, write_atomic
from . import tensor as T
from .tensor import Tensor


def _he_uniform(rng: np.random.Generator, d_out: int, d_in: int) -> np.ndarray:
    limit = np.sqrt(6.0 / d_in)
    return rng.uniform(-limit, limit, size=(d_out, d_in))


# the names of a block's tensors, in the order of its ``T.mlp`` layer tuple
_BLOCK_PARAMETERS = ("weight", "bias", "lora_down", "lora_up")


class FeatureExtractor:
    """Ordered linear+ReLU blocks, run as one ``T.mlp`` node.

    Each block is the layer tuple ``T.mlp`` takes: ``(weight, bias)``, with
    exactly the trailing ``unfreeze`` blocks trainable, or under LoRA
    ``(weight, bias, lora_down, lora_up, scale)``, with the base frozen and
    the rank-R factors trainable. ``weight`` is d_out x d_in, ``lora_down``
    R x d_in and ``lora_up`` d_out x R, and ``scale`` is alpha / R.
    """

    def __init__(self, blocks: list[tuple]):
        self.blocks = blocks

    def forward(self, x):
        return T.mlp(x, self.blocks)

    def parameters(self):
        return [(f"extractor.block{i}.{name}", p) for i, block in enumerate(self.blocks)
                for name, p in zip(_BLOCK_PARAMETERS, block)]


class ClassifierHead:
    """H classifiers linear(f->f) -> ReLU -> dropout -> linear(f->2), held
    as one stack per layer tensor: ``weight1`` H x f x f, ``bias1`` H x f,
    ``weight2`` H x 2 x f and ``bias2`` H x 2."""

    def __init__(self, feature_dim: int, n_heads: int, rng: np.random.Generator,
                 dropout_p: float):
        # He-uniform weights drawn head by head, linear1's before linear2's
        w1 = np.empty((n_heads, feature_dim, feature_dim))
        w2 = np.empty((n_heads, 2, feature_dim))
        for h in range(n_heads):
            w1[h] = _he_uniform(rng, feature_dim, feature_dim)
            w2[h] = _he_uniform(rng, 2, feature_dim)
        self.weight1 = Tensor(w1, requires_grad=True)
        self.bias1 = Tensor(np.zeros((n_heads, feature_dim)), requires_grad=True)
        self.weight2 = Tensor(w2, requires_grad=True)
        self.bias2 = Tensor(np.zeros((n_heads, 2)), requires_grad=True)
        self.n_heads = n_heads
        self.dropout_p = dropout_p

    def forward(self, z, training: bool = False, rng=None) -> Tensor:
        """The logits of every head as one H x n x 2 stack, from one
        ``T.head_stack`` node. ``z`` is an n x f tensor that every head
        reads, or a sequence of H of them, one per head. One dropout draw of
        shape (H, n, f) takes the numbers H draws of shape (n, f) would, head
        by head."""
        return T.head_stack(z, self.weight1, self.bias1, self.weight2, self.bias2,
                            self.dropout_p, training, rng)

    def parameters(self):
        return [("head.linear1.weight", self.weight1), ("head.linear1.bias", self.bias1),
                ("head.linear2.weight", self.weight2), ("head.linear2.bias", self.bias2)]


class ModelBundle:
    """A feature extractor plus a stack of classifier heads: one head, or
    2N heads when built with ``pairs=N``, where heads 2i and 2i+1 form the
    pair (C_i, C'_i). ``seed`` is the seed its weights were drawn from."""

    def __init__(self, config: ModelConfig, extractor: FeatureExtractor, head: ClassifierHead,
                 seed: int):
        self.config = config
        self.extractor = extractor
        self.head = head
        self.seed = seed

    @property
    def pairs(self) -> int:
        """N for a bundle of N classifier pairs, 0 for a single head."""
        return self.head.n_heads // 2

    def forward(self, x: Tensor, training: bool = False, rng=None) -> Tensor:
        """Logits of every head, H x n x 2."""
        return self.head.forward(self.extract(x), training, rng)

    def extract(self, x):
        """The features of a batch of rows, or of a (B, rows, d) stack of
        equal batches, from one ``T.mlp`` node."""
        x = x if isinstance(x, Tensor) else Tensor(x)
        if x.ndim not in (2, 3) or x.shape[-1] != self.config.input_dim:
            raise ShapeError(
                f"input of shape {x.shape} does not match input_dim={self.config.input_dim}"
            )
        return self.extractor.forward(x)

    def step_args(self) -> tuple:
        """``(blocks, weight1, bias1, weight2, bias2, dropout_p)``: the
        extractor and head tensors in the order the ``T`` step nodes take
        them after their batches (and labels)."""
        head = self.head
        return (self.extractor.blocks, head.weight1, head.bias1, head.weight2, head.bias2,
                head.dropout_p)

    def parameters(self):
        return self.extractor.parameters() + self.head.parameters()

    def trainable_parameters(self):
        return [(name, p) for name, p in self.parameters() if p.requires_grad]

    def extractor_trainable_parameters(self):
        return [(name, p) for name, p in self.extractor.parameters() if p.requires_grad]

    def head_trainable_parameters(self):
        return [(name, p) for name, p in self.head.parameters() if p.requires_grad]

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.parameters()}

    def restore(self, snapshot: dict[str, np.ndarray]) -> None:
        # in place: a parameter's data may be a view into an optimizer's buffer
        for name, p in self.parameters():
            p.data[...] = snapshot[name]


def build_model(config: ModelConfig, pairs: int = 0, seed: int = 0) -> ModelBundle:
    """Deterministically initialize a bundle with one classifier head
    (``pairs=0``) or ``pairs`` classifier pairs, drawing from ``seed``.

    He-uniform weights for all linear layers, zero biases, zero LoRA ``up``
    factors (so a fresh adapter model reproduces the base forward exactly).
    """
    config.validate()
    if pairs < 0:
        raise ConfigError(f"classifier pairs must be >= 0, got {pairs}")
    rng = np.random.default_rng(seed)
    dims = (config.input_dim, *config.hidden_dims, config.feature_dim)
    alpha = float(config.lora_alpha if config.lora_alpha is not None else config.lora_rank)

    bases = [(Tensor(_he_uniform(rng, dims[i + 1], dims[i])), Tensor(np.zeros(dims[i + 1])))
             for i in range(config.n_blocks)]
    n_heads = 1 if pairs == 0 else 2 * pairs
    head = ClassifierHead(config.feature_dim, n_heads, rng, config.dropout)

    # adapter factors are drawn last so the base+head draw sequence matches
    # a plain build of the same seed; a fresh LoRA model therefore computes
    # exactly what the corresponding frozen model computes
    blocks: list[tuple] = []
    for i, (weight, bias) in enumerate(bases):
        if config.adaptation == "lora":
            rank = config.lora_rank
            down = Tensor(_he_uniform(rng, rank, dims[i]), requires_grad=True)
            up = Tensor(np.zeros((dims[i + 1], rank)), requires_grad=True)
            blocks.append((weight, bias, down, up, alpha / rank))
        else:
            weight.requires_grad = bias.requires_grad = i >= config.n_blocks - config.unfreeze
            blocks.append((weight, bias))
    return ModelBundle(config, FeatureExtractor(blocks), head, seed)


def trainable_parameter_count(bundle: ModelBundle) -> int:
    return sum(p.size for _, p in bundle.trainable_parameters())


# ----------------------------------------------------------------------
# checkpoints

CHECKPOINT_VERSION = 1


def _config_from_dict(d: dict) -> ModelConfig:
    return ModelConfig(
        input_dim=int(d["input_dim"]),
        hidden_dims=tuple(int(h) for h in d["hidden_dims"]),
        feature_dim=int(d["feature_dim"]),
        unfreeze=int(d["unfreeze"]),
        adaptation=str(d["adaptation"]),
        lora_rank=int(d["lora_rank"]),
        lora_alpha=None if d["lora_alpha"] is None else float(d["lora_alpha"]),
        dropout=float(d["dropout"]),
    )


def _checkpoint_entries(bundle: ModelBundle) -> list[tuple[str, np.ndarray]]:
    """Each checkpoint entry's name and the array it holds: the extractor's
    parameters, then head by head each head's slab of the stacked head
    tensors as ``head{j}.linear{1,2}.{weight,bias}``."""
    entries = [(name, p.data) for name, p in bundle.extractor.parameters()]
    for j in range(bundle.head.n_heads):
        entries.extend((name.replace("head", f"head{j}", 1), p.data[j])
                       for name, p in bundle.head.parameters())
    return entries


def save_checkpoint(bundle: ModelBundle, path) -> None:
    """Write config plus all named parameters; the float payload is raw
    little-endian bytes so a reload is bit-exact."""
    params = {}
    for name, arr in _checkpoint_entries(bundle):  # every parameter is float64
        params[name] = {
            "shape": list(arr.shape),
            "dtype": "<f8",
            "data": base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii"),
        }
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "config": {**asdict(bundle.config), "classifier_pairs": bundle.pairs,
                   "seed": bundle.seed},
        "parameters": params,
    }
    write_atomic(path, json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def load_checkpoint(path) -> ModelBundle:
    """Rebuild a bundle from ``save_checkpoint`` output. Malformed JSON, a
    missing or ill-typed entry, or a parameter that is not finite raises
    ``DataError`` naming the path."""
    try:
        payload = json.loads(read_text(path))
        if payload.get("format_version") != CHECKPOINT_VERSION:
            raise ConfigError(f"unsupported checkpoint version {payload.get('format_version')!r}")
        d = payload["config"]
        bundle = build_model(_config_from_dict(d), int(d["classifier_pairs"]), int(d["seed"]))
        stored = payload["parameters"]
        for name, target in _checkpoint_entries(bundle):
            if name not in stored:
                raise ConfigError(f"checkpoint is missing parameter {name!r}")
            entry = stored[name]
            arr = np.frombuffer(base64.b64decode(entry["data"]), dtype=entry["dtype"])
            arr = arr.reshape(entry["shape"])
            if arr.shape != target.shape:
                raise DataError(f"{path}: parameter {name!r} has shape {arr.shape}, "
                                f"the model needs {target.shape}")
            if not np.logical_and.reduce(np.isfinite(arr), None):
                raise DataError(f"{path}: parameter {name!r} holds a value that is not finite")
            target[...] = arr
    except RumexdaError:
        raise
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}:{exc.lineno}: not JSON: {exc.msg}") from exc
    except KeyError as exc:
        raise DataError(f"{path}: checkpoint has no {exc} entry") from exc
    except (ValueError, TypeError, AttributeError, OverflowError) as exc:
        raise DataError(f"{path}: malformed checkpoint: {exc}") from exc
    return bundle

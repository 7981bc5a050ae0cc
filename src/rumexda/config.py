"""Plain-text run configuration: ``section.key = value`` lines.

Every command but ``eval`` writes its fully resolved configuration
(defaults included) next to its outputs, and rerunning from that file
reproduces the outputs byte for byte. Floats are serialized with repr so
they round-trip exactly. The section defaults, the choice lists and the
rules on values below are the package's only copies of them: a section's
``validate()`` holds every rule on its fields (each a "not in range" test,
which NaN and the infinities fail too), and the library functions that
take bare values, such as ``tiling.tile_image``, check them through it.

The ``model`` section is the ``ModelConfig`` that ``nn.build_model`` takes,
and the ``training`` section the ``AdaptationConfig`` the trainers take.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Optional

from .errors import ConfigError
from .files import read_text, write_atomic


SPLIT_MODES = ("pooled", "per_subset")
ADAPTATIONS = ("none", "lora")
STRATEGIES = ("vanilla", "m2s2da", "m3sda_beta")
OPTIMIZERS = ("sgd", "adam")


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")


def check_domain_scalars(n_samples: int, positive_fraction: float, noise_sigma: float) -> None:
    """The rules on one synthetic domain's scalars, for ``SynthSection`` and
    for ``synthdata.DomainSpec``."""
    if not 0.0 < positive_fraction < 1.0:
        raise ConfigError(f"positive_fraction must lie in (0, 1), got {positive_fraction}")
    if n_samples < 1:
        raise ConfigError("n_samples must be positive")
    if not 0.0 <= noise_sigma < math.inf:
        raise ConfigError(f"noise_sigma must be finite and non-negative, got {noise_sigma}")


@dataclass
class TilingSection:
    tile_size: int = 518
    r_threshold: float = 0.1
    positive_class: str = "rumex"

    def validate(self) -> None:
        if self.tile_size < 1:
            raise ConfigError(f"tile side must be at least 1 pixel, got {self.tile_size}")
        if not 0.0 < self.r_threshold < 1.0:
            raise ConfigError(f"r_th must lie in (0, 1), got {self.r_threshold}")


@dataclass
class SplitSection:
    mode: str = "per_subset"
    val_fraction: float = 0.2  # share of rows held out for validation
    seed: int = 0

    def validate(self) -> None:
        if self.mode not in SPLIT_MODES:
            raise ConfigError(f"unknown split mode {self.mode!r}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigError(f"val_fraction must lie in [0, 1), got {self.val_fraction}")
        _check_seed(self.seed)


@dataclass
class ModelConfig:
    """The ``model`` section, passed to ``nn.build_model`` as it is."""

    input_dim: int = 16
    hidden_dims: tuple[int, ...] = (32,)
    feature_dim: int = 16
    unfreeze: int = 2  # trailing extractor blocks that train
    adaptation: str = "none"  # one of ADAPTATIONS
    lora_rank: int = 8
    lora_alpha: Optional[float] = None  # None -> alpha == rank, i.e. scale 1
    dropout: float = 0.3

    @property
    def n_blocks(self) -> int:
        return len(self.hidden_dims) + 1

    def validate(self) -> None:
        if self.input_dim < 1 or self.feature_dim < 1:
            raise ConfigError("input_dim and feature_dim must be at least 1")
        if any(h < 1 for h in self.hidden_dims):
            raise ConfigError(f"hidden_dims must be positive, got {self.hidden_dims}")
        if self.adaptation not in ADAPTATIONS:
            raise ConfigError(f"unknown adaptation {self.adaptation!r}")
        if not 0 <= self.unfreeze <= self.n_blocks:
            raise ConfigError(
                f"unfreeze={self.unfreeze} outside [0, {self.n_blocks}] for {self.n_blocks} blocks"
            )
        if self.adaptation == "lora":
            if self.lora_rank <= 0:
                raise ConfigError(f"lora_rank must be positive, got {self.lora_rank}")
            if self.unfreeze != 0:
                raise ConfigError("LoRA keeps the whole base extractor frozen; set unfreeze=0")
        if self.lora_alpha is not None and not 0.0 < self.lora_alpha < math.inf:
            raise ConfigError(f"lora_alpha must be finite and positive, got {self.lora_alpha}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")


@dataclass
class AdaptationConfig:
    """The ``training`` section, passed to the trainers as it is."""

    strategy: str = "vanilla"
    lam: float = 0.5  # weight of the moment-distance term
    epochs: int = 20
    warmup: int = 5
    batch_size: int = 64
    lr: float = 0.001
    optimizer: str = "adam"
    seed: int = 0

    def validate(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}")
        if not 0.0 <= self.lam < math.inf:
            raise ConfigError(f"lambda must be finite and non-negative, got {self.lam}")
        if self.epochs < 1:
            raise ConfigError("epochs must be positive")
        if self.warmup < 0:
            raise ConfigError(f"warmup must be non-negative, got {self.warmup}")
        if self.epochs <= self.warmup:  # no epoch after the warm-up to select
            raise ConfigError(f"epochs={self.epochs} must exceed the warmup of {self.warmup} "
                              "for model selection")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be positive")
        if self.strategy != "vanilla" and self.batch_size < 2:
            raise ConfigError("moment terms need a batch_size of at least 2")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if not 0.0 <= self.lr < math.inf:
            raise ConfigError(f"lr must be finite and non-negative, got {self.lr}")
        _check_seed(self.seed)


@dataclass
class SynthSection:
    sources: int = 3
    dim: int = 16
    samples: int = 2000
    positive_fraction: float = 0.2
    target_shift: float = 4.5
    noise_sigma: float = 0.1
    val_fraction: float = 0.2
    seed: int = 0

    def validate(self) -> None:
        if self.sources < 1:
            raise ConfigError(f"sources must be at least 1, got {self.sources}")
        if self.dim < 1:
            raise ConfigError(f"dim must be positive, got {self.dim}")
        SplitSection(val_fraction=self.val_fraction, seed=self.seed).validate()
        # the benchmark's domains break DomainSpec's rules exactly when these do
        check_domain_scalars(self.samples, self.positive_fraction, self.noise_sigma)
        if not math.isfinite(self.target_shift):
            raise ConfigError("domain target: shift and scale entries must be finite")


@dataclass
class EvaluationSection:
    window: int = 10

    def validate(self) -> None:
        if self.window < 1:
            raise ConfigError(f"window must be at least 1 epoch, got {self.window}")


@dataclass
class RunConfig:
    tiling: TilingSection = field(default_factory=TilingSection)
    split: SplitSection = field(default_factory=SplitSection)
    model: ModelConfig = field(default_factory=ModelConfig)
    training: AdaptationConfig = field(default_factory=AdaptationConfig)
    synth: SynthSection = field(default_factory=SynthSection)
    evaluation: EvaluationSection = field(default_factory=EvaluationSection)

    def validate(self) -> None:
        for section in fields(self):
            getattr(self, section.name).validate()


# serialized key <-> attribute name; "lambda" is a keyword in python
_RENAMED = {("training", "lam"): "lambda"}
_SECTIONS = ("tiling", "split", "model", "training", "synth", "evaluation")


def _encode(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(_encode(v) for v in value)
    return str(value)


def _decode(text: str, annotation: str, key: str):
    text = text.strip()
    if annotation == "Optional[float]" and text == "none":
        return None
    try:
        if annotation == "int":
            return int(text)
        if annotation in ("float", "Optional[float]"):
            return float(text)
        if annotation == "str":
            return text
        if annotation == "tuple[int, ...]":
            return tuple(int(v) for v in text.split(",") if v != "")
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {text!r} ({exc})") from exc
    raise ConfigError(f"unhandled config type {annotation!r} for {key}")


def to_text(config: RunConfig) -> str:
    lines = []
    for section_name in _SECTIONS:
        section = getattr(config, section_name)
        for f in fields(section):
            key = _RENAMED.get((section_name, f.name), f.name)
            lines.append(f"{section_name}.{key} = {_encode(getattr(section, f.name))}")
    return "\n".join(lines) + "\n"


def from_text(text: str) -> RunConfig:
    config = RunConfig()
    lookup = {}
    for section_name in _SECTIONS:
        section = getattr(config, section_name)
        for f in fields(section):
            key = _RENAMED.get((section_name, f.name), f.name)
            lookup[f"{section_name}.{key}"] = (section, f.name, f.type)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in lookup:
            raise ConfigError(f"line {line_no}: unknown config key {key!r}")
        section, attr, annotation = lookup[key]
        setattr(section, attr, _decode(value, annotation, key))
    return config


def write_config(config: RunConfig, path) -> None:
    write_atomic(path, to_text(config))


def read_config(path) -> RunConfig:
    return from_text(read_text(path))

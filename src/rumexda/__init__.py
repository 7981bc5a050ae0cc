"""Tile-based rumex/background classification with moment-matching domain adaptation."""

from .adaptation import (
    AdaptationConfig,
    DomainDataset,
    classifier_discrepancy,
    moment_distance_multi,
    moment_distance_single,
    predict_ensemble,
    train_m2s2da,
    train_m3sda_beta,
    train_vanilla,
)
from .evaluation import (
    ConfusionCounts,
    MetricsReport,
    f1_precision_recall,
    select_model_epoch,
    sigma_epochs,
)
from .experiment import run_strategy
from .nn import ModelBundle, ModelConfig, build_model, load_checkpoint, save_checkpoint
from .synthdata import DomainSpec, bayes_reference, default_benchmark, generate
from .tensor import Tensor
from .tiling import (
    BBoxAnnotation,
    TileRecord,
    assign_label,
    build_splits,
    enumerate_tiles,
    overlap_ratio,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptationConfig",
    "BBoxAnnotation",
    "ConfusionCounts",
    "DomainDataset",
    "DomainSpec",
    "MetricsReport",
    "ModelBundle",
    "ModelConfig",
    "Tensor",
    "TileRecord",
    "assign_label",
    "bayes_reference",
    "build_model",
    "build_splits",
    "classifier_discrepancy",
    "default_benchmark",
    "enumerate_tiles",
    "f1_precision_recall",
    "generate",
    "load_checkpoint",
    "moment_distance_multi",
    "moment_distance_single",
    "overlap_ratio",
    "predict_ensemble",
    "run_strategy",
    "save_checkpoint",
    "select_model_epoch",
    "sigma_epochs",
    "train_m2s2da",
    "train_m3sda_beta",
    "train_vanilla",
]

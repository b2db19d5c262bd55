"""Imbalanced semi-supervised classification over precomputed dense
features: effective-number label rebalancing, calibrated-and-sharpened
pseudo-labels, and latent-space mixing consistency training, plus a
synthetic long-tail data generator and an evaluation suite."""

from .data import (
    DatasetHeader,
    Split,
    SynthConfig,
    load_dataset,
    load_truth,
    synth_generate,
    write_dataset,
)
from .errors import (
    DataFormatError,
    DivergenceError,
    ParameterError,
    QAMatchError,
    ShapeError,
    UndefinedMetricError,
)
from .metrics import evaluate_model
from .trainer import QAMatchTrainer, StepResult, TrainConfig, build_trainer

__version__ = "0.1.0"

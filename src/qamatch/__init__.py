"""Imbalanced semi-supervised classification over precomputed dense
features: effective-number label rebalancing, calibrated-and-sharpened
pseudo-labels, and latent-space mixing consistency training, plus a
synthetic long-tail data generator and an evaluation suite."""

from .calibration import MarginalEstimator, calibrate, sharpen
from .data import (
    DatasetHeader,
    Example,
    SynthConfig,
    load_dataset,
    load_truth,
    longtail_counts,
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
from .metrics import (
    accuracy,
    confusion_matrix,
    evaluate_model,
    kl_divergence,
    per_class_accuracy,
    weighted_f1,
)
from .numerics import GradientSet, MlpClassifier, load_model, save_model, sgd_step
from .rebalance import class_weights, effective_number_weight
from .softmix import MixedViews, draw_lambda, mix_views
from .trainer import (
    QAMatchTrainer,
    StepResult,
    TrainConfig,
    build_trainer,
    read_report,
    write_report,
)

__version__ = "0.1.0"

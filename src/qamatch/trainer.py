"""End-to-end training loop: rebalanced supervised loss plus the two
pseudo-label consistency losses over mixed and unmixed unlabeled views.

One step does, in order:
  1. take the next labeled batch (cycling with a reshuffle per pass),
  2. take the next unlabeled batch the same way and build its three views
     (original, question, context) from the unlabeled columns,
  3. predict on the unlabeled originals, calibrate against the labeled
     prior and the running prediction marginal, sharpen into pseudo-labels
     (constants from here on; no gradient flows through them),
  4. draw the mixing sources for all B examples, then B x 2 Gamma
     variates for their coefficients, and blend views,
  5. accumulate gradients of
        supervised term   mean_i w_{y_i} H(y_i, f(x_i))
        mixing term       mean_i sum_{v in views} H(pseudo_i, f(mixed_v_i))
        anchor term       mean_i H(pseudo_i, f(question_view_i))
  6. record the unlabeled batch's raw prediction mean into the running
     marginal (after the pseudo-labels were computed, so a batch never
     calibrates against itself),
  7. take one momentum-SGD step on the summed loss.

The generator stream is consumed in exactly the order above, which is what
makes toggled-off components drop out without shifting anyone else's draws
at the first step. When both unlabeled losses are toggled off (or there is
no unlabeled data) the whole unlabeled pipeline is skipped, including its
draws, so such runs are bit-identical to plain supervised training.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .calibration import DEFAULT_WINDOW, MarginalEstimator, calibrate, sharpen
from .data import Split, atomic_open, labeled_matrix, parse_json_line, read_lines, unlabeled_matrices
from .errors import DataFormatError, DivergenceError, ParameterError
from .metrics import evaluate_model, kl_divergence
from .numerics import MlpClassifier, fsum_nonneg, sgd_step, weighted_ce_gradient
from .rebalance import class_weights
from .softmix import MixedViews, mix_views

# Field order of one report record; also the JSON key order on disk.
REPORT_KEYS = (
    "iteration",
    "loss_rebalanced",
    "loss_mix",
    "loss_anchor",
    "pseudo_label_accuracy",
    "val_accuracy",
    "val_weighted_f1",
    "kl_prior_pseudo",
)

# The largest batch size or hidden width: a float64 matrix of two such
# sizes, (batch, width) or (fan_in, fan_out), is one numpy can address.
_MAX_SIZE = 2**30 - 1


@dataclass
class TrainConfig:
    temperature: float = 0.5
    alpha: float = 0.75
    beta: float = 0.9999
    window: int = DEFAULT_WINDOW
    lr: float = 0.05
    momentum: float = 0.9
    labeled_batch: int = 16
    unlabeled_batch: int = 64
    iterations: int = 2000
    seed: int = 0
    hidden_dims: tuple = (64,)
    eval_interval: int = 100
    use_rebalance: bool = True
    use_calibration: bool = True
    use_softmix: bool = True
    use_anchor: bool = True
    rescale_weights: bool = False
    scale_supervised: float = 1.0
    scale_mix: float = 1.0
    scale_anchor: float = 1.0

    def __post_init__(self):
        if not self.temperature > 0:
            raise ParameterError(f"temperature must be positive, got {self.temperature}")
        if not self.alpha > 0:
            raise ParameterError(f"alpha must be positive, got {self.alpha}")
        if not 0.0 <= self.beta < 1.0:
            raise ParameterError(f"beta must lie in [0, 1), got {self.beta}")
        if self.window < 1:
            raise ParameterError(f"window must be >= 1, got {self.window}")
        if not self.lr > 0:
            raise ParameterError(f"lr must be positive, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ParameterError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.labeled_batch < 1 or self.unlabeled_batch < 1:
            raise ParameterError("batch sizes must be >= 1")
        if max(self.labeled_batch, self.unlabeled_batch) > _MAX_SIZE:
            raise ParameterError(f"batch sizes must be at most {_MAX_SIZE}")
        if self.iterations < 1:
            raise ParameterError(f"iterations must be >= 1, got {self.iterations}")
        if self.eval_interval < 1:
            raise ParameterError(f"eval_interval must be >= 1, got {self.eval_interval}")
        self.hidden_dims = tuple(int(h) for h in self.hidden_dims)
        if any(h < 1 for h in self.hidden_dims):
            raise ParameterError(f"hidden dims must be >= 1, got {self.hidden_dims}")
        if any(h > _MAX_SIZE for h in self.hidden_dims):
            raise ParameterError(f"hidden dims must be at most {_MAX_SIZE}")
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(f.default, float) and not math.isfinite(v):
                raise ParameterError(f"{f.name} must be finite, got {v}")
            if f.name.startswith("scale_") and v < 0:
                raise ParameterError(f"{f.name} must be non-negative, got {v}")


@dataclass
class StepResult:
    """Everything one step computed, for reporting and for oracle tests."""

    iteration: int
    loss_total: float
    loss_supervised: float
    loss_mix: float
    loss_anchor: float
    sup_indices: np.ndarray
    unl_indices: np.ndarray | None
    raw_preds: np.ndarray | None
    marginal_used: np.ndarray | None
    pseudo_targets: np.ndarray | None
    mixed: MixedViews | None


class _Interval:
    """One report interval's sums, taken step by step; ``record`` reads them out."""

    def __init__(self, num_classes: int, unl_truth: np.ndarray | None):
        self.unl_truth = unl_truth
        self.sup_losses, self.mix_losses, self.anchor_losses = [], [], []
        self.pseudo_sum = np.zeros(num_classes)
        self.rows = self.hits = self.seen = 0

    def add(self, res: StepResult) -> None:
        self.sup_losses.append(res.loss_supervised)
        self.mix_losses.append(res.loss_mix)
        self.anchor_losses.append(res.loss_anchor)
        pseudo = res.pseudo_targets
        if pseudo is not None:
            self.pseudo_sum += pseudo.sum(axis=0)
            self.rows += pseudo.shape[0]
            if self.unl_truth is not None:
                truths = self.unl_truth[res.unl_indices]
                known = truths >= 0
                self.hits += int((pseudo.argmax(axis=1)[known] == truths[known]).sum())
                self.seen += int(known.sum())

    @staticmethod
    def _mean(values) -> float:
        """Exact mean of finite values; where their sum overflows a float, each
        is divided by the count before summing, so the mean stays finite."""
        try:
            return math.fsum(values) / len(values)
        except OverflowError:
            return math.fsum(v / len(values) for v in values)

    def record(self, iteration: int, prior: np.ndarray, evaluation: dict | None) -> dict:
        """``evaluation`` is ``evaluate_model`` on the validation set, or None."""
        return {
            "iteration": iteration,
            "loss_rebalanced": self._mean(self.sup_losses),
            "loss_mix": self._mean(self.mix_losses),
            "loss_anchor": self._mean(self.anchor_losses),
            "pseudo_label_accuracy": self.hits / self.seen if self.seen else None,
            "val_accuracy": None if evaluation is None else evaluation["accuracy"],
            "val_weighted_f1": None if evaluation is None else evaluation["weighted_f1"],
            "kl_prior_pseudo": (
                kl_divergence(prior, self.pseudo_sum / self.rows) if self.rows else None
            ),
        }


class _Cycler:
    """Index stream that reshuffles once per full pass over the data."""

    def __init__(self, size: int, rng: np.random.Generator):
        self.size = int(size)
        self.rng = rng
        self.order = None
        self.pos = 0

    def take(self, k: int) -> np.ndarray:
        if self.order is not None and k <= self.size - self.pos:
            self.pos += k
            return self.order[self.pos - k : self.pos].copy()
        out = np.empty(k, dtype=np.int64)
        filled = 0
        while filled < k:
            if self.order is None or self.pos >= self.size:
                self.order = self.rng.permutation(self.size)
                self.pos = 0
            n = min(k - filled, self.size - self.pos)
            out[filled : filled + n] = self.order[self.pos : self.pos + n]
            self.pos += n
            filled += n
        return out


class QAMatchTrainer:
    """Stateful training loop over the matrices that ``build_trainer``, the
    only constructor callers use, assembles and checks.

    ``unlabeled`` (a ``data.UnlabeledViews``) builds the three views of each
    unlabeled batch and has zero rows when there is no unlabeled data.
    ``unl_truth`` (optional) holds the hidden class index per
    unlabeled row, -1 where unknown; it is used only to score pseudo-label
    accuracy for the report, never in any loss.
    """

    def __init__(
        self, config: TrainConfig, labeled_counts: np.ndarray, labeled_X, labeled_y,
        unlabeled, unl_truth, valid_X, valid_y,
    ):
        self.config = config
        self.num_classes = len(labeled_counts)
        self.labeled_X, self.labeled_y = labeled_X, labeled_y
        self.unlabeled = unlabeled
        self.unl_truth = unl_truth
        self.valid_X, self.valid_y = valid_X, valid_y

        self.rng = np.random.default_rng(config.seed)
        self.model = MlpClassifier.initialized(
            (labeled_X.shape[1], *config.hidden_dims, self.num_classes), self.rng
        )
        if config.use_rebalance:
            self.weight_vector = class_weights(
                labeled_counts, config.beta, rescale=config.rescale_weights
            )
        else:
            self.weight_vector = np.ones(self.num_classes)
        prior = np.array(labeled_counts, dtype=np.float64)
        self.prior = prior / prior.sum()
        self.estimator = MarginalEstimator(self.num_classes, config.window)
        self.velocity = None
        self.iteration = 0
        self.diagnostics = {}
        self._labeled_cycle = _Cycler(self.labeled_X.shape[0], self.rng)
        self._unl_cycle = _Cycler(max(len(unlabeled), 1), self.rng)
        self._eye = np.eye(self.num_classes)

    @property
    def unlabeled_active(self) -> bool:
        cfg = self.config
        return len(self.unlabeled) > 0 and (cfg.use_softmix or cfg.use_anchor)

    def step(self) -> StepResult:
        cfg = self.config
        self.iteration += 1
        sup_idx = self._labeled_cycle.take(cfg.labeled_batch)
        sup_y = self.labeled_y[sup_idx]
        sup_targets = self._eye[sup_y]
        sup_w = self.weight_vector[sup_y] * cfg.scale_supervised
        loss_sup, grads = weighted_ce_gradient(
            self.model, self.labeled_X[sup_idx], sup_targets, sup_w,
            denom=cfg.labeled_batch,
        )

        # the supervised pass makes no draws, so the generator order stays as documented
        unl_idx = raw_preds = marginal = pseudo = mixed = None
        mix_losses = []
        loss_anchor = 0.0
        if self.unlabeled_active:
            unl_idx = self._unl_cycle.take(cfg.unlabeled_batch)
            orig, qview, cview = self.unlabeled.take(unl_idx)
            raw_preds = self.model.forward_batch(orig)
            marginal = self.estimator.marginal()
            adjusted = (
                calibrate(raw_preds, self.prior, marginal, self.diagnostics)
                if cfg.use_calibration
                else raw_preds
            )
            pseudo = sharpen(adjusted, cfg.temperature)
            if cfg.use_softmix:
                mixed = mix_views(orig, qview, cview, cfg.alpha, self.rng)
                for view in (mixed.original, mixed.question, mixed.context):
                    l, g = weighted_ce_gradient(
                        self.model, view, pseudo, cfg.scale_mix,
                        denom=cfg.unlabeled_batch,
                    )
                    mix_losses.append(l)
                    grads.add_scaled(g)
            if cfg.use_anchor:
                loss_anchor, g = weighted_ce_gradient(
                    self.model, qview, pseudo, cfg.scale_anchor,
                    denom=cfg.unlabeled_batch,
                )
                grads.add_scaled(g)
            self.estimator.update(raw_preds)

        loss_mix = fsum_nonneg(mix_losses)
        loss_total = fsum_nonneg([loss_sup, *mix_losses, loss_anchor])
        result = StepResult(
            iteration=self.iteration,
            loss_total=loss_total,
            loss_supervised=loss_sup,
            loss_mix=loss_mix,
            loss_anchor=loss_anchor,
            sup_indices=sup_idx,
            unl_indices=unl_idx,
            raw_preds=raw_preds,
            marginal_used=marginal,
            pseudo_targets=pseudo,
            mixed=mixed,
        )
        try:
            if not math.isfinite(loss_total):
                raise DivergenceError(f"non-finite loss at iteration {self.iteration}")
            self.velocity = sgd_step(self.model, grads, cfg.lr, cfg.momentum, self.velocity)
        except DivergenceError as e:
            e.snapshot = self._snapshot(result)
            raise
        return result

    def _snapshot(self, res: StepResult) -> dict:
        return {
            "iteration": res.iteration,
            "loss_total": res.loss_total,
            "loss_supervised": res.loss_supervised,
            "loss_mix": res.loss_mix,
            "loss_anchor": res.loss_anchor,
            "lambdas": None if res.mixed is None else res.mixed.lambdas.tolist(),
            "sources": None if res.mixed is None else res.mixed.source_names(),
        }

    def run(self) -> list:
        """Full loop; returns the report (one record per evaluation interval).

        Loss fields hold interval means; pseudo-label accuracy and the
        prior-vs-pseudo KL cover all pseudo-labels produced during the
        interval. A trailing partial interval is reported too.
        """
        cfg = self.config
        records = []
        interval = _Interval(self.num_classes, self.unl_truth)
        for _ in range(cfg.iterations):
            interval.add(self.step())
            if self.iteration % cfg.eval_interval == 0 or self.iteration == cfg.iterations:
                ev = None
                if self.valid_X is not None:
                    ev = evaluate_model(self.model, self.valid_X, self.valid_y, self.num_classes)
                records.append(interval.record(self.iteration, self.prior, ev))
                interval = _Interval(self.num_classes, self.unl_truth)
        return records


def build_trainer(
    config: TrainConfig,
    header,
    labeled_records,
    unlabeled_records,
    valid_header=None,
    valid_records=None,
    truth=None,
) -> QAMatchTrainer:
    """Assemble a trainer from loader output (and an optional truth sidecar).

    Records are ``load_dataset`` Splits; None or an empty unlabeled Split
    means no unlabeled data. Raises DataFormatError when there are no
    labeled records, or when ``valid_header`` disagrees with ``header`` on
    the vector width or the class names.
    """
    if valid_header is not None and (
        valid_header.dim != header.dim or valid_header.class_names != header.class_names
    ):
        raise DataFormatError("validation file disagrees with training header")
    if not labeled_records:
        raise DataFormatError("training file has no labeled records")
    X, y = labeled_matrix(labeled_records)
    if not unlabeled_records:
        none = np.zeros((0, header.dim))
        unlabeled_records = Split([], None, none, none, none, none)
    unlabeled = unlabeled_matrices(unlabeled_records)
    truth_arr = None
    if unlabeled_records and truth is not None:
        name_to_index = {n: i for i, n in enumerate(header.class_names)}
        truth_arr = np.full(len(unlabeled_records), -1, dtype=np.int64)
        for i, rid in enumerate(unlabeled_records.ids):
            if rid in truth:
                name = truth[rid]
                if name not in name_to_index:
                    raise DataFormatError(f"truth sidecar has unknown label {name!r}")
                truth_arr[i] = name_to_index[name]
    valid_X = valid_y = None
    if valid_records:
        valid_X, valid_y = labeled_matrix(valid_records)
    return QAMatchTrainer(
        config, np.bincount(y, minlength=header.num_classes), X, y, unlabeled,
        truth_arr, valid_X, valid_y,
    )


def write_report(records, path) -> None:
    """One JSON object per line, keys in REPORT_KEYS order."""
    with atomic_open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            ordered = {k: rec[k] for k in REPORT_KEYS}
            fh.write(json.dumps(ordered, separators=(",", ":")))
            fh.write("\n")


def _is_finite_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def read_report(path) -> list:
    """Parse a report; every field must be a finite number (not a bool) or null."""
    records = []
    for lineno, line in read_lines(path):
        if not line.strip():
            continue
        rec = parse_json_line(path, lineno, line)
        if not isinstance(rec, dict) or tuple(rec.keys()) != REPORT_KEYS:
            raise DataFormatError(
                f"{path}: line {lineno}: report schema mismatch, expected keys "
                f"{list(REPORT_KEYS)}"
            )
        for key, value in rec.items():
            if value is not None and not _is_finite_number(value):
                raise DataFormatError(
                    f"{path}: line {lineno}: {key} must be a finite number or null, "
                    f"got {value!r:.40}"
                )
        records.append(rec)
    if not records:
        raise DataFormatError(f"{path}: empty report")
    return records

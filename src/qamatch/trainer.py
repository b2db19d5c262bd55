"""End-to-end training loop: rebalanced supervised loss plus the two
pseudo-label consistency losses over mixed and unmixed unlabeled views.

One step does, in order:
  1. take the next labeled batch (cycling with a reshuffle per pass),
  2. take the next unlabeled batch the same way,
  3. predict on the unlabeled originals, calibrate against the labeled
     prior and the running prediction marginal, sharpen into pseudo-labels
     (constants from here on; no gradient flows through them),
  4. draw the mixing source and coefficient per example and blend views,
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
from dataclasses import dataclass

import numpy as np

from .calibration import DEFAULT_WINDOW, MarginalEstimator, calibrate, sharpen
from .data import labeled_matrix, unlabeled_matrices
from .errors import DataFormatError, DivergenceError, ParameterError, ShapeError
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
        if self.iterations < 1:
            raise ParameterError(f"iterations must be >= 1, got {self.iterations}")
        if self.eval_interval < 1:
            raise ParameterError(f"eval_interval must be >= 1, got {self.eval_interval}")
        self.hidden_dims = tuple(int(h) for h in self.hidden_dims)
        if any(h < 1 for h in self.hidden_dims):
            raise ParameterError(f"hidden dims must be >= 1, got {self.hidden_dims}")
        for name in ("scale_supervised", "scale_mix", "scale_anchor"):
            v = float(getattr(self, name))
            if not (math.isfinite(v) and v >= 0):
                raise ParameterError(f"{name} must be a finite non-negative number")


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


class _Cycler:
    """Index stream that reshuffles once per full pass over the data."""

    def __init__(self, size: int, rng: np.random.Generator):
        self.size = int(size)
        self.rng = rng
        self.order = None
        self.pos = 0

    def take(self, k: int) -> np.ndarray:
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
    """Stateful training loop over preassembled matrices.

    ``unl_truth`` (optional) holds the hidden class index per unlabeled
    row, -1 where unknown; it is used only to score pseudo-label accuracy
    for the report, never in any loss.
    """

    def __init__(
        self,
        config: TrainConfig,
        num_classes: int,
        labeled_X: np.ndarray,
        labeled_y: np.ndarray,
        labeled_counts,
        unl_original=None,
        unl_question=None,
        unl_context=None,
        unl_truth=None,
        valid_X=None,
        valid_y=None,
    ):
        self.config = config
        self.num_classes = int(num_classes)
        self.labeled_X = np.asarray(labeled_X, dtype=np.float64)
        self.labeled_y = np.asarray(labeled_y, dtype=np.int64)
        if self.labeled_X.ndim != 2 or self.labeled_X.shape[0] == 0:
            raise ShapeError("labeled data must be a non-empty (N, d_in) matrix")
        if self.labeled_y.shape != (self.labeled_X.shape[0],):
            raise ShapeError("labeled labels must align with labeled rows")
        counts = [int(c) for c in labeled_counts]
        if len(counts) != self.num_classes or sum(counts) <= 0:
            raise ParameterError("labeled_counts must cover every class")

        d_in = self.labeled_X.shape[1]
        if unl_original is None:
            self.unl_original = np.zeros((0, d_in))
            self.unl_question = np.zeros((0, d_in))
            self.unl_context = np.zeros((0, d_in))
        else:
            self.unl_original = np.asarray(unl_original, dtype=np.float64)
            self.unl_question = np.asarray(unl_question, dtype=np.float64)
            self.unl_context = np.asarray(unl_context, dtype=np.float64)
            shapes = {
                self.unl_original.shape,
                self.unl_question.shape,
                self.unl_context.shape,
            }
            if len(shapes) != 1 or self.unl_original.shape[1] != d_in:
                raise ShapeError("unlabeled view matrices must share the labeled width")
        if unl_truth is not None:
            self.unl_truth = np.asarray(unl_truth, dtype=np.int64)
            if self.unl_truth.shape != (self.unl_original.shape[0],):
                raise ShapeError("unl_truth must align with unlabeled rows")
        else:
            self.unl_truth = None
        if valid_X is not None:
            self.valid_X = np.asarray(valid_X, dtype=np.float64)
            self.valid_y = np.asarray(valid_y, dtype=np.int64)
            if self.valid_X.ndim != 2 or self.valid_X.shape[1] != d_in:
                raise ShapeError("validation width must match training width")
        else:
            self.valid_X = self.valid_y = None

        self.rng = np.random.default_rng(config.seed)
        self.model = MlpClassifier.initialized(
            (d_in, *config.hidden_dims, self.num_classes), self.rng
        )
        if config.use_rebalance:
            self.weight_vector = class_weights(
                counts, config.beta, rescale=config.rescale_weights
            )
        else:
            self.weight_vector = np.ones(self.num_classes)
        prior = np.asarray(counts, dtype=np.float64)
        self.prior = prior / prior.sum()
        self.estimator = MarginalEstimator(self.num_classes, config.window)
        self.velocity = None
        self.iteration = 0
        self.diagnostics = {}
        self._labeled_cycle = _Cycler(self.labeled_X.shape[0], self.rng)
        self._unl_cycle = _Cycler(max(self.unl_original.shape[0], 1), self.rng)
        self._eye = np.eye(self.num_classes)

    @property
    def unlabeled_active(self) -> bool:
        cfg = self.config
        return self.unl_original.shape[0] > 0 and (cfg.use_softmix or cfg.use_anchor)

    def step(self) -> StepResult:
        cfg = self.config
        self.iteration += 1
        sup_idx = self._labeled_cycle.take(cfg.labeled_batch)
        unl_idx = raw_preds = marginal = pseudo = mixed = None
        if self.unlabeled_active:
            unl_idx = self._unl_cycle.take(cfg.unlabeled_batch)

        sup_targets = self._eye[self.labeled_y[sup_idx]]
        sup_w = self.weight_vector[self.labeled_y[sup_idx]] * cfg.scale_supervised
        loss_sup, grads = weighted_ce_gradient(
            self.model, self.labeled_X[sup_idx], sup_targets, sup_w,
            denom=cfg.labeled_batch,
        )

        mix_losses = []
        loss_anchor = 0.0
        if self.unlabeled_active:
            orig = self.unl_original[unl_idx]
            qview = self.unl_question[unl_idx]
            raw_preds = self.model.forward_batch(orig)
            marginal = self.estimator.marginal()
            adjusted = (
                calibrate(raw_preds, self.prior, marginal, self.diagnostics)
                if cfg.use_calibration
                else raw_preds
            )
            pseudo = sharpen(adjusted, cfg.temperature)
            if cfg.use_softmix:
                mixed = mix_views(
                    orig, qview, self.unl_context[unl_idx], cfg.alpha, self.rng
                )
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
        if not math.isfinite(loss_total):
            raise DivergenceError(
                f"non-finite loss at iteration {self.iteration}",
                snapshot=self._snapshot(result),
            )
        try:
            self.velocity = sgd_step(self.model, grads, cfg.lr, cfg.momentum, self.velocity)
        except DivergenceError as e:
            raise DivergenceError(str(e), snapshot=self._snapshot(result)) from None
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
        sup_losses, mix_losses, anchor_losses = [], [], []
        pseudo_hits = 0
        pseudo_seen = 0
        pseudo_sum = np.zeros(self.num_classes)
        pseudo_rows = 0
        for _ in range(cfg.iterations):
            res = self.step()
            sup_losses.append(res.loss_supervised)
            mix_losses.append(res.loss_mix)
            anchor_losses.append(res.loss_anchor)
            if res.pseudo_targets is not None:
                pseudo_sum += res.pseudo_targets.sum(axis=0)
                pseudo_rows += res.pseudo_targets.shape[0]
                if self.unl_truth is not None:
                    truths = self.unl_truth[res.unl_indices]
                    known = truths >= 0
                    guesses = res.pseudo_targets.argmax(axis=1)
                    pseudo_hits += int((guesses[known] == truths[known]).sum())
                    pseudo_seen += int(known.sum())
            if self.iteration % cfg.eval_interval == 0 or self.iteration == cfg.iterations:
                if self.valid_X is not None:
                    ev = evaluate_model(self.model, self.valid_X, self.valid_y, self.num_classes)
                    val_acc, val_f1 = ev["accuracy"], ev["weighted_f1"]
                else:
                    val_acc = val_f1 = None
                records.append(
                    {
                        "iteration": self.iteration,
                        "loss_rebalanced": math.fsum(sup_losses) / len(sup_losses),
                        "loss_mix": math.fsum(mix_losses) / len(mix_losses),
                        "loss_anchor": math.fsum(anchor_losses) / len(anchor_losses),
                        "pseudo_label_accuracy": (
                            pseudo_hits / pseudo_seen if pseudo_seen else None
                        ),
                        "val_accuracy": val_acc,
                        "val_weighted_f1": val_f1,
                        "kl_prior_pseudo": (
                            kl_divergence(self.prior, pseudo_sum / pseudo_rows)
                            if pseudo_rows
                            else None
                        ),
                    }
                )
                sup_losses, mix_losses, anchor_losses = [], [], []
                pseudo_hits = pseudo_seen = pseudo_rows = 0
                pseudo_sum = np.zeros(self.num_classes)
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

    Raises DataFormatError when ``valid_header`` disagrees with ``header``
    on the vector width or the class names.
    """
    if valid_header is not None and (
        valid_header.dim != header.dim or valid_header.class_names != header.class_names
    ):
        raise DataFormatError("validation file disagrees with training header")
    X, y = labeled_matrix(labeled_records)
    ids, orig, qview, cview = unlabeled_matrices(unlabeled_records)
    name_to_index = {n: i for i, n in enumerate(header.class_names)}
    truth_arr = None
    if truth is not None and unlabeled_records:
        truth_arr = np.full(len(ids), -1, dtype=np.int64)
        for i, rid in enumerate(ids):
            if rid in truth:
                name = truth[rid]
                if name not in name_to_index:
                    raise DataFormatError(f"truth sidecar has unknown label {name!r}")
                truth_arr[i] = name_to_index[name]
    valid_X = valid_y = None
    if valid_records:
        valid_X, valid_y = labeled_matrix(valid_records)
    return QAMatchTrainer(
        config,
        header.num_classes,
        X,
        y,
        header.labeled_counts,
        unl_original=orig if unlabeled_records else None,
        unl_question=qview if unlabeled_records else None,
        unl_context=cview if unlabeled_records else None,
        unl_truth=truth_arr,
        valid_X=valid_X,
        valid_y=valid_y,
    )


def write_report(records, path) -> None:
    """One JSON object per line, keys in REPORT_KEYS order."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            ordered = {k: rec[k] for k in REPORT_KEYS}
            fh.write(json.dumps(ordered, separators=(",", ":")))
            fh.write("\n")


def read_report(path) -> list:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataFormatError(f"{path}: line {lineno}: malformed JSON ({e.msg})") from None
            if not isinstance(rec, dict) or tuple(rec.keys()) != REPORT_KEYS:
                raise DataFormatError(
                    f"{path}: line {lineno}: report schema mismatch, expected keys "
                    f"{list(REPORT_KEYS)}"
                )
            records.append(rec)
    if not records:
        raise DataFormatError(f"{path}: empty report")
    return records

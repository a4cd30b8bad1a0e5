"""Mini-batch training loop, per-step conversion prediction, and ROC/AUC
evaluation over journey datasets."""

from __future__ import annotations

import csv
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, EvaluationError, TrainingDivergedError, ValidationError
from .journey import CustomerJourney, EncodedJourney, Vocabulary, encode_journey
from .model import Gradients, ModelParams, backward_batch, clamp_gate_timing, forward_batch, init_params

PROB_CLIP = 1e-12
MOMENTUM = 0.9
GRAD_CLIP_NORM = 5.0
EVAL_BATCH = 256


@dataclass
class TrainConfig:
    batch_size: int = 32
    learning_rate: float = 0.01
    epochs: int = 30
    dropout_p: float = 0.5
    hidden_size: int = 64
    n_layers: int = 2
    seed: int = 0
    optimizer: str = "sgd"
    val_fraction: float = 0.1
    r_on_init: float = 0.5
    use_time_feature: bool = False

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs < 1 or self.hidden_size < 1 or self.n_layers < 1:
            raise ConfigError("batch_size, epochs, hidden_size, and n_layers must be positive integers")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be a finite value > 0, got {self.learning_rate}")
        if not 0 <= self.dropout_p < 1:
            raise ConfigError("dropout_p must lie in [0, 1)")
        if self.optimizer not in ("sgd", "sgd_momentum"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if not 0 <= self.val_fraction < 1:
            raise ConfigError("val_fraction must lie in [0, 1)")
        if not 0 < self.r_on_init < 1:
            raise ConfigError("r_on_init must lie in (0, 1)")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @classmethod
    def preset(cls, name: str, **overrides) -> "TrainConfig":
        """Named presets: "desk" for laptop-scale runs, "paper" for the
        published hyperparameter table (1024 units, batch 128, 300 epochs).

        Desk-scale departures, all forced by measurements at 64 units on
        short journeys: momentum SGD (plain SGD plateaus well short of the
        same loss in 30 epochs), gates open wider at init (r_on 0.5, since
        the closed branch passes no r_on gradient and 0.05 leaves most units
        permanently shut), and the raw hour-offset input column is ablated
        (use_time_feature=False). Ablating it matters twice over: its
        magnitude dominates the pre-activation layer-norm variance and
        drowns the one-hot content signal, and it leaks timing into the
        maskable features, which turns masked-input attribution into a
        recency detector. Timing still reaches the model through the gate,
        which sees the unmasked offsets.
        """
        if name == "desk":
            cfg = cls(optimizer="sgd_momentum")
        elif name == "paper":
            cfg = cls(
                batch_size=128, learning_rate=0.01, epochs=300, dropout_p=0.5,
                hidden_size=1024, n_layers=2, r_on_init=0.05, use_time_feature=True,
            )
        else:
            raise ConfigError(f"unknown preset {name!r} (expected 'desk' or 'paper')")
        return replace(cfg, **overrides) if overrides else cfg


def softmax(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _step_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-step binary cross-entropy (see `loss`) and the softmax it uses."""
    probs = softmax(logits)
    p1 = np.clip(probs[..., 1], PROB_CLIP, 1.0 - PROB_CLIP)
    y = np.asarray(labels, dtype=np.float64)
    return -(y * np.log(p1) + (1.0 - y) * np.log(1.0 - p1)), probs


def loss(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy over steps.

    The positive-class probability comes from a two-way softmax and is
    clipped to [1e-12, 1 - 1e-12] before the logs.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if logits.shape[:-1] != labels.shape:
        raise ValidationError(f"logits {logits.shape} and labels {labels.shape} do not align")
    if labels.size == 0:
        raise ValidationError("loss needs at least one step to score")
    ce, _ = _step_cross_entropy(logits, labels)
    return float(ce.mean())


def _loss_and_grad_batch(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Batch loss (mean over journeys of per-journey step means) and its
    gradient w.r.t. the logits."""
    B, T, _ = logits.shape
    ce, probs = _step_cross_entropy(logits, labels)
    target = np.zeros_like(probs)
    target[..., 1] = labels
    target[..., 0] = 1.0 - labels
    return float(ce.mean()), (probs - target) / (B * T)


@dataclass
class TrainResult:
    params: ModelParams
    vocab: Vocabulary
    train_losses: list[float]
    val_losses: list[float]


def _batches(encoded: list[EncodedJourney], order: np.ndarray, size: int):
    """Journeys of `order` grouped by length, in ascending length and at most
    `size` per batch, so batches never pad: yields (chunk, features, times,
    labels) with the chunk's indices and its stacked arrays."""
    buckets: dict[int, list[int]] = {}
    for idx in order:
        buckets.setdefault(len(encoded[idx].times), []).append(int(idx))
    for length in sorted(buckets):
        members = buckets[length]
        for start in range(0, len(members), size):
            chunk = members[start:start + size]
            feats = np.stack([encoded[i].features for i in chunk])
            times = np.stack([encoded[i].times for i in chunk])
            yield chunk, feats, times, np.stack([encoded[i].labels for i in chunk])


def _dataset_loss(encoded: list[EncodedJourney], idxs: np.ndarray, params: ModelParams) -> float:
    """Mean per-journey loss at inference over the given indices."""
    if len(idxs) == 0:
        return float("nan")
    total = 0.0
    for _, feats, times, labels in _batches(encoded, idxs, EVAL_BATCH):
        logits = forward_batch(feats, times, params, training=False)[0]
        ce, _ = _step_cross_entropy(logits, labels)
        total += float(ce.mean(axis=1).sum())
    return total / len(idxs)


def _train_val_split(n: int, fraction: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Seeded journey-level split: every journey lands in exactly one side."""
    perm = rng.permutation(n)
    n_val = int(round(fraction * n))
    if fraction > 0 and n_val == 0 and n >= 2:
        n_val = 1
    return perm[n_val:], perm[:n_val]


def _clip_gradients(grads: Gradients, layout: dict[str, tuple[slice, tuple[int, ...]]], max_norm: float) -> float:
    """Scale the flat gradient in place to norm <= max_norm; returns the norm
    before clipping. Its square adds np.sum(g * g) of each tensor, in `grads`
    order: one dot product over the vector would round differently."""
    squares = np.square(grads.flat)
    sq = 0.0
    for name in grads:
        sq += float(squares[layout[name][0]].sum())
    norm = float(np.sqrt(sq))
    if norm > max_norm:
        grads.flat *= max_norm / norm
    return norm


def train(journeys: list[CustomerJourney], vocab: Vocabulary, cfg: TrainConfig) -> TrainResult:
    """Train from scratch on the given journeys.

    Deterministic for a fixed (data, cfg.seed): init, the train/validation
    split, shuffling, and dropout all draw from one seeded generator.
    Journeys are bucketed by length so batches never pad. Raises
    TrainingDivergedError with epoch/step context if the loss goes
    non-finite.
    """
    if not journeys:
        raise ValidationError("train requires a non-empty dataset")
    encoded = [encode_journey(j, vocab) for j in journeys]
    rng = np.random.default_rng(cfg.seed)

    train_idx, val_idx = _train_val_split(len(encoded), cfg.val_fraction, rng)
    if len(train_idx) == 0:
        raise ValidationError("dataset too small for the requested validation fraction")

    t_span = max(1.0, max(float(e.times.max()) for e in encoded))
    time_idx = vocab.encoding_dim - 1
    params = init_params(
        input_dim=vocab.encoding_dim,
        hidden_size=cfg.hidden_size,
        n_layers=cfg.n_layers,
        dropout_p=cfg.dropout_p,
        t_span_hours=t_span,
        rng=rng,
        r_on_init=cfg.r_on_init,
        time_feature_index=time_idx if cfg.use_time_feature else None,
    )
    frozen_rows = ()
    if not cfg.use_time_feature:
        frozen_rows = ("layers.0.W_xi", "layers.0.W_xf", "layers.0.W_xc", "layers.0.W_xo")
        for name in ("W_xi", "W_xf", "W_xc", "W_xo"):
            getattr(params.layers[0], name)[time_idx, :] = 0.0
    velocity = np.zeros_like(params.flat) if cfg.optimizer == "sgd_momentum" else None

    train_losses: list[float] = []
    val_losses: list[float] = []
    for epoch in range(cfg.epochs):
        start = time.perf_counter()
        order = train_idx[rng.permutation(len(train_idx))]
        epoch_loss = 0.0
        n_journeys_seen = 0
        norms = []
        for step, (chunk, feats, times, labels) in enumerate(_batches(encoded, order, cfg.batch_size)):
            logits, trace = forward_batch(feats, times, params, training=True, rng=rng)
            batch_loss, grad_logits = _loss_and_grad_batch(logits, labels)
            if not np.isfinite(batch_loss):
                raise TrainingDivergedError(epoch, step)
            grads = backward_batch(trace, grad_logits)
            for name in frozen_rows:
                grads[name][time_idx, :] = 0.0
            norms.append(_clip_gradients(grads, params.layout, GRAD_CLIP_NORM))
            if velocity is not None:
                velocity *= MOMENTUM
                velocity += grads.flat
            params.flat -= cfg.learning_rate * (grads.flat if velocity is None else velocity)
            clamp_gate_timing(params)
            epoch_loss += batch_loss * len(chunk)
            n_journeys_seen += len(chunk)
        train_losses.append(epoch_loss / n_journeys_seen)
        val_losses.append(_dataset_loss(encoded, val_idx, params))
        clipped = sum(norm > GRAD_CLIP_NORM for norm in norms) / len(norms)
        print(f"epoch={epoch} train_loss={train_losses[-1]:.6g} val_loss={val_losses[-1]:.6g} "
              f"seconds={time.perf_counter() - start:.3f} grad_norm_mean={np.mean(norms):.6g} "
              f"grad_norm_max={max(norms):.6g} clipped_share={clipped:.4g}", file=sys.stderr)
    return TrainResult(params=params, vocab=vocab, train_losses=train_losses, val_losses=val_losses)


def predict(params: ModelParams, journey: CustomerJourney, vocab: Vocabulary) -> np.ndarray:
    """Per-step conversion probability (positive-class softmax) for one
    journey. Pure function of (params, journey); hard labels are prob >= 0.5."""
    enc = encode_journey(journey, vocab)
    logits, _ = forward_batch(enc.features[None], enc.times[None], params, training=False)
    return softmax(logits[0])[:, 1]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


@dataclass
class EvalResult:
    auc: float
    roc_points: list[tuple[float, float]]
    thresholds: list[float]
    per_step_accuracy: float


def _tied_ranks(values: np.ndarray) -> np.ndarray:
    """Average (midrank) 1-based ranks."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    starts = ends - counts
    avg = (starts + ends + 1) / 2.0
    return avg[inverse]


def auc_score(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-statistic AUC with ties counted as one half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise EvaluationError("AUC needs at least one positive and one negative step")
    ranks = _tied_ranks(scores)
    rank_sum = float(ranks[labels == 1].sum())
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def roc_curve(scores: np.ndarray, labels: np.ndarray) -> tuple[list[float], list[tuple[float, float]]]:
    """Threshold sweep over distinct scores (predict positive at score >=
    threshold). Returns (thresholds, points); starts at (0,0) with threshold
    +inf and ends at (1,1)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise EvaluationError("ROC needs at least one positive and one negative step")
    order = np.argsort(-scores, kind="mergesort")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    tps = np.cumsum(sorted_labels == 1)
    fps = np.cumsum(sorted_labels == 0)
    # last index of each tie group
    distinct = np.r_[np.nonzero(np.diff(sorted_scores))[0], len(sorted_scores) - 1]
    thresholds = [float("inf")] + [float(sorted_scores[i]) for i in distinct]
    points = [(0.0, 0.0)] + [(float(fps[i]) / n_neg, float(tps[i]) / n_pos) for i in distinct]
    return thresholds, points


def evaluate_roc(params: ModelParams, vocab: Vocabulary, journeys: list[CustomerJourney]) -> EvalResult:
    """Score every step of every journey and evaluate step-level ROC/AUC.

    Positives are the conversion steps (label 1); negatives are all other
    steps, including every step of non-converted journeys.
    """
    if not journeys:
        raise EvaluationError("evaluation requires a non-empty dataset")
    encoded = [encode_journey(j, vocab) for j in journeys]
    scores_parts = []
    labels_parts = []
    for _, feats, times, labels in _batches(encoded, np.arange(len(encoded)), EVAL_BATCH):
        logits = forward_batch(feats, times, params, training=False)[0]
        scores_parts.append(softmax(logits)[..., 1].ravel())
        labels_parts.append(labels.ravel())
    scores = np.concatenate(scores_parts)
    labels = np.concatenate(labels_parts)
    auc = auc_score(scores, labels)
    thresholds, points = roc_curve(scores, labels)
    acc = float(((scores >= 0.5).astype(int) == labels).mean())
    return EvalResult(auc=auc, roc_points=points, thresholds=thresholds, per_step_accuracy=acc)


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------


def save_loss_history(path: str | Path, train_losses: list[float], val_losses: list[float]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_loss"])
        for epoch, (tr, va) in enumerate(zip(train_losses, val_losses)):
            writer.writerow([epoch, repr(tr), repr(va)])


def save_roc_csv(path: str | Path, result: EvalResult) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", "fpr", "tpr"])
        for thr, (fpr, tpr) in zip(result.thresholds, result.roc_points):
            writer.writerow([repr(thr), repr(fpr), repr(tpr)])

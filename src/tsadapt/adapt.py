"""Single-pass streaming loop, and the one state and step of every strategy.

Each arriving batch is seen exactly once: predict with the current model,
then update. `run_stream` pulls one batch from the stream, adapts it and
records the result before it pulls the next, and holds no earlier batch.
`adapt_batch` asks the strategy for its predictions and loss (ACCUP:
`accup_batch`; a baseline: `baselines.baseline_adapt_batch`) and takes at
most one backward and one Adam step. Predictions are always the pre-update
forward. Labels never reach a step function; batches are bare value
arrays, cast to the model's dtype by `backbone.encode` alone, and
`run_stream` keeps labels only to score the run.

The autodiff tape and its recording switch are process-global, so one
process runs one adaptation at a time; separate processes may run in
parallel.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from . import accup as acc
from . import autodiff as ad
from .accup import AccupConfig, SupportSet
from .augment import apply_augment
from .backbone import Model, classify, encode
from .baselines import StrategyConfig, baseline_adapt_batch
from .config import Record
from .errors import ConfigurationError, ConformanceError, ContractError, DegenerateBatchError
from .metrics import MacroF1Report, macro_f1
from .optim import Adam


@dataclass(frozen=True)
class LayerMask(Record):
    """Which encoder blocks receive gradient updates during adaptation."""

    conv1: bool = True
    conv2: bool = True
    conv3: bool = True

    def blocks(self) -> tuple:
        return (self.conv1, self.conv2, self.conv3)

    def __post_init__(self):
        if not any(self.blocks()):
            raise ConfigurationError("at least one encoder block must stay trainable")


@dataclass
class RunRecord:
    """Per-run provenance: predictions, losses, score, timing."""

    strategy: str
    seed: int
    config_hash: str
    batch_losses: list = field(default_factory=list)
    batch_predictions: list = field(default_factory=list)
    macro_f1: float | None = None
    wall_ms: float = 0.0
    # the full score behind macro_f1; experiments aggregate it, JSON omits it
    report: MacroF1Report | None = field(default=None, compare=False, repr=False)

    def all_predictions(self) -> np.ndarray:
        if not self.batch_predictions:
            return np.array([], dtype=np.intp)
        return np.concatenate([np.asarray(p, dtype=np.intp) for p in self.batch_predictions])

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "seed": self.seed,
            "config_hash": self.config_hash,
            "batch_losses": [float(v) for v in self.batch_losses],
            "batch_predictions": [[int(v) for v in p] for p in self.batch_predictions],
            "macro_f1": None if self.macro_f1 is None else float(self.macro_f1),
            "wall_ms": float(self.wall_ms),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


class AdaptState:
    """Mutable state of one adaptation run under ACCUP or a baseline.

    ACCUP optimizes the encoder blocks the layer mask selects and keeps a
    support set; tent and pseudo-label optimize the BN affine parameters;
    source and bn-stats hold an Adam over no parameters. The classifier is
    never trainable. The state adapts a copy of the model in the model's
    own dtype; the caller's model is never touched. Only the optimizer's
    parameters require a gradient in the copy: backward computes none that
    nothing reads, and ops with only frozen inputs stay off the tape.
    """

    def __init__(self, model: Model, config: AccupConfig | StrategyConfig,
                 layer_mask: LayerMask | None = None, seed: int = 0):
        model = model.clone()
        self.model = model
        self.config = config
        self.layer_mask = layer_mask or LayerMask()
        self.rng = np.random.default_rng(seed)
        self.support = None
        if isinstance(config, StrategyConfig):
            params = model.bn_parameters() if config.takes_step() else {}
        else:
            params = model.encoder_parameters(self.layer_mask.blocks())
            if config.use_prototypes:
                self.support = SupportSet.from_classifier(model.cls_weight.data, config.k_support)
        owned = {id(p) for p in params.values()}
        for p in model.named_parameters().values():
            p.requires_grad = id(p) in owned
        self.optimizer = Adam(params.values(), lr=config.lr)
        self.step = 0


def accup_batch(
    model: Model,
    x_raw: np.ndarray,
    x_aug: np.ndarray | None,
    config: AccupConfig,
    support: SupportSet | None = None,
    prototypes: np.ndarray | None = None,
):
    """Predict one batch and build its contrastive loss.

    Only the raw and augmented encode/classify and the per-view loss are
    recorded on the tape. The ensemble, support update, prototypes and
    entropy comparison only choose the predictions and pseudo-labels, so
    they run under no_grad; with config.use_contrast off nothing is
    recorded and the loss is None. The streaming path passes `support`:
    ensemble rows are appended to it and prototypes are rebuilt before
    being used (as constants). The gradient check path passes the (C, F)
    `prototypes` directly so the loss is a pure function of the model
    parameters. Returns (pseudo-labels, loss tensor or None), the shape of
    `baselines.baseline_adapt_batch`.
    """
    bn_mode = "train-stats" if config.bn_policy == "batch" else "running-stats"
    two_views = config.use_augmentation and x_aug is not None
    compare = config.use_prototypes and config.use_entropy_comparison
    with nullcontext() if config.use_contrast else ad.no_grad():
        f_raw = encode(model, x_raw, bn_mode)
        p_raw = classify(model, f_raw)
        if two_views:
            f_aug = encode(model, x_aug, bn_mode)
            p_aug = classify(model, f_aug)
        else:
            f_aug, p_aug = f_raw, p_raw

    with ad.no_grad():
        if two_views:
            f_ens, p_ens = acc.ensemble(f_raw, p_raw, f_aug, p_aug, config.ensemble_weight)
        else:
            f_ens, p_ens = f_raw, p_raw
        h_ens = acc.shannon_entropy(p_ens.data)

        protos = prototypes
        if config.use_prototypes:
            if support is not None:
                acc.update_support(support, f_ens.data, p_ens.data, h_ens,
                                   p_ens.data.argmax(axis=1))
                protos = acc.compute_prototypes(support, config.k_support)
            if protos is None:
                raise ContractError("prototype path needs a support set or prototypes")

        if compare:
            p_proto = acc.prototype_logits(f_ens, protos, config.eta)
            _, pseudo = acc.entropy_compare(p_ens, h_ens, p_proto,
                                            acc.shannon_entropy(p_proto.data))
        else:
            # without the comparison scheme the ensemble prediction stands
            pseudo = p_ens.data.argmax(axis=1)

    if not config.use_contrast:
        return pseudo, None

    def per_view(p_view, f_view):
        if compare:
            pp = acc.prototype_logits(f_view, protos, config.eta)
            fused, _ = acc.entropy_compare(
                p_view, acc.shannon_entropy(p_view.data),
                pp, acc.shannon_entropy(pp.data),
            )
            return fused
        return p_view

    z = ad.concat([per_view(p_raw, f_raw), per_view(p_aug, f_aug)], axis=0)
    labels = np.concatenate([pseudo, pseudo])
    return pseudo, acc.contrastive_loss(z, labels, config.tau)


def adapt_batch(state: AdaptState, values: np.ndarray):
    """Consume one unlabeled batch under any strategy: predict, then step.

    The strategy gives the pre-update predictions and its loss, or None
    (source, bn-stats, ACCUP without the contrastive loss). With a loss one
    Adam step follows, after one backward if the loss depends on a
    parameter. A loss that does not (ACCUP on a one-class batch, so every
    B=1 batch) costs no backward: the tape is cleared, every gradient stays
    None, and the step reads them as zeros, exactly as a backward of the
    all-zero gradient would leave it. Without a loss the value is 0.0.
    Returns (predictions, loss value, state). For every strategy, a batch
    with no rows raises DegenerateBatchError, and any other batch that is
    not (B, model Cin, L) raises ConformanceError ("step N: ...") before it
    is augmented. A step that raises leaves the shared tape empty, and a
    NumericDomainError names the stream step ("step N: exp: ..."). The
    batch and its augmented view go to the strategy as given, and `encode`
    casts each to the model's dtype; augmentation runs on the batch as
    given, so its random draws do not depend on the dtype. A batch value
    beyond the float32 range fails the step with NumericDomainError.
    """
    if not isinstance(values, np.ndarray):
        raise ContractError(
            "adapt_batch takes a bare (B, Cin, L) value array; strip labels first"
        )
    if values.shape[:1] == (0,):
        raise DegenerateBatchError(f"step {state.step}: empty batch, need at least one row")
    cin = state.model.config.in_channels
    if values.ndim != 3 or values.shape[1] != cin:
        raise ConformanceError(
            f"step {state.step}: batch shape {values.shape} does not conform to (B, {cin}, L)"
        )
    cfg = state.config
    with ad.active_graph().guard(f"step {state.step}"):
        if isinstance(cfg, StrategyConfig):
            preds, loss = baseline_adapt_batch(state, values)
        else:
            x_aug = apply_augment(values, cfg.augment, state.rng) if cfg.use_augmentation else None
            preds, loss = accup_batch(state.model, values, x_aug, cfg, support=state.support)
        loss_value = 0.0
        if loss is not None:
            state.optimizer.zero_grad()
            if loss.requires_grad:
                ad.backward(loss)
            else:
                ad.active_graph().clear()
            state.optimizer.step()
            loss_value = loss.item()
    state.step += 1
    return preds, loss_value, state


def run_stream(
    model: Model,
    stream,
    config: AccupConfig | StrategyConfig,
    seed: int = 0,
    layer_mask: LayerMask | None = None,
    config_hash: str = "",
) -> RunRecord:
    """Fold one strategy's step over an ordered finite stream of batches.

    One AdaptState is built for the config (an AccupConfig runs ACCUP, a
    StrategyConfig that baseline, which ignores seed and layer_mask), and
    every batch goes through adapt_batch. The input model is never mutated
    (AdaptState adapts a copy). A stream item is an object with .values, a
    (B, Cin, L) array, and .labels, an integer array or None, such as a
    `data.TimeSeriesBatch`; an item without .values raises ContractError
    naming its index, and a stream that yields no item raises it after the
    loop. The stream is consumed lazily: item i+1 is pulled only after item
    i has been adapted and recorded, and only its labels are kept, to score
    the predictions when every item has them. `wall_ms` spans the whole
    loop, so it includes the time the stream takes to produce its items.
    """
    state = AdaptState(model, config, layer_mask, seed)
    strategy = config.kind if isinstance(config, StrategyConfig) else "accup"
    record = RunRecord(strategy=strategy, seed=seed, config_hash=config_hash)
    labels = []
    start = time.perf_counter()
    for i, item in enumerate(stream):
        values = getattr(item, "values", None)
        if values is None:
            raise ContractError(f"stream item {i} has no .values: {type(item).__name__}")
        preds, loss_value, state = adapt_batch(state, values)
        record.batch_predictions.append(preds.tolist())
        record.batch_losses.append(loss_value)
        labels.append(getattr(item, "labels", None))
    record.wall_ms = (time.perf_counter() - start) * 1e3
    if not labels:
        raise ContractError("empty stream")
    if all(l is not None for l in labels):
        record.report = macro_f1(
            record.all_predictions(), np.concatenate(labels), model.n_classes
        )
        record.macro_f1 = record.report.macro_f1
    return record

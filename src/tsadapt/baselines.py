"""Reference adaptation strategies; `adapt.run_stream` streams them.

source       frozen forward with the pretrained running statistics
bn-stats     forward with current-batch BN statistics, no parameter update
tent         bn-stats forward, then one step minimizing mean prediction
             entropy, updating only the BN affine parameters
pseudo-label bn-stats forward, then one cross-entropy step against the
             argmax hard labels, updating the same normalization parameters
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .backbone import Model, cross_entropy, forward
from .errors import ConfigurationError, ContractError
from .optim import Adam

KINDS = ("source", "bn-stats", "tent", "pseudo-label")


class StrategyConfig:
    """Baseline kind plus the learning rate for the strategies that step."""

    def __init__(self, kind: str, lr: float = 1e-3):
        if kind not in KINDS:
            raise ConfigurationError(f"unknown baseline kind {kind!r}")
        if lr < 0:
            raise ConfigurationError(f"lr must be >= 0, got {lr}")
        self.kind = kind
        self.lr = float(lr)

    def takes_step(self) -> bool:
        return self.kind in ("tent", "pseudo-label")


class BaselineState:
    def __init__(self, model: Model, config: StrategyConfig):
        self.model = model
        self.config = config
        self.optimizer = (
            Adam(list(model.bn_parameters().values()), lr=config.lr)
            if config.takes_step()
            else None
        )
        self.step = 0


def baseline_adapt_batch(state: BaselineState, values: np.ndarray):
    """Consume one unlabeled batch under the configured strategy.

    Returns (predictions, loss value, state), like `adapt.adapt_batch`. The
    predictions come from the pre-update forward; strategies that take no
    step report a loss of 0.0. A step that raises leaves the shared tape
    empty, and a NumericDomainError names the stream step.
    """
    if not isinstance(values, np.ndarray):
        raise ContractError(
            "baseline_adapt_batch takes a bare (B, Cin, L) value array"
        )
    kind = state.config.kind
    loss_value = 0.0
    with ad.active_graph().guard(f"step {state.step}"):
        if not state.config.takes_step():
            bn_mode = "running-stats" if kind == "source" else "train-stats"
            with ad.no_grad():
                _, logits = forward(state.model, values, bn_mode=bn_mode)
            preds = logits.data.argmax(axis=1)
        else:
            _, logits = forward(state.model, values, bn_mode="train-stats")
            preds = logits.data.argmax(axis=1)
            if kind == "tent":
                p = ad.softmax(logits)
                rows = ad.scalar_mul(ad.tensor_sum(ad.mul(p, ad.log(p)), axis=-1), -1.0)
                loss = ad.mean(rows)
            else:  # pseudo-label
                loss = cross_entropy(logits, preds)
            state.optimizer.zero_grad()
            ad.backward(loss)
            state.optimizer.step()
            loss_value = loss.item()
    state.step += 1
    return preds, loss_value, state

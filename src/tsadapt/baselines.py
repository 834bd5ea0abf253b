"""Reference strategies: each predicts a batch and builds its loss, if any.

source       frozen forward with the pretrained running statistics
bn-stats     forward with current-batch BN statistics, no parameter update
tent         bn-stats forward, then one step minimizing mean prediction
             entropy, updating only the BN affine parameters
pseudo-label bn-stats forward, then one cross-entropy step against the
             argmax hard labels, updating the same normalization parameters

`adapt.AdaptState` holds the optimizer; `adapt.adapt_batch` takes the step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .backbone import cross_entropy, forward
from .config import Record
from .errors import ConfigurationError

KINDS = ("source", "bn-stats", "tent", "pseudo-label")


@dataclass(frozen=True)
class StrategyConfig(Record):
    """Baseline kind plus the learning rate for the strategies that step."""

    kind: str
    lr: float = 1e-3

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown baseline kind {self.kind!r}")
        if not 0 <= self.lr < math.inf:
            raise ConfigurationError(f"lr must be finite and >= 0, got {self.lr}")

    def takes_step(self) -> bool:
        return self.kind in ("tent", "pseudo-label")


def baseline_adapt_batch(state, values: np.ndarray):
    """(predictions, loss tensor or None) of one batch for an
    `adapt.AdaptState` over a StrategyConfig. Source and bn-stats have no
    loss; their state owns no parameter, so their forward records nothing."""
    kind = state.config.kind
    bn_mode = "running-stats" if kind == "source" else "train-stats"
    _, logits = forward(state.model, values, bn_mode=bn_mode)
    preds = logits.data.argmax(axis=1)
    if kind == "tent":
        ls = ad.log_softmax(logits)
        rows = ad.scalar_mul(ad.tensor_sum(ad.mul(ad.exp(ls), ls), axis=-1), -1.0)
        return preds, ad.mean(rows)
    if kind == "pseudo-label":
        return preds, cross_entropy(logits, preds)
    return preds, None

"""Core test-time adaptation math: augmentation ensembling, an entropy-filtered
support set with per-class prototypes, lower-entropy prediction selection, and
the pseudo-label-driven contrastive clustering loss.

Entropy is always the Shannon entropy in nats of the softmax of its argument,
so classifier logits and prototype probability rows go through one uniform
operator and their entropies are directly comparable.

The support set is single-writer; prototype computation reads a frozen view
of it. All other functions here are pure and thread-safe. The support set
keeps at most k rows per class, so its memory is fixed by (classes, k) and
does not grow with the stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .augment import AugmentSpec
from .config import Record
from .errors import ConfigurationError, ContractError, NumericDomainError


def shannon_entropy(logits) -> np.ndarray:
    """Entropy in nats of softmax(logits) over the last axis.

    Accepts a single row or a batch; underflowed probabilities contribute 0
    (the p*log p -> 0 limit).
    """
    v = np.asarray(logits, dtype=np.float64)
    if v.size == 0 or not np.all(np.isfinite(v)):
        raise NumericDomainError("entropy needs finite logits")
    shifted = v - v.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log(p), 0.0)
    return -terms.sum(axis=-1)


class SupportSet:
    """Per-class store of the k lowest-entropy (feature, entropy) rows.

    Each class holds at most k rows in two arrays sorted by (entropy,
    insertion order). Rows never change once inserted, so a row that falls
    out of the first k can never return: the store keeps exactly the rows
    a sort of the full history would pick. Seeded with one zero-entropy row
    per class taken from the classifier weight rows, which guarantees every
    class always has a prototype.
    """

    def __init__(self, n_classes: int, feature_dim: int, k: int):
        if k < 1:
            raise ConfigurationError(f"support bound must be >= 1, got {k}")
        self.n_classes = n_classes
        self.feature_dim = feature_dim
        self.k = k
        self.features = [np.zeros((0, feature_dim)) for _ in range(n_classes)]
        self.entropies = [np.zeros(0) for _ in range(n_classes)]

    @classmethod
    def from_classifier(cls, weight: np.ndarray, k: int) -> "SupportSet":
        c, f = weight.shape
        s = cls(c, f, k)
        update_support(s, weight, np.eye(c), np.zeros(c), np.arange(c))
        return s

    def class_counts(self) -> np.ndarray:
        return np.array([len(h) for h in self.entropies])

    def __len__(self) -> int:
        return int(self.class_counts().sum())


def update_support(support: SupportSet, features, logits, entropies, pseudo_labels) -> SupportSet:
    """Merge each row into its pseudo-label class, keeping the k lowest entropies.

    Retained rows precede the new ones and the sort is stable, so ties go to
    the earlier insertion. The logits only check that each pseudo-label is
    the argmax of its row; they are not stored.
    """
    features = np.asarray(features, dtype=np.float64)
    logits = np.asarray(logits, dtype=np.float64)
    entropies = np.asarray(entropies, dtype=np.float64)
    pseudo_labels = np.asarray(pseudo_labels, dtype=np.intp)
    if not (len(features) == len(logits) == len(entropies) == len(pseudo_labels)):
        raise ContractError("support update rows have mismatched lengths")
    if np.any(pseudo_labels != logits.argmax(axis=1)):
        raise ContractError("stream entry label must be the argmax of its logits")
    for c in np.unique(pseudo_labels):
        rows = pseudo_labels == c
        h = np.concatenate([support.entropies[c], entropies[rows]])
        keep = np.argsort(h, kind="stable")[:support.k]
        support.entropies[c] = h[keep]
        support.features[c] = np.concatenate([support.features[c], features[rows]])[keep]
    return support


def compute_prototypes(support: SupportSet, k: int) -> np.ndarray:
    """(C, F) array: the mean feature of the k lowest-entropy entries per class.

    Ties break by insertion order (earlier wins); the classifier-init entry
    carries entropy 0 and therefore never drops out. The store is already
    sorted, so this is the mean of its first k rows; k may not exceed the
    store's bound.
    """
    if k < 1:
        raise ConfigurationError(f"support filter size must be >= 1, got {k}")
    if k > support.k:
        raise ContractError(f"filter size {k} exceeds the support set's bound {support.k}")
    return np.stack([f[:k].mean(axis=0) for f in support.features])


def prototype_logits(features, prototypes: np.ndarray, eta: float) -> Tensor:
    """Softmax over classes of eta * cos(feature, prototype), for (C, F) prototypes.

    Zero-norm features or prototypes give cosine 0 for the affected pairs.
    Prototypes are constants in the features' dtype; gradients flow only
    through the features.
    """
    if eta <= 0:
        raise ConfigurationError(f"prototype scale must be > 0, got {eta}")
    f = features if isinstance(features, Tensor) else Tensor(features)
    cos = ad.cosine_pairs(f, Tensor(np.asarray(prototypes, dtype=f.data.dtype)))
    return ad.softmax(ad.scalar_mul(cos, float(eta)))


def ensemble(f_raw, p_raw, f_aug, p_aug, w=0.5):
    """Weighted blend of the raw and augmented views: w*raw + (1-w)*aug.

    w is a float in (0, 1); w=0.5 is the plain two-view average.
    """
    w = float(w)
    if not 0.0 < w < 1.0:
        raise ConfigurationError(f"ensemble weight must be in (0, 1), got {w}")
    f_ens = ad.add(ad.scalar_mul(f_raw, w), ad.scalar_mul(f_aug, 1.0 - w))
    p_ens = ad.add(ad.scalar_mul(p_raw, w), ad.scalar_mul(p_aug, 1.0 - w))
    return f_ens, p_ens


def entropy_compare(p_ens, h_ens, p_proto, h_proto):
    """Per row, keep the lower-entropy prediction; ties go to the prototype row.

    Returns (p_out, pseudo_labels). The selection mask is a constant in the
    predictions' dtype, so gradients flow through whichever branch each row
    selected.
    """
    pe = p_ens if isinstance(p_ens, Tensor) else Tensor(p_ens)
    pp = p_proto if isinstance(p_proto, Tensor) else Tensor(p_proto)
    h_ens = np.asarray(h_ens, dtype=np.float64)
    h_proto = np.asarray(h_proto, dtype=np.float64)
    if pe.shape != pp.shape or h_ens.shape != h_proto.shape or len(h_ens) != pe.shape[0]:
        raise ContractError("entropy comparison rows have mismatched shapes")
    take_ens = (h_ens < h_proto).astype(pe.data.dtype)[:, None]
    mask = np.broadcast_to(take_ens, pe.shape).copy()
    p_out = ad.add(ad.mul(pe, Tensor(mask)), ad.mul(pp, Tensor(1.0 - mask)))
    return p_out, p_out.data.argmax(axis=1)


def contrastive_loss(view_logits, pseudo_labels, tau: float) -> Tensor:
    """Pseudo-label contrastive clustering over the combined two-view batch.

    For anchor i with positives pos(i) = same-label rows (self excluded) and
    negatives neg(i) = different-label rows, the per-anchor term is
        -(1/|pos(i)|) * sum_{j in pos(i)} [ cos(p_i, p_j)/tau
                                            - log sum_{k in neg(i)} exp(cos(p_i, p_k)/tau) ];
    the denominator runs over negatives only. Anchors with no positives or no
    negatives contribute 0. Returns the sum over anchors. The masks, weights
    and pad are constants in the logits' dtype.
    """
    if tau <= 0:
        raise ConfigurationError(f"temperature must be > 0, got {tau}")
    p = view_logits if isinstance(view_logits, Tensor) else Tensor(view_logits)
    labels = np.asarray(pseudo_labels)
    n = p.shape[0]
    if labels.shape != (n,):
        raise ContractError(f"need one pseudo-label per row, got {labels.shape}")

    same = labels[:, None] == labels[None, :]
    pos = same & ~np.eye(n, dtype=bool)
    neg = ~same
    pos_count = pos.sum(axis=1)
    neg_count = neg.sum(axis=1)
    valid = (pos_count > 0) & (neg_count > 0)

    dtype = p.data.dtype
    sims = ad.cosine_pairs(p, p)
    scaled = ad.exp(ad.scalar_mul(sims, 1.0 / tau))
    denom = ad.tensor_sum(ad.mul(scaled, Tensor(neg.astype(dtype))), axis=-1)
    # invalid anchors get a +1 pad so the log is finite before being masked out
    pad = Tensor((~valid).astype(dtype))
    log_denom = ad.log(ad.add(denom, pad))
    denom_term = ad.tensor_sum(ad.mul(log_denom, Tensor(valid.astype(dtype))))

    weights = np.zeros((n, n), dtype)
    weights[valid] = pos[valid] / (tau * pos_count[valid, None])
    pos_term = ad.tensor_sum(ad.mul(sims, Tensor(weights)))
    return ad.sub(denom_term, pos_term)


@dataclass
class AccupConfig(Record):
    """Hyperparameters and module switches of the adaptation method.

    k_support, eta and tau control the prototype filter, the prototype
    logit sharpness and the contrastive temperature. ensemble_weight is the
    fixed raw-view weight of the two-view ensemble.
    bn_policy "batch" normalizes adaptation forwards with current-batch
    statistics; "running" freezes the pretrained statistics.
    """

    k_support: int = 10
    eta: float = 20.0
    tau: float = 0.7
    ensemble_weight: float = 0.5
    augment: AugmentSpec = field(default_factory=AugmentSpec)
    use_prototypes: bool = True
    use_entropy_comparison: bool = True
    use_augmentation: bool = True
    use_contrast: bool = True
    lr: float = 3e-4
    bn_policy: str = "batch"  # batch | running

    def __post_init__(self):
        if not isinstance(self.k_support, Integral) or self.k_support < 1:
            raise ConfigurationError(f"k_support must be an integer >= 1, got {self.k_support!r}")
        # chained with math.inf, so that NaN and ±Infinity fail each range
        if not 0 < self.eta < math.inf:
            raise ConfigurationError(f"eta must be finite and > 0, got {self.eta}")
        if not 0 < self.tau < math.inf:
            raise ConfigurationError(f"tau must be finite and > 0, got {self.tau}")
        if not 0.0 < self.ensemble_weight < 1.0:
            raise ConfigurationError(
                f"ensemble_weight must be in (0, 1), got {self.ensemble_weight}"
            )
        if not 0 <= self.lr < math.inf:
            raise ConfigurationError(f"lr must be finite and >= 0, got {self.lr}")
        if self.bn_policy not in ("batch", "running"):
            raise ConfigurationError(f"unknown bn policy {self.bn_policy!r}")

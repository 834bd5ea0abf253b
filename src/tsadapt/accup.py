"""Core test-time adaptation math: augmentation ensembling, an entropy-filtered
support set with per-class prototypes, lower-entropy prediction selection, and
the pseudo-label-driven contrastive clustering loss.

Entropy is always the Shannon entropy in nats of the softmax of its argument,
so classifier logits and prototype probability rows go through one uniform
operator and their entropies are directly comparable.

The support set is single-writer; prototype computation reads a frozen view
of it. All other functions here are pure and thread-safe. Within one run the
support set only ever grows, so its memory is linear in the streamed samples.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .augment import AugmentSpec
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


@dataclass
class SupportEntry:
    feature: np.ndarray
    logits: np.ndarray
    entropy: float


class SupportSet:
    """Append-only per-class memory of (feature, logits, entropy) entries.

    Seeded with one zero-entropy entry per class taken from the classifier
    weight rows, which guarantees every class always has a prototype.
    """

    def __init__(self, n_classes: int, feature_dim: int):
        self.n_classes = n_classes
        self.feature_dim = feature_dim
        self._entries: list[list[SupportEntry]] = [[] for _ in range(n_classes)]

    @classmethod
    def from_classifier(cls, weight: np.ndarray) -> "SupportSet":
        c, f = weight.shape
        s = cls(c, f)
        for k in range(c):
            onehot = np.zeros(c)
            onehot[k] = 1.0
            s._entries[k].append(
                SupportEntry(
                    feature=weight[k].copy(),
                    logits=onehot,
                    entropy=0.0,
                )
            )
        return s

    def entries(self, label: int) -> list:
        return self._entries[label]

    def class_counts(self) -> np.ndarray:
        return np.array([len(e) for e in self._entries])

    def __len__(self) -> int:
        return int(self.class_counts().sum())


def update_support(support: SupportSet, features, logits, entropies, pseudo_labels) -> SupportSet:
    """Append one stream entry per row under its pseudo-label class."""
    features = np.asarray(features, dtype=np.float64)
    logits = np.asarray(logits, dtype=np.float64)
    entropies = np.asarray(entropies, dtype=np.float64)
    pseudo_labels = np.asarray(pseudo_labels)
    if not (len(features) == len(logits) == len(entropies) == len(pseudo_labels)):
        raise ContractError("support update rows have mismatched lengths")
    for f, p, h, y in zip(features, logits, entropies, pseudo_labels):
        y = int(y)
        if y != int(p.argmax()):
            raise ContractError("stream entry label must be the argmax of its logits")
        support._entries[y].append(
            SupportEntry(feature=f.copy(), logits=p.copy(), entropy=float(h))
        )
    return support


@dataclass
class PrototypeSet:
    """One feature centroid per class plus the retained-entry counts."""

    mu: np.ndarray      # (C, F)
    counts: np.ndarray  # (C,)


def compute_prototypes(support: SupportSet, k: int) -> PrototypeSet:
    """Mean feature of the k lowest-entropy entries per class.

    Ties break by insertion order (earlier wins); the classifier-init entry
    carries entropy 0 and therefore never drops out.
    """
    if k < 1:
        raise ConfigurationError(f"support filter size must be >= 1, got {k}")
    mu = np.zeros((support.n_classes, support.feature_dim))
    counts = np.zeros(support.n_classes, dtype=np.intp)
    for c in range(support.n_classes):
        kept = sorted(support.entries(c), key=lambda e: e.entropy)[:k]
        counts[c] = len(kept)
        mu[c] = np.mean([e.feature for e in kept], axis=0)
    return PrototypeSet(mu=mu, counts=counts)


def prototype_logits(features, protos: PrototypeSet, eta: float) -> Tensor:
    """Softmax over classes of eta * cos(feature, prototype).

    Zero-norm features or prototypes give cosine 0 for the affected pairs.
    Prototypes are constants; gradients flow only through the features.
    """
    if eta <= 0:
        raise ConfigurationError(f"prototype scale must be > 0, got {eta}")
    f = features if isinstance(features, Tensor) else Tensor(features)
    cos = ad.cosine_pairs(f, Tensor(protos.mu))
    return ad.softmax(ad.scalar_mul(cos, float(eta)))


def make_ensemble_weight() -> Tensor:
    """Trainable 2-logit parameter whose softmax gives (w, 1-w), starting at 0.5."""
    return Tensor(np.zeros(2), requires_grad=True)


def ensemble(f_raw, p_raw, f_aug, p_aug, w=0.5, mode: str = "fixed"):
    """Weighted blend of the raw and augmented views: w*raw + (1-w)*aug.

    Fixed mode takes a float w in (0, 1); w=0.5 is the plain two-view average.
    Learnable mode takes the 2-logit tensor from make_ensemble_weight() and
    blends with its softmax, keeping the weight inside (0, 1) by construction.
    """
    if mode == "fixed":
        w = float(w)
        if not 0.0 < w < 1.0:
            raise ConfigurationError(f"ensemble weight must be in (0, 1), got {w}")
        f_ens = ad.add(ad.scalar_mul(f_raw, w), ad.scalar_mul(f_aug, 1.0 - w))
        p_ens = ad.add(ad.scalar_mul(p_raw, w), ad.scalar_mul(p_aug, 1.0 - w))
        return f_ens, p_ens
    if mode == "learnable":
        if not isinstance(w, Tensor) or w.shape != (2,):
            raise ConfigurationError("learnable mode needs the 2-logit weight tensor")
        weights = ad.softmax(w)
        w0 = ad.index_select(weights, [0])
        w1 = ad.index_select(weights, [1])
        f_ens = ad.add(ad.mul(f_raw, w0), ad.mul(f_aug, w1))
        p_ens = ad.add(ad.mul(p_raw, w0), ad.mul(p_aug, w1))
        return f_ens, p_ens
    raise ConfigurationError(f"unknown ensemble mode {mode!r}")


def entropy_compare(p_ens, h_ens, p_proto, h_proto):
    """Per row, keep the lower-entropy prediction; ties go to the prototype row.

    Returns (p_out, pseudo_labels). The selection mask is a constant, so
    gradients flow through whichever branch each row selected.
    """
    pe = p_ens if isinstance(p_ens, Tensor) else Tensor(p_ens)
    pp = p_proto if isinstance(p_proto, Tensor) else Tensor(p_proto)
    h_ens = np.asarray(h_ens, dtype=np.float64)
    h_proto = np.asarray(h_proto, dtype=np.float64)
    if pe.shape != pp.shape or h_ens.shape != h_proto.shape or len(h_ens) != pe.shape[0]:
        raise ContractError("entropy comparison rows have mismatched shapes")
    take_ens = (h_ens < h_proto).astype(np.float64)[:, None]
    mask = np.broadcast_to(take_ens, pe.shape).copy()
    p_out = ad.add(ad.mul(pe, Tensor(mask)), ad.mul(pp, Tensor(1.0 - mask)))
    return p_out, p_out.data.argmax(axis=1)


def contrastive_loss(view_logits, pseudo_labels, tau: float, anchors: str = "all") -> Tensor:
    """Pseudo-label contrastive clustering over the combined two-view batch.

    For anchor i with positives pos(i) = same-label rows (self excluded) and
    negatives neg(i) = different-label rows, the per-anchor term is
        -(1/|pos(i)|) * sum_{j in pos(i)} [ cos(p_i, p_j)/tau
                                            - log sum_{k in neg(i)} exp(cos(p_i, p_k)/tau) ];
    the denominator runs over negatives only. Anchors with no positives or no
    negatives contribute 0. Returns the sum over anchors ("raw" restricts
    anchors to the first half of the rows, the unaugmented views).
    """
    if tau <= 0:
        raise ConfigurationError(f"temperature must be > 0, got {tau}")
    if anchors not in ("all", "raw"):
        raise ConfigurationError(f"unknown anchor mode {anchors!r}")
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
    if anchors == "raw":
        valid = valid.copy()
        valid[n // 2:] = False

    sims = ad.cosine_pairs(p, p)
    scaled = ad.exp(ad.scalar_mul(sims, 1.0 / tau))
    denom = ad.tensor_sum(ad.mul(scaled, Tensor(neg.astype(np.float64))), axis=-1)
    # invalid anchors get a +1 pad so the log is finite before being masked out
    pad = Tensor(np.where(valid, 0.0, 1.0))
    log_denom = ad.log(ad.add(denom, pad))
    denom_term = ad.tensor_sum(ad.mul(log_denom, Tensor(valid.astype(np.float64))))

    weights = np.zeros((n, n))
    rows = valid & (pos_count > 0)
    weights[rows] = pos[rows] / (tau * pos_count[rows, None])
    pos_term = ad.tensor_sum(ad.mul(sims, Tensor(weights)))
    return ad.sub(denom_term, pos_term)


@dataclass
class EnsembleOutput:
    """Detached per-batch values of the prediction pipeline."""

    f_ens: np.ndarray
    p_ens: np.ndarray
    h_ens: np.ndarray
    p_proto: np.ndarray | None
    h_proto: np.ndarray | None
    p_out: np.ndarray
    pseudo_labels: np.ndarray


@dataclass
class AccupConfig:
    """Hyperparameters and module switches of the adaptation method.

    k_support, eta and tau control the prototype filter, the prototype
    logit sharpness and the contrastive temperature. ensemble_weight is the
    raw-view weight (fixed mode) and always starts at 0.5 in learnable mode.
    bn_policy "batch" normalizes adaptation forwards with current-batch
    statistics; "running" freezes the pretrained statistics.
    """

    k_support: int = 10
    eta: float = 20.0
    tau: float = 0.7
    ensemble_weight: float = 0.5
    ensemble_mode: str = "fixed"  # fixed | learnable
    augment: AugmentSpec = field(default_factory=AugmentSpec)
    use_prototypes: bool = True
    use_entropy_comparison: bool = True
    use_augmentation: bool = True
    use_contrast: bool = True
    anchor_mode: str = "all"  # all | raw
    lr: float = 3e-4
    bn_policy: str = "batch"  # batch | running

    def __post_init__(self):
        if self.k_support < 1:
            raise ConfigurationError(f"k_support must be >= 1, got {self.k_support}")
        if self.eta <= 0:
            raise ConfigurationError(f"eta must be > 0, got {self.eta}")
        if self.tau <= 0:
            raise ConfigurationError(f"tau must be > 0, got {self.tau}")
        if not 0.0 < self.ensemble_weight < 1.0:
            raise ConfigurationError(
                f"ensemble_weight must be in (0, 1), got {self.ensemble_weight}"
            )
        if self.ensemble_mode not in ("fixed", "learnable"):
            raise ConfigurationError(f"unknown ensemble mode {self.ensemble_mode!r}")
        if self.anchor_mode not in ("all", "raw"):
            raise ConfigurationError(f"unknown anchor mode {self.anchor_mode!r}")
        if self.lr < 0:
            raise ConfigurationError(f"lr must be >= 0, got {self.lr}")
        if self.bn_policy not in ("batch", "running"):
            raise ConfigurationError(f"unknown bn policy {self.bn_policy!r}")

    def to_dict(self) -> dict:
        d = self.__dict__.copy()
        d["augment"] = self.augment.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "AccupConfig":
        d = dict(d)
        if "augment" in d and isinstance(d["augment"], dict):
            d["augment"] = AugmentSpec.from_dict(d["augment"])
        return cls(**d)


def export_support_set(path, support: SupportSet) -> None:
    """Dump the support set for inspection: tensor container + JSON metadata.

    Row i of class c's tensors is entry i of that class; row 0 is the entry
    seeded from the classifier weights.
    """
    tensors = {}
    meta = {"n_classes": support.n_classes, "feature_dim": support.feature_dim}
    for c in range(support.n_classes):
        entries = support.entries(c)
        tensors[f"class{c}.features"] = np.stack([e.feature for e in entries])
        tensors[f"class{c}.logits"] = np.stack([e.logits for e in entries])
        tensors[f"class{c}.entropy"] = np.array([e.entropy for e in entries])
    ad.save_tensors(path, tensors)
    with open(f"{path}.json", "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True)

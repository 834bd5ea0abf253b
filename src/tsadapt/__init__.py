"""Streaming test-time adaptation for 1D-CNN time-series classifiers.

The package is organized around a small float32/float64 autodiff engine
(`tsadapt.autodiff`), a three-block convolutional backbone
(`tsadapt.backbone`), time-series augmentations (`tsadapt.augment`), the
adaptation math (`tsadapt.accup`), the single-pass streaming loop shared by
every strategy (`tsadapt.adapt`), reference baselines (`tsadapt.baselines`),
dataset and generator utilities (`tsadapt.data`), and the evaluation layer
(`tsadapt.metrics`, `tsadapt.experiment`, `tsadapt.cli`). Every config
dataclass reads and writes its JSON form through `tsadapt.config`.

Every model is built, pretrained and adapted in float32
(`tsadapt.backbone.MODEL_DTYPE`); `Model.clone(np.float64)` gives the
float64 copy that gradient checks need.
"""

from .accup import (
    AccupConfig,
    SupportSet,
    compute_prototypes,
    contrastive_loss,
    ensemble,
    entropy_compare,
    prototype_logits,
    shannon_entropy,
    update_support,
)
from .adapt import AdaptState, LayerMask, RunRecord, adapt_batch, run_stream
from .augment import AugmentSpec, apply_augment
from .autodiff import Tensor, backward, no_grad
from .backbone import EncoderConfig, Model, classify, encode, pretrain_source
from .baselines import StrategyConfig
from .data import (
    DatasetMeta,
    ShiftSpec,
    TimeSeriesBatch,
    generate_shifted_pair,
    load_dataset,
    make_stream,
)
from .metrics import MacroF1Report, macro_f1

__version__ = "0.1.0"

__all__ = [
    "AccupConfig", "AdaptState", "AugmentSpec", "DatasetMeta", "EncoderConfig",
    "LayerMask", "MacroF1Report", "Model", "RunRecord",
    "ShiftSpec", "StrategyConfig", "SupportSet", "Tensor", "TimeSeriesBatch",
    "adapt_batch", "apply_augment", "backward", "classify", "compute_prototypes",
    "contrastive_loss", "encode", "ensemble", "entropy_compare",
    "generate_shifted_pair", "load_dataset", "macro_f1", "make_stream",
    "no_grad", "pretrain_source", "prototype_logits", "run_stream",
    "shannon_entropy", "update_support",
]

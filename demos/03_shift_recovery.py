#!/usr/bin/env python3
"""The full story on one synthetic domain shift: pretrain a source model,
stream the shifted target once, and compare adaptation strategies.

Run from the repository root:  python3 demos/03_shift_recovery.py
Takes roughly half a minute on one CPU core.
"""

import time

import numpy as np

from tsadapt.accup import AccupConfig
from tsadapt.adapt import run_stream
from tsadapt.backbone import EncoderConfig, Model, pretrain_source, predict
from tsadapt.baselines import StrategyConfig
from tsadapt.data import generate_shifted_pair, make_stream
from tsadapt.experiment import HYPERPARAM_PRESETS, default_synthetic_scenario
from tsadapt.metrics import macro_f1

scenario = default_synthetic_scenario()
print("source spec:", scenario.source)
print("target spec:", scenario.target)

train, target = generate_shifted_pair(
    scenario.source, scenario.target,
    (scenario.n_source, scenario.n_target), seed=scenario.gen_seed,
)
print(f"\nsource split: {train.values.shape}, target stream: {target.values.shape}")

# --- pretraining -------------------------------------------------------------
model = Model(EncoderConfig(in_channels=2, filters=(16, 24, 24)), 3, seed=0)
losses = []
start = time.perf_counter()
pretrain_source(model, train.values, train.labels, epochs=40, batch_size=32,
                lr=1e-3, seed=0, epoch_losses=losses)
print(f"pretrained 40 epochs in {time.perf_counter() - start:.1f}s, "
      f"loss {losses[0]:.3f} -> {losses[-1]:.3f}")

# sanity: on unshifted data the frozen model is excellent
_, clean = generate_shifted_pair(scenario.source, scenario.source, (8, 600), seed=99)
clean_f1 = macro_f1(predict(model, clean.values), clean.labels, 3).macro_f1
print(f"macro-F1 on unshifted target: {clean_f1:.4f}")

# --- one pass over the shifted stream per strategy ----------------------------
stream = make_stream(target, 32)
print(f"\nstreaming {len(stream)} batches of 32 through each strategy:")

rows = []
for kind in ("source", "bn-stats", "tent", "pseudo-label"):
    record = run_stream(model, stream, StrategyConfig(kind, lr=1e-3))
    rows.append((kind, record.macro_f1, record.wall_ms))

config = AccupConfig(**HYPERPARAM_PRESETS["synthetic"])
record = run_stream(model, stream, config, seed=0)
rows.append(("accup", record.macro_f1, record.wall_ms))

print(f"\n{'strategy':14s} {'macro-F1':>9s} {'wall':>8s}")
for kind, f1, ms in rows:
    print(f"{kind:14s} {f1:9.4f} {ms / 1e3:7.1f}s")

losses = np.array(record.batch_losses)
print(f"\nadaptation loss over the stream: first batches {losses[:3].round(1)}, "
      f"last batches {losses[-3:].round(1)}")

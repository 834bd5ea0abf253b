"""The benchmark's three workloads, their timed passes and output checks.

Every workload is a closed loop with one client: batch n+1 is handed over
only after `adapt_batch` (or `baseline_adapt_batch`) has returned for batch
n. Its fixed unit of work, a *pass*, is repeated until the run's seconds are
used up; set-up is repeated too, and medians are reported. The benchmark
calls the package through module attributes (`adapt.adapt_batch`, never a
name imported at load time) so that the traced run sees every call.

desk-accup-long  2x64 input, (16,24,24) encoder pretrained 40 epochs in
                 set-up, ACCUP `synthetic` preset, i.i.d. B=32, a stream of
                 400 batches per pass: the only workload on which the
                 unbounded support set grows large enough to matter.
mfd-accup        1x5120 input, default (64,128,128) encoder with a seeded
                 random init, ACCUP `mfd` preset, B=8, 10 batches per pass:
                 activations far beyond L2, so conv / batch-norm dominate
                 and the support set does not.
desk-table       the paper's comparison table at desk scale: one
                 `run_experiment` per strategy, each pretraining its own
                 source model; the only workload running baselines, data
                 generation, scoring and experiment orchestration.
"""

from __future__ import annotations

import resource
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from reference import DESK, MFD, HostSpeed
from tsadapt import adapt, autodiff, backbone, data, experiment, metrics
from tsadapt.accup import AccupConfig
from tsadapt.errors import TsadaptError

N_CLASSES = 3
TABLE_STRATEGIES = ("accup", "source", "bn-stats", "tent", "pseudo-label")


@dataclass(frozen=True)
class Sizes:
    batches: int       # stream batches per pass (desk-table: target batches)
    batch: int         # samples per batch
    n_source: int      # labelled source samples for pretraining
    epochs: int        # pretraining epochs
    length: int        # series length
    setups: int        # set-ups per run; setup_s takes their median
    min_passes: int    # desk-accup-long needs two to compare predictions
    streams: int = 1   # desk-table: replicate streams after each table run


SIZES = {
    "desk-accup-long": Sizes(400, 32, 384, 40, 64, 3, 2),
    "mfd-accup": Sizes(10, 8, 8, 0, 5120, 5, 1),
    "desk-table": Sizes(50, 32, 384, 40, 64, 5, 1, 2),
}
SMOKE_SIZES = {
    "desk-accup-long": Sizes(8, 32, 96, 2, 64, 2, 2),
    "mfd-accup": Sizes(4, 4, 4, 0, 256, 2, 1),
    "desk-table": Sizes(8, 32, 96, 3, 64, 2, 1),
}


class Tally:
    """Units attempted (set-ups, batches, runs) and those that failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


@dataclass
class Stream:
    model: backbone.Model
    batches: list
    config: AccupConfig
    seed: int


@dataclass
class StreamPass:
    seconds: float
    latencies: list = field(default_factory=list)
    predictions: list = field(default_factory=list)
    problems: list = field(default_factory=list)   # per batch: None or what failed
    samples: list = field(default_factory=list)    # per batch: host sample that follows it


def stream_pass(ctx: Stream, host: HostSpeed) -> StreamPass:
    """One fresh ACCUP adaptation over the stream, timed batch by batch.

    The host-speed kernel runs every `host.kernel.every` batches, outside
    the batch timings and the pass's seconds.
    """
    state = adapt.AdaptState(ctx.model.clone(), ctx.config, None, ctx.seed)
    out = StreamPass(0.0)
    first = len(host.samples)
    start = perf_counter()
    for i, batch in enumerate(ctx.batches):
        if i and i % host.kernel.every == 0:
            start += host.sample()
        out.samples.append(first + i // host.kernel.every)
        t0 = perf_counter()
        try:
            preds, loss, _ = adapt.adapt_batch(state, batch.values)
        except TsadaptError as err:
            out.latencies.append(perf_counter() - t0)
            out.predictions.append(None)
            out.problems.append(f"batch {i} raised {err!r}")
            autodiff.active_graph().clear()
            continue
        out.latencies.append(perf_counter() - t0)
        out.predictions.append(preds)
        ok = (preds.shape == (len(batch.values),) and preds.min() >= 0
              and preds.max() < N_CLASSES and np.isfinite(loss))
        out.problems.append(None if ok else f"batch {i}: prediction outside "
                            f"0..{N_CLASSES - 1} or loss {loss}")
    out.seconds = perf_counter() - start
    host.sample()
    return out


def local_slowness(passes: list, host: HostSpeed) -> np.ndarray:
    """Per batch: mean of the host samples just before and after its segment.

    A host sample is always taken before a workload's first pass, so every
    segment has one before it.
    """
    s = np.asarray(host.samples) / host.kernel.nominal_s
    after = np.concatenate([p.samples for p in passes])
    return (s[after - 1] + s[after]) / 2


def latency_metrics(passes: list, host: HostSpeed, quantiles: dict) -> tuple:
    """Batch-latency quantiles in ms, and per quantile the slowness that
    normalises it: raw quantile over the quantile of latencies each divided
    by its local slowness, so that host phases within a run cancel too."""
    lat = np.concatenate([p.latencies for p in passes]) * 1e3
    norm = lat / local_slowness(passes, host)
    m, slowness = {}, {}
    for name, q in quantiles.items():
        raw = float(np.percentile(lat, q))
        m[name] = (raw, "ms")
        slowness[name] = raw / float(np.percentile(norm, q))
    return m, slowness


def tally_batches(tally: Tally, p: StreamPass, reference: StreamPass | None, label: str):
    """One unit per batch; with a reference pass, predictions must match it."""
    for j, problem in enumerate(p.problems):
        if problem is None and reference is not None and not np.array_equal(
                p.predictions[j], reference.predictions[j]):
            problem = f"batch {j} predicts differently from the first pass"
        tally.check(problem is None, f"{label} {problem}")


def scenario(seed: int, sz: Sizes, channels: int = 2):
    """The bundled desk shift (amplitude x3, noise 0.5), at the given shape."""
    sc = experiment.default_synthetic_scenario()
    shape = {"channels": channels, "length": sz.length}
    return replace(sc, source=replace(sc.source, **shape), target=replace(sc.target, **shape),
                   n_source=sz.n_source, n_target=sz.batches * sz.batch, gen_seed=seed)


def repeat_passes(run_one, seconds: float, min_passes: int) -> list:
    """Run passes until another would overrun `seconds`, at least min_passes."""
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_one(len(passes)))
        elapsed = perf_counter() - start
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def median_setup(make, n: int, tally: Tally, host: HostSpeed, same=None):
    """Set up n times; keep the first context and check the others against it.

    Only two contexts are alive at a time, so the set-ups add to peak RSS no
    more than one workload instance would. The host-speed kernel runs before
    each set-up and after the last.
    """
    first, times = None, []
    for i in range(n):
        host.sample()
        t0 = perf_counter()
        ctx = make()
        times.append(perf_counter() - t0)
        if first is None:
            first = ctx
        elif same is not None:
            tally.check(same(first, ctx), f"set-up {i} differs from set-up 0")
        ctx = None
    host.sample()
    return first, float(np.median(times))


def same_parameters(a: backbone.Model, b: backbone.Model) -> bool:
    pa, pb = a.named_parameters(), b.named_parameters()
    return all(np.array_equal(pa[k].data, pb[k].data) for k in pa)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _phase(tracer, name):
    if tracer is not None:
        tracer.phase(name)


# ---------------------------------------------------------------------------
# stream workloads
# ---------------------------------------------------------------------------

def _desk_stream(seed: int, sz: Sizes) -> Stream:
    sc = scenario(seed, sz)
    train, target = data.generate_shifted_pair(
        sc.source, sc.target, (sc.n_source, sc.n_target), seed=seed)
    model = backbone.Model(backbone.EncoderConfig(2, filters=(16, 24, 24)), N_CLASSES, seed=seed)
    backbone.pretrain_source(model, train.values, train.labels, epochs=sz.epochs, seed=seed)
    config = AccupConfig(**experiment.HYPERPARAM_PRESETS["synthetic"])
    return Stream(model, data.make_stream(target, sz.batch), config, seed)


def _mfd_stream(seed: int, sz: Sizes) -> Stream:
    sc = scenario(seed, sz, channels=1)
    _, target = data.generate_shifted_pair(
        sc.source, sc.target, (sc.n_source, sc.n_target), seed=seed)
    model = backbone.Model(backbone.EncoderConfig(1), N_CLASSES, seed=seed)
    config = AccupConfig(**experiment.HYPERPARAM_PRESETS["mfd"])
    return Stream(model, data.make_stream(target, sz.batch), config, seed)


def run_stream_workload(name: str, seed: int, seconds: float, sz: Sizes, tracer=None):
    """desk-accup-long and mfd-accup: returns (end-to-end metrics, tally, passes, slowness)."""
    tally = Tally()
    desk = name == "desk-accup-long"
    make = _desk_stream if desk else _mfd_stream
    host_setup, host = HostSpeed(DESK if desk else MFD), HostSpeed(DESK if desk else MFD)
    _phase(tracer, "setup")
    ctx, setup_s = median_setup(lambda: make(seed, sz), sz.setups, tally, host_setup,
                                lambda a, b: same_parameters(a.model, b.model))
    host.sample()

    def one(i):
        _phase(tracer, "pass")
        result = stream_pass(ctx, host)
        _phase(tracer, "check")
        return result

    passes = repeat_passes(one, seconds, sz.min_passes)
    total_s = sum(p.seconds for p in passes)
    m = {
        "setup_s": (setup_s, "s"),
        "pass_s": (float(np.median([p.seconds for p in passes])), "s"),
        "stream_samples_per_s": (len(passes) * sum(len(b.values) for b in ctx.batches) / total_s,
                                 "1/s"),
    }
    quantiles = {"batch_ms_p50": 50, "batch_ms_p90": 90} if desk else {"batch_ms_p50": 50}
    latencies, slowness = latency_metrics(passes, host, quantiles)
    m.update(latencies)
    # a desk pass must repeat the first pass's predictions exactly
    for i, p in enumerate(passes):
        tally_batches(tally, p, passes[0] if i and name == "desk-accup-long" else None,
                      f"pass {i}")
    if desk:
        truth = np.concatenate([b.labels for b in ctx.batches])
        f1s = [metrics.macro_f1(np.concatenate(p.predictions), truth, N_CLASSES).macro_f1
               for p in passes if all(x is not None for x in p.predictions)]
        if f1s:
            m["macro_f1.accup"] = (float(np.median(f1s)), "F1")
    m["peak_rss_mb"] = (peak_rss_mb(), "MB")
    slowness.update(setup=host_setup.slowness(), other=host.slowness())
    return m, tally, len(passes), slowness


# ---------------------------------------------------------------------------
# desk-table
# ---------------------------------------------------------------------------

def _table_configs(seed: int, sz: Sizes, out_dir: Path) -> list:
    sc = scenario(seed, sz)
    accup = AccupConfig(**experiment.HYPERPARAM_PRESETS["synthetic"])
    return [
        experiment.ExperimentConfig(
            scenario="desk-table", strategy=s, data=sc, accup=accup, seeds=(0,),
            batch_size=sz.batch, pretrain_epochs=sz.epochs, output_dir=str(out_dir / s))
        for s in TABLE_STRATEGIES
    ]


def _record_problem(rec, n_target: int) -> str | None:
    preds = rec.all_predictions()
    if len(preds) != n_target or preds.min() < 0 or preds.max() >= N_CLASSES:
        return f"predictions outside 0..{N_CLASSES - 1} or not {n_target} of them"
    if not np.all(np.isfinite(rec.batch_losses)):
        return "non-finite loss"
    if rec.macro_f1 is None or not 0.0 <= rec.macro_f1 <= 1.0:
        return f"macro-F1 {rec.macro_f1}"
    return None


def run_table_workload(seed: int, seconds: float, sz: Sizes, scratch: Path, tracer=None):
    """desk-table: returns (end-to-end metrics, tally, passes, slowness).

    Experiment summaries and model snapshots go to a temporary directory
    under `scratch`, removed at the end.
    """
    tally = Tally()
    host_setup, host = HostSpeed(DESK), HostSpeed(DESK)
    tmp = Path(tempfile.mkdtemp(prefix=".bench-desk-table-", dir=scratch))
    try:
        _phase(tracer, "setup")
        configs, setup_s = median_setup(lambda: _table_configs(seed, sz, tmp), sz.setups, tally,
                                        host_setup)
        n_target = configs[0].data.n_target
        host.sample()

        def one(i):
            # the replicate streams after each table run, so that its batch
            # timings sample the whole pass, not one short window
            _phase(tracer, "replicate")
            replicate = _replicate_accup(configs[0], host)
            runs, table_s, table_norm = {}, 0.0, 0.0
            for cfg in configs:
                _phase(tracer, "pass")
                t0 = perf_counter()
                try:
                    runs[cfg.strategy] = experiment.run_experiment(cfg)[1][0]
                except TsadaptError as err:
                    tally.check(False, f"pass {i} {cfg.strategy} raised {err!r}")
                dt = perf_counter() - t0
                host.sample()
                table_s += dt
                table_norm += dt / host.last_slowness()
                _phase(tracer, "replicate")
                replicate["streams"] += [stream_pass(replicate["stream"], host)
                                         for _ in range(sz.streams)]
            _phase(tracer, "check")
            # one unit per strategy run and one for the replicated accup run
            for strategy, rec in runs.items():
                problem = _record_problem(rec, n_target)
                if problem is None and strategy == "accup" and "source" in runs \
                        and rec.macro_f1 <= runs["source"].macro_f1:
                    problem = f"F1 {rec.macro_f1:.4f} <= source {runs['source'].macro_f1:.4f}"
                tally.check(problem is None, f"pass {i} {strategy}: {problem}")
            streams = replicate["streams"]
            problems = [p for st in streams for p in st.problems if p is not None]
            backbone.save_model(tmp / "replicate.ttaw", replicate["model"])
            hashes = {experiment.file_sha256(tmp / "replicate.ttaw")} | {
                experiment.file_sha256(Path(cfg.output_dir) / "model_seed0.ttaw")
                for cfg in configs if cfg.strategy in runs}
            if len(hashes) != 1:
                problems.append("pretrained models differ between runs")
            if "accup" in runs and not all(
                    np.array_equal(a, b) for st in streams for a, b in
                    zip(runs["accup"].batch_predictions, st.predictions)):
                problems.append("predictions differ from the table's accup run")
            tally.check(not problems, f"pass {i} replicate: {problems}")
            return table_s, table_norm, replicate, runs

        passes = repeat_passes(one, seconds, sz.min_passes)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    streams = [st for _, _, r, _ in passes for st in r["streams"]]
    table_s = float(np.median([t for t, _, _, _ in passes]))
    pretrain_s = float(np.median([r["pretrain_s"] for _, _, r, _ in passes]))
    m = {
        "setup_s": (setup_s, "s"),
        "pass_s": (table_s, "s"),
        "table_s": (table_s, "s"),
        "pretrain_s": (pretrain_s, "s"),
        "stream_samples_per_s": (len(streams) * n_target / sum(s.seconds for s in streams),
                                 "1/s"),
    }
    latencies, slowness = latency_metrics(streams, host, {"batch_ms_p50": 50})
    m.update(latencies)
    # each run_experiment and pretrain_source call is normalised by the host
    # samples just before and after it
    table_slowness = table_s / float(np.median([n for _, n, _, _ in passes]))
    slowness.update(pass_s=table_slowness, table_s=table_slowness, pretrain_s=pretrain_s / float(
        np.median([r["pretrain_norm"] for _, _, r, _ in passes])))
    for s in TABLE_STRATEGIES:
        f1s = [runs[s].macro_f1 for _, _, _, runs in passes if s in runs]
        if f1s:
            m[f"macro_f1.{s}"] = (float(np.median(f1s)), "F1")
    m["peak_rss_mb"] = (peak_rss_mb(), "MB")
    slowness.update(setup=host_setup.slowness(), other=host.slowness())
    return m, tally, len(passes), slowness


def _replicate_accup(cfg, host: HostSpeed) -> dict:
    """Set up a re-run of the table's ACCUP seed-0 run through the public API.

    Times one `pretrain_source` call (pretrain_s). Every stream later run
    from it must predict exactly what the table's accup run did.
    """
    sc = cfg.data
    train, target = data.generate_shifted_pair(
        sc.source, sc.target, (sc.n_source, sc.n_target), seed=sc.gen_seed)
    enc = backbone.EncoderConfig.from_dict({"in_channels": 2, **cfg.encoder})
    model = backbone.Model(enc, N_CLASSES, seed=0)
    t0 = perf_counter()
    backbone.pretrain_source(model, train.values, train.labels, epochs=cfg.pretrain_epochs,
                             batch_size=cfg.pretrain_batch, lr=cfg.pretrain_lr, seed=0)
    pretrain_s = perf_counter() - t0
    host.sample()
    stream = Stream(model, data.make_stream(target, cfg.batch_size), cfg.accup, 0)
    return {"model": model, "pretrain_s": pretrain_s,
            "pretrain_norm": pretrain_s / host.last_slowness(), "stream": stream, "streams": []}


def run(name: str, seed: int, seconds: float, sizes: Sizes, scratch: Path, tracer=None):
    if name == "desk-table":
        return run_table_workload(seed, seconds, sizes, scratch, tracer)
    return run_stream_workload(name, seed, seconds, sizes, tracer)

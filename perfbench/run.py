#!/usr/bin/env python3
"""tsadapt benchmark: three streaming workloads, end-to-end and per-layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk-accup-long --seed 0 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics with nothing wrapped. --trace 1
first makes the same untraced run, then installs the span tracer
(perfbench/tracer.py), runs again, and reports the per-layer metrics plus
the tracing overhead (traced minus untraced, per end-to-end timing).
Human-readable lines come first; the last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

End-to-end timings are normalised for the host's speed: each run times a
fixed numpy kernel (perfbench/reference.py) between its units of work and
divides each wall time by the run's slowness, kernel time over its nominal
time. The raw wall times and the slowness are printed and recorded too.

--out FILE merges this run's full record (environment, every metric,
overhead, span table) into FILE under the workload's name, in the
BENCH_<label>.json form. --smoke runs every workload, untraced and traced,
at tiny sizes and fails when any expected metric is missing.

The package is imported from src/ of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("desk-accup-long", "mfd-accup", "desk-table")

# the end-to-end and per-layer metrics every workload reports on the last line
E2E = ("setup_s", "pass_s", "stream_samples_per_s", "batch_ms_p50", "peak_rss_mb")
TIMINGS = ("setup_s", "pass_s", "stream_samples_per_s", "batch_ms_p50", "batch_ms_p90",
           "table_s", "pretrain_s")
LAYER = tuple(
    [f"autodiff.b{b}.{op}.{k}_ms" for b in range(3)
     for op in ("conv1d", "batch_norm1d", "relu", "max_pool1d") for k in ("fwd", "bwd")]
    + ["autodiff.head.fwd_ms", "autodiff.head.bwd_ms", "autodiff.backward_ms",
       "autodiff.tape_nodes"]
    + [f"autodiff.b{b}.out_mb" for b in range(3)]
    + ["autodiff.conv1d.gflop", "autodiff.conv1d.gflop_per_s", "autodiff.block_ops_share",
       "optim.adam_step_ms", "optim.params", "augment.apply_augment_ms",
       "backbone.encode_ms", "backbone.encode_calls"]
    + [f"accup.{f}_ms" for f in ("update_support", "compute_prototypes", "prototype_logits",
                                 "entropy_compare", "contrastive_loss")]
    + ["accup.support_entries", "accup.support_retained_ratio"]
    + [f"accup.compute_prototypes_ms.q{q}" for q in range(1, 5)]
    + ["adapt.adapt_batch_ms", "adapt.self_ms"]
)

# what each workload must emit beyond the shared lists (checked by --smoke)
EXTRA_E2E = {
    "desk-accup-long": ("batch_ms_p90", "macro_f1.accup", "failed_share"),
    "mfd-accup": ("failed_share",),
    "desk-table": ("table_s", "pretrain_s", "failed_share", "macro_f1.accup",
                   "macro_f1.source", "macro_f1.bn-stats", "macro_f1.tent",
                   "macro_f1.pseudo-label"),
}
TABLE_LAYER = (
    "backbone.pretrain_source_ms", "backbone.pretrain_steps",
    "baselines.source.batch_ms", "baselines.bn-stats.batch_ms", "baselines.tent.batch_ms",
    "baselines.pseudo-label.batch_ms", "data.generate_shifted_pair_ms", "data.generate_calls",
    "metrics.macro_f1_calls", "experiment.run_experiment_ms", "experiment.self_ms",
    "experiment.pretrain_calls",
)
EXTRA_LAYER = {
    "desk-accup-long": ("adapt.failed_batches",),
    "mfd-accup": ("adapt.failed_batches",),
    "desk-table": ("adapt.failed_batches",) + TABLE_LAYER,
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, help="merge the full record into this JSON file")
    p.add_argument("--smoke", action="store_true", help="tiny sizes, every workload")
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required unless --smoke is given")
    return args


def blas_info() -> dict:
    """OpenBLAS bundled with numpy: version string and threads in use."""
    import numpy as np

    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def cache_sizes() -> dict:
    """L1d, L2, L3 bytes from glibc's sysconf (0 when unknown)."""
    libc = ctypes.CDLL(None)
    libc.sysconf.restype = ctypes.c_long
    libc.sysconf.argtypes = [ctypes.c_int]
    # _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE
    return {name: max(int(libc.sysconf(code)), 0)
            for name, code in (("l1d", 188), ("l2", 191), ("l3", 194))}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "cache_bytes": cache_sizes(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "seed": seed,
        "loop": "closed, one client, one process",
        "wait_time": "not recorded: no layer queues work in the single-threaded loop",
    }


def fresh_import_seconds(src: Path, n: int) -> list:
    """Import time of the package in n fresh interpreters, one after another."""
    code = ("import time; t = time.perf_counter(); import scipy.interpolate, "
            "tsadapt.experiment; print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    return [float(subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                                 capture_output=True, text=True, timeout=120).stdout)
            for _ in range(n)]


def normalise(raw: dict, slowness: dict) -> dict:
    """Wall-time metrics divided by the run's host slowness (reference.py).

    setup_s uses the slowness sampled around the set-ups, the batch-latency
    quantiles their own (each batch normalised by the samples around it),
    every other timing the mean of the samples taken between batches; other
    metrics pass through.
    """
    out = {}
    for k, (v, unit) in raw.items():
        h = slowness.get(k, slowness["other"])
        out[k] = (v / h if unit in ("s", "ms") else v * h if unit == "1/s" else v, unit)
    return out


def measure(workloads, name, seed, seconds, sizes, import_s, tracer=None):
    """One workload run: (normalised and raw end-to-end metrics, slowness, tally, passes)."""
    raw, tally, passes, slowness = workloads.run(name, seed, seconds, sizes, ROOT, tracer)
    raw["setup_s"] = (raw["setup_s"][0] + import_s, "s")
    return normalise(raw, slowness), raw, slowness, tally, passes


def run_workload(name, args, sizes, import_s):
    """Untraced run, and with --trace 1 (or --smoke) a traced run after it."""
    import tracer as tr
    import workloads

    targets = tr.wrap_targets()
    m, raw, slowness, tally, _ = measure(workloads, name, args.seed, args.seconds, sizes,
                                         import_s)
    tally.check(tr.attributes_untouched(targets),
                "untraced run left a wrapped module attribute changed")
    record = {"end_to_end": m, "raw_end_to_end": raw, "host_slowness": slowness}
    if args.trace or args.smoke:
        tracer = tr.Tracer(targets)
        tracer.install()
        try:
            tm, _, _, ttally, passes = measure(workloads, name, args.seed, args.seconds, sizes,
                                               import_s, tracer)
        finally:
            tracer.uninstall()
        ttally.check(tr.attributes_untouched(targets),
                     "tracer left a module attribute wrapped after uninstall")
        tally.attempted += ttally.attempted
        tally.failed += ttally.failed
        tally.failures += ttally.failures
        pass_stats = tracer.phases["pass"]
        record["per_layer"] = tr.layer_metrics(pass_stats, passes)
        record["traced_end_to_end"] = tm
        record["trace_overhead"] = {
            k: {"untraced": m[k][0], "traced": tm[k][0],
                "traced_minus_untraced": tm[k][0] - m[k][0], "unit": m[k][1]}
            for k in TIMINGS if k in m and k in tm
        }
        record["spans"] = tr.span_table(pass_stats)
        record["passes_traced"] = passes
    m["failed_share"] = (tally.failed / tally.attempted, "share")
    record.update(attempted=tally.attempted, failed=tally.failed, failures=tally.failures)
    return record


def print_record(name, record):
    print(f"== {name}: {record['attempted']} attempted, {record['failed']} failed")
    for f in record["failures"]:
        print(f"   failed: {f}")
    for k, (v, unit) in record["end_to_end"].items():
        print(f"metric {name} {k} = {v:.6g} {unit}")
    for k, (v, unit) in record["raw_end_to_end"].items():
        print(f"raw {name} {k} = {v:.6g} {unit}")
    print(f"host slowness {name}: " + ", ".join(
        f"{k} {v:.4f}" for k, v in record["host_slowness"].items()))
    for k, o in record.get("trace_overhead", {}).items():
        print(f"overhead {name} {k}: untraced {o['untraced']:.6g}, traced {o['traced']:.6g}, "
              f"traced-untraced {o['traced_minus_untraced']:+.6g} {o['unit']}")
    for k, (v, unit) in record.get("per_layer", {}).items():
        print(f"layer {name} {k} = {v:.6g} {unit}")


def jsonable(record):
    out = dict(record)
    for key in ("end_to_end", "raw_end_to_end", "traced_end_to_end", "per_layer"):
        if key in out:
            out[key] = {k: {"value": v, "unit": u} for k, (v, u) in out[key].items()}
    return out


def smoke(args, import_s) -> int:
    import workloads

    args.seconds = 0.0  # the minimum number of passes

    missing = []
    for name in WORKLOADS:
        record = run_workload(name, args, workloads.SMOKE_SIZES[name], import_s)
        print_record(name, record)
        missing += [f"{name} {k}" for k in E2E + EXTRA_E2E[name]
                    if k not in record["end_to_end"]]
        missing += [f"{name} {k}" for k in LAYER + EXTRA_LAYER[name]
                    if k not in record["per_layer"]]
        missing += [f"{name} overhead {k}" for k in ("setup_s", "pass_s", "batch_ms_p50")
                    if k not in record["trace_overhead"]]
    for m in missing:
        print(f"smoke: missing {m}")
    print("smoke: ok" if not missing else f"smoke: {len(missing)} metrics missing")
    return 0 if not missing else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = perf_counter()
    # One BLAS thread: desk-scale products are too small to gain from a second,
    # whose spinning worker competed with the main thread for the host's cores
    # and made desk timings swing; mfd-accup ran no faster with two.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "tsadapt" / "__init__.py").is_file():
        print(f"benchmark: no tsadapt package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import scipy.interpolate  # noqa: F401  (imported by tsadapt.augment)
    import tsadapt
    import tsadapt.experiment  # noqa: F401  (pulls in every layer)

    if not Path(tsadapt.__file__).resolve().is_relative_to(src.resolve()):
        print(f"benchmark: tsadapt imported from {tsadapt.__file__}, not {src}",
              file=sys.stderr)
        return 2
    # setup_s counts the import once, as the median of this and two fresh imports
    import_s = statistics.median([perf_counter() - t0, *fresh_import_seconds(src, 2)])
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    if args.smoke:
        return smoke(args, import_s)

    import workloads

    record = run_workload(args.workload, args, workloads.SIZES[args.workload], import_s)
    record.update(seconds=args.seconds, seed=args.seed, trace=args.trace, environment=env)
    print_record(args.workload, record)
    if args.out:
        results = json.loads(args.out.read_text()) if args.out.is_file() else {}
        results.setdefault("workloads", {})[args.workload] = jsonable(record)
        args.out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")

    names = LAYER if args.trace else E2E
    source = record["per_layer"] if args.trace else record["end_to_end"]
    missing = [k for k in names if k not in source]
    out = {
        "correct": record["failed"] == 0 and not missing,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": source[k][0], "unit": source[k][1]}
                    for k in names if k in source},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

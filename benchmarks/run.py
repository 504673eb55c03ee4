"""CLTA benchmark: train and episodic-eval workloads, timed from outside.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload train-clta --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): train-clta, train-baselines, eval-softmax,
eval-cosine. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. The line before it holds the
details: environment, sample counts, the tail percentile and the run's
deterministic outputs.

--trace 0 reports the end-to-end metrics, every one on every workload:
  setup_s           median over 5 set-ups of one set-up's seconds scaled to a
                    machine on which the reference computation takes 20 ms
                    (the reference is timed before and after each set-up).
                    A set-up is the dataset generated and loaded back from
                    its files (eval-*: also the model trained and reloaded),
                    less the files' creation; see Bench.setup.
  op_ref.p50        median over operations of an operation's seconds over
                    the seconds of a fixed reference computation timed just
                    before and after it (workloads.reference_seconds). An
                    operation is an epoch, probe included (train-*), or one
                    run_episodes call (eval-*).
  final_train_loss  last-epoch mean training loss (eval-*: the frozen model's)
  peak_rss_mb       peak resident memory of this process
The details line holds the raw set-up seconds; the operations' raw seconds
with their mean, median and tail (the highest percentile with at least ten
samples beyond it, or the median below 21 samples) and count; eval
throughput; and mean_acc, the mean test-episode accuracy (eval-*) or the
last epoch's val-probe accuracy (train-*). Raw seconds are not end-to-end
metrics because a small shared VM runs up to 1.8x slower from one second
to the next, which moves their run medians by 20-30%, while op_ref.p50
moves by about 4%. mean_acc is not one because it varies with the seed's
five held-out classes far more than any bound allows.
--trace 1 patches timing spans around the package's public functions and
reports, for one traced set-up plus one measured unit, <span>.calls and
<span>.self_s for every span in tracing.SPANS and work counters; the
ratios videos_per_loss_call and adam_steps_per_episode are of the unit
alone. trace.covered_frac is the share of traced wall time inside some
outermost span. Each traced unit follows an untraced copy of itself, and
the two must give identical outputs; trace.overhead_frac is the median
over units of the traced copy's wall time over the untraced one's, less
one.

The benchmark writes its scratch files under .bench_work/ in the checkout
and removes them before it exits.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
TAIL_BEYOND = 10


def tail(samples):
    """(value, percentile): the highest percentile with >= 10 samples beyond
    it by nearest rank, or the median when that would fall below it."""
    xs = sorted(samples)
    k = len(xs) - 1 - TAIL_BEYOND
    if k < (len(xs) - 1) // 2:
        return statistics.median(xs), 50.0
    return xs[k], 100.0 * (k + 1) / len(xs)


def cpu_ticks():
    """(steal, total) CPU ticks of the whole machine, or None off Linux."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]), sum(int(x) for x in fields[1:])
    except (OSError, IndexError, ValueError):
        return None


def environment(clta_threads):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_vars": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "clta_threads_removed": clta_threads,
        "git_commit": commit,
        "platform": platform.platform(),
    }


def run_untraced(bench, work, seconds):
    from workloads import REF_NOMINAL_S, reference_seconds

    setup_s, setup_scaled = [], []
    for rep in range(bench.sizes.setup_reps):
        workdir = work / f"setup{rep}"
        before = reference_seconds()
        setup_s.append(bench.setup(workdir))
        speed = REF_NOMINAL_S / ((before + reference_seconds()) / 2)
        setup_scaled.append(setup_s[-1] * speed)
        shutil.rmtree(workdir)
        bench.check_setup()
    ticks0 = cpu_ticks()
    t0 = time.perf_counter()
    i = 0
    while i < bench.min_units or time.perf_counter() - t0 < seconds:
        bench.run_unit(i)
        i += 1
    ticks1 = cpu_ticks()
    bench.check_outputs()
    samples = bench.samples
    tail_s, tail_pct = tail(samples) if samples else (None, None)
    outputs = bench.outputs()
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "op_ref.p50": (statistics.median(bench.ratios) if bench.ratios else None, "ref"),
        "final_train_loss": (outputs["final_train_loss"], "nats"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    details = {"units": i, "samples": len(samples),
               "op_s.mean": statistics.fmean(samples) if samples else None,
               "op_s.p50": statistics.median(samples) if samples else None,
               "op_s.tail": tail_s, "op_s.tail_percentile": tail_pct,
               "setup_s_all": setup_s, "op_s_all": samples, "op_ref_all": bench.ratios}
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        # time the hypervisor gave the machine's CPUs to someone else
        details["steal_frac"] = (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
    if bench.workload.head is not None and samples:
        details["eval_episodes_per_s"] = (
            len(samples) * bench.sizes.eval_episodes[bench.workload.name] / sum(samples))
    return metrics, details


def run_traced(bench, work, seconds):
    from tracing import SPANS, Tracer

    tracer = Tracer()
    with tracer:
        t0 = time.perf_counter()
        bench.setup(work / "setup")
        setup_wall = time.perf_counter() - t0
    shutil.rmtree(work / "setup")
    bench.check_setup()
    setup = (dict(tracer.calls), dict(tracer.self_s), dict(tracer.counters), tracer.top_s)
    tracer.reset()
    plain_wall = traced_wall = 0.0
    slowdowns = []   # traced over untraced wall time, one per unit
    t0 = time.perf_counter()
    n = 0
    while n < bench.min_units or time.perf_counter() - t0 < seconds:
        plain = bench.run_unit(n)
        with tracer:
            traced = bench.run_unit(n, record_samples=False)
        plain_wall, traced_wall = plain_wall + plain, traced_wall + traced
        slowdowns.append(traced / plain)
        n += 1
    bench.check_outputs()

    def per_run(setup_value, unit_total):
        return setup_value + unit_total / n

    metrics = {}
    for s in SPANS:
        metrics[f"{s.name}.calls"] = (per_run(setup[0][s.name], tracer.calls[s.name]), "count")
        metrics[f"{s.name}.self_s"] = (per_run(setup[1][s.name], tracer.self_s[s.name]), "s")
    counts = {k: per_run(setup[2][k], tracer.counters[k]) for k in tracer.counters}

    def ratio(a, b):
        return a / b if b else 0.0

    # ratios describe the measured unit alone, not the set-up
    unit_calls, unit_counts = tracer.calls, tracer.counters
    metrics.update({
        "model.videos_per_loss_call": (
            ratio(unit_counts["model.videos"], unit_calls["model.loss_and_grads"]), "videos"),
        "attention.frames": (counts["attention.frames"], "frames"),
        "episodes.episodes": (counts["episodes.episodes"], "count"),
        "episodes.adam_steps_per_episode": (
            ratio(unit_calls["trainer.adam_step.episodes"], unit_counts["episodes.episodes"]),
            "count"),
        "io_files.bytes_written": (counts["io_files.bytes_written"], "bytes_computed"),
        "io_files.bytes_read": (counts["io_files.bytes_read"], "bytes_computed"),
        "trace.covered_frac": (
            (setup[3] + tracer.top_s) / (setup_wall + traced_wall), "fraction"),
        "trace.overhead_frac": (statistics.median(slowdowns) - 1.0, "fraction"),
    })
    return metrics, {"units": n, "traced_wall_s": traced_wall, "untraced_wall_s": plain_wall}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the benchmark's own smoke test")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "clta" / "__init__.py").is_file():
        sys.stderr.write(f"error: no clta package under {src}; run from a full checkout\n")
        return 2
    # episodes run serially, as `clta eval` does by default
    clta_threads = os.environ.pop("CLTA_THREADS", None)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    import clta
    if Path(clta.__file__).resolve().parent != (src / "clta").resolve():
        sys.stderr.write(f"error: imported clta from {clta.__file__}, not {src}\n")
        return 2
    from workloads import SIZES, WORKLOADS, Bench
    if args.workload not in WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}\n")
        return 2

    bench = Bench(WORKLOADS[args.workload], SIZES[args.size], args.seed,
                  calibrate=not args.trace)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
    try:
        run = run_traced if args.trace else run_untraced
        metrics, details = run(bench, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass  # another run still uses it

    for msg in bench.failures:
        sys.stderr.write(f"check failed: {msg}\n")
    details.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, size=args.size, outputs=bench.outputs(),
                   failures=bench.failures, env=environment(clta_threads))
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

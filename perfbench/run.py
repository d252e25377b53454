"""Desk-scale benchmark of imnav.

    python3 perfbench/run.py --workload train_base --seed 1 --seconds 30 --trace 0

Workloads: train_base, finetune, eval_policies (see workloads.py and
BENCHMARK.json). With --trace 0 the last line of standard output is a JSON
object with the end-to-end metrics; with --trace 1 the run also records
spans and counters and the JSON holds the per-layer metrics. The full
result, with machine facts and the whole per-module report, is written to
perfbench/_out/results/, and the spans of a traced run to perfbench/_out/spans/.
"""

import machine  # noqa: F401  (pins BLAS threads before numpy loads)

import argparse
import json
import math
import resource
import statistics
import sys
from pathlib import Path

import desk
import workloads as wl
from clock import TRAIN_LOOPS, Clock
from tracing import Tracer

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"
OUT = HERE / "_out"

# per workload kind, the names reports use for the shared end-to-end metrics
READABLE = {
    "train": {"episodes_per_s": "train_episodes_per_s", "iter_ms.p50": "train_iter_ms.p50",
              "iter_ms.p90": "train_iter_ms.p90"},
    "eval": {"episodes_per_s": "eval_episodes_per_s", "iter_ms.p50": "eval_episode_ms.p50",
             "iter_ms.p90": "eval_episode_ms.p90"},
}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # KiB on Linux


def execute(name, plan, seed, seconds, trace, reference, out_dir):
    """One run of one workload; returns the full result as a dict."""
    clock = Clock(enabled=not trace)
    tracer, ledger = Tracer(spans=trace, clock=clock), wl.Ledger()
    with tracer.installed():
        inputs, setup_walls, setup_speeds = wl.setup(name, plan, clock)
    if trace:
        overhead = tracing_overhead(name, plan, inputs, seed, tracer, ledger)
    with tracer.installed():
        tracer.phase = "measure"
        passes, ckpt = wl.measure(name, plan, inputs, seed, seconds, tracer, ledger, reference)
        tracer.phase = "checkpoint"
        path = out_dir / f"roundtrip-{name}-{seed}.ckpt"
        ledger.check(ckpt is not None and wl.roundtrip(ckpt, path),
                     f"{name}: checkpoint round trip")
        if path.exists():
            tracer.count("checkpoint_bytes", path.stat().st_size)
            path.unlink()
    rss = peak_rss_mb()
    result = dict(workload=name, seed=seed, seconds=seconds, trace=trace,
                  machine=machine.facts(), passes=len(passes), ref_seed=plan.ref_seed,
                  attempted=ledger.attempted, failed=ledger.failed, failures=ledger.failures,
                  metrics=wl.end_to_end(passes, setup_walls, setup_speeds, rss),
                  raw_metrics=wl.end_to_end(passes, setup_walls, setup_speeds, rss, ref=False))
    if trace:
        report = tracer.report(plan.setup_repeats)
        per = "per_iter" if isinstance(wl.WORKLOADS[name], wl.TrainWorkload) else "per_episode"
        report[f"tracing.overhead_ms_{per}"] = (overhead[0], "ms")
        report["tracing.overhead_share"] = (overhead[1], "ratio")
        result["layers"] = report
        spans = out_dir / "spans" / f"{name}-seed{seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(spans)
        result["spans"] = str(spans)
    return result


def tracing_overhead(name, plan, inputs, seed, tracer, ledger):
    """Traced minus untraced time of the reference pass, in ms per iteration
    or episode, and as a share. Untraced and traced passes alternate, twice
    each, and each is scaled by the calibration kernels run around it."""
    probe, plain = Clock(enabled=True), Tracer()
    speed = probe.kernel(TRAIN_LOOPS)
    per_item = {False: [], True: []}
    for traced in (False, True, False, True):
        recorder = tracer if traced else plain
        recorder.phase = "overhead"
        with recorder.installed():
            (timing,), _ = wl.measure(name, plan, inputs, seed, 0, recorder, ledger, None,
                                      min_passes=1)
        after = probe.kernel(TRAIN_LOOPS)
        per_item[traced].append(timing.work_ns * (speed + after) / 2 / len(timing.item_ns))
        speed = after
    traced_ns, plain_ns = statistics.median(per_item[True]), statistics.median(per_item[False])
    return (traced_ns - plain_ns) / 1e6, traced_ns / plain_ns - 1.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train_base", "finetune", "eval_policies"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    plan = wl.Plan(spec=desk.read_spec())
    reference = json.loads((wl.DATA_DIR / "reference.json").read_text(encoding="utf-8"))
    sizes = (reference["ref_seed"], reference["base_iterations"], reference["finetune_iterations"])
    if sizes != (plan.ref_seed, plan.base_iterations, plan.finetune_iterations):
        raise SystemExit(f"data/reference.json was recorded for (ref_seed, base_iterations, "
                         f"finetune_iterations) = {sizes}; record it again")
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    result = execute(args.workload, plan, args.seed, args.seconds, bool(args.trace),
                     reference, OUT)

    if args.trace:
        listed = bench["per_layer"]
        produced = {key: value for key, (value, _) in result["layers"].items()}
    else:
        listed, produced = bench["end_to_end"], result["metrics"]
    missing = [m["name"] for m in listed if m["name"] not in produced]
    if missing:
        raise SystemExit(f"metrics named in BENCHMARK.json were not produced: {missing}")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / "results" / name, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    print_readable(result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": finite_or_none(produced[m["name"]]), "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


def finite_or_none(value):
    """JSON has no nan: a metric that could not be measured prints as null."""
    return value if math.isfinite(value) else None


def print_readable(result):
    m = result["machine"]
    print(f"workload {result['workload']}  seed {result['seed']}  seconds {result['seconds']}  "
          f"trace {int(result['trace'])}  passes {result['passes']} "
          f"(reference seed {result['ref_seed']} first)")
    print(f"machine  nproc {m['nproc']}  python {m['python']}  numpy {m['numpy']}  "
          f"blas {m['blas']}  blas threads {m['blas_env']['OPENBLAS_NUM_THREADS']} "
          f"(inherited {m['inherited_blas_env']['OPENBLAS_NUM_THREADS']})")
    kind = "eval" if result["workload"] == "eval_policies" else "train"
    units = {"setup_s": "s", "episodes_per_s": "1/s", "peak_rss_mb": "MB"}
    print(f"  {'metric (BENCHMARK.json name)':44s} {'reported':>12s} {'raw wall':>12s}")
    for key, value in result["metrics"].items():
        label = f"{READABLE[kind].get(key, key)} ({key})"
        print(f"  {label:44s} {value:12.4f} {result['raw_metrics'][key]:12.4f} "
              f"{units.get(key, 'ms')}")
    rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':44s} {rate:12.4f} ratio "
          f"({result['failed']} failed of {result['attempted']} operations)")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    for key, (value, unit) in sorted(result.get("layers", {}).items()):
        print(f"  {key:56s} {value:12.4f} {unit}")


if __name__ == "__main__":
    sys.exit(main())

"""Summarize saved benchmark results into one BENCH file.

    python3 perfbench/summarize.py OUT.json [RESULT.json ...]

Reads the per-run results that run.py writes to perfbench/_out/results/ (all
of them when none are named) and writes, per workload, the median and the
quartile spread of every end-to-end metric over the untraced runs, the
per-module report of each traced run, and `desk_seed_s_projected`: one desk
seed (`imnav ablate --spec experiments/desk.cfg`, one seed) projected from
the medians as set-up + 1600 base iterations + 3 x 1400 finetune iterations
(imagine, no_aux, infonce) + 840 greedy episodes (7 conditions x 2 splits x
60). The projection is reported, not gated; `_raw_wall` uses raw wall times
instead of times at the reference machine speed (see clock.py).
"""

import json
import statistics
import sys
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "_out" / "results"


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv):
    if not argv:
        raise SystemExit(__doc__)
    out, paths = Path(argv[0]), [Path(p) for p in argv[1:]] or sorted(RESULTS.glob("*.json"))
    runs = [json.loads(p.read_text(encoding="utf-8")) for p in paths]
    summary = {"machine": runs[0]["machine"], "workloads": {}}
    for name in sorted({r["workload"] for r in runs}):
        plain = [r for r in runs if r["workload"] == name and not r["trace"]]
        traced = [r for r in runs if r["workload"] == name and r["trace"]]
        entry = {"runs": len(plain), "seeds": [r["seed"] for r in plain],
                 "seconds": sorted({r["seconds"] for r in runs if r["workload"] == name}),
                 "attempted": sum(r["attempted"] for r in plain),
                 "failed": sum(r["failed"] for r in plain)}
        for kind in ("metrics", "raw_metrics"):
            entry[kind] = {k: {"median": statistics.median(r[kind][k] for r in plain),
                               "iqr_over_median": spread([r[kind][k] for r in plain])}
                           for k in plain[0][kind]} if len(plain) > 1 else {}
        entry["layers"] = [{"seed": r["seed"], "report": r["layers"]} for r in traced]
        summary["workloads"][name] = entry

    w = summary["workloads"]
    if {"train_base", "finetune", "eval_policies"} <= set(w):
        for kind, key in (("metrics", "desk_seed_s_projected"),
                          ("raw_metrics", "desk_seed_s_projected_raw_wall")):
            def p50(name):
                return w[name][kind]["iter_ms.p50"]["median"] / 1e3
            setup = statistics.median(w[n][kind]["setup_s"]["median"] for n in w)
            summary[key] = (setup + 1600 * p50("train_base") + 3 * 1400 * p50("finetune")
                            + 840 * p50("eval_policies"))
    out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for key in sorted(k for k in summary if k.startswith("desk_seed")):
        print(f"{key}: {summary[key]:.1f} s = {summary[key] / 60:.1f} min")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

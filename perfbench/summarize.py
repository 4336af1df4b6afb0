"""Summarise the runs recorded under .perfbench/results.

    python3 perfbench/summarize.py [--baseline]

For each workload and end-to-end metric it prints the median over the
recorded seeds, the quartiles, and the spread (distance between the
quartiles as a share of the median), with the load averages seen.  The
traced runs give the median of each per-layer metric.  --baseline also
writes perfbench/baseline.json: these figures, the environment, and for
every per-layer metric the end-to-end metric and workloads it should
move.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402

END_TO_END = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")


def spread(values):
    if len(values) < 2:
        return None
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "n": len(values)}


def load(pattern):
    out = {}
    for path in sorted(glob.glob(pattern)):
        with open(path) as f:
            rec = json.load(f)
        out.setdefault(rec["workload"], []).append(rec)
    return out


def summarize(results_dir):
    plain = load(os.path.join(results_dir, "*-trace0.json"))
    traced = load(os.path.join(results_dir, "*-trace1.json"))
    summary = {}
    for name in run.WORKLOADS:
        recs = plain.get(name, [])
        entry = {"seeds": sorted(r["seed"] for r in recs),
                 "all_correct": all(not r["failures"] and not r["timed_out"]
                                    for r in recs),
                 "loadavg": [[r["env"]["loadavg_before"],
                              r["env"]["loadavg_after"]] for r in recs],
                 "end_to_end": {}, "per_layer": {}}
        for m in END_TO_END:
            entry["end_to_end"][m] = spread(
                [r["metrics"][m][0] for r in recs if r["metrics"]])
        trecs = [r for r in traced.get(name, []) if r["metrics"]]
        for m in layers.PER_LAYER:
            vals = [r["metrics"][m["name"]][0] for r in trecs]
            entry["per_layer"][m["name"]] = (statistics.median(vals)
                                             if vals else None)
        summary[name] = entry
    return summary


def main():
    results_dir = os.path.join(run.WORK, "results")
    summary = summarize(results_dir)
    for name, entry in summary.items():
        print("%s  seeds %s  all correct %s" % (name, entry["seeds"],
                                                entry["all_correct"]))
        for m, s in entry["end_to_end"].items():
            if s:
                print("  %-12s median %12.6f  q1 %12.6f  q3 %12.6f  "
                      "spread %.4f  (n=%d)" % (m, s["median"], s["q1"],
                                               s["q3"], s["spread"], s["n"]))
    if "--baseline" in sys.argv[1:]:
        envs = [r["env"] for recs in load(os.path.join(
            results_dir, "*.json")).values() for r in recs]
        base = {
            "environment": {k: sorted({e[k] for e in envs})
                            for k in ("python", "nproc", "commit",
                                      "src_sha256")},
            "workloads": summary,
            "per_layer_predictions": {
                m["name"]: {"moves": m["moves"], "on": m["on"]}
                for m in layers.PER_LAYER},
        }
        with open(os.path.join(HERE, "baseline.json"), "w") as f:
            json.dump(base, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()

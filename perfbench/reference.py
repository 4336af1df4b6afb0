"""Record the reference digests that judge every benchmark invocation.

    python3 perfbench/reference.py

Run it from the root of a checkout whose reports are known to be right.
For every (workload, pair, suite), `validate` included, it runs
`liepairs check` with seeds 0 and 1, requires exit code 0 and every
check passing, and requires the sha256 of the `artifacts` section to be
the same for both seeds.  It writes that digest, the sha256 of each
full report (recorded, not gated: the report holds the seed) and the
sha256 of each pair's JSON bytes to perfbench/reference.json.
"""

import json
import sys

import run

SEEDS = (0, 1)


def main():
    ref = {"seeds": list(SEEDS), "pairs": {}, "invocations": {}}
    for w in run.WORKLOADS.values():
        for name in w.pair_names:
            ref["pairs"][name] = run.sha256(run.pair_bytes(".", name))
    for w in run.WORKLOADS.values():
        by_seed = {}
        for seed in SEEDS:
            bench = run.Bench(w, seed, 0, ref)
            bench.prepare()
            with bench:
                for pair in w.pair_names:
                    for suite in ("validate",) + w.suites:
                        rec = bench.invoke(pair, suite)
                        ok, reason, _, _ = run.judge(
                            rec["exit_code"], rec["data"],
                            rec["artifacts_sha256"])
                        if not ok:
                            sys.exit("error: %s/%s/%s seed %d: %s"
                                     % (w.name, pair, suite, seed, reason))
                        by_seed.setdefault((pair, suite), []).append(rec)
        for (pair, suite), recs in by_seed.items():
            digests = {r["artifacts_sha256"] for r in recs}
            if len(digests) != 1:
                sys.exit("error: %s/%s/%s artifacts depend on the seed"
                         % (w.name, pair, suite))
            entry = {"artifacts": digests.pop()}
            for seed, r in zip(SEEDS, recs):
                entry["report_seed%d" % seed] = r["report_sha256"]
            ref["invocations"]["%s/%s/%s" % (w.name, pair, suite)] = entry
            print("%s/%s/%s %s" % (w.name, pair, suite, entry["artifacts"]))
    with open(run.REFERENCE, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()

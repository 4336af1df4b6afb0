"""Benchmark of `liepairs check`, timed from outside the process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, in turn

Run it from the root of a liepairs checkout.  This process runs the
workload's invocations one after another (a closed loop with a single
client), so at most one check process runs at a time; each is spawned
through the small helper of spawner.py, so that its max RSS is its own
and not this process's.  A pass runs every (pair, suite) of the workload
once; passes repeat until the next one would end after --seconds, with
at least two.  Set-up time is the wall time of `--suite validate` on
the workload's pairs, as a median over at least 7 rounds and 3 seconds
of them.  Peak RSS is the highest max RSS of any invocation.

Every invocation is judged: it fails if it exits non-zero, if any check
is not `pass`, or if the sha256 of its report's `artifacts` section
differs from perfbench/reference.json.  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; with --trace 1 the metrics are the per-layer ones of
perfbench/layers.py, from one traced pass between two untraced ones.
"""

import argparse
import compileall
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import pairs  # noqa: E402
import tracer  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")
WORK = ".perfbench"
RUN_LIMIT_S = 170.0
SETUP_ROUNDS = 7
SETUP_SECONDS = 3.0
MIN_PASSES = 2


class Workload:

    def __init__(self, name, why, pair_names, suites, trunc, arity):
        self.name = name
        self.why = why
        self.pair_names = pair_names
        self.suites = suites
        self.trunc = trunc
        self.arity = arity


WORKLOADS = {w.name: w for w in [
    Workload("dim3-all",
             "what a user runs: every suite on the five shipped dim-3 pairs",
             ("abelian", "heisenberg_center", "heisenberg_x", "sl2_borel",
              "sl2_h"), ("all",), trunc=4, arity=2),
    Workload("wide-cohomology",
             "heis5_lag: wide small complexes where perturbed tau/d_small, "
             "pbw_inv and rref dominate",
             ("heis5_lag",), ("contraction", "cohomology"),
             trunc=4, arity=2),
    Workload("rank3-fedosov",
             "sl3_borel: only the resolution kernel, Weyl.solve and the q^2 "
             "check on word algebra",
             ("sl3_borel",), ("fedosov",), trunc=3, arity=1),
]}


def pair_bytes(root, name):
    """The JSON bytes of a workload pair: generated, or read from pairs/."""
    if name in pairs.GENERATED:
        return pairs.spec_bytes(pairs.GENERATED[name]())
    with open(os.path.join(root, "pairs", name + ".json"), "rb") as f:
        return f.read()


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def artifacts_digest(report):
    canon = json.dumps(report["artifacts"], sort_keys=True,
                       separators=(",", ":"))
    return sha256(canon.encode())


def judge(exit_code, report_bytes, expected):
    """(ok, reason, artifacts digest, report digest) of one invocation."""
    if exit_code != 0:
        return False, "exit code %s" % exit_code, None, None
    try:
        report = json.loads(report_bytes)
        digest = artifacts_digest(report)
        bad = [c["name"] for c in report["checks"] if c["status"] != "pass"]
    except (ValueError, KeyError, TypeError):
        return False, "report is not a liepairs JSON report", None, None
    full = sha256(report_bytes)
    if bad:
        return False, "checks not passed: %s" % ", ".join(bad), digest, full
    if digest != expected:
        return False, "artifacts digest %s != reference" % digest[:12], \
            digest, full
    return True, "", digest, full


class InvocationTimeout(Exception):
    pass


class Spawner:
    """The helper process of spawner.py, which runs each command."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", os.path.join(HERE, "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            start_new_session=True)

    def run(self, argv, env, out, err, timeout):
        """(wall s, cpu s, max RSS MB, exit code) of argv; the exit code
        is None when the command was killed at the timeout."""
        self.proc.stdin.write(json.dumps(
            {"argv": argv, "env": env, "out": out, "err": err,
             "timeout": timeout}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process ended")
        r = json.loads(line)
        return r["wall_s"], r["cpu_s"], r["rss_mb"], r["code"]

    def close(self):
        """Kill the helper's process group, the running command with it,
        and wait until no process of the group is left."""
        pgid = self.proc.pid
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.01)


class Bench:
    """One run of one workload in a checkout; a context manager that
    owns the spawner process."""

    def __init__(self, workload, seed, seconds, reference, root="."):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.root = os.path.abspath(root)
        self.src = os.path.join(self.root, "src")
        self.work = os.path.join(self.root, WORK, "%s-seed%d" % (
            workload.name, seed))
        self.started = time.perf_counter()
        self.env = dict(os.environ, PYTHONPATH=self.src)
        self.attempted = 0
        self.failures = []
        self.invocations = []
        self.pair_paths = {}
        self.reference = reference
        self.spawner = None

    def __enter__(self):
        self.spawner = Spawner()
        return self

    def __exit__(self, *exc):
        self.spawner.close()

    # -- preparation --------------------------------------------------------

    def prepare(self):
        """Check the checkout, compile the sources and write the pairs;
        exits with a message when the checkout cannot be benchmarked."""
        if not os.path.isfile(os.path.join(self.src, "liepairs", "cli.py")):
            sys.exit("error: no liepairs sources under %s" % self.src)
        compileall.compile_dir(os.path.join(self.src, "liepairs"), quiet=1)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        for name in self.w.pair_names:
            try:
                data = pair_bytes(self.root, name)
            except OSError as e:
                sys.exit("error: cannot read pair: %s" % e)
            if sha256(data) != self.reference["pairs"].get(name):
                sys.exit("error: pair %s differs from the reference" % name)
            path = os.path.join(self.root, "pairs", name + ".json")
            if name in pairs.GENERATED:
                path = os.path.join(self.work, name + ".json")
                with open(path, "wb") as f:
                    f.write(data)
            self.pair_paths[name] = path

    # -- invocations ----------------------------------------------------------

    def invoke(self, pair, suite, traced=False):
        """Run and judge one `liepairs check`; returns its record."""
        tag = "%04d-%s-%s" % (len(self.invocations) + 1, pair, suite)
        out = os.path.join(self.work, tag + ".report.json")
        args = ["check", "--pair", self.pair_paths[pair], "--suite", suite,
                "--trunc", str(self.w.trunc), "--arity", str(self.w.arity),
                "--seed", str(self.seed), "--out", out]
        spans = None
        if traced:
            spans = os.path.join(self.work, tag + ".spans")
            inv_id = "%s/%s" % (self.w.name, tag)
            argv = [sys.executable, os.path.join(HERE, "tracer.py"),
                    self.src, spans, inv_id] + args
        else:
            argv = [sys.executable, "-m", "liepairs.cli"] + args
        left = RUN_LIMIT_S - (time.perf_counter() - self.started)
        wall, cpu, rss, code = self.spawner.run(
            argv, self.env, os.devnull,
            os.path.join(self.work, tag + ".err"), left)
        try:
            with open(out, "rb") as f:
                data = f.read()
        except OSError:
            data = b""
        key = "%s/%s/%s" % (self.w.name, pair, suite)
        expected = self.reference["invocations"].get(key, {}).get(
            "artifacts")
        ok, reason, digest, full = judge(code, data, expected)
        self.attempted += 1
        rec = {"pair": pair, "suite": suite, "traced": traced,
               "exit_code": code, "wall_s": wall, "cpu_s": cpu,
               "rss_mb": rss, "ok": ok, "artifacts_sha256": digest,
               "report_sha256": full,
               "spans": spans, "data": data, "expected": expected}
        if not ok:
            self.failures.append("%s: %s" % (key, reason))
        self.invocations.append(rec)
        if code is None:
            raise InvocationTimeout(key)
        return rec

    def setup_round(self):
        """Wall time of --suite validate on every pair of the workload."""
        return sum(self.invoke(p, "validate")["wall_s"]
                   for p in self.w.pair_names)

    def run_pass(self, traced=False):
        recs = [self.invoke(p, s, traced) for p in self.w.pair_names
                for s in self.w.suites]
        return (sum(r["wall_s"] for r in recs),
                sum(r["cpu_s"] for r in recs), recs)

    def negative_control(self):
        """A wrong reference digest must fail the first judged report."""
        rec = self.invocations[0]
        wrong = sha256(b"not the reference")
        ok = judge(0, rec["data"], wrong)[0]
        return not ok

    # -- the two kinds of run ------------------------------------------------

    def measure(self):
        setups = []
        t0 = time.perf_counter()
        while (len(setups) < SETUP_ROUNDS
               or time.perf_counter() - t0 < SETUP_SECONDS):
            setups.append(self.setup_round())
        walls, cpus = [], []
        t0 = time.perf_counter()
        while True:
            wall, cpu, _ = self.run_pass()
            walls.append(wall)
            cpus.append(cpu)
            elapsed = time.perf_counter() - t0
            per_pass = elapsed / len(walls)
            if (len(walls) >= MIN_PASSES
                    and elapsed + per_pass > self.seconds):
                break
        rss = [r["rss_mb"] for r in self.invocations]
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (max(rss), "MB"),
        }
        samples = {"wall_s": walls, "cpu_s": cpus, "setup_s": setups,
                   "peak_rss_mb": rss}
        return metrics, samples

    def trace(self):
        """A traced pass between two untraced ones, so that a steady
        drift in machine speed cancels from the overhead ratio."""
        self.setup_round()
        plain = [self.run_pass()[0]]
        traced, _, recs = self.run_pass(traced=True)
        plain.append(self.run_pass()[0])
        stats = layers.SpanStats()
        for rec in recs:
            if os.path.exists(rec["spans"] + ".json"):
                stats.add(*tracer.read_spans(rec["spans"]))
        metrics = {}
        for m in layers.PER_LAYER:
            if m["name"] == "trace.overhead":
                value = traced / statistics.mean(plain)
            else:
                value = stats.value(m["name"])
            metrics[m["name"]] = (value, m["unit"])
        return metrics, {"untraced_wall_s": plain, "traced_wall_s": [traced]}


def environment(root):
    try:
        with open(os.path.join(root, ".git", "HEAD")) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:])) as f:
                head = f.read().strip()
    except OSError:
        head = None
    h = hashlib.sha256()
    src = os.path.join(root, "src", "liepairs")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return {"python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)),
            "commit": head, "src_sha256": h.hexdigest()}


def load_reference():
    try:
        with open(REFERENCE) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        sys.exit("error: cannot read reference digests: %s" % e)


def run_workload(workload, seed, seconds, trace):
    bench = Bench(workload, seed, seconds, load_reference())
    bench.prepare()
    env = environment(bench.root)
    env["loadavg_before"] = os.getloadavg()[0]
    timed_out = None
    metrics, samples = {}, {}
    with bench:
        try:
            metrics, samples = bench.trace() if trace else bench.measure()
        except InvocationTimeout as e:
            timed_out = str(e)
    env["loadavg_after"] = os.getloadavg()[0]
    control_ok = bool(bench.invocations) and bench.negative_control()
    failed = len(bench.failures)
    correct = failed == 0 and control_ok and timed_out is None
    summary = {
        "workload": workload.name, "seed": seed, "trace": trace,
        "env": env, "samples": samples, "negative_control_ok": control_ok,
        "timed_out": timed_out, "failures": bench.failures,
        "fail_frac": failed / max(bench.attempted, 1),
        "invocations": [{k: v for k, v in r.items()
                         if k not in ("data", "expected")}
                        for r in bench.invocations],
    }
    results = os.path.join(bench.root, WORK, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-seed%d-trace%d.json" % (
            workload.name, seed, trace)), "w") as f:
        json.dump(dict(summary, metrics=metrics), f, indent=1)
    result = {"correct": correct, "attempted": bench.attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    return summary, result


def print_summary(summary, result):
    env = summary["env"]
    print("workload %s  seed %d  trace %d  python %s  nproc %d  "
          "load %.2f -> %.2f" % (summary["workload"], summary["seed"],
                                 summary["trace"], env["python"],
                                 env["nproc"], env["loadavg_before"],
                                 env["loadavg_after"]))
    for name, m in result["metrics"].items():
        n = len(summary["samples"].get(name, [])) or 1
        print("  %-40s %14.6f %-6s (n=%d)" % (name, m["value"], m["unit"],
                                              n))
    print("  %-40s %14.6f %-6s (%d/%d)" % (
        "fail_frac", summary["fail_frac"], "ratio", result["failed"],
        result["attempted"]))
    for line in summary["failures"]:
        print("  FAIL " + line)
    if not summary["negative_control_ok"]:
        print("  negative control: a wrong digest was not detected")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM the running check is still killed (Bench.__exit__).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        summary, result = run_workload(WORKLOADS[name], args.seed,
                                       args.seconds, args.trace)
        print_summary(summary, result)
        results[name] = result
    if args.workload == "all":
        ok = all(r["correct"] for r in results.values())
        print(json.dumps({"correct": ok, "workloads": results}))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

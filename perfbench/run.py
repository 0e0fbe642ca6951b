#!/usr/bin/env python3
"""Repository benchmark: simulated n+ rounds per second, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call builds the library,
`nplus-bench` (bench/nplus_bench.cc) and `perfbench-probe` (perfbench/probe.cc)
into `$CARGO_TARGET_DIR` (default `.bench_build`); later calls only check that
the build is current. Workloads are nplus-bench configs listed in
perfbench/workloads.json; the seed replaces the config's `seed` line.

--trace 0 (timed run): setup_s is the median of timed passes of
generate_topology + make_world over the sweep's items, repeated for a quarter
of S (first pass discarded). Then `nplus-bench` sweeps the workload in one
process with min(nproc, 4) pool threads, back to back for the rest of S after
one discarded warm-up sweep; rounds_per_s is the median sweep's rounds/s.
peak_rss_mb is the peak RSS of the reference sweep. Every sweep must exit 0,
report "complete": true and be byte-equal to the reference: a `--threads 1`
sweep of the same config, which must itself match the pinned digest in
perfbench/reference.json when the seed has one.

--trace 1 (traced run): `perfbench-probe trace` runs every item's session
single-threaded and times each layer's public functions on the item's own
world; then timed sweeps as above give the parallel efficiency. The probe's
per-item results must equal the timed sweeps' (same stream layout).

The last stdout line is one JSON object: correct, attempted, failed (sessions
checked / sessions that failed a check) and metrics. Exit status is 0 when the
run completed, whether or not every check passed; 1 when it could not run.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(HERE, "workloads.json")
REFERENCE = os.path.join(HERE, "reference.json")
MAX_THREADS = 4
SETUP_SHARE = 0.25  # of --seconds, for the setup passes of a timed run


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(jobs):
    """Configures and brings both executables up to date (both steps are
    quick no-ops on a current build)."""
    out = build_dir()
    for cmd in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "-j", str(jobs),
                 "--target", "nplus-bench", "perfbench-probe"]):
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if p.returncode != 0:
            log(p.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(out, "nplus-bench"), os.path.join(out, "perfbench-probe")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_record(probe, threads):
    rec = json.loads(run_checked([probe, "host"]))
    rec.update({"nproc": os.cpu_count(), "pool_threads": threads,
                "cpu_model": cpu_model(), "machine": platform.machine()})
    return rec


def run_checked(cmd):
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if p.returncode != 0:
        log(p.stderr[-4000:])
        raise BenchError("failed: " + " ".join(cmd))
    return p.stdout


def write_config(spec, seed, work, tiny):
    """The workload's nplus-bench config with the benchmark's seed."""
    with open(os.path.join(HERE, spec["config"])) as f:
        lines = f.read().splitlines()
    out = []
    for line in lines:
        key = line.split("=", 1)[0].strip()
        if key == "seed":
            line = "seed = %d" % seed
        elif tiny and key == "rounds":
            line = "rounds = 4"
        elif tiny and key == "worlds_per_point":
            line = "worlds_per_point = 1"
        out.append(line)
    path = os.path.join(work, "workload.cfg")
    with open(path, "w") as f:
        f.write("\n".join(out) + "\n")
    return path


class Sweep:
    """One nplus-bench process: exit status, result bytes, wall, peak RSS."""

    def __init__(self, bench, cfg, threads, work):
        out = os.path.join(work, "sweep.json")
        timing = os.path.join(work, "timing.json")
        for path in (out, timing):
            if os.path.exists(path):
                os.remove(path)
        proc = subprocess.Popen(
            [bench, cfg, "--threads", str(threads), "--out", out, "--timing", timing],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        # wait4 reaps the child and returns its own resource usage.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = self.exit_code = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.raw, self.doc, self.wall_s = b"", None, None
        try:
            with open(out, "rb") as f:
                self.raw = f.read()
            self.doc = json.loads(self.raw)
            with open(timing) as f:
                self.wall_s = json.load(f)["wall_s"]
        except (OSError, ValueError, KeyError):
            pass

    def sessions(self):
        if not isinstance(self.doc, dict):
            return []
        return [s for pt in self.doc.get("points", []) for s in pt.get("sessions", [])]

    def ok(self):
        return (self.exit_code == 0 and isinstance(self.doc, dict)
                and self.doc.get("complete") is True and self.wall_s is not None)

    def rounds(self):
        return sum(s["rounds"] for s in self.sessions())


def failed_sessions(sweep, expected, reference_raw=None):
    """Sessions of `sweep` that fail the output check against `expected`
    (the reference's session list). An unfinished sweep fails whole, and so
    does one whose bytes differ from `reference_raw` only outside its
    sessions (the embedded trace summary)."""
    if not sweep.ok() or len(sweep.sessions()) != len(expected):
        return len(expected)
    bad = sum(1 for a, b in zip(sweep.sessions(), expected) if a != b)
    if reference_raw is not None and sweep.raw != reference_raw and bad == 0:
        bad = len(expected)
    return bad


def timed_sweeps(bench, cfg, threads, work, seconds, expected, reference_raw):
    """One discarded warm-up sweep (its output is still checked), then sweeps
    back to back for `seconds`. Returns the timed sweeps and the sessions
    attempted and failed across all of them."""
    checked = [Sweep(bench, cfg, threads, work)]
    end = time.monotonic() + seconds
    while time.monotonic() < end or len(checked) < 4:
        checked.append(Sweep(bench, cfg, threads, work))
    failed = sum(failed_sessions(s, expected, reference_raw) for s in checked)
    return checked[1:], len(expected) * len(checked), failed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def pinned_digest(workload, seed):
    try:
        with open(REFERENCE) as f:
            return json.load(f).get(workload, {}).get(str(seed))
    except (OSError, ValueError):
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink the workload to a smoke size (self-test)")
    ap.add_argument("--print-digest", action="store_true",
                    help="print the sha256 of the reference sweep and exit")
    args = ap.parse_args()

    with open(SPEC) as f:
        spec_all = json.load(f)["workloads"]
    if args.workload not in spec_all:
        raise BenchError("unknown workload %r (have %s)"
                         % (args.workload, ", ".join(sorted(spec_all))))
    spec = spec_all[args.workload]
    threads = max(1, min(len(os.sched_getaffinity(0)), MAX_THREADS))
    bench, probe = build(threads)
    work = os.path.join(build_dir(), "work", args.workload)
    os.makedirs(work, exist_ok=True)
    cfg = write_config(spec, args.seed, work, args.tiny)
    host = host_record(probe, threads)
    print("host: " + json.dumps(host, sort_keys=True))
    print("workload: %s seed %d%s, %d pool threads"
          % (args.workload, args.seed, " (tiny)" if args.tiny else "", threads))

    pinned = None if args.tiny else pinned_digest(args.workload, args.seed)
    metrics = {}
    report = {"host": host, "workload": args.workload, "seed": args.seed,
              "trace": args.trace, "pinned_reference": pinned is not None}

    if args.trace == 0 or args.print_digest:
        # The reference: a single-threaded sweep of the same config.
        ref = Sweep(bench, cfg, 1, work)
        digest = hashlib.sha256(ref.raw).hexdigest()
        if args.print_digest:
            print(digest)
            return 0 if ref.ok() else 1
        expected = ref.sessions()
        if not expected:
            raise BenchError("the reference sweep produced no sessions")
        attempted, failed = len(expected), 0
        if not ref.ok() or (pinned is not None and pinned != digest):
            log("the reference sweep failed or differs from its pinned digest")
            failed = len(expected)

        budget_ms = int(1000 * SETUP_SHARE * args.seconds)
        setup = json.loads(run_checked(
            [probe, "setup", cfg, "--seed", str(args.seed),
             "--budget-ms", str(budget_ms)]))["setup_s"]
        setup = setup[1:]  # the first pass pays for cold caches
        runs, n_att, n_fail = timed_sweeps(bench, cfg, threads, work,
                                           args.seconds - budget_ms / 1000.0,
                                           expected, ref.raw)
        attempted += n_att
        failed += n_fail
        rates = [s.rounds() / s.wall_s for s in runs if s.ok() and s.wall_s > 0]
        if not rates:
            raise BenchError("no sweep completed")
        metrics = {
            "rounds_per_s": {"value": statistics.median(rates), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": ref.peak_rss_mb, "unit": "MB"},
        }
        q1, q3 = quartiles(rates)
        print("rounds_per_s = %.6g 1/s  (median of %d sweeps, quartiles %.6g .. %.6g, "
              "%d rounds per sweep)" % (metrics["rounds_per_s"]["value"], len(rates),
                                        q1, q3, runs[0].rounds()))
        print("setup_s = %.6g s  (median of %d passes over %d items)"
              % (metrics["setup_s"]["value"], len(setup), len(expected)))
        print("peak_rss_mb = %.6g MB  (the single-threaded reference sweep; pooled "
              "sweeps peaked at %.6g MB median)" % (
                  ref.peak_rss_mb, statistics.median(s.peak_rss_mb for s in runs)))
        report.update({"rounds_per_s": rates, "setup_s": setup,
                       "peak_rss_mb": ref.peak_rss_mb,
                       "pooled_peak_rss_mb": [s.peak_rss_mb for s in runs]})
    else:
        spans = os.path.join(work, "spans.json")
        traced = json.loads(run_checked(
            [probe, "trace", cfg, "--seed", str(args.seed), "--spans", spans]))
        # The probe replays the runner's stream layout, so the timed sweeps'
        # per-item results must equal the probe's.
        expected = traced["sessions"]
        runs, attempted, failed = timed_sweeps(bench, cfg, threads, work, args.seconds,
                                               expected, None)
        if pinned is not None and hashlib.sha256(runs[0].raw).hexdigest() != pinned:
            log("the sweep differs from its pinned digest")
            failed += len(expected)
        walls = [s.wall_s for s in runs if s.ok()]
        if not walls:
            raise BenchError("no sweep completed")
        wall = statistics.median(walls)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            units = {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}
        values = dict(traced["metrics"], **traced["counts"])
        values["runner.parallel_eff"] = sum(traced["item_host_s"]) / (threads * wall)
        metrics = {name: {"value": v, "unit": units.get(name, "count")}
                   for name, v in values.items()}
        for name in sorted(metrics):
            print("%-28s %.6g %s" % (name, metrics[name]["value"], metrics[name]["unit"]))
        print("spans: %s" % os.path.relpath(spans, ROOT))
        report.update({"sweep_wall_s": walls, "probe": traced["metrics"]})

    error_ratio = failed / attempted
    print("error_ratio = %.6g ratio  (%d of %d sessions failed a check)"
          % (error_ratio, failed, attempted))
    report.update({"attempted": attempted, "failed": failed, "metrics": metrics})
    report_path = os.path.join(work, "report-trace%d.json" % args.trace)
    with open(report_path, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    print("report: %s" % os.path.relpath(report_path, ROOT))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)

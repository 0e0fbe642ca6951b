#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. BENCHMARK.json, perfbench/workloads.json and perfbench/reference.json agree:
   the same workloads, a default and a held-out seed for each (both pinned),
   and a layer table entry for every per-layer metric but the call counts.
2. Every workload completes at a tiny size in both modes with no failed
   session (error_ratio 0), and prints exactly the metric names
   BENCHMARK.json lists for that mode.
3. A run compared against itself passes compare.py. With rounds_per_s slowed
   by an injected factor, the comparison is not flagged at half the metric's
   bound and is flagged at twice it.

Exit status 0 when every check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import compare  # noqa: E402


def result_line(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if p.returncode != 0:
        raise AssertionError("%s exited %d" % (" ".join(cmd), p.returncode))
    return json.loads(p.stdout.strip().splitlines()[-1])


def main():
    spec = compare.load_spec()
    with open(os.path.join(HERE, "workloads.json")) as f:
        local = json.load(f)
    with open(os.path.join(HERE, "reference.json")) as f:
        pinned = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    failures = []

    def check(ok, what):
        print("%s  %s" % ("ok  " if ok else "FAIL", what))
        if not ok:
            failures.append(what)

    check(sorted(names) == sorted(local["workloads"]),
          "workloads.json lists the BENCHMARK.json workloads")
    for w in names:
        seeds = local["workloads"].get(w, {})
        pair = {seeds.get("default_seed"), seeds.get("held_out_seed")}
        check(None not in pair and len(pair) == 2,
              "%s has a default and a distinct held-out seed" % w)
        check(pair <= {int(s) for s in pinned.get(w, {})},
              "%s has pinned reference digests for both seeds" % w)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    table = set(local["layers"])
    check(table <= set(per_layer) and
          all(u == "count" for n, u in per_layer.items() if n not in table),
          "the layer table names per-layer metrics and covers all but the counts")
    check(any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
              for m in spec["end_to_end"]), "setup_s is an end-to-end metric")

    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    timed = None
    for w in names:
        seed = local["workloads"][w]["default_seed"]
        for trace, want in ((0, e2e), (1, layer)):
            res = result_line(w, seed, trace)
            check(set(res["metrics"]) == want,
                  "%s --trace %d prints exactly the listed metrics" % (w, trace))
            check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                  "%s --trace %d: error_ratio 0 over %d sessions"
                  % (w, trace, res["attempted"]))
            if trace == 0 and timed is None:
                timed = res

    _, regressed = compare.compare([timed], [timed], spec)
    check(not regressed, "a run compared against itself is not a regression")
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "rounds_per_s")
    for factor, want in ((1 + bound / 2, False), (1 + 2 * bound, True)):
        rows, _ = compare.compare([timed], [compare.slow_down(timed, factor, spec)], spec)
        flagged = "rounds_per_s" in [r[0] for r in rows if r[5] == "REGRESSION"]
        check(flagged == want, "rounds_per_s slowed by an injected %.0f%% is %sflagged "
              "(bound %.0f%%)" % (100 * (factor - 1), "" if want else "not ", 100 * bound))

    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

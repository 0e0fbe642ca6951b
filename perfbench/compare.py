#!/usr/bin/env python3
"""Compares two sets of benchmark runs of one workload against BENCHMARK.json.

    python3 perfbench/compare.py BASE NEW [--inject-slowdown F]

BASE and NEW each hold the result lines (the last stdout line of
perfbench/run.py, one per run) of one workload. For every end-to-end metric
both sides' medians are compared: the metric regressed when NEW's median is
worse than BASE's by more than the metric's bound, in the metric's direction.
--inject-slowdown F divides NEW's rates and multiplies its times by F, to
check that the comparison trips. Exit status 1 when anything regressed or a
run failed its output check.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def worse_by(metric, base, new):
    """Share of `base` by which `new` is worse (negative when better)."""
    if metric["better"] == "higher":
        return (base - new) / base
    return (new - base) / base


def slow_down(result, factor, spec):
    """A copy of `result` whose end-to-end metrics are `factor` slower."""
    out = json.loads(json.dumps(result))
    for m in spec["end_to_end"]:
        entry = out["metrics"].get(m["name"])
        if entry is None or m["unit"] not in ("1/s", "s", "ms"):
            continue
        entry["value"] = (entry["value"] / factor if m["better"] == "higher"
                          else entry["value"] * factor)
    return out


def compare(base_runs, new_runs, spec):
    """Returns (rows, regressed). Each row: name, base median, new median,
    worse-by share, bound, verdict."""
    rows, regressed = [], False
    for run in base_runs + new_runs:
        if not run.get("correct") or run.get("failed", 1) != 0:
            regressed = True
    for m in spec["end_to_end"]:
        base = statistics.median(r["metrics"][m["name"]]["value"] for r in base_runs)
        new = statistics.median(r["metrics"][m["name"]]["value"] for r in new_runs)
        share = worse_by(m, base, new)
        bad = share > m["bound"]
        regressed |= bad
        rows.append((m["name"], base, new, share, m["bound"],
                     "REGRESSION" if bad else "ok"))
    return rows, regressed


def read_runs(path):
    runs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                runs.append(json.loads(line))
    if not runs:
        raise SystemExit("%s: no result lines" % path)
    return runs


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--inject-slowdown", type=float, default=None)
    args = ap.parse_args()
    spec = load_spec()
    base, new = read_runs(args.base), read_runs(args.new)
    if args.inject_slowdown:
        new = [slow_down(r, args.inject_slowdown, spec) for r in new]
    rows, regressed = compare(base, new, spec)
    for name, b, n, share, bound, verdict in rows:
        print("%-14s base %-12.6g new %-12.6g worse by %+.2f%% (bound %.0f%%)  %s"
              % (name, b, n, 100 * share, 100 * bound, verdict))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())

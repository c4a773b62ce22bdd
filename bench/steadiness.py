"""Run every workload over ten seeds and record the spread of each metric.

    python3 bench/steadiness.py --out bench/baseline/set1.json
    python3 bench/steadiness.py --compare set1.json set2.json > SUMMARY.md

Runs bench/run.py once per (workload, seed), for the workloads and the run
length of BENCHMARK.json, one process after the other (never two at once:
they would share the two cores and slow each other).  Writes every run's
end-to-end metrics plus, per metric, the median, the quartiles from
statistics.quantiles(values, n=4) and the spread (Q3 - Q1) / median.  Two
such files made one after the other at the same commit show whether the
benchmark agrees with itself within its bounds; --compare puts two of them
side by side as a Markdown table.

The seeds are the default seed 2026, under which run.py also compares every
case with its recorded digest, and 1 to 9.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (2026, *range(1, 10))


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def compare(path1, path2, bench):
    """Markdown: both sets' medians and spreads, and each median's shift."""
    sets = []
    for path in (path1, path2):
        with open(path) as fh:
            sets.append(json.load(fh))
    a, b = sets
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    lines = [
        "# Baseline: two sets of runs of the parent commit", "",
        f"Made with `python3 bench/steadiness.py`, one set after the other, seeds "
        f"{', '.join(map(str, a['seeds']))}, {a['seconds']} s per run, Python {a['python']}, "
        f"{a['cpus']} CPUs ({a['machine']}).  Spread is (Q3 - Q1) / median over the ten runs "
        "of one set; shift is how much worse the second median is than the first, as a "
        "share of the first (negative: better).", "",
        "| workload | metric | bound | median 1 | spread 1 | median 2 | spread 2 | shift |",
        "|---|---|---|---|---|---|---|---|"]
    worst = []
    for w in a["workloads"]:
        for name, s1 in a["workloads"][w]["summary"].items():
            s2 = b["workloads"][w]["summary"][name]
            m = metrics[name]
            shift = (s2["median"] - s1["median"]) / s1["median"]
            if m["better"] == "higher":
                shift = -shift
            lines.append(f"| {w} | {name} | {m['bound']} | {s1['median']:.4g} | "
                         f"{s1['spread']:.3f} | {s2['median']:.4g} | {s2['spread']:.3f} | "
                         f"{shift:+.3f} |")
            worst.append((max(s1["spread"], s2["spread"], shift) / m["bound"], w, name))
    lines += ["", "Failed cases (set 1, set 2) out of attempted: " + "; ".join(
        f"{w} {a['workloads'][w]['failed']}/{a['workloads'][w]['attempted']}, "
        f"{b['workloads'][w]['failed']}/{b['workloads'][w]['attempted']}"
        for w in a["workloads"]) + ".", ""]
    worst.sort(reverse=True)
    lines.append("Largest spread or shift as a share of its bound, over every metric "
                 "including setup_s: " +
                 ", ".join(f"{w} {name} {r:.2f}" for r, w, name in worst[:5]) + ".")
    return "\n".join(lines) + "\n"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--out")
    group.add_argument("--compare", nargs=2, metavar="SET")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if args.compare:
        sys.stdout.write(compare(*args.compare, bench))
        return 0
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"python": sys.version.split()[0], "machine": platform.machine(),
              "cpus": os.cpu_count(), "seconds": seconds, "seeds": list(SEEDS),
              "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            metrics = {k: v["value"] for k, v in res["metrics"].items()}
            runs.append({"seed": seed, "wall_s": wall, "attempted": res["attempted"],
                         "failed": res["failed"], "metrics": metrics})
            print(workload, seed, f"{wall:.1f}s", "failed", res["failed"],
                  {k: round(v, 4) for k, v in metrics.items()}, flush=True)
        summary = {name: summarize([r["metrics"][name] for r in runs])
                   for name in runs[0]["metrics"]}
        for name, s in summary.items():
            s["bound"] = bounds.get(name)
            print(f"  {name:14s} median {s['median']:10.4f} spread {s['spread']:.3f} "
                  f"(bound {s['bound']})", flush=True)
        record["workloads"][workload] = {
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "summary": summary, "runs": runs}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

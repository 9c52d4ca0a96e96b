"""Compare two trajectory entries, metric by metric and workload by workload.

    python3 pipebench/compare.py pipebench/trajectory/BENCH_seed.json BENCH_new.json

Refuses (exit 2) when the entries were measured on different machines or
kernel backends (envinfo.MACHINE_KEYS) or on different seeds, when a workload
of the base is missing from the new entry, when the new entry has more
failed operations than the base on any workload, or when the traced counts
of either entry did not repeat. Otherwise prints, for each end-to-end metric
of BENCHMARK.json, both medians, the relative change (positive = worse) and
a verdict against the metric's bound. A metric whose spread in the base
entry exceeds its bound is "unresolved" unless every run of the new entry
beats every run of the base. Exits 1 if any metric is worse by more than its
bound.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import envinfo

ROOT = Path(__file__).resolve().parent.parent


def _seeds(workload: dict) -> tuple:
    return ([r["seed"] for r in workload["runs"]], [r["seed"] for r in workload["traced"]])


def refusals(base: dict, new: dict) -> list:
    """Why the new entry cannot be compared with the base; empty if it can."""
    reasons = [f"{k} differs: {base['env'].get(k)!r} vs {new['env'].get(k)!r}"
               for k in envinfo.mismatches(base["env"], new["env"])]
    for name, b in base["workloads"].items():
        n = new["workloads"].get(name)
        if n is None:
            reasons.append(f"{name}: missing from the new entry")
            continue
        if _seeds(b) != _seeds(n):
            reasons.append(f"{name}: seeds differ: {_seeds(b)} vs {_seeds(n)}")
        if n["failed"] > b["failed"]:
            reasons.append(f"{name}: {n['failed']} failed operations, base {b['failed']}")
        for label, e in (("base", b), ("new", n)):
            if not e["counts_repeat"]:
                reasons.append(f"{name}: traced counts of the {label} entry did not repeat")
    return reasons


def verdict(metric: dict, base: dict, new: dict) -> tuple:
    sign = 1.0 if metric["better"] == "lower" else -1.0
    b, n = base["summary"][metric["name"]], new["summary"][metric["name"]]
    change = sign * (n["median"] - b["median"]) / b["median"]
    if change > metric["bound"]:
        return change, "worse"
    if b["spread"] > metric["bound"]:
        vb = [sign * r["metrics"][metric["name"]]["value"] for r in base["runs"]]
        vn = [sign * r["metrics"][metric["name"]]["value"] for r in new["runs"]]
        return change, "better" if max(vn) < min(vb) else "unresolved"
    return change, "within bound"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    base, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in (args.base, args.new))
    reasons = refusals(base, new)
    if reasons:
        for reason in reasons:
            print(f"refused: {reason}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    worse = False
    for name, b in base["workloads"].items():
        n = new["workloads"][name]
        for metric in bench["end_to_end"]:
            change, word = verdict(metric, b, n)
            worse |= word == "worse"
            print(f"{name:16s} {metric['name']:14s} "
                  f"{b['summary'][metric['name']]['median']:12.5g} -> "
                  f"{n['summary'][metric['name']]['median']:12.5g} {metric['unit']:9s} "
                  f"{change:+7.1%} (bound {metric['bound']:.0%}) {word}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())

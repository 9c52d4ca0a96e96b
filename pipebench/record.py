"""Record one entry of the bench trajectory: every workload on several seeds.

    python3 pipebench/record.py --label seed --note "baseline at the seed commit"

For each workload of BENCHMARK.json it runs run.py untraced once per seed of
SEEDS, then traced on each seed of TRACED_SEEDS (the first twice: the counts
in tracing.COUNT_METRICS must repeat exactly, or the entry records the
mismatch and this exits 1). Each end-to-end metric is summarized by the
median and quartiles of its per-seed values, and its spread
(q3 - q1) / median. All runs must share one environment. The entry is
written to pipebench/trajectory/BENCH_<label>.json. Every entry uses the same
seeds, so that compare.py compares like with like.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import envinfo
from tracing import COUNT_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory"

# 18 is the acceptance desk suite; 7 is a second traced seed, so that a claim
# made on 18 can be checked on a seed it was not made on
SEEDS = (18, 1, 2, 3, 4, 5, 6, 7, 8, 9)
TRACED_SEEDS = (18, 7)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("info "):
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    info = json.loads(lines[-2][len("info "):])
    return {"seed": seed, "env": info["env"], "run_wall_s": time.perf_counter() - t0,
            **json.loads(lines[-1]),
            "samples": info["samples"] if not trace else None}


def summarize(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--note", default="")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]

    entry = {"label": args.label, "note": args.note,
             "recorded": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
             "run_seconds": seconds, "env": None, "workloads": {}}
    status = 0
    for name in (w["name"] for w in bench["workloads"]):
        runs = [run_once(name, s, seconds, 0) for s in SEEDS]
        traced = [run_once(name, TRACED_SEEDS[0], seconds, 1)]
        traced += [run_once(name, s, seconds, 1) for s in TRACED_SEEDS]
        repeat = {k: [t["metrics"][k]["value"] for t in traced[:2]] for k in COUNT_METRICS}
        counts_repeat = all(a == b for a, b in repeat.values())
        for r in runs + traced:
            env = r.pop("env")
            entry["env"] = entry["env"] or env
            if envinfo.mismatches(entry["env"], env):
                raise RuntimeError(f"environment changed during the recording: {env}")
        summary = {m: summarize([r["metrics"][m]["value"] for r in runs])
                   for m in runs[0]["metrics"]}
        entry["workloads"][name] = {
            "runs": runs, "summary": summary, "traced": traced,
            "counts_repeat": counts_repeat,
            "failed": sum(r["failed"] for r in runs + traced),
            "attempted": sum(r["attempted"] for r in runs + traced),
        }
        print(f"{name}: " + "  ".join(
            f"{m} {s['median']:.4g} (spread {s['spread']:.3f})" for m, s in summary.items())
            + f"  counts repeat: {counts_repeat}", flush=True)
        if not counts_repeat or entry["workloads"][name]["failed"]:
            status = 1
    TRAJECTORY.mkdir(exist_ok=True)
    out = TRAJECTORY / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(entry, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.relative_to(ROOT)}")
    return status


if __name__ == "__main__":
    sys.exit(main())

"""Pipeline benchmark: spheremix synth -> fit -> evaluate -> predict through its CLI.

Run from the root of a source checkout (the package is imported from ./src):

    python3 pipebench/run.py --workload desk-parametric --seed 18 --seconds 50 --trace 0

One closed-loop client runs the CLI commands in sequence, each waiting for
the previous one, with --threads 1, one OpenBLAS thread and no transparent
huge pages.

--trace 0 times untraced subprocesses: setup (synth), then rounds of
fit, evaluate and predict for --seconds with a second setup half-way, then
inspect and a third setup; it prints the medians. --trace 1 runs
the same commands in this process through click, once plain and once with
spans around each layer (see tracing.py), and prints the per-layer metrics.
Either way every command and every output check (checks.py) is one
operation. The last stdout line is the result object; the line before it,
prefixed "info ", holds the environment and the per-sample values.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks
import envinfo
import tracing
from workloads import WORKLOADS, Paths, commands

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".pipebench-work"
SPEC = ROOT / "BENCHMARK.json"

# setup_s is the median of the synth runs in SETUP_SLOTS slots (before the
# rounds, half-way through them and at the end of the run), each repeated
# until it has taken SETUP_MIN_S / SETUP_SLOTS. On a shared VM a one-second
# synth varies by up to 2x with phases that last seconds; slots spread over
# the whole run sample more of them than one block at its start.
SETUP_SLOTS = 3
SETUP_MIN_S = 8.0
STARTUPS = 3  # cli.startup_s is the median of this many bare imports
RUN_BUDGET_S = 140.0  # no command is repeated after this
DEADLINE_S = 170.0  # a command still running this long after the start is killed
PR_SET_THP_DISABLE = 41  # prctl option, from <linux/prctl.h>


class Operations:
    """Attempted and failed operations; failures are named on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, name: str, ok: bool, detail: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {name} {detail}".rstrip(), file=sys.stderr)

    def result(self, metrics: dict) -> dict:
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


@dataclass
class Finished:
    code: int
    wall_s: float
    rss_mb: float
    output: str


def spawn(argv, log: Path, deadline: float) -> Finished:
    """Run argv to completion; wall time and peak RSS come from os.wait4."""
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT)
        killer = threading.Timer(max(1.0, deadline - t0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no command running
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                    log.read_text(encoding="utf-8", errors="replace"))


def _inspect_ok(code: int, output: str, kind: str) -> bool:
    return code == 0 and f"kind:  {kind}" in output


def _record_checks(ops: Operations, w, p: Paths):
    for name, ok in checks.check_outputs(p.predictions, p.labels("test"), p.eval_json,
                                         w.c, w.n_test):
        ops.record(name, ok)


def _clear(*files):
    for f in files:
        f.unlink(missing_ok=True)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _with_units(values: dict, section: str) -> dict:
    """{name: {"value", "unit"}} for every metric of one BENCHMARK.json section,
    which must name exactly the metrics in ``values``."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))[section]
    names = {m["name"] for m in spec}
    if names != set(values):
        raise RuntimeError(f"{section} metrics differ from BENCHMARK.json: "
                           f"{sorted(names ^ set(values))}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def end_to_end(w, seed: int, seconds: float, work: Path, deadline: float,
               budget_end: float):
    ops = Operations()
    p = Paths(work)
    cmds = commands(w, seed, p)
    log = work / "command.log"

    def run(step: str) -> Finished:
        r = spawn([sys.executable, "-m", "spheremix.cli", *cmds[step]], log, deadline)
        ok = r.code == 0 if step != "inspect" else _inspect_ok(r.code, r.output, w.kind)
        ops.record(step, ok, r.output[-2000:] if not ok else "")
        return r

    # warm the file cache and the bytecode cache before anything is timed
    spawn([sys.executable, "-c", "import spheremix.cli"], log, deadline)
    samples = {k: [] for k in ("setup_s", "fit_s", "score_s", "fit_rss_mb", "score_rss_mb",
                               "model_mb", "test_accuracy")}

    def setup():
        # synth rewrites the same suite (same seed), so a later slot changes no input
        taken = 0.0
        while True:
            samples["setup_s"].append(run("synth").wall_s)
            taken += samples["setup_s"][-1]
            if taken >= SETUP_MIN_S / SETUP_SLOTS or time.perf_counter() >= budget_end:
                break

    setup()

    # fit and score alternate in rounds over the whole of --seconds, so that
    # the medians of both sample every phase of a shared machine; a round
    # starts only if one as long as the slowest so far ends in time, and a
    # setup slot follows the round that passes half of --seconds
    start = time.perf_counter()
    end = min(start + seconds, budget_end)
    slowest, halfway = 0.0, False
    while True:
        t0 = time.perf_counter()
        _clear(p.model, p.fit_report, p.eval_report, p.eval_json, p.predictions)
        fit = run("fit")
        samples["fit_s"].append(fit.wall_s)
        samples["fit_rss_mb"].append(fit.rss_mb)
        if p.model.exists():
            samples["model_mb"].append(p.model.stat().st_size / 1e6)
        ev = run("evaluate")
        pr = run("predict")
        _record_checks(ops, w, p)
        samples["score_s"].append(ev.wall_s + pr.wall_s)
        samples["score_rss_mb"].append(max(ev.rss_mb, pr.rss_mb))
        if ev.code == 0:
            samples["test_accuracy"].append(checks.reported_accuracy(p.eval_json))
        now = time.perf_counter()
        slowest = max(slowest, now - t0)
        if not halfway and now >= start + seconds / 2:
            setup()
            halfway = True
        if time.perf_counter() + slowest > end:
            break
    if not halfway:
        setup()
    run("inspect")
    setup()
    metrics = _with_units({k: _median(v) for k, v in samples.items()}, "end_to_end")
    return ops.result(metrics), samples


def _invoke(main, args) -> tuple:
    """Run one CLI command in this process: (exit code, wall seconds, stdout)."""
    import click

    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            main.main(args, prog_name="spheremix", standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except click.ClickException as exc:
        code = exc.exit_code
    except Exception:  # a crash is a failed operation, not the end of the run
        traceback.print_exc()
        code = 1
    wall = time.perf_counter() - t0
    return code, wall, out.getvalue()


def traced(w, seed: int, work: Path, deadline: float):
    from spheremix import cli

    ops = Operations()
    log = work / "command.log"
    startup = [spawn([sys.executable, "-c", "import spheremix.cli"], log, deadline).wall_s
               for _ in range(STARTUPS + 1)][1:]  # the first run fills the caches

    walls = {}
    tracer = tracing.Tracer()
    for mode in ("plain", "traced"):
        p = Paths(work / mode)
        hook = tracing.installed(tracer) if mode == "traced" else contextlib.nullcontext()
        with hook:
            for step, args in commands(w, seed, p).items():
                span = (tracer.command_span(step) if mode == "traced"
                        else contextlib.nullcontext())
                with span:
                    code, wall, output = _invoke(cli.main, args)
                ok = code == 0 if step != "inspect" else _inspect_ok(code, output, w.kind)
                ops.record(f"{mode}.{step}", ok)
                walls[(mode, step)] = wall
        _record_checks(ops, w, p)

    steps = [s for m, s in walls if m == "plain"]
    overhead = statistics.fmean(walls[("traced", s)] - walls[("plain", s)] for s in steps)
    metrics = _with_units(tracing.layer_metrics(tracer, statistics.median(startup), overhead),
                          "per_layer")
    return ops.result(metrics), {"spans": tracer.dump(),
                                 "walls": {f"{m}.{s}": v for (m, s), v in walls.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=18,
                    help="seed of the synthetic suite (18 = the acceptance desk suite)")
    ap.add_argument("--seconds", type=float, default=50.0,
                    help="repeat rounds of fit, evaluate and predict for this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "spheremix" / "cli.py").is_file():
        print(f"error: no spheremix sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # a SIGTERM unwinds like an exception, so the running command is killed
    # and the work directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    t_start = time.perf_counter()
    deadline = t_start + DEADLINE_S
    # this must be in place before numpy loads, here and in every child;
    # nothing imported above loads numpy. One BLAS thread: the pipeline's
    # BLAS calls are too small to use a second one (a fit's user time
    # equals its wall time with two), and a second thread only adds its
    # scheduling and its buffers to the noise in time and peak RSS.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    # No transparent huge pages, here and in every child (the setting is
    # inherited): whether the kernel grants one depends on how fragmented
    # memory is, which other programs decide, and each grant can add up to
    # 2 MB to a command's peak RSS.
    ctypes.CDLL(None).prctl(PR_SET_THP_DISABLE, 1, 0, 0, 0)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(SRC))

    w = WORKLOADS[args.workload]
    work = WORK / f"{w.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            result, detail = traced(w, args.seed, work, deadline)
            trace_file = WORK / f"trace-{w.name}-{args.seed}.json"
            trace_file.write_text(json.dumps(detail) + "\n", encoding="utf-8")
            samples = {"trace_file": str(trace_file.relative_to(ROOT))}
        else:
            result, samples = end_to_end(w, args.seed, args.seconds, work, deadline,
                                         t_start + RUN_BUDGET_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("info " + json.dumps({"workload": w.name, "seed": args.seed, "trace": args.trace,
                                "env": envinfo.environment(), "samples": samples}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

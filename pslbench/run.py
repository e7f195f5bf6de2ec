"""psl benchmark: one workload, one closed-loop client, one fresh process.

    python3 pslbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one `psl` command run in-process through
`psl.cli.main([...])` with `--output json`; its stdout is captured, parsed
and checked.  Operations run one after another.  A round is every
operation of the workload once, in an order drawn from --seed; the run
repeats whole rounds until --seconds have passed.

Every operation is timed between probes of the machine's speed (pace.py)
and its time is also rescaled to reference speed; the end-to-end times are
the rescaled ones, so that the drift of a shared machine does not show as a
change of psl.

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced and
one traced round and prints the per-layer metrics of the traced one.  The
last line of stdout is the result JSON; the full record of the run goes to
.pslbench-runs/ at the repository root.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pace
from workloads import EXPECTED_FAILURES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
RUNS = ROOT / ".pslbench-runs"
SETUP_REPS = 9

# timed in a fresh interpreter: import psl.cli, then load each workspace once;
# then three probes of the machine's speed in the same interpreter
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import psl.cli
from psl.workspace import load_workspace
for path in sys.argv[3:]:
    load_workspace(path)
seconds = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
import pace
print(seconds, sorted(pace.probe() for _ in range(3))[1])
"""


def environment() -> dict:
    try:
        from psl import _kernel
        kernel = _kernel.IMPLEMENTATION
    except ImportError:
        kernel = "none"
    return {
        "kernel": kernel,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def measure_setup(workload) -> list[dict]:
    """Setup time of SETUP_REPS fresh interpreters, after one warm-up.

    Each is rescaled by the median of three probes the same interpreter runs
    right after it: probes in this process, which waits meanwhile, do not
    see the speed the fresh interpreter ran at.
    """
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH), *workload.workspace_paths()]
    samples = []
    for _ in range(SETUP_REPS + 1):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        seconds, probe = map(float, done.stdout.split()[-2:])
        samples.append({"seconds": seconds, "probe": probe, "ref_s": pace.to_ref(seconds, probe, probe)})
    return samples[1:]


def run_op(cli, clock, op) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    gc.collect()  # start each command from a clean heap, as a fresh CLI process would
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = clock.call(lambda: cli.main(list(op.argv)))
    except Exception as exc:  # an uncaught error in psl is a failed operation
        rc, error = None, f"{type(exc).__name__}: {exc}"
    return {
        "op": op.label, "seconds": clock.seconds, "ref_s": clock.ref_s, "probes": clock.probes,
        "rc": rc, "error": error, "stdout": out.getvalue(),
    }


def run_round(cli, clock, ops) -> dict:
    results = [run_op(cli, clock, op) for op in ops]
    return {
        "wall_s": sum(r["seconds"] for r in results),
        "ref_s": sum(r["ref_s"] for r in results),
        "ops": results,
    }


class Checker:
    """Checks every operation's output; identical outputs share one verdict."""

    def __init__(self, ops):
        self.by_label = {op.label: op for op in ops}
        self.verdicts: dict = {}
        self.problems: list[str] = []

    def grade(self, rnd: dict) -> None:
        """Adds failed, results and problems to every operation of a round."""
        for res in rnd["ops"]:
            label = res["op"]
            res["failed"] = res["error"] is not None or res["rc"] != 0
            res["results"] = 0
            if res["failed"]:
                if label not in EXPECTED_FAILURES:
                    self.problems.append(f"{label}: unexpected failure rc={res['rc']} {res['error']}")
                continue
            key = (label, res["stdout"])
            if key not in self.verdicts:
                try:
                    payload = json.loads(res["stdout"])
                except json.JSONDecodeError as exc:
                    self.verdicts[key] = ([f"stdout is not JSON: {exc}"], 0)
                else:
                    self.verdicts[key] = self.by_label[label].check(payload)
            problems, res["results"] = self.verdicts[key]
            self.problems.extend(f"{label}: {p}" for p in problems)
        rnd["results"] = sum(r["results"] for r in rnd["ops"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "psl" / "cli.py").is_file():
        print(f"error: no psl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import psl.cli as cli

    workload = WORKLOADS[args.workload]
    ops = workload.ops()
    random.Random(args.seed).shuffle(ops)
    checker = Checker(ops)
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": environment(), "order": [op.label for op in ops],
    }

    if args.trace:
        from spans import Tracer

        clock = pace.Clock(inside=False)  # no probes inside spans
        untraced = run_round(cli, clock, ops)
        tracer = Tracer()
        record["wrapped_functions"] = tracer.install()
        traced = run_round(cli, clock, ops)
        rounds = [untraced, traced]
        record["groups"] = tracer.all_groups()
    else:
        setup = measure_setup(workload)
        clock = pace.Clock()
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            rounds.append(run_round(cli, clock, ops))
        record["setup_s"] = setup

    for rnd in rounds:
        checker.grade(rnd)
    if args.trace:
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_s"] = (traced["ref_s"] - untraced["ref_s"], "s")
    else:
        metrics = {
            "setup_s": (statistics.median(s["ref_s"] for s in setup), "s"),
            "wall_ref_s": (statistics.median(r["ref_s"] for r in rounds), "s"),
            "results_per_ref_s": (statistics.median(r["results"] / r["ref_s"] for r in rounds), "1/s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }

    attempted = sum(len(r["ops"]) for r in rounds)
    failed = sum(o["failed"] for r in rounds for o in r["ops"])
    result = {
        "correct": not checker.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    for rnd in rounds:
        for o in rnd["ops"]:
            del o["stdout"]
    record.update(result=result, problems=checker.problems, rounds=rounds)
    out = RUNS / f"{workload.name}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    try:
        RUNS.mkdir(exist_ok=True)
        out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    except OSError as exc:
        print(f"warning: run record not written: {exc}", file=sys.stderr)

    env = record["env"]
    print(
        f"{workload.name}: {len(rounds)} rounds of {len(ops)} ops, median round "
        f"{statistics.median(r['wall_s'] for r in rounds):.3f} s measured, "
        f"{statistics.median(r['ref_s'] for r in rounds):.3f} s at reference speed; kernel {env['kernel']}, "
        f"python {env['python']}, nproc {env['nproc']}; record {out.relative_to(ROOT)}",
        file=sys.stderr,
    )
    for problem in checker.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""sigdev benchmark: one workload, end to end or per layer.

    python3 perfbench/run.py --workload gram-signature --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Every measurement runs in a fresh worker process (see
``worker.py``).  With ``--trace 0`` the last line of stdout holds the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run.  The line before it records the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# Set-up is measured in this many fresh processes (the timed one included)
# and reported as the median.
SETUP_PROCESSES = 3
# Every run, set-up processes included, ends within this budget.
BUDGET_S = 170.0


def git_commit() -> str:
    """HEAD of the checkout when it is itself a git work tree."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def spawn(args, workdir: str, deadline: float, setup_only: bool) -> dict:
    """Run one worker process to completion; its last stdout line is JSON."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--src", SRC]
    if setup_only:
        cmd.append("--setup-only")
    env = {k: v for k, v in os.environ.items() if not k.startswith("SIGDEV_")}
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - t0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def declared_units(trace: int) -> dict[str, str]:
    """Units of the metrics BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sigdev", "__init__.py")):
        print(f"perfbench: no sigdev package under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    workroot = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        setups = []
        if not args.trace:
            for k in range(SETUP_PROCESSES - 1):
                setups.append(spawn(args, os.path.join(workroot, f"setup{k}"), deadline, True)["setup_s"])
        run = spawn(args, os.path.join(workroot, "run"), deadline, False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:  # another run still uses it
            pass

    env = dict(run["env"], git_commit=git_commit(), workload=args.workload, rounds=run["rounds"],
               wall_raw_s=run["wall_raw_s"], op_raw_s=run["op_raw_s"], setup_raw_s=run["setup_raw_s"])
    if args.trace:
        env["absent"] = run["absent"]
        values = run["layers"]
    else:
        setups.append(run["setup_s"])
        values = {
            "wall_s": run["wall_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": run["peak_rss_mb"],
            "err_digits": digits(run["max_err"]),
        }
        env["max_err"] = run["max_err"]
    units = declared_units(args.trace)
    if set(values) != set(units):
        print(f"perfbench: metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


def digits(max_err: float) -> float:
    """Correct decimal digits of the least accurate output: -log10(max_err)."""
    return -math.log10(max(max_err, 1e-17))


if __name__ == "__main__":
    sys.exit(main())

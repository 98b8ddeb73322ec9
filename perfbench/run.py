"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout: the benchmark imports the program from
``src/`` and the frozen GRAPE kernel from ``benchmarks/``, and keeps its
scratch files under ``.bench_work/``.  Each measurement runs in a fresh
interpreter whose environment has every ``REPRO_*`` variable removed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload twice, untraced and then traced for half the seconds each, and
prints the per-layer metrics; the difference between the two runs'
latencies is ``trace.overhead_frac``.  The exit code is 0 only when every
checked output is correct and no request failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.spec import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.workloads import ALL_WORKLOADS  # noqa: E402

#: Hard limit for a whole run, below the 180 s a run may take.
RUN_LIMIT_S = 170.0
REQUIRED = ("src/repro/__init__.py", "benchmarks/grape_reference.py")


def hermetic_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join((str(ROOT / "src"), str(ROOT)))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def measure(args, trace: int, seconds: float, setups: int, deadline: float) -> dict:
    """One measured run in a fresh interpreter; returns its JSON record."""
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}-{trace}"
    cmd = [
        sys.executable, "-m", "perfbench.measure",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--trace", str(trace),
        "--workdir", str(workdir), "--setups", str(setups),
    ]
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    child = subprocess.Popen(
        cmd, cwd=ROOT, env=hermetic_env(), stdout=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise SystemExit(f"{args.workload}: run exceeded {RUN_LIMIT_S:.0f} s")
    finally:
        _reap_group(child.pid)
        shutil.rmtree(workdir, ignore_errors=True)
    lines = out.decode().strip().splitlines()
    if child.returncode != 0 or not lines:
        raise SystemExit(f"{args.workload}: measurement failed "
                         f"(exit {child.returncode})")
    return json.loads(lines[-1])


def _reap_group(pgid: int) -> None:
    """Stop anything the measurement left running in its process group."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            return
        time.sleep(0.5)


def overhead_frac(untraced: dict, traced: dict) -> float:
    """Traced over untraced latency on the requests both runs sent, per
    client and in order (the same inputs, by seed), minus one."""
    def streams(run):
        by_client = {}
        for client, latency in zip(run["later_clients"], run["later_latencies_s"]):
            by_client.setdefault(client, []).append(latency)
        return by_client

    plain, traced_ = streams(untraced), streams(traced)
    base = slow = 0.0
    for client, latencies in plain.items():
        common = min(len(latencies), len(traced_.get(client, ())))
        base += sum(latencies[:common])
        slow += sum(traced_[client][:common])
    return slow / base - 1.0 if base else 0.0


def git_state() -> tuple:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
        dirty = bool(subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip())
        return commit, dirty
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)", None


def _number(value) -> float:
    value = float(value)
    return value if math.isfinite(value) else 1e12


def report(args, runs: list, metrics: dict, units: dict) -> None:
    commit, dirty = git_state()
    main = runs[-1]
    print(f"# workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds}  trace {args.trace}")
    print(f"# commit {commit}  dirty {dirty}")
    print(f"# env {json.dumps(main['env'], sort_keys=True)}")
    print(f"# inputs {json.dumps(main['inputs'], sort_keys=True)}")
    cold = len(main["cold_latencies_s"])
    print(f"# requests {main['attempted']} ({cold} cold first + "
          f"{main['later_requests']} timed), checked {main['checked']}, "
          f"latency_tail_ms at p{main['tail_percentile']:.1f} of "
          f"{main['later_requests']}")
    print(f"# phases_s {json.dumps(main['phase_s'])}  cold_s "
          f"{json.dumps(main['cold_latencies_s'])}  setup_s "
          f"{json.dumps(main['setup_times_s'][:5])}")
    for run in runs:
        for problem in run["problems"] + run["errors"]:
            print(f"# PROBLEM {problem}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ALL_WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", choices=("scale", "lengthen"),
                        help="corrupt the checked results (checker self-test)")
    args = parser.parse_args(argv)
    missing = [path for path in REQUIRED if not (ROOT / path).is_file()]
    if missing:
        print(f"not a checkout of the program: missing {missing}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    if args.trace:
        half = args.seconds / 2.0
        runs = [measure(args, 0, half, 1, deadline),
                measure(args, 1, half, 1, deadline)]
        metrics = dict(runs[1]["layers"])
        metrics["trace.overhead_frac"] = overhead_frac(runs[0], runs[1])
        specs = PER_LAYER
    else:
        runs = [measure(args, 0, args.seconds, 3, deadline)]
        metrics = dict(runs[0]["e2e"])
        specs = END_TO_END
    units = {spec[0]: spec[1] for spec in specs}
    metrics = {name: _number(metrics[name]) for name in units}
    report(args, runs, metrics, units)
    correct = all(run["correct"] for run in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""wavekg benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each measurement runs in a fresh
child process (perfbench/workloads.py) against ``src/wavekg``, so that peak
RSS and CPU time belong to that workload alone.

--trace 0 prints the end-to-end metrics: wall_s and cpu_s are medians over
the rounds of the child's timed operations, peak_rss_mb is the child's peak
resident set size, and setup_s is the median over five children of the time
from spawning the child to its first timed operation.  A workload that
writes artifacts (pipeline-mid) runs in full in two children, whose artifact
hashes must agree; its wall_s, cpu_s and peak_rss_mb are medians over both.

--trace 1 runs the workload once untraced and once with spans around the
calls into each wavekg module, and prints the per-layer metrics plus
trace.overhead_s, the traced minus the untraced wall time of a round.

The last line of standard output is the result object; the line before it
records the versions and the machine.  ``--workload all`` runs the three
workloads in turn and prints this pair of lines for each.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("pipeline-mid", "reference-run", "oracle-validate")
SETUP_SAMPLES = 5
BUDGET_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def mem_total_mb():
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) / 1024.0
    return None


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    ncpu = os.cpu_count() or 1
    for var in THREAD_VARS:
        try:
            current = int(env.get(var, ncpu))
        except ValueError:
            current = ncpu
        env[var] = str(max(1, min(current, ncpu)))
    return env


def run_child(root, state, args, deadline, *, setup_only=False, trace=None):
    """Spawn one workload child; returns its result dict with setup_s added."""
    result_path = state / f"child-{os.getpid()}.json"
    work = state / f"work-{os.getpid()}"
    result_path.unlink(missing_ok=True)
    work.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--result", str(result_path), "--work", str(work)]
    if setup_only:
        cmd.append("--setup-only")
    if trace is not None:
        cmd += ["--trace", str(trace)]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=root, env=child_env(root),
                            stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(0.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    if code is None:
        raise BenchError(f"{args.workload} did not finish within {BUDGET_S} s")
    if code != 0 or not result_path.is_file():
        raise BenchError(f"{args.workload} child exited with code {code}")
    result = json.loads(result_path.read_text())
    result_path.unlink()
    result["setup_s"] = result["ready_monotonic"] - spawned
    return result


def summarize(children):
    """correct, attempted, failed and the rounds over a list of child results."""
    rounds = [r for c in children for r in c["rounds"]]
    problems = [p for r in rounds for p in r["problems"]]
    hashes = [r["hashes"] for r in rounds if r["hashes"] is not None]
    if any(h != hashes[0] for h in hashes):
        problems.append("artifact hashes differ between runs of one invocation")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    for f in (f for r in rounds for f in r["failures"]):
        print(f"operation failed: {f}", file=sys.stderr)
    return (not problems, sum(r["attempted"] for r in rounds),
            sum(r["failed"] for r in rounds), rounds)


def measure(root, state, args, deadline):
    children = [run_child(root, state, args, deadline)]
    if any(r["hashes"] is not None for r in children[0]["rounds"]):
        # a workload that writes artifacts runs in full twice, so that
        # their hashes are compared across two processes
        children.append(run_child(root, state, args, deadline))
    setups = [c["setup_s"] for c in children] + [
        run_child(root, state, args, deadline, setup_only=True)["setup_s"]
        for _ in range(SETUP_SAMPLES - len(children))]
    correct, attempted, failed, rounds = summarize(children)
    metrics = {
        "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(c["peak_rss_mb"] for c in children),
                        "unit": "MB"},
        "cpu_s": {"value": statistics.median(r["cpu_s"] for r in rounds), "unit": "s"},
    }
    return {**children[0], "rounds": rounds}, correct, attempted, failed, metrics


def trace(root, state, args, deadline):
    plain = run_child(root, state, args, deadline)
    spans = state / f"spans-{args.workload}-seed{args.seed}.jsonl"
    traced = run_child(root, state, args, deadline, trace=spans)
    correct, attempted, failed, _ = summarize([plain, traced])
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in traced["layers"].items()}
    overhead = (statistics.median(r["wall_s"] for r in traced["rounds"])
                - statistics.median(r["wall_s"] for r in plain["rounds"]))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return traced, correct, attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description="wavekg benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # on SIGTERM, unwind so that a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "wavekg" / "__init__.py").is_file():
        print("perfbench: run from the root of a wavekg checkout "
              "(src/wavekg not found)", file=sys.stderr)
        return 2
    state = root / ".perfbench"
    state.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        deadline = time.monotonic() + BUDGET_S
        try:
            child, correct, attempted, failed, metrics = (trace if args.trace else measure)(
                root, state, one, deadline)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        env = dict(child["versions"], nproc=os.cpu_count(), mem_total_mb=mem_total_mb(),
                   workload=name, seed=args.seed, rounds=len(child["rounds"]))
        print(json.dumps({"environment": env}))
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

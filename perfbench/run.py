"""Time-to-verdict benchmark for padiff's verify-conjecture.

    python3 perfbench/run.py --workload worked_example --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Each run starts one fresh interpreter
for the workload (perfbench/workload.py) as a closed loop with one
caller, then checks every report it wrote against values computed in
perfbench/checks.py.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones from a run with spans installed (perfbench/spans.py).

The inputs are bundled corpus modules at fixed configurations; --seed
is accepted for the harness and printed, but nothing is random.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
CHILD_TIMEOUT_S = 170

sys.path.insert(0, HERE)
from checks import CHECKERS  # noqa: E402
from workload import WORKLOADS  # noqa: E402

UNITS = {
    "wall_s": "s", "module_s_max": "s", "setup_s": "s", "peak_rss_mb": "MB",
}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.pop("PYTHONSTARTUP", None)
    return env


def _layer_unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    return "count"


def src_lines() -> int:
    pkg = os.path.join(SRC, "padiff")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                total += sum(1 for _ in fh)
    return total


def setup_seconds(env: dict) -> float:
    """Median time from interpreter start to padiff.cli imported.

    Each probe prints a line once the import is done; the time is taken
    when that line arrives, so interpreter teardown is not counted.
    """
    samples = []
    probe = "import padiff.cli; print('ready', flush=True)"
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", probe], env=env, cwd=ROOT,
                                stdout=subprocess.PIPE)
        try:
            readable, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
            line = proc.stdout.readline() if readable else b""
            samples.append(time.perf_counter() - t0)
            if line.strip() != b"ready":
                raise RuntimeError("setup probe did not import padiff.cli")
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
    return statistics.median(samples)


def run_child(args, env: dict, out_dir: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", args.workload, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", out_dir]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("workload did not finish within %d s" % CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("workload process exited with %d" % proc.returncode)
    return json.loads(stdout.decode().strip().splitlines()[-1])


def check_calls(workload: str, rounds) -> tuple[int, int, bool, list[str]]:
    """(attempted, failed, correct, problems) over every call of every round."""
    checker = CHECKERS[workload]
    attempted = failed = 0
    correct = True
    problems = []
    for calls in rounds:
        for call in calls:
            attempted += 1
            if call["rc"] != 0:
                failed += 1
                problems.append("%s: exit code %d" % (call["module"], call["rc"]))
                continue
            with open(call["report"]) as fh:
                found = checker(call["module"], json.load(fh))
            if found:
                failed += 1
                correct = False
                problems += ["%s: %s" % (call["module"], p) for p in found]
    return attempted, failed, correct, problems


def end_to_end(rounds, setup_s: float, rss_mb: float) -> dict:
    walls = [sum(c["seconds"] for c in calls) for calls in rounds]
    slowest = [max(c["seconds"] for c in calls) for calls in rounds]
    return {
        "wall_s": statistics.median(walls),
        "module_s_max": statistics.median(slowest),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="padiff time-to-verdict benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="accepted and printed; the inputs do not depend on it")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "padiff", "cli.py")):
        print("error: %s holds no padiff sources; run from the root of a "
              "padiff checkout" % SRC, file=sys.stderr)
        return 2

    env = _env()
    modules, extra = WORKLOADS[args.workload]
    print("env: python %s, nproc %d, src/padiff %d lines"
          % (platform.python_version(), os.cpu_count() or 0, src_lines()))
    print("workload %s: %s %s, seed %d (unused), run %g s, trace %d"
          % (args.workload, ", ".join(modules), " ".join(extra) or "(defaults)",
             args.seed, args.seconds, args.trace))

    out_dir = os.path.join(OUT, args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    setup_s = None if args.trace else setup_seconds(env)
    result = run_child(args, env, out_dir)
    rounds = result["rounds"]
    attempted, failed, correct, problems = check_calls(args.workload, rounds)
    for line in problems:
        print("check: " + line)
    for i, calls in enumerate(rounds):
        print("round %d: %s" % (i, ", ".join(
            "%s %.3f s rc %d" % (c["module"], c["seconds"], c["rc"]) for c in calls)))

    if args.trace:
        metrics = {k: {"value": v, "unit": _layer_unit(k)}
                   for k, v in result["layers"].items()}
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]}
                   for k, v in end_to_end(rounds, setup_s, result["peak_rss_mb"]).items()}
    for name, m in metrics.items():
        print("%-30s %16.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

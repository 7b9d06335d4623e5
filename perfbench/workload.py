"""One workload in a fresh interpreter: rounds of verify-conjecture calls.

Run by run.py with PYTHONPATH pointing at the checkout's src.  Each
round calls padiff.cli.main(["verify-conjecture", <module>, "--out",
<report>, ...]) once per module of the workload, one call at a time.
Rounds repeat while another round still fits in the run length, so a
run always attempts whole rounds.  The last line of stdout is a JSON
object with the per-call times and exit codes, the peak resident memory
and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time

# name -> (corpus modules, extra verify-conjecture arguments)
WORKLOADS = {
    "worked_example": (("ex44_p3", "ex44_p5", "ex44_p7"), ()),
    # 64 iterates: the depth at which the boundary reads settle on (0, 0);
    # at 40 the top radius still reads -1/12 and the transfer check fails
    "capped_kernel": (("hypergeom_half_p5",), ("--iterates", "64")),
    "exact_inverse": (("exp_small_p5",), ()),
}


def run_rounds(workload: str, seconds: float, out_dir: str, tracer=None):
    from padiff import cli

    modules, extra = WORKLOADS[workload]
    rounds = []
    started = time.perf_counter()
    with open(os.devnull, "w") as sink:
        while True:
            calls = []
            t_round = time.perf_counter()
            for module in modules:
                report = os.path.join(out_dir, "r%d_%s.json" % (len(rounds), module))
                argv = ["verify-conjecture", module, "--out", report, *extra]
                with contextlib.redirect_stdout(sink):
                    t0 = time.perf_counter()
                    rc = cli.main(argv)
                    t1 = time.perf_counter()
                if tracer is not None:
                    tracer.end_call()
                calls.append({"module": module, "seconds": t1 - t0, "rc": rc,
                              "report": report})
            rounds.append(calls)
            elapsed = time.perf_counter() - started
            if elapsed + (time.perf_counter() - t_round) > seconds:
                return rounds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="directory for reports")
    args = ap.parse_args(argv)

    import padiff.cli  # noqa: F401  (fail here, before any timing)
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    rounds = run_rounds(args.workload, args.seconds, args.out, tracer)
    result = {
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        wall = sum(c["seconds"] for calls in rounds for c in calls)
        result["layers"] = tracer.metrics(len(rounds), wall)
        with open(os.path.join(args.out, "spans.json"), "w") as fh:
            json.dump(tracer.spans, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

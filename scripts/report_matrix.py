#!/usr/bin/env python3
"""Write the padiff CLI's report matrix to OUTDIR.

Usage: PYTHONPATH=<tree>/src python3 scripts/report_matrix.py OUTDIR

Each run is `python -m padiff.cli` with the caller's environment, so the
PYTHONPATH picks the tree whose reports are written.  The runs:

- the eight module subcommands on ex44_p5, dual_ex44_p5, rank3_n2_p5,
  exp_small_p5, sum_exp_cancel_p5 and descriptions/ex44.json, at
  --order 120 --iterates 60;
- radii on the same six modules with --rho 1 --rho-grid 3,5,9 added: an
  interior read at r = 0 and a three-point boundary fit;
- verify-conjecture at the default config (order 400, 200 iterates) on
  the four bundled description files and on exp_small_p5 and ex44_p5,
  whose exact routes (the full-branch inverse and the Taylor iterates)
  then reach full size, and on hypergeom_half_p3, _p5 and _p7 at
  --iterates 64, the capped route (packed products, capped slot sums) at
  three primes;
- verify-conjecture on ex44_p5 at --iterates 400 and 800, where the
  scaled integer Taylor iterates reach 1,462 and 3,313 bits: well past
  the default's, still inside DEMOTE_BITS;
- verify-conjecture on exp_small_p5 at --order 600, where the
  horizontal section's coefficients from t**573 on pass DEMOTE_BITS and
  are demoted: the top 28 sums of the full-branch inverse, and of
  frame @ theta, then meet capped pairs and are folded pair by pair;
- corpus --jobs 2.

Run NAME leaves NAME.json (its report without the timestamp key),
NAME.txt (stdout and stderr together) and NAME.code (the exit code);
fprofile runs also leave NAME.csv and NAME.svg.  The description files
are read from this script's tree, so that both trees see the same paths.
`diff -r` of two output directories compares two trees' reports.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

DESCRIPTIONS = Path(__file__).resolve().parents[1] / "src" / "padiff" / "descriptions"
MODULES = ("ex44_p5", "dual_ex44_p5", "rank3_n2_p5", "exp_small_p5", "sum_exp_cancel_p5",
           str(DESCRIPTIONS / "ex44.json"))
SUBCOMMANDS = ("solve", "h0", "growth", "radii", "fprofile", "construct-l", "verify-dwork",
               "verify-conjecture")
DEFAULT_MODULES = ("exp_small_p5", "ex44_p5")
SMALL = ["--order", "120", "--iterates", "60"]
EDGE = ["--rho", "1", "--rho-grid", "3,5,9"]


def runs():
    """(name, argv) of every run."""
    for module in MODULES:
        stem = Path(module).stem
        for sub in SUBCOMMANDS:
            name = "%s.%s" % (sub, stem)
            extra = ["--csv", name + ".csv", "--svg", name + ".svg"] if sub == "fprofile" else []
            yield name, [sub, module] + SMALL + extra
        yield "radii-edge.%s" % stem, ["radii", module] + SMALL + EDGE
    for path in sorted(DESCRIPTIONS.glob("*.json")):
        yield "verify-conjecture.default.%s" % path.stem, ["verify-conjecture", str(path)]
    for module in DEFAULT_MODULES:
        yield "verify-conjecture.default.%s" % module, ["verify-conjecture", module]
    for prime in ("3", "5", "7"):
        module = "hypergeom_half_p" + prime
        yield "verify-conjecture." + module, ["verify-conjecture", module, "--iterates", "64"]
    for count in ("400", "800"):
        yield ("verify-conjecture.iterates%s.ex44_p5" % count,
               ["verify-conjecture", "ex44_p5", "--iterates", count])
    yield ("verify-conjecture.order600.exp_small_p5",
           ["verify-conjecture", "exp_small_p5", "--order", "600"])
    yield "corpus", ["corpus", "--jobs", "2"]


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 3
    outdir = Path(argv[0])
    outdir.mkdir(parents=True, exist_ok=True)
    # the runs start in outdir, so that reports name their files relatively
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        os.path.abspath(p) for p in env.get("PYTHONPATH", "").split(os.pathsep) if p)
    for name, args in runs():
        proc = subprocess.run([sys.executable, "-m", "padiff.cli"] + args
                              + ["--out", name + ".json"],
                              cwd=outdir, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        (outdir / (name + ".txt")).write_text(proc.stdout)
        (outdir / (name + ".code")).write_text("%d\n" % proc.returncode)
        report = outdir / (name + ".json")
        if report.exists():
            doc = json.loads(report.read_text())
            doc.pop("timestamp", None)
            report.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print("%-48s exit %d" % (name, proc.returncode))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The benchmark's traced pass still runs on this tree.

perfbench/spans.py patches padiff definitions by name and reads
attributes of their arguments and results (PowerIterates.mats, the
series methods it wraps).  A rename there passes every other test and
fails only in a traced benchmark run, so this runs a short traced pass
of the two routes, the exact Taylor iterates and the capped series
recursion, and checks that every per-layer metric the benchmark
declares comes out.  Nothing under perfbench/ is edited.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

from padiff import cli

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "perfbench"))
from spans import Tracer  # noqa: E402

RUNS = [
    ["verify-conjecture", "ex44_p5", "--order", "60", "--iterates", "20"],
    ["verify-conjecture", "hypergeom_half_p5", "--iterates", "30"],
]


def test_traced_pass_reports_every_declared_layer_metric(tmp_path, capsys):
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    tracer = Tracer()
    tracer.install()
    try:
        t0 = perf_counter()
        for i, argv in enumerate(RUNS):
            # the verdict does not matter here, only that the pass runs
            cli.main(argv + ["--out", str(tmp_path / ("r%d.json" % i))])
            tracer.end_call()
        wall = perf_counter() - t0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    metrics = tracer.metrics(1, wall)
    assert [name for name in declared if name not in metrics] == []
    assert metrics["radii.iterate_mats"] > 0 and metrics["series.mul_calls"] > 0

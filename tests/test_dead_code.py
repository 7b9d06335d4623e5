"""Guard against code that nothing in the package calls or reads.

Three checks.  The name scan: every top-level function, class and method
in src/padiff must be named somewhere else in src/padiff.  A name counts
as used when it appears as a bare name, an attribute, an imported name
or an identifier-like string; uses inside the definition's own body
(recursion) do not count.  The name scan is blind to a dead method that
shares its name with a live one, so the reachability pass runs each CLI
subcommand once on small modules under sys.setprofile, and every
top-level function and method must be entered.  Dunders are exempt from
both, since the language calls them.  The allowlist keeps the test
helpers: oracles, accessors and comparison relations no production path
needs, against which tests check the production code.

The field scan: every dataclass field in src/padiff must be read as an
attribute somewhere in src/padiff or in the benchmark's span recorder
(perfbench/spans.py), which reads report fields the CLI does not.  Like
the name scan it matches bare attribute names, so it cannot see a dead
field whose name another attribute shares: a field named path would be
hidden by os.path.  FIELD_ORACLES keeps the fields only a test reads.
"""

import ast
import contextlib
import io
import json
import sys
import tempfile
from collections import Counter
from functools import lru_cache
from pathlib import Path

import padiff
from padiff import corpus
from padiff.cli import main

SRC = Path(padiff.__file__).parent
TESTS = Path(__file__).parent

# the sources parsed once, at import, next to the import of padiff itself:
# the reachability pass matches definitions by line number against the
# code that runs, so a file edited later in the session must not count
TREES = {path.name: ast.parse(path.read_text(), filename=str(path))
         for path in sorted(SRC.glob("*.py"))}

# test helper -> a test that uses it to check production code
ORACLES = {
    "factorial_valuation": "test_padic.py::test_factorial_valuation_against_direct_product",
    "digit_sum": "test_padic.py::test_factorial_valuation_legendre_closed_form",
    "PadicNumber.norm_exponent": "test_properties.py::test_norm_multiplicative_and_ultrametric",
    "hypergeom_valuation_oracle": "test_acceptance.py::test_criterion_5_growth_bounds",
    "hypergeom_series_capped": "test_acceptance.py::test_criterion_5_growth_bounds",
    "SeriesMatrix.is_zero": "test_radii.py::test_trivial_iterates_vanish",
    "SmithDecomposition.diagonal_matrix":
        "test_properties.py::test_snf_reconstruction_chain_unimodular",
    "SmithDecomposition.rank": "test_properties.py::test_kernel_vectors_annihilate_and_span",
    "SeriesMatrix.entry": "test_diffmod.py::test_dual_matrix",
    "SeriesMatrix.agrees": "test_properties.py::test_snf_reconstruction_chain_unimodular",
    "TruncatedSeries.agrees": "test_properties.py::test_leibniz_identity",
    "PadicNumber.agrees": "test_properties.py::test_exact_times_capped_claims_only_true_digits",
}


# dataclass field -> a test that reads it; no production path does
FIELD_ORACLES = {
    "GaussNorm.attained_at": "test_series.py::test_gauss_norm_values",
    "SmithDecomposition.valid_order":
        "test_properties.py::test_snf_reconstruction_chain_unimodular",
}
SPANS = TESTS.parent / "perfbench" / "spans.py"


def _names(node) -> Counter:
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name.rsplit(".", 1)[-1]] += 1
        elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
              and n.value.isidentifier()):
            out[n.value] += 1
    return out


def _definitions():
    """(qualified name, file name, node) of every top-level function,
    class and method in src/padiff, dunders left out."""
    out = []
    for fname, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.append((node.name, fname, node))
            if isinstance(node, ast.ClassDef):
                out += [("%s.%s" % (node.name, sub.name), fname, sub)
                        for sub in node.body
                        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [(q, f, n) for q, f, n in out
            if not (n.name.startswith("__") and n.name.endswith("__"))]


def _unreferenced() -> list[str]:
    uses = Counter()
    for tree in TREES.values():
        uses += _names(tree)
    dead = []
    for qual, _, node in _definitions():
        if uses[node.name] - _names(node)[node.name] <= 0:
            dead.append(qual)
    return dead


def _is_dataclass(decorator) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def _unread_fields() -> list[str]:
    """Dataclass fields of src/padiff that no attribute load reads."""
    trees = list(TREES.values()) + [ast.parse(SPANS.read_text(), filename=str(SPANS))]
    reads = {n.attr for tree in trees for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return ["%s.%s" % (node.name, stmt.target.id)
            for tree in TREES.values() for node in tree.body
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list))
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            and stmt.target.id not in reads]


# exp_small_p5 with its entry capped and known on a 100-coefficient window:
# it reaches the description-file reader, the capped kernels and the
# full-branch witness; ex44 reaches the generic branch, and
# sum_exp_cancel_p5 (no sections) the kernel and tail-combination search
CAPPED_MODULE = {
    "format": "padiff-module-v1", "name": "exp_small_capped", "prime": 5, "rank": 1,
    "matrix": [[{"coefficients": [{"v": "1", "unit": "1", "precision": 30}] + ["0"] * 99,
                 "tail_exact": False}]],
}
SMALL = ["--order", "60", "--iterates", "20"]


@lru_cache(maxsize=None)
def _unreached() -> frozenset:
    """Definitions the pass never enters: each CLI subcommand once on a
    small module, verify-conjecture on both branches, a usage error, and
    every corpus builder.  The hypergeometric builder runs at a 40
    coefficient window: at its full window it takes seconds under the
    profiler, on the same code."""
    entered = set()
    prefix = str(SRC)

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(prefix):
            entered.add((Path(frame.f_code.co_filename).name, frame.f_code.co_firstlineno))

    with tempfile.TemporaryDirectory() as tmp:
        capped = str(Path(tmp) / "capped.json")
        Path(capped).write_text(json.dumps(CAPPED_MODULE))
        out = ["--out", str(Path(tmp) / "report.json")]
        runs = [
            ["solve", capped], ["h0", capped], ["growth", capped],
            ["radii", capped, "--rho-grid", "4,8", "--rho", "p^-1/4"],
            ["fprofile", capped, "--csv", str(Path(tmp) / "f.csv"),
             "--svg", str(Path(tmp) / "f.svg")],
            ["construct-l", capped], ["verify-dwork", capped, "--tolerance-growth", "0.1"],
            ["verify-conjecture", capped],
            ["verify-conjecture", str(SRC / "descriptions" / "ex44.json")],
            ["corpus", "--only", "sum_exp_cancel_p5"],
        ]
        codes = []
        sink = io.StringIO()
        sys.setprofile(hook)
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                for argv in runs:
                    codes.append(main(argv + SMALL + out))
                codes.append(main(["radii"]))
                for name in corpus.names():
                    if not name.startswith("hypergeom"):
                        corpus.build(name)
                corpus.hypergeom_half(3, window=40)
        finally:
            sys.setprofile(None)
    # every run passes, and the bare "radii" is the usage error (exit 3)
    assert codes == [0] * len(runs) + [3], sink.getvalue()
    return frozenset(qual for qual, fname, node in _definitions()
                     if not isinstance(node, ast.ClassDef)
                     and (fname, _first_line(node)) not in entered)


def _first_line(node) -> int:
    # a decorated function's code starts at its first decorator
    return node.decorator_list[0].lineno if node.decorator_list else node.lineno


def test_every_definition_is_referenced():
    dead = [q for q in _unreferenced() if q not in ORACLES]
    assert not dead, ("defined in src/padiff but never used there; delete it, "
                      "or list it in ORACLES with the test that needs it: %s"
                      % ", ".join(dead))


def test_every_definition_is_reached():
    dead = sorted(_unreached() - set(ORACLES))
    assert not dead, ("no CLI subcommand enters these; delete them, or list "
                      "them in ORACLES with the test that needs them: %s"
                      % ", ".join(dead))


def _uses(test: str, name: str) -> bool:
    fname, tname = test.split("::")
    text = (TESTS / fname).read_text()
    body = text[text.index("def %s(" % tname):]
    nxt = body.find("\ndef ", 1)
    body = body if nxt < 0 else body[:nxt]
    return name in body


def test_oracle_allowlist_is_current():
    for qual, test in ORACLES.items():
        # a helper that production code now runs needs no entry
        assert qual in _unreached(), "%s is reached from the CLI; drop it from ORACLES" % qual
        assert _uses(test, qual.rsplit(".", 1)[-1]), "%s no longer uses %s" % (test, qual)


def test_every_dataclass_field_is_read():
    unread = _unread_fields()
    dead = [q for q in unread if q not in FIELD_ORACLES]
    assert not dead, ("dataclass fields that nothing in src/padiff or perfbench/spans.py "
                      "reads; delete them, or list them in FIELD_ORACLES with the test "
                      "that reads them: %s" % ", ".join(dead))
    for qual, test in FIELD_ORACLES.items():
        assert qual in unread, "%s is read outside the tests; drop it from FIELD_ORACLES" % qual
        assert _uses(test, qual.rsplit(".", 1)[-1]), "%s no longer reads %s" % (test, qual)

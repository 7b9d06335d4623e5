"""Guard against code that nothing in the package calls or reads.

Three checks.  The name scan: every top-level function, class and method
in src/padiff must be named somewhere else in src/padiff.  A name counts
as used when it appears as a bare name, an attribute, an imported name
or an identifier-like string; uses inside the definition's own body
(recursion) do not count.  The name scan is blind to a dead method that
shares its name with a live one, so the reachability pass runs each CLI
subcommand once on small modules under sys.setprofile, and every
top-level function and method must be entered.  Dunders are exempt from
both, since the language calls them, and so are the definitions the
benchmark's span recorder (perfbench/spans.py) patches, since it looks
each one up whether or not a CLI path calls it.  Nothing else is:
a helper that only tests need (an oracle, an accessor, a comparison
relation) lives in tests/oracles.py.

The field scan: every dataclass field in src/padiff must be read as an
attribute somewhere in src/padiff or in the benchmark's span recorder
(perfbench/spans.py), which reads report fields the CLI does not.  Like
the name scan it matches bare attribute names, so it cannot see a dead
field whose name another attribute shares: a field named path would be
hidden by os.path.  A field that only a test reads is deleted.
"""

import ast
import contextlib
import io
import json
import sys
import tempfile
from collections import Counter
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

SPANS = TESTS.parent / "perfbench" / "spans.py"
SPANS_TREE = ast.parse(SPANS.read_text(), filename=str(SPANS))

# the definitions spans.py replaces, by patch(owners, attr, wrapper): a
# module's function, or Class.attr for an owner bound as X = module.Class
_ALIASES = {node.targets[0].id: node.value.attr for node in ast.walk(SPANS_TREE)
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Attribute)}
PATCHED = {"%s.%s" % (_ALIASES[owner.id], call.args[1].value) if owner.id in _ALIASES
           else call.args[1].value
           for call in ast.walk(SPANS_TREE)
           if isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "patch"
           and isinstance(call.args[1], ast.Constant)
           for owner in call.args[0].elts}


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
    class and method in src/padiff, dunders and PATCHED left out."""
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
            if not (n.name.startswith("__") and n.name.endswith("__"))
            and q not in PATCHED]


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
    trees = list(TREES.values()) + [SPANS_TREE]
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
    dead = _unreferenced()
    assert not dead, ("defined in src/padiff but never used there; delete it, "
                      "or move it to tests/ if only a test needs it: %s" % ", ".join(dead))


def test_every_definition_is_reached():
    dead = sorted(_unreached())
    assert not dead, ("no CLI subcommand enters these; delete them, or move "
                      "them to tests/ if only a test needs them: %s" % ", ".join(dead))


def test_every_dataclass_field_is_read():
    dead = _unread_fields()
    assert not dead, ("dataclass fields that nothing in src/padiff or perfbench/spans.py "
                      "reads; delete them: %s" % ", ".join(dead))

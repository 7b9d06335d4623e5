"""Guard against code that nothing in the package calls.

Every top-level function, class and method in src/padiff must be named
somewhere else in src/padiff.  A name counts as used when it appears as
a bare name, an attribute, an imported name or an identifier-like
string; uses inside the definition's own body (recursion) do not count.
Dunders are exempt, since the language calls them.  The allowlist keeps
the test oracles: helpers no production path needs, against which tests
check the production code.
"""

import ast
from collections import Counter
from pathlib import Path

import padiff

SRC = Path(padiff.__file__).parent
TESTS = Path(__file__).parent

# oracle -> a test that compares production code against it
ORACLES = {
    "factorial_valuation": "test_padic.py::test_factorial_valuation_against_direct_product",
    "digit_sum": "test_padic.py::test_factorial_valuation_legendre_closed_form",
    "PadicNumber.norm_exponent": "test_properties.py::test_norm_multiplicative_and_ultrametric",
    "hypergeom_valuation_oracle": "test_acceptance.py::test_criterion_5_growth_bounds",
    "hypergeom_series_capped": "test_acceptance.py::test_criterion_5_growth_bounds",
    "SeriesMatrix.is_zero": "test_radii.py::test_trivial_iterates_vanish",
    "SmithDecomposition.diagonal_matrix":
        "test_properties.py::test_snf_reconstruction_chain_unimodular",
}


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


def _unreferenced() -> list[str]:
    uses = Counter()
    defs = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        uses += _names(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                defs += [("%s.%s" % (node.name, sub.name), sub) for sub in node.body
                         if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))]
    dead = []
    for qual, node in defs:
        name = qual.rsplit(".", 1)[-1]
        if name.startswith("__") and name.endswith("__"):
            continue
        if uses[name] - _names(node)[name] <= 0:
            dead.append(qual)
    return dead


def test_every_definition_is_referenced():
    dead = [q for q in _unreferenced() if q not in ORACLES]
    assert not dead, ("defined in src/padiff but never used there; delete it, "
                      "or list it in ORACLES with the test that needs it: %s"
                      % ", ".join(dead))


def test_oracle_allowlist_is_current():
    dead = set(_unreferenced())
    for qual, test in ORACLES.items():
        # an oracle that production code now uses needs no entry
        assert qual in dead, "%s is used in src/padiff; drop it from ORACLES" % qual
        fname, tname = test.split("::")
        text = (TESTS / fname).read_text()
        body = text[text.index("def %s(" % tname):]
        nxt = body.find("\ndef ", 1)
        body = body if nxt < 0 else body[:nxt]
        assert qual.rsplit(".", 1)[-1] in body, "%s no longer uses %s" % (test, qual)

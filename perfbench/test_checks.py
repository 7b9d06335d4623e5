"""Self-tests of the benchmark's checkers.

    python3 -m pytest -q perfbench/test_checks.py

The report fixture runs the program once per benchmark module (about a
minute), so each checker is tried on real reports, then on copies with
one digit, one radius or one verdict altered.
"""

from __future__ import annotations

import copy
import json
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from workload import WORKLOADS  # noqa: E402

MODULES = [(w, m) for w, (mods, _) in WORKLOADS.items() for m in mods]


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    from padiff import cli

    out_dir = tmp_path_factory.mktemp("reports")
    docs = {}
    for workload, (modules, extra) in WORKLOADS.items():
        for module in modules:
            path = out_dir / (module + ".json")
            rc = cli.main(["verify-conjecture", module, "--out", str(path), *extra])
            assert rc == 0
            docs[module] = json.loads(path.read_text())
    return docs


# ----------------------------------------------------------------------
# alterations


def _bump_digit(claim, p: int):
    """The same coefficient with one digit changed."""
    if isinstance(claim, str):
        num, _, den = claim.partition("/")
        last = str((int(num[-1]) + 1) % 10)
        return num[:-1] + last + ("/" + den if den else "")
    out = dict(claim)
    prec = int(claim["precision"])
    out["unit"] = str((int(claim["unit"]) + p ** (prec - 1)) % p ** prec)
    return out


def _series_to_alter(workload: str, report: dict):
    """(coefficient list, index) of a claimed digit the checker must read."""
    witness = report["witness"]
    if workload == "worked_example":
        return witness["phi"][0][0]["coefficients"], 1
    if workload == "capped_kernel":
        return witness["theta"][1][1]["coefficients"], 7
    return witness["theta"][0][0]["coefficients"], 7


def alter_digit(workload, doc, p):
    coeffs, k = _series_to_alter(workload, doc["report"])
    coeffs[k] = _bump_digit(coeffs[k], p)


def alter_radius(workload, doc, p):
    radius = doc["report"]["boundary"]["log_radii"][0]
    radius["base_p_exponent"] = str(Fraction(radius["base_p_exponent"]) - Fraction(1, 8))


def alter_verdict(workload, doc, p):
    doc["report"]["verdict"] = "FAIL"


@pytest.mark.parametrize("workload,module", MODULES)
def test_checker_accepts_program_reports(reports, workload, module):
    assert checks.CHECKERS[workload](module, reports[module]) == []


@pytest.mark.parametrize("alter", [alter_digit, alter_radius, alter_verdict])
@pytest.mark.parametrize("workload,module", MODULES)
def test_checker_rejects_one_alteration(reports, workload, module, alter):
    doc = copy.deepcopy(reports[module])
    alter(workload, doc, int(module.rsplit("_p", 1)[1]))
    assert checks.CHECKERS[workload](module, doc) != []


def test_capped_checker_reads_the_reciprocal(reports):
    doc = copy.deepcopy(reports["hypergeom_half_p5"])
    coeffs = doc["report"]["witness"]["theta"][0][0]["coefficients"]
    coeffs[3] = _bump_digit(coeffs[3], 5)
    assert checks.check_capped_kernel("hypergeom_half_p5", doc) != []


# ----------------------------------------------------------------------
# closed forms against brute force


def _brute_vp(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@pytest.mark.parametrize("p", [3, 5, 7])
def test_legendre_matches_counting_factors(p):
    for n in range(60):
        brute = sum(_brute_vp(j, p) for j in range(1, n + 1))
        assert checks.legendre_vp_factorial(n, p) == brute


def _brute_hypergeom(order: int) -> list[Fraction]:
    out = [Fraction(1)]
    for k in range(order):
        out.append(out[-1] * Fraction(2 * k + 1, 2 * k + 2) ** 2)
    return out


def test_hypergeom_series_and_valuations_match_brute_force():
    brute = _brute_hypergeom(40)
    assert checks.hypergeom_series(40) == brute
    for p in (3, 5, 7):
        for k, value in enumerate(brute):
            assert checks.hypergeom_vp(k, p) == checks.vp(value, p)


def test_reciprocal_times_series_is_one():
    order = 30
    f, g = _brute_hypergeom(order), checks.hypergeom_reciprocal(order)
    product = [sum(f[i] * g[n - i] for i in range(n + 1)) for n in range(order + 1)]
    assert product == [1] + [0] * order


def test_exp_series_matches_recursion():
    value = Fraction(1)
    for k, got in enumerate(checks.exp_series(5, 25)):
        assert got == value
        value = value * 5 / (k + 1)


def test_claim_agreement_reads_only_claimed_digits():
    quarter = Fraction(1, 4)                   # 1/4 = 94 mod 5**3
    assert checks.claim_agrees({"v": "0", "unit": "94", "precision": 3}, quarter, 5)
    assert not checks.claim_agrees({"v": "0", "unit": "95", "precision": 3}, quarter, 5)
    assert checks.claim_agrees({"v": "0", "unit": "4", "precision": 1}, quarter, 5)
    assert checks.claim_agrees({"v": "2", "unit": "0", "precision": 0}, Fraction(25), 5)
    assert not checks.claim_agrees({"v": "2", "unit": "0", "precision": 0}, Fraction(5), 5)
    assert checks.claim_agrees("1/4", quarter, 5)
    assert not checks.claim_agrees("1/3", quarter, 5)


def test_horizontal_residual_of_worked_example():
    t, one = [Fraction(0), Fraction(1), Fraction(0)], [Fraction(1), Fraction(0), Fraction(0)]
    zero = checks.horizontal_residual([t, one], checks.EX44_MATRIX)
    assert all(x == 0 for row in zero for x in row)
    t2 = [Fraction(0), Fraction(0), Fraction(1)]
    assert any(x != 0 for row in checks.horizontal_residual([t2, one], checks.EX44_MATRIX)
               for x in row)

"""CLI and module-file tests: parsing, exit codes, report determinism.

Slow verification paths run with reduced windows; the numeric values
they print are pinned elsewhere, here we check plumbing: flags land in
the config, reports are byte-stable modulo the timestamp, and the exit
code contract holds on both the happy and the failing paths.
"""

import concurrent.futures
import json
import time
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import is_zero
import padiff
from padiff.cli import main
from padiff.diffmod import H0Report, DifferentialModule
from padiff.pipeline import WitnessError
from padiff.radii import PowerIterates
from padiff import cli
from padiff.config import WorkbenchConfig
from padiff.modfile import (MAX_COEFFS, MAX_DEGREE, MAX_ORDER, MAX_RANK,
                            ModfileError, _is_prime, module_from_json,
                            parse_module, parse_polynomial)
from test_dead_code import CAPPED_MODULE

DESCRIPTIONS = Path(padiff.__file__).parent / "descriptions"


def run(*argv):
    return main(list(argv))


# ----------------------------------------------------------------------
# description files


def test_parse_polynomial_oracles():
    s = parse_polynomial("3/4*t^2 - t", 5)
    assert [c.exact for c in s.coeffs] == [0, -1, Fraction(3, 4)]
    s = parse_polynomial("-1", 5)
    assert [c.exact for c in s.coeffs] == [-1]
    s = parse_polynomial("2t + 1/2", 5)
    assert [c.exact for c in s.coeffs] == [Fraction(1, 2), 2]
    s = parse_polynomial("t - t", 5)
    assert all(c.is_exact_zero for c in s.coeffs)


@pytest.mark.parametrize("text,message", [
    ("t^", "expected an exponent"),
    ("3 4", "expected \\+ or -"),
    ("1/0", "zero denominator"),
    ("t^2x", "syntax error at 'x'"),
    ("*t", "syntax error"),
    ("", "empty entry"),
])
def test_parse_polynomial_rejects(text, message):
    with pytest.raises(ModfileError, match=message):
        parse_polynomial(text, 5)


def test_parse_module_bundled_ex44():
    desc = parse_module(DESCRIPTIONS / "ex44.json")
    assert desc.name == "ex44"
    assert desc.module.p == 5
    assert desc.module.rank == 2
    entry = desc.module.matrix.entries[1][1]
    assert [c.exact for c in entry.coeffs] == [0, -1]
    assert desc.expected["h0_dim"] == 1


def test_parse_module_bundled_trivial3():
    desc = parse_module(DESCRIPTIONS / "trivial3.json")
    assert desc.module.rank == 3
    assert is_zero(desc.module.matrix)


def test_parse_module_rejects_composite_prime(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "format": "padiff-module-v1", "name": "bad", "prime": 6,
        "rank": 1, "matrix": [["1"]]}))
    with pytest.raises(ModfileError, match="not prime"):
        parse_module(path)


def _rank1_doc(prime) -> dict:
    return {"format": "padiff-module-v1", "name": "big", "prime": prime,
            "rank": 1, "matrix": [["1"]]}


def test_is_prime_large_values_fast():
    # Miller-Rabin: a 61-bit Mersenne prime is decided at once, and a
    # module is built at it (never solved)
    assert _is_prime(2 ** 61 - 1)
    _, module, _ = module_from_json(_rank1_doc(2 ** 61 - 1))
    assert module.p == 2 ** 61 - 1
    assert [n for n in range(30) if _is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


@pytest.mark.parametrize("n", [
    561, 41041,                     # Carmichael numbers
    2 ** 61 + 1,                    # divisible by 3
    3825123056546413051,            # strong pseudoprime to the bases up to 31
])
def test_is_prime_rejects_composites(n):
    assert not _is_prime(n)
    with pytest.raises(ModfileError, match="not prime"):
        module_from_json(_rank1_doc(n))


@pytest.mark.parametrize("n", [
    318665857834031151167461,       # strong pseudoprime to the bases up to 37
    2 ** 89 - 1,                    # a prime past the exact range
])
def test_is_prime_rejects_values_past_the_bound(n):
    with pytest.raises(ModfileError, match="too large"):
        _is_prime(n)
    with pytest.raises(ModfileError, match="too large"):
        module_from_json(_rank1_doc(n))


def test_parse_module_rejects_shape_mismatch(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "format": "padiff-module-v1", "name": "bad", "prime": 5,
        "rank": 2, "matrix": [["0"]]}))
    with pytest.raises(ModfileError, match="shape"):
        parse_module(path)


def test_parse_module_reports_entry_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "format": "padiff-module-v1", "name": "bad", "prime": 5,
        "rank": 2, "matrix": [["0", "t^"], ["0", "0"]]}))
    with pytest.raises(ModfileError, match=r"entry \(0, 1\)"):
        parse_module(path)


# size bounds: every value below is rejected before anything of its size
# is allocated


@pytest.mark.parametrize("text", ["t^10001", "3*t^" + "9" * 5000],
                         ids=["degree-10001", "5000-digit-exponent"])
def test_parse_polynomial_rejects_degree_past_the_bound(text):
    with pytest.raises(ModfileError, match="degree bound"):
        parse_polynomial(text, 5)


def test_parse_polynomial_accepts_degree_at_the_bound():
    assert parse_polynomial("t^%d" % MAX_DEGREE, 5).order == MAX_DEGREE


@pytest.mark.parametrize("entry", [
    ["0"] * (MAX_COEFFS + 1),
    {"coefficients": ["0"] * (MAX_COEFFS + 1), "tail_exact": False},
])
def test_module_rejects_coefficient_count_past_the_bound(entry):
    doc = _rank1_doc(5)
    doc["matrix"] = [[entry]]
    with pytest.raises(ModfileError, match="coefficients exceed"):
        module_from_json(doc)


@pytest.mark.parametrize("rank", [0, MAX_RANK + 1, 10 ** 12])
def test_module_rejects_rank_outside_the_bound(rank):
    doc = _rank1_doc(5)
    doc["rank"] = rank
    with pytest.raises(ModfileError, match="outside"):
        module_from_json(doc)


def _capped_entry_doc(*coeffs) -> dict:
    doc = _rank1_doc(5)
    doc["matrix"] = [[{"coefficients": list(coeffs), "tail_exact": False}]]
    return doc


@pytest.mark.parametrize("coeff", [
    {"v": "0", "unit": "1", "precision": 10 ** 6},
    {"v": "0", "unit": "1", "precision": MAX_ORDER + 1},
    {"v": "0", "unit": "1", "precision": -MAX_ORDER - 1},
    {"v": str(MAX_ORDER + 1), "unit": "1", "precision": 10},
    {"v": str(-MAX_ORDER - 1), "unit": "1", "precision": 10},
], ids=["precision-1e6", "precision-past", "precision-negative", "v-past",
        "v-negative"])
def test_module_rejects_capped_precision_and_valuation_past_the_bound(coeff):
    # the validator alone: every product works mod p**precision, and a
    # file at precision 10**6 once stalled a small h0 solve
    with pytest.raises(ModfileError, match=r"entry \(0, 0\).*outside"):
        module_from_json(_capped_entry_doc(coeff))


def test_module_accepts_capped_precision_and_valuation_at_the_bound():
    _, module, _ = module_from_json(_capped_entry_doc(
        {"v": str(-MAX_ORDER), "unit": "1", "precision": MAX_ORDER},
        {"v": "inf", "unit": "0", "precision": 10 ** 6}))
    c, z = module.matrix.entries[0][0].coeffs
    assert (c.v, c.N) == (-MAX_ORDER, MAX_ORDER)
    assert z.is_exact_zero


@pytest.mark.parametrize("entry", ["1" * 5000 + "*t", [], ["x"], ["1/0"]],
                         ids=["5000-digit-literal", "empty-list", "bad-rational",
                              "zero-denominator"])
def test_module_reports_malformed_entries_as_modfile_errors(entry):
    # a 5000-digit literal is past int()'s digit limit, an empty list has
    # no constant term: each is a ModfileError (exit 3), not a traceback
    doc = _rank1_doc(5)
    doc["matrix"] = [[entry]]
    with pytest.raises(ModfileError, match=r"entry \(0, 0\)"):
        module_from_json(doc)


@pytest.mark.parametrize("coeff", ["1e2000000000", "1e-2000000000"])
def test_cli_rejects_exponent_coefficients_fast(tmp_path, capsys, coeff):
    # eight bytes of "1e200000" once built 10**200000 and then spent
    # seconds peeling its factors of 5; a coefficient string is n or n/d
    path = tmp_path / "exp.json"
    doc = _rank1_doc(5)
    doc["matrix"] = [[["1", coeff]]]
    path.write_text(json.dumps(doc))
    start = time.monotonic()
    assert run("h0", str(path)) == 3
    assert time.monotonic() - start < 0.5
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: %s" % path), err


def test_parse_module_rejects_integers_past_the_digit_limit(tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(_rank1_doc(5)).replace('"prime": 5', '"prime": 5' + "0" * 5000))
    with pytest.raises(ModfileError):
        parse_module(path)
    assert run("h0", str(path)) == 3


@pytest.mark.parametrize("orders", [{"solve": 10 ** 12}, {"iterates": 0},
                                    {"iterates": MAX_ORDER + 1}])
def test_parse_module_rejects_orders_outside_the_bound(tmp_path, orders):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(dict(_rank1_doc(5), orders=orders)))
    with pytest.raises(ModfileError, match="outside"):
        parse_module(path)
    assert run("h0", str(path)) == 3


def _without(key) -> dict:
    return {k: v for k, v in _rank1_doc(5).items() if k != key}


@pytest.mark.parametrize("doc", [
    [1], _without("prime"), _without("rank"), _without("matrix"),
    dict(_rank1_doc(5), prime="x"), dict(_rank1_doc(5), rank="x"),
    dict(_rank1_doc(5), rank=1.5), dict(_rank1_doc(5), matrix=5),
    dict(_rank1_doc(5), matrix=[[5]]), dict(_rank1_doc(5), orders=5),
    dict(_rank1_doc(5), orders={"solve": "40"}), dict(_rank1_doc(5), expected=5),
    dict(_rank1_doc(5), orders={"growth": 40}),
], ids=["top-level-list", "no-prime", "no-rank", "no-matrix", "prime-string",
        "rank-string", "rank-float", "matrix-number", "entry-number",
        "orders-number", "orders-string", "expected-number", "orders-growth-key"])
def test_cli_malformed_documents_exit_3(tmp_path, capsys, doc):
    # a malformed document is a ModfileError (exit 3), not a traceback
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run("h0", str(path)) == 3
    assert "error: %s" % path in capsys.readouterr().err


# ----------------------------------------------------------------------
# exit codes


def test_cli_h0_corpus_name(capsys):
    assert run("h0", "ex44_p5", "--order", "200") == 0
    assert "h0 = 1 of 2" in capsys.readouterr().out


def test_cli_solve_description_file(capsys):
    assert run("solve", str(DESCRIPTIONS / "ex44.json"), "--order", "200") == 0
    out = capsys.readouterr().out
    assert "convergent" in out and "H^0 dimension 1" in out


def test_cli_usage_errors():
    assert run("h0", "no_such_module") == 3
    assert run("frobnicate") == 3
    assert run("radii", "ex44_p5", "--rho-grid", "0,4") == 3
    assert run("corpus", "--only", "nope") == 3
    assert run() == 3


def test_cli_malformed_file_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "format": "padiff-module-v1", "name": "bad", "prime": 5,
        "rank": 1, "matrix": [["t^"]]}))
    assert run("h0", str(path)) == 3
    assert "expected an exponent" in capsys.readouterr().err


def test_cli_radii_bad_rho_exits_3_before_any_read(capsys):
    assert run("radii", "ex44_p5", "--iterates", "2",
               "--rho", "p^-" + "1" * 5000) == 3
    assert "r=" not in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["verify-conjecture", "ex44_p5", "--iterates", "400", "--out"],
    ["fprofile", "ex44_p5", "--iterates", "20", "--csv"],
    ["fprofile", "ex44_p5", "--iterates", "20", "--svg"],
])
@pytest.mark.parametrize("where", ["missing/x.out", "."])
def test_cli_bad_output_path_exits_3_before_the_run(argv, where, tmp_path, monkeypatch, capsys):
    # a file in a missing directory, or a path that is a directory
    def load(_ref):
        raise AssertionError("a bad output path must stop the run before the load")
    monkeypatch.setattr(cli, "_load", load)
    path = tmp_path / where
    assert run(*argv, str(path)) == 3
    out, err = capsys.readouterr()
    assert out == ""            # no verdict line, no profile row
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: not a file in an existing directory: %s" % path]


def test_cli_radii_rejects_over_long_rho_grid_token(capsys):
    # past int()'s digit limit: a usage error, not a ValueError traceback
    assert run("radii", "ex44_p5", "--iterates", "2", "--rho-grid", "1" * 5000) == 3
    out, err = capsys.readouterr()
    assert "r=" not in out and "--rho-grid" in err


def _forbid_solves(monkeypatch):
    def solve(*_args, **_kwargs):
        raise AssertionError("a usage error must stop the run before any solve")
    monkeypatch.setattr(DifferentialModule, "solve_horizontal", solve)
    monkeypatch.setattr(PowerIterates, "__init__", solve)


@pytest.mark.parametrize("argv", [
    ["radii", "ex44_p5", "--iterates", "20", "--rho-grid", "4"],
    ["radii", "ex44_p5", "--iterates", "20", "--rho-grid", "4,4"],
    ["radii", "ex44_p5", "--iterates", "20", "--rho-grid", "8,8,4"],
    ["verify-conjecture", "ex44_p5", "--rho-grid", "8"],
    ["fprofile", "ex44_p5", "--rho-grid", "4"],
], ids=["radii-one-k", "radii-repeated-k", "radii-repeated-k-of-three",
        "conjecture-one-k", "fprofile-one-k"])
def test_cli_rho_grid_needs_two_distinct_k(monkeypatch, capsys, argv):
    # the boundary fit divides by the gap between the two smallest radii
    _forbid_solves(monkeypatch)
    assert run(*argv) == 3
    assert "--rho-grid" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["h0", "ex44_p5", "--order", "-5"],
    ["h0", "ex44_p5", "--order", "0"],
    ["solve", "ex44_p5", "--order", str(MAX_ORDER + 1)],
    ["radii", "ex44_p5", "--iterates", "0"],
    ["radii", "ex44_p5", "--iterates", str(MAX_ORDER + 1)],
], ids=["order-negative", "order-zero", "order-past", "iterates-zero",
        "iterates-past"])
def test_cli_order_and_iterates_are_bounded(monkeypatch, capsys, argv):
    # the bound a description file's orders have; zero iterates once read
    # the boundary radii of ex44_p5 as (0, 0)
    _forbid_solves(monkeypatch)
    assert run(*argv) == 3
    assert "must be in 1..%d" % MAX_ORDER in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-5", "-0.5", "x"])
def test_cli_tolerance_growth_must_be_finite_and_nonnegative(monkeypatch, capsys, value):
    # a NaN bound fails both d <= bound and d > bound, so verify-conjecture
    # printed FAIL beside "dwork: PASS"; an infinite bound passes every section
    _forbid_solves(monkeypatch)
    assert run("verify-conjecture", "trivial2_p5", "--order", "60", "--iterates", "20",
               "--tolerance-growth=" + value) == 3
    assert "--tolerance-growth" in capsys.readouterr().err


@pytest.mark.parametrize("value,want", [("0", 0.0), ("0.5", 0.5), ("1e-3", 0.001)])
def test_cli_tolerance_growth_accepts_finite_nonnegative(value, want):
    args = cli._build_parser().parse_args(["corpus", "--tolerance-growth", value])
    assert cli._config(args).growth_tolerance == want


# CAPPED_MODULE is known on a 100-coefficient window (matrix window 99);
# the iterates keep 32 coefficients of window past their count, so it
# supports at most 67 of them
@pytest.mark.parametrize("argv,count", [
    (["radii"], 200), (["fprofile"], 200), (["verify-conjecture"], 200),
    (["radii", "--iterates", "68"], 68),
])
def test_cli_window_too_short_for_iterates_exits_3(tmp_path, capsys, argv, count):
    # bad input, not a FAIL verdict (exit 1)
    path = tmp_path / "short.json"
    path.write_text(json.dumps(CAPPED_MODULE))
    assert run(argv[0], str(path), *argv[1:]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: matrix window 99 cannot support %d iterates" % count]


def test_cli_verify_conjecture_refuses_window_before_h0(tmp_path, monkeypatch, capsys):
    # the boundary stage refuses the iterate count; h0 is never solved
    def h0_basis(self, order):
        raise AssertionError("h0 solved before the iterate window was checked")
    monkeypatch.setattr(DifferentialModule, "h0_basis", h0_basis)
    path = tmp_path / "short.json"
    path.write_text(json.dumps(CAPPED_MODULE))
    assert run("verify-conjecture", str(path)) == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: matrix window 99 cannot support 200 iterates"]


@pytest.mark.parametrize("argv", [
    ["solve"], ["h0"], ["growth"], ["verify-dwork"], ["construct-l"],
    ["radii", "--iterates", "67"],
])
def test_cli_short_window_runs_what_it_supports(tmp_path, argv):
    path = tmp_path / "short.json"
    path.write_text(json.dumps(CAPPED_MODULE))
    assert run(argv[0], str(path), *argv[1:]) == 0


def test_every_config_field_is_set_by_a_flag():
    # a WorkbenchConfig field that no flag reaches fails here; no solve runs
    args = cli._build_parser().parse_args([
        "corpus", "--order", "7", "--iterates", "9", "--rho-grid", "3,5",
        "--tolerance-growth", "0.5", "--jobs", "3"])
    cfg = cli._config(args)
    for f in fields(WorkbenchConfig):
        assert getattr(cfg, f.name) != f.default, f.name
        assert f.name in cli._config_echo(cfg)
    # a description file's orders stand in for the absent flags
    bare = cli._build_parser().parse_args(["corpus"])
    assert cli._config(bare, {"solve": 7, "iterates": 9}) == WorkbenchConfig(order=7, iterates=9)


def test_cli_solve_inconclusive_exits_2(monkeypatch):
    monkeypatch.setattr(DifferentialModule, "h0_basis",
                        lambda self, cfg=None: H0Report([], 0, True, 0))
    assert run("solve", "trivial1_p5") == 2


def test_cli_conjecture_transfer_unknown_while_h0_inconclusive(monkeypatch, tmp_path, capsys):
    # an inconclusive h0 leaves the transfer check unknown, and the exit
    # code is the INCONCLUSIVE verdict's, not FAIL's
    monkeypatch.setattr(DifferentialModule, "h0_basis",
                        lambda self, order: H0Report([], 0, True, 0))
    out = tmp_path / "rep.json"
    assert run("verify-conjecture", "exp_unit_p5", "--order", "60", "--iterates", "20",
               "--out", str(out)) == 2
    assert "transfer: unknown" in capsys.readouterr().out
    assert json.loads(out.read_text())["report"]["transfer"]["consistent"] is None


def test_cli_growth_capped_tail_exits_2(capsys):
    # the capped hypergeometric tail cannot certify its zeros
    assert run("growth", "hypergeom_half_p5") == 2
    assert "indeterminate" in capsys.readouterr().out


# ----------------------------------------------------------------------
# reports


def test_cli_radii_unit_rho_sample(tmp_path, capsys):
    out = tmp_path / "radii.json"
    code = run("radii", str(DESCRIPTIONS / "exp1.json"),
               "--iterates", "120", "--rho", "1", "--out", str(out))
    assert code == 0
    assert "p^(-1/4)" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["sample"]["log_radii"] == [{"base_p_exponent": "-1/4"}]
    assert doc["boundary"]["log_radii"] == [{"base_p_exponent": "-1/4"}]
    assert doc["config"]["iterates"] == 120


def test_cli_exp2_reads_both_radii_at_omega(tmp_path):
    # two copies of the exponential module: the radii of a direct sum
    # are the union of its summands', so neither reaches the unit circle
    path = str(DESCRIPTIONS / "exp2.json")
    assert run("verify-conjecture", path, "--order", "60", "--iterates", "60") == 0
    out = tmp_path / "radii.json"
    assert run("radii", path, "--order", "60", "--iterates", "60", "--out", str(out)) == 0
    boundary = json.loads(out.read_text())["boundary"]
    assert boundary["log_radii"] == [{"base_p_exponent": "-1/4"}] * 2
    assert boundary["solvable_rank"] == 0


def test_cli_radii_interior_rho(capsys):
    assert run("radii", "exp1", "--iterates", "60", "--rho", "p^-1/4") == 3
    assert run("radii", "exp_unit_p5", "--iterates", "60",
               "--rho", "p^-1/4") == 0
    assert run("radii", "exp_unit_p5", "--iterates", "60", "--rho", "junk") == 3


def test_cli_json_deterministic_modulo_timestamp(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / ("%s.json" % tag)
        assert run("verify-conjecture", "ex44_p5", "--iterates", "120",
                   "--out", str(out)) == 0
        lines = [ln for ln in out.read_text().splitlines()
                 if '"timestamp"' not in ln]
        outs.append(lines)
    assert outs[0] == outs[1]


def test_cli_conjecture_checks_expected_block(tmp_path, capsys):
    doc = json.loads((DESCRIPTIONS / "ex44.json").read_text())
    assert run("verify-conjecture", str(DESCRIPTIONS / "ex44.json"),
               "--order", "200", "--iterates", "120") == 0
    assert "mismatch" not in capsys.readouterr().out
    doc["expected"]["h0_dim"] = 2
    path = tmp_path / "ex44_wrong.json"
    path.write_text(json.dumps(doc))
    assert run("verify-conjecture", str(path),
               "--order", "200", "--iterates", "120") == 1
    out = capsys.readouterr().out
    assert "expected h0_dim: mismatch" in out
    assert "boundary_log_radii: mismatch" not in out


def test_cli_conjecture_report_schema(tmp_path):
    out = tmp_path / "rep.json"
    assert run("verify-conjecture", "ex44_p5", "--iterates", "120",
               "--out", str(out)) == 0
    rep = json.loads(out.read_text())["report"]
    assert rep["verdict"] == "PASS"
    assert rep["delta_hats"] == ["0.0"]
    assert rep["bound"] == "0.1"
    assert rep["hypothesis"]["log_radius"] == {"base_p_exponent": "-1/4"}
    assert rep["witness"]["branch"] == "generic"
    assert rep["witness"]["phi"]  # matrices ride along
    assert rep["dwork"]["verdict"] == "NOT_APPLICABLE"
    assert rep["transfer"]["consistent"] is True


ABOUT = {"module", "prime", "rank"}


@pytest.mark.parametrize("argv,keys", [
    (["solve", "ex44_p5"], ABOUT | {"h0_dim", "inconclusive", "echelon_steps", "sections"}),
    (["h0", "ex44_p5"], ABOUT | {"h0_dim", "inconclusive", "verdicts"}),
    (["growth", "ex44_p5"], ABOUT | {"h0_dim", "sections"}),
    (["radii", "ex44_p5", "--rho", "p^-1/4"], ABOUT | {"boundary", "grid", "sample"}),
    (["fprofile", "ex44_p5"], ABOUT | {"rows", "convex", "nondecreasing"}),
    (["construct-l", "ex44_p5"], ABOUT | {"witness"}),
    (["verify-dwork", "ex44_p5"], {"report"}),
    (["verify-conjecture", "ex44_p5"], {"report"}),
    (["corpus", "--only", "trivial1_p5"], {"modules", "rollup"}),
], ids=["solve", "h0", "growth", "radii", "fprofile", "construct-l", "verify-dwork",
        "verify-conjecture", "corpus"])
def test_cli_report_top_level_keys(tmp_path, argv, keys):
    out = tmp_path / "rep.json"
    assert run(*argv, "--order", "60", "--iterates", "20", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == keys | {"command", "config", "timestamp"}
    assert doc["command"] == argv[0]
    assert set(doc["config"]) == ({f.name for f in fields(WorkbenchConfig)}
                                  | {"transfer_tolerance"})


def test_cli_construct_failure_report_keys(monkeypatch, tmp_path):
    def fail(module, cfg):
        raise WitnessError("window too short", inconclusive=True)
    monkeypatch.setattr(cli, "construct_submodule", fail)
    out = tmp_path / "rep.json"
    assert run("construct-l", "ex44_p5", "--out", str(out)) == 2
    doc = json.loads(out.read_text())
    assert set(doc) == ABOUT | {"error", "inconclusive", "command", "config", "timestamp"}
    assert doc["error"] == "window too short" and doc["inconclusive"] is True


def test_cli_fprofile_artifacts(tmp_path, capsys):
    csv_path = tmp_path / "prof.csv"
    svg_path = tmp_path / "prof.svg"
    code = run("fprofile", "ex44_p5", "--iterates", "120",
               "--csv", str(csv_path), "--svg", str(svg_path))
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "r,F_1,F_2"
    assert len(lines) == 6  # boundary plus the four grid radii
    assert lines[-1].startswith("1/4,")
    svg = svg_path.read_text()
    assert svg.count("<polyline") == 2
    assert svg.startswith("<svg")


def test_cli_construct_witness(capsys):
    assert run("construct-l", "ex44_p5", "--iterates", "120") == 0
    out = capsys.readouterr().out
    assert "generic branch" in out
    assert "diagnostics ok" in out


def test_cli_verify_dwork(capsys):
    assert run("verify-dwork", "trivial2_p5", "--iterates", "120") == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_corpus_subset(capsys):
    code = run("corpus", "--only", "trivial1_p5,dual_ex44_p5",
               "--iterates", "120")
    assert code == 0
    out = capsys.readouterr().out
    assert "-> PASS" in out
    assert out.index("dual_ex44_p5") < out.index("trivial1_p5")


def test_cli_corpus_parallel(capsys):
    code = run("corpus", "--only", "trivial1_p5,trivial2_p5",
               "--iterates", "60", "--jobs", "2")
    assert code == 0
    assert "2 pass" in capsys.readouterr().out


def test_cli_corpus_skip_rejects_unknown_names(capsys):
    assert run("corpus", "--skip", "trivial1_p5,nope") == 3
    assert "nope" in capsys.readouterr().err


class _RecordingPool:
    """Stands in for ProcessPoolExecutor; runs jobs in-process."""

    created: list = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(x) for x in items]


@pytest.mark.parametrize("only,cpus,workers", [
    ("trivial1_p5,trivial2_p5,trivial3_p5", 8, [3]),   # capped by modules
    ("trivial1_p5,trivial2_p5,trivial3_p5", 2, [2]),   # capped by CPUs
    ("trivial1_p5", 8, []),                            # one module: no pool
])
def test_cli_corpus_caps_the_worker_pool(monkeypatch, tmp_path, only, cpus, workers):
    monkeypatch.setattr(_RecordingPool, "created", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(cli, "_corpus_job", lambda payload: {
        "module": payload[0], "verdict": "PASS", "checks": {}, "report": {}})
    out = tmp_path / "corpus.json"
    assert run("corpus", "--only", only, "--jobs", "64", "--out", str(out)) == 0
    assert _RecordingPool.created == workers
    assert json.loads(out.read_text())["config"]["jobs"] == 64

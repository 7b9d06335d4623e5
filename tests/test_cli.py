"""CLI and module-file tests: parsing, exit codes, report determinism.

Slow verification paths run with reduced windows; the numeric values
they print are pinned elsewhere, here we check plumbing: flags land in
the config, reports are byte-stable modulo the timestamp, and the exit
code contract holds on both the happy and the failing paths.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

import padiff
from padiff.cli import main
from padiff.diffmod import H0Report, DifferentialModule
from padiff.modfile import (ModfileError, _is_prime, module_from_json,
                            parse_module, parse_polynomial)

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
    assert desc.module.matrix.is_zero()


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


def test_cli_solve_inconclusive_exits_2(monkeypatch):
    monkeypatch.setattr(DifferentialModule, "h0_basis",
                        lambda self, cfg=None: H0Report([], 0, True, 0))
    assert run("solve", "trivial1_p5") == 2


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

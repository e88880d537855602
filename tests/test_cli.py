import json
import subprocess
import sys
from fractions import Fraction

import pytest

from lgquot.cli import CLIParseError, parse_genus_range, parse_partition_list, parse_poly
from lgquot.invariants import SchubertExpression


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "lgquot", *args], capture_output=True, text=True
    )


def test_help():
    cp = run_cli("--help")
    assert cp.returncode == 0
    assert "gw" in cp.stdout and "verify" in cp.stdout


def test_gw_classical_value():
    cp = run_cli("gw", "--n", "2", "--genus", "0", "--degree", "0",
                 "--partitions", "1;1;1")
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.strip() == "2"


def test_gw_empty_partitions():
    cp = run_cli("gw", "--n", "1", "--genus", "1", "--degree", "0", "--partitions", "")
    assert cp.returncode == 0
    assert cp.stdout.strip() == "2"


def test_gw_dimension_mismatch_is_zero_not_error():
    cp = run_cli("gw", "--n", "2", "--genus", "0", "--degree", "5", "--partitions", "1")
    assert cp.returncode == 0
    assert cp.stdout.strip() == "0"


def test_gw_malformed_partitions_exit_two():
    cp = run_cli("gw", "--n", "2", "--genus", "0", "--degree", "0",
                 "--partitions", "1;3;1")
    assert cp.returncode == 2
    assert "position" in cp.stdout + cp.stderr


def test_count_values_and_echoed_subsheaf_degree():
    cp = run_cli("count", "--n", "1", "--genus", "2", "--ell", "1")
    assert cp.returncode == 0
    lines = cp.stdout.strip().splitlines()
    assert lines[0] == "4"
    assert lines[1] == "e = 0"
    cp = run_cli("count", "--n", "2", "--genus", "2", "--ell", "0", "--format", "json")
    payload = json.loads(cp.stdout)
    assert payload["value"] == "16"
    assert payload["e"] == -1
    assert payload["backend"] == "exact"


def test_count_parity_error():
    cp = run_cli("count", "--n", "1", "--genus", "2", "--ell", "0")
    assert cp.returncode == 2
    assert "PARITY" in cp.stdout
    cp = run_cli("count", "--n", "2", "--genus", "2", "--ell", "1")
    assert cp.returncode == 0  # n(ell-g+1) = 0 is even


def test_count_json_error_payload():
    cp = run_cli("count", "--n", "1", "--genus", "2", "--ell", "0", "--format", "json")
    assert cp.returncode == 2
    payload = json.loads(cp.stdout)
    assert payload["error"] == "PARITY"
    assert "value" not in payload


def test_intersect_known_value_and_poly_grammar():
    cp = run_cli("intersect", "--n", "2", "--genus", "2", "--ell", "0", "--e", "-1",
                 "--poly", "1")
    assert cp.returncode == 0
    assert cp.stdout.strip() == "16"
    cp = run_cli("intersect", "--n", "2", "--genus", "2", "--ell", "0", "--e", "-1",
                 "--poly", "a1^2 + a2")
    assert cp.returncode == 0
    assert cp.stdout.strip() == "0"  # homogeneous but degree-mismatched


def test_intersect_qtilde_factor_matches_gw():
    # a staircase-squared insertion at ell = 0 equals the matching invariant,
    # with e = -3 so the class degree 6 equals the expected dimension
    cp = run_cli("intersect", "--n", "2", "--genus", "2", "--ell", "0", "--e", "-3",
                 "--poly", "Q[2,1]^2")
    gw = run_cli("gw", "--n", "2", "--genus", "2", "--degree", "3",
                 "--partitions", "2,1;2,1")
    assert cp.returncode == 0 and gw.returncode == 0
    assert cp.stdout.strip() == gw.stdout.strip() == "16"


def test_intersect_inhomogeneous_exit_two():
    cp = run_cli("intersect", "--n", "2", "--genus", "2", "--ell", "0", "--e", "-1",
                 "--poly", "a1 + a2")
    assert cp.returncode == 2
    assert "NONHOMOGENEOUS" in cp.stdout


def test_intersect_parse_error_position():
    cp = run_cli("intersect", "--n", "2", "--genus", "2", "--ell", "0", "--e", "-1",
                 "--poly", "a1 % a2")
    assert cp.returncode == 2
    assert "position 3" in cp.stdout


def test_genus_note_label_below_two():
    cp = run_cli("count", "--n", "2", "--genus", "1", "--ell", "0", "--format", "json")
    assert cp.returncode == 0
    assert "formula value" in json.loads(cp.stdout)["note"]
    cp = run_cli("count", "--n", "2", "--genus", "2", "--ell", "0", "--format", "json")
    assert "note" not in json.loads(cp.stdout)


def test_table_csv_matches_closed_forms():
    cp = run_cli("table", "--n", "2", "--genus-range", "2..5", "--ell", "0")
    assert cp.returncode == 0
    lines = cp.stdout.strip().splitlines()
    assert lines[0] == "n,g,ell,e,value"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 4
    for row in rows:
        g = int(row[1])
        sign = 1 if (g + 0) % 2 else -1
        assert int(row[4]) == 2 ** (g - 1) * (3**g + sign)
        assert int(row[3]) == 2 * (0 - g + 1) // 2


def test_table_skips_inadmissible_parities():
    cp = run_cli("table", "--n", "1", "--genus-range", "2..5", "--ell", "1")
    assert cp.returncode == 0
    lines = cp.stdout.strip().splitlines()
    # only even genera pair with odd ell at rank one
    assert [int(r.split(",")[1]) for r in lines[1:]] == [2, 4]
    assert [int(r.split(",")[4]) for r in lines[1:]] == [4, 16]


def test_table_json_round_trips_byte_identical():
    cp = run_cli("table", "--n", "2", "--genus-range", "2..4", "--ell", "-1",
                 "--format", "json")
    assert cp.returncode == 0
    emitted = cp.stdout.strip()
    assert json.dumps(json.loads(emitted)) == emitted
    rows = json.loads(emitted)["rows"]
    assert [r["value"] for r in rows] == ["20", "104", "656"]
    assert all(isinstance(r["value"], str) for r in rows)


def test_table_json_error_payload():
    cp = run_cli("table", "--n", "2", "--genus-range", "4..2", "--ell", "0",
                 "--format", "json")
    assert cp.returncode == 2
    payload = json.loads(cp.stdout)
    assert payload["error"] == "PARSE"
    assert "rows" not in payload
    assert "value" not in payload


def test_json_round_trip_and_decimal_strings():
    cp = run_cli("gw", "--n", "2", "--genus", "3", "--degree", "3",
                 "--partitions", "2,1", "--format", "json")
    assert cp.returncode == 0
    emitted = cp.stdout.strip()
    payload = json.loads(emitted)
    assert json.dumps(payload) == emitted
    assert isinstance(payload["value"], str)
    int(payload["value"])
    assert payload["elapsed_ms"] >= 0


def test_backend_flag():
    for backend in ("exact", "float", "both"):
        cp = run_cli("count", "--n", "2", "--genus", "2", "--ell", "-1",
                     "--backend", backend)
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout.strip().splitlines()[0] == "20"


def test_verify_identities_quick():
    cp = run_cli("verify", "--suite", "identities", "--max-n", "2", "--max-genus", "2",
                 "--seed", "7", "--cases", "5")
    assert cp.returncode == 0, cp.stdout + cp.stderr
    assert "PASS twist_identity" in cp.stdout


def test_verify_seed_reproducible():
    args = ("verify", "--suite", "backends", "--max-n", "2", "--max-genus", "2",
            "--seed", "3", "--cases", "4", "--format", "json")
    first, second = run_cli(*args), run_cli(*args)
    assert first.returncode == 0
    a, b = json.loads(first.stdout), json.loads(second.stdout)
    a.pop("elapsed_ms"), b.pop("elapsed_ms")
    assert a == b


def test_usage_error_without_subcommand():
    cp = run_cli()
    assert cp.returncode == 2


# -- grammar unit tests -------------------------------------------------------


def test_parse_partition_list():
    assert parse_partition_list("", 3) == []
    assert parse_partition_list("2,1;2;1", 3) == [(2, 1), (2,), (1,)]
    assert parse_partition_list("3,2,1", 3) == [(3, 2, 1)]
    with pytest.raises(CLIParseError):
        parse_partition_list("1,2", 3)
    with pytest.raises(CLIParseError):
        parse_partition_list("4", 3)
    with pytest.raises(CLIParseError):
        parse_partition_list("2,,1", 3)
    try:
        parse_partition_list("1;x", 2)
    except CLIParseError as exc:
        assert exc.position == 2


def test_parse_poly_terms():
    expr = parse_poly("1", 2)
    assert expr.terms == SchubertExpression.one().terms
    expr = parse_poly("3/2*a1*Q[2,1] - a2^2", 2)
    assert expr.term_degrees() == {4}
    coeffs = {factors: coeff for coeff, factors in expr.terms}
    assert coeffs[((1,), (2, 1))] == Fraction(3, 2)
    assert coeffs[((2,), (2,))] == Fraction(-1)
    assert parse_poly("-2*a1 + a1", 3).terms == (-SchubertExpression.special(1)).terms
    assert parse_poly("a1^0", 2).terms == SchubertExpression.one().terms


def test_parse_poly_errors_with_position():
    for text, pos in [("a1 +", 4), ("Q[1", 3), ("Q[]", 2), ("2**a1", 2), ("a9", 1),
                      ("1/0", 2), ("Q[1,2]", 2)]:
        with pytest.raises(CLIParseError) as err:
            parse_poly(text, 3)
        assert err.value.position == pos


def test_parse_genus_range():
    assert list(parse_genus_range("2..5")) == [2, 3, 4, 5]
    assert list(parse_genus_range("3..3")) == [3]
    with pytest.raises(CLIParseError):
        parse_genus_range("5..2")
    with pytest.raises(CLIParseError):
        parse_genus_range("2-5")

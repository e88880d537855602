import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from lgquot import cli
from lgquot.cli import CLIParseError, main, parse_genus_range, parse_partition_list, parse_poly
from lgquot._ring import OrbitSizeError
from lgquot.cyclotomic import NonIntegerValueError, NonvanishingAssumptionError
from lgquot.invariants import NonHomogeneousError, ParityError, SchubertExpression
from lgquot.oracle import SingularEulerError


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "lgquot", *args], capture_output=True, text=True
    )


def test_help():
    cp = run_cli("--help")
    assert cp.returncode == 0
    assert "gw" in cp.stdout and "verify" in cp.stdout


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("argv, status", [
    (("count", "--n", "6", "--genus", "2", "--ell", "0"), 0),
    (("count", "--n", "5", "--genus", "2", "--ell", "0"), 2),
    (("table", "--n", "2", "--genus-range", "0..4", "--ell", "0", "--format", "json"), 0)])
def test_a_closed_stdout_exits_quietly_with_the_query_status(argv, status, unbuffered):
    # the read end is closed before the child starts, so its first write to
    # stdout fails with EPIPE, buffered or not
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        cp = subprocess.run([sys.executable, "-m", "lgquot", *argv], stdout=write,
                            stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write)
    assert (cp.returncode, cp.stderr) == (status, "")


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


def test_count_refuses_rank_above_backend_limit():
    for backend in ("exact", "float", "both"):
        started = time.perf_counter()
        cp = run_cli("count", "--n", "40", "--genus", "2", "--ell", "0",
                     "--backend", backend)
        assert time.perf_counter() - started < 1.0
        assert cp.returncode == 2
        assert "USAGE" in cp.stdout and "2^40" in cp.stdout


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_refuses_a_bad_rank_before_skipping_parities(fmt, capsys):
    # at n = -1 every genus of 2..2 has odd parity: the rank is refused all the same
    argv = ["table", "--n", "-1", "--genus-range", "2..2", "--ell", "0", "--format", fmt]
    assert main(argv) == 2
    out = capsys.readouterr().out
    message = "rank must be positive, got -1"
    if fmt == "csv":
        assert out == f"error USAGE: {message}\n"
    else:
        payload = json.loads(out)
        assert (payload["error"], payload["message"]) == ("USAGE", message)
        assert "rows" not in payload


def test_table_json_round_trips_byte_identical():
    cp = run_cli("table", "--n", "2", "--genus-range", "2..4", "--ell", "-1",
                 "--format", "json")
    assert cp.returncode == 0
    emitted = cp.stdout.strip()
    assert json.dumps(json.loads(emitted)) == emitted
    rows = json.loads(emitted)["rows"]
    assert [r["value"] for r in rows] == ["20", "104", "656"]
    assert all(isinstance(r["value"], str) for r in rows)


def test_table_rows_are_the_single_counts(capsys):
    # the exact rows' trace totals are formed in one pass before the row
    # loop; each row against a count formed on its own, on a cleared memo
    from lgquot import _count
    from lgquot.invariants import maximal_count

    try:
        for n in range(1, 13):
            for ell in (0, 1):
                for backend in ("exact", "both") if n <= 4 else ("exact",):
                    _count._TOTALS.clear()
                    assert main(["table", "--n", str(n), "--genus-range", "0..8", "--ell",
                                 str(ell), "--format", "json", "--backend", backend]) == 0
                    rows = json.loads(capsys.readouterr().out)["rows"]
                    _count._TOTALS.clear()
                    assert [(row["g"], int(row["value"])) for row in rows] == [
                        (g, maximal_count(n, g, ell)) for g in range(9)
                        if _count._count_is_finite(n, g, ell)]
    finally:
        _count._TOTALS.clear()


def test_table_refuses_a_rank_above_the_count_limit_before_any_trace(capsys):
    assert main(["table", "--n", "22", "--genus-range", "2..4", "--ell", "0"]) == 2
    assert capsys.readouterr().out == (
        "error USAGE: rank 22 is above the count limit of 21: a query would sum "
        f"traces over the orbits of 2^22 = {2**22} points\n")

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
    # an odd-ell float count the staircase Pfaffian used to get wrong by 1
    cp = run_cli("count", "--n", "8", "--genus", "2", "--ell", "1", "--backend", "both")
    assert cp.returncode == 0, cp.stdout + cp.stderr
    assert cp.stdout.strip().splitlines()[0] == "285284608"


def test_verify_identities_quick():
    cp = run_cli("verify", "--suite", "identities", "--max-n", "2", "--max-genus", "2",
                 "--seed", "7", "--cases", "5")
    assert cp.returncode == 0, cp.stdout + cp.stderr
    assert "PASS twist_identity" in cp.stdout
    assert "PASS presentation_relations (6/6 points)" in cp.stdout


def test_verify_relations_cover_every_rank(capsys):
    # every point of ranks 1..9: 2 + 4 + ... + 512
    assert main(["verify", "--suite", "identities", "--max-n", "9", "--max-genus", "1",
                 "--cases", "1"]) == 0
    assert "PASS presentation_relations (1022/1022 points)\n" in capsys.readouterr().out


def test_verify_seed_reproducible():
    args = ("verify", "--suite", "backends", "--max-n", "2", "--max-genus", "2",
            "--seed", "3", "--cases", "4", "--format", "json")
    first, second = run_cli(*args), run_cli(*args)
    assert first.returncode == 0
    a, b = json.loads(first.stdout), json.loads(second.stdout)
    a.pop("elapsed_ms"), b.pop("elapsed_ms")
    assert a == b


def test_verify_oracle_names_its_rank_cap():
    args = ("verify", "--suite", "oracle", "--seed", "2", "--cases", "4")
    cp = run_cli(*args, "--max-n", "6")
    assert cp.returncode == 0, cp.stdout + cp.stderr
    note = "ranks 1..5; asked for 1..6, the oracle stops at 5"
    assert f"PASS algebra_axioms ({note})" in cp.stdout
    assert f"PASS euler_invertible ({note})" in cp.stdout
    payload = json.loads(run_cli(*args, "--max-n", "6", "--format", "json").stdout)
    details = {c["name"]: c["detail"] for c in payload["checks"]}
    assert details["algebra_axioms"] == details["euler_invertible"] == note
    # within the cap the detail names the ranks only
    cp = run_cli(*args, "--max-n", "3")
    assert "PASS algebra_axioms (ranks 1..3)\n" in cp.stdout
    assert "asked for" not in cp.stdout


VERIFY_ALL = """\
PASS twist_identity (50/50 cases)
PASS hecke_recursion (50/50 cases)
PASS staircase_insertion (50/50 cases)
PASS product_consistency (50/50 cases)
PASS presentation_relations (14/14 points)
PASS algebra_axioms (ranks 1..3)
PASS euler_invertible (ranks 1..3)
PASS trace_agreement (50/50 cases)
PASS trace_vanishing (10/10 cases)
PASS intersection_backends (25/25 cases)
PASS gw_backends (25/25 cases)
PASS count_backends (40/40 cases)
all checks passed
"""


def test_verify_all_prints_pinned_lines(monkeypatch, tmp_path, capsys):
    # a fresh cache directory, so the oracle builds its algebras
    monkeypatch.setenv("LGQ_CACHE_DIR", str(tmp_path))
    assert main(["verify", "--suite", "all"]) == 0
    assert capsys.readouterr().out == VERIFY_ALL
    built = sorted(path.name for path in tmp_path.iterdir())
    assert built == [f"qh_algebra_n{n}_v1.json" for n in (1, 2, 3)]


@pytest.mark.parametrize("args", [
    ("--cases", "-5"),
    ("--suite", "identities", "--cases", "0"),
    ("--max-n", "0"),
    ("--max-genus", "-1"),
])
def test_verify_refuses_arguments_out_of_range(args, capsys):
    # refused up front as USAGE, naming the flag, before any check runs
    assert main(["verify", *args]) == 2
    flag = next(a for a in args if a != "--suite" and a.startswith("--"))
    assert capsys.readouterr().out.startswith(f"error USAGE: {flag} must be at least ")


# -- golden output: the printed bytes and the JSON key order --------------------

NOTE = '"note": "formula value (enumerative meaning needs genus >= 2)", '
IDENTITIES = ["twist_identity", "hecke_recursion", "staircase_insertion", "product_consistency"]
GOLDEN = [
    (["count", "--n", "2", "--genus", "2", "--ell", "0"], 0, "16\ne = -1\n",
     '{"command": "count", "n": 2, "genus": 2, "ell": 0, "e": -1, "value": "16", '
     '"backend": "exact", "elapsed_ms": 0}\n'),
    (["count", "--n", "2", "--genus", "1", "--ell", "0"], 0, "4\ne = 0\n",
     '{"command": "count", "n": 2, "genus": 1, "ell": 0, "e": 0, "value": "4", ' + NOTE
     + '"backend": "exact", "elapsed_ms": 0}\n'),
    (["gw", "--n", "2", "--genus", "0", "--degree", "0", "--partitions", "1;1;1"], 0, "2\n",
     '{"command": "gw", "n": 2, "genus": 0, "degree": 0, "partitions": "1;1;1", "value": "2", '
     '"backend": "exact", "elapsed_ms": 0}\n'),
    (["intersect", "--n", "2", "--genus", "1", "--ell", "0", "--e", "-1", "--poly", "a1^3"], 0,
     "12\n",
     '{"command": "intersect", "n": 2, "genus": 1, "ell": 0, "e": -1, "poly": "a1^3", '
     '"value": "12", ' + NOTE + '"backend": "exact", "elapsed_ms": 0}\n'),
    (["table", "--n", "2", "--genus-range", "0..4", "--ell", "0"], 0,
     "n,g,ell,e,value\n2,0,0,1,0\n2,1,0,0,4\n2,2,0,-1,16\n2,3,0,-2,112\n2,4,0,-3,640\n",
     '{"command": "table", "n": 2, "genus_range": "0..4", "ell": 0, "rows": ['
     + ", ".join(f'{{"n": 2, "g": {g}, "ell": 0, "e": {1 - g}, "value": "{v}"}}'
                 for g, v in enumerate((0, 4, 16, 112, 640)))
     + '], "backend": "exact", "elapsed_ms": 0}\n'),
    (["verify", "--suite", "identities"], 0,
     "".join(f"PASS {name} (50/50 cases)\n" for name in IDENTITIES)
     + "PASS presentation_relations (14/14 points)\nall checks passed\n",
     '{"command": "verify", "suite": "identities", "max_n": 3, "max_genus": 4, "seed": 0, '
     '"cases": 50, "value": null, "checks": ['
     + "".join(f'{{"name": "{name}", "passed": true, "detail": "50/50 cases"}}, '
               for name in IDENTITIES)
     + '{"name": "presentation_relations", "passed": true, "detail": "14/14 points"}], '
     '"passed": true, "backend": "exact", "elapsed_ms": 0}\n'),
    (["count", "--n", "1", "--genus", "0", "--ell", "0"], 2,
     "error PARITY: n(ell - g + 1) = 1 is odd; no finite count for (n=1, g=0, ell=0)\n",
     '{"command": "count", "n": 1, "genus": 0, "ell": 0, "error": "PARITY", '
     '"message": "n(ell - g + 1) = 1 is odd; no finite count for (n=1, g=0, ell=0)", '
     '"backend": "exact", "elapsed_ms": 0}\n'),
    (["count", "--n", "0", "--genus", "2", "--ell", "0"], 2,
     "error USAGE: rank must be positive, got 0\n",
     '{"command": "count", "n": 0, "genus": 2, "ell": 0, "error": "USAGE", '
     '"message": "rank must be positive, got 0", "backend": "exact", "elapsed_ms": 0}\n'),
]


@pytest.mark.parametrize("argv, code, text, payload", GOLDEN,
                         ids=["count", "count-note", "gw", "intersect-note", "table",
                              "verify-identities", "parity-error", "usage-error"])
def test_golden_output(argv, code, text, payload, capsys):
    # every byte of the text (csv) and JSON outputs, elapsed_ms masked
    assert main(argv) == code
    assert capsys.readouterr().out == text
    assert main(argv + ["--format", "json"]) == code
    out = capsys.readouterr().out
    assert re.sub(r'"elapsed_ms": [-+.e0-9]+', '"elapsed_ms": 0', out) == payload
    assert json.dumps(json.loads(out)) + "\n" == out


def test_a_failed_check_exits_four(monkeypatch, capsys):
    from lgquot import verify

    outcomes = [verify.CheckOutcome("twist_identity", False, "49/50 cases"),
                verify.CheckOutcome("hecke_recursion", True, "50/50 cases")]
    monkeypatch.setattr(verify, "run_suites", lambda *args: outcomes)
    assert main(["verify"]) == 4
    assert capsys.readouterr().out == (
        "FAIL twist_identity (49/50 cases)\nPASS hecke_recursion (50/50 cases)\n"
        "verification FAILED\n")
    assert main(["verify", "--format", "json"]) == 4
    payload = json.loads(capsys.readouterr().out)
    assert [c["passed"] for c in payload["checks"]] == [False, True]
    assert payload["value"] is None and payload["passed"] is False


def _max_str_digits():
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


@pytest.mark.parametrize("argv, read", [
    (["count"], lambda out: out.splitlines()[0]),
    (["count", "--format", "json"], lambda out: json.loads(out)["value"]),
    (["table", "--genus-range", "20000..20000"], lambda out: out.splitlines()[1].split(",")[4]),
    (["table", "--genus-range", "20000..20000", "--format", "json"],
     lambda out: json.loads(out)["rows"][0]["value"]),
], ids=["count-text", "count-json", "table-csv", "table-json"])
def test_integers_longer_than_the_str_digit_cap(argv, read, capsys):
    # the rank-one count at odd ell is 2^g: at g = 20000 it has 6,021 digits,
    # more than str() converts by default since CPython 3.10.7
    command, *rest = argv
    genus = [] if command == "table" else ["--genus", "20000"]
    cap = _max_str_digits()
    assert main([command, "--n", "1", *genus, "--ell", "1", *rest]) == 0
    assert _max_str_digits() == cap
    digits = read(capsys.readouterr().out)
    value = 2 ** 20000
    assert len(digits) == 6021
    assert digits[:12] == "%d" % (value // 10 ** (6021 - 12))
    assert digits[-12:] == "%012d" % (value % 10 ** 12)


@pytest.mark.parametrize("argv, exact", [
    # the rank-one count at odd ell is 2^g: the sum overflows at g = 2000, the
    # power S^(g-1) at g = 20000, and a 401-digit coefficient on its own
    (["count", "--n", "1", "--genus", "2000", "--ell", "1", "--backend", "float"], 2 ** 2000),
    (["count", "--n", "1", "--genus", "20000", "--ell", "1", "--backend", "float"], None),
    (["count", "--n", "1", "--genus", "20000", "--ell", "1", "--backend", "both"], None),
    (["intersect", "--n", "1", "--genus", "2", "--ell", "0", "--e", "-1",
      "--poly", f"{10 ** 400}*a1", "--backend", "float"], 4 * 10 ** 400),
], ids=["sum", "power", "both", "coefficient"])
def test_float_overflow_is_a_usage_error(argv, exact, capsys):
    # the float backend refuses a value beyond its range by name, where it
    # used to die with an OverflowError; the exact backend still answers
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert out.startswith("error USAGE: ") and "float backend's range" in out
    assert "use --backend exact" in out
    if exact is not None:
        assert main(argv[:-1] + ["exact"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == str(exact)


@pytest.mark.parametrize("exc, code, status", [
    (CLIParseError("expected an integer", 3), "PARSE", 2),
    (ParityError("n(ell - g + 1) is odd"), "PARITY", 2),
    (NonHomogeneousError("expression mixes degrees"), "NONHOMOGENEOUS", 2),
    (ValueError("rank must be positive"), "USAGE", 2),
    (TypeError("unsupported operand"), "USAGE", 2),
    (NonIntegerValueError("value is not an integer"), "NONINTEGER", 3),
    (NonvanishingAssumptionError("inverting zero"), "NONVANISHING", 3),
    (SingularEulerError("Euler operator not invertible"), "SINGULAR_EULER", 3),
    (cli.BackendMismatchError("backends disagree"), "BACKEND_MISMATCH", 3),
    (OrbitSizeError("the point orbits hold 65 points"), "ORBIT_SIZE", 3),
])
def test_run_query_reports_each_error_code(exc, code, status, capsys):
    def compute():
        raise exc

    assert cli._run_query({"command": "gw"}, "exact", "text", compute) == status
    assert capsys.readouterr().out == f"error {code}: {exc}\n"
    assert cli._run_query({"command": "gw"}, "exact", "json", compute) == status
    payload = json.loads(capsys.readouterr().out)
    assert (payload["error"], payload["message"]) == (code, str(exc))
    assert "value" not in payload


def test_count_with_a_wrong_orbit_size_fails_by_name(monkeypatch, capsys):
    # orbit sizes that do not add up to 2^n are a named error, not a wrong
    # integer: the integrality check caught (6, 2, 0), but the other three
    # printed a wrong count with exit 0
    from lgquot import _count

    orbits = _count._orbit_picks

    def one_member_too_many(N):
        (pick, size), *rest = orbits(N)
        return ((pick, size + 1), *rest)

    for n, g, ell, value in [(6, 2, 0, 219136), (4, 3, 0, 182016), (5, 3, 0, 24289280),
                             (3, 2, 1, 128)]:
        argv = ["count", "--n", str(n), "--genus", str(g), "--ell", str(ell)]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[0] == str(value)
        with monkeypatch.context() as patch:
            patch.setattr(_count, "_orbit_picks", one_member_too_many)
            assert main(argv) == 3
        assert capsys.readouterr().out == (
            f"error ORBIT_SIZE: the point orbits of rank {n} hold {2**n + 1} points, not 2^{n}\n")


def test_run_query_reraises_unclassified_errors():
    def compute():
        raise KeyError("n")

    with pytest.raises(KeyError):
        cli._run_query({"command": "gw"}, "exact", "text", compute)


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

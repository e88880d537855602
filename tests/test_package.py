"""The package surface: lazily loaded names, what a CLI process imports and
when, and the immutable value classes."""

import copy
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import lgquot
from lgquot import _ring, cyclotomic, symfunc
from lgquot.invariants import SchubertExpression
from lgquot.partitions import IndexTuple, Partition, StrictPartition, summation_tuples
from lgquot.symfunc import SkewMatrix
from lgquot.verify import CheckOutcome

SRC = str(Path(lgquot.__file__).resolve().parents[1])

EXPORTED = [
    "CyclotomicNumber", "ExactBackend", "FloatBackend", "IndexTuple", "NonHomogeneousError",
    "NonIntegerValueError", "NonvanishingAssumptionError", "OrbitSizeError", "ParityError",
    "Partition", "PointTable", "QHAlgebra", "SchubertExpression", "SingularEulerError",
    "SkewMatrix", "StrictPartition", "build_qh_algebra", "complete_all", "cyclotomic_polynomial",
    "determinant", "dual_partition", "eigenvalue_check", "elementary_all", "euler_phi",
    "expected_dimension", "filter_no_opposites", "filter_unit_product", "gw_invariant",
    "intersection_number", "make_backend", "maximal_count", "maximal_subbundle_degree",
    "mult_operator", "pfaffian", "point_from_tuple", "qtilde", "qtilde_pair", "quantum_euler",
    "required_degree", "root_of_unity", "root_tuples", "schur", "sqrt_two", "staircase",
    "strict_partitions", "summation_tuples", "trace_invariant", "verify_hecke_recursion",
    "verify_staircase_insertion", "verify_twist_identity", "working_order",
]


def test_every_exported_name_resolves():
    from lgquot import oracle

    for name in EXPORTED:
        assert getattr(lgquot, name) is not None, name
        assert name in dir(lgquot)
    for name in ("QHAlgebra", "build_qh_algebra", "trace_invariant", "mult_operator",
                 "quantum_euler", "eigenvalue_check"):
        assert getattr(lgquot, name) is getattr(oracle, name)
    assert lgquot.SingularEulerError is oracle.SingularEulerError
    assert lgquot.SingularEulerError is cyclotomic.SingularEulerError
    assert lgquot.OrbitSizeError is _ring.OrbitSizeError
    assert lgquot.pfaffian is symfunc.pfaffian and lgquot.make_backend is cyclotomic.make_backend
    star: dict = {}
    exec("from lgquot import *", star)
    assert set(EXPORTED) <= star.keys()
    assert star["build_qh_algebra"] is oracle.build_qh_algebra


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        lgquot.no_such_name  # noqa: B018
    assert not hasattr(lgquot, "mat_inverse")  # an oracle name the package never exported


# the modules a count leaves unloaded, in the order the tests list them
LEAN = ("lgquot._float", "lgquot._frozen", "lgquot.cyclotomic",
        "lgquot.invariants", "lgquot.partitions", "lgquot.symfunc", "lgquot.oracle",
        "lgquot.verify", "dataclasses", "decimal", "fractions")
FLOAT = ["lgquot._float"]
FORMULAS = ["lgquot._frozen", "lgquot.invariants", "lgquot.partitions"]
# the field re-exports the float backend, and it and the formulas load fractions (and decimal)
TABLES = FLOAT + ["lgquot.cyclotomic", "lgquot.symfunc", "decimal", "fractions"]


def _lean(*groups) -> list:
    """The modules of LEAN in any of `groups`, in LEAN's order."""
    names = {name for group in groups for name in group}
    return [name for name in LEAN if name in names]


COUNT = ["count", "--n", "8", "--genus", "3", "--ell", "0"]
COUNT_BOTH = ["count", "--n", "2", "--genus", "2", "--ell", "0", "--backend", "both"]
COUNT_FLOAT = ["count", "--n", "4", "--genus", "2", "--ell", "0", "--backend", "float"]
COUNT_FLOAT_0 = ["count", "--n", "3", "--genus", "0", "--ell", "1", "--backend", "float"]
COUNT_0 = ["count", "--n", "3", "--genus", "0", "--ell", "1"]
GW = ["gw", "--n", "2", "--genus", "0", "--degree", "0", "--partitions", "1;1;1"]
INTERSECT = ["intersect", "--n", "2", "--genus", "2", "--ell", "0", "--e", "-2", "--poly", "a1^3"]
TABLE = ["table", "--n", "2", "--genus-range", "2..4", "--ell", "0"]
TABLE_FLOAT = TABLE + ["--backend", "float"]
TABLE_0 = ["table", "--n", "2", "--genus-range", "0..2", "--ell", "0"]
VERIFY = ["verify", "--suite", "oracle", "--max-n", "1"]


def _run_script(script: str, tmp_path) -> list:
    """Run `script` under -S, so that sys.modules holds what it loaded; its last line of JSON."""
    cp = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                        env={**os.environ, "LGQ_CACHE_DIR": str(tmp_path)})
    assert cp.returncode == 0, cp.stderr
    return json.loads(cp.stdout.splitlines()[-1])


def test_import_loads_neither_the_tables_nor_the_oracle(tmp_path):
    # `import lgquot` loads the count engine and its kernels, and nothing else
    # of the package: a count right after it loads no module either
    script = (
        f"import json, sys; sys.path.insert(0, {SRC!r}); import lgquot; "
        f"package = sorted(m for m in sys.modules if m.partition('.')[0] == 'lgquot'); "
        f"loaded = [m for m in {LEAN!r} if m in sys.modules]; "
        f"lgquot.maximal_count(6, 3, 1); "
        f"counted = [m for m in {LEAN!r} if m in sys.modules]; "
        f"lgquot.symfunc.PointTable(lgquot.cyclotomic.FloatBackend(), (1, -1)); "
        f"print(json.dumps([package, loaded, counted, [m for m in {LEAN!r} if m in sys.modules]]))"
    )
    assert _run_script(script, tmp_path) == [["lgquot", "lgquot._count", "lgquot._ring"], [], [],
                                             _lean(TABLES, ["lgquot._frozen", "lgquot.partitions"])]


def test_oracle_build_loads_neither_the_field_nor_the_tables(tmp_path):
    # the algebra comes from the quantum Pieri rule: no point, no cyclotomic number
    script = (
        f"import json, sys; sys.path.insert(0, {SRC!r}); "
        f"from lgquot.oracle import build_qh_algebra; "
        f"build_qh_algebra(4, cache_dir={str(tmp_path)!r}); "
        f"print(json.dumps([m for m in {LEAN!r} if m in sys.modules]))"
    )
    assert _run_script(script, tmp_path) == _lean(FORMULAS, ["lgquot.oracle", "decimal",
                                                            "fractions"])
    assert [p.name for p in tmp_path.iterdir()] == ["qh_algebra_n4_v1.json"]


# an exact or float count or table loads no formula, no partition
# class and no `fractions` or `decimal`: only the package, `_ring`, `_count`
# and `cli`, and `_float` on the float backend
@pytest.mark.parametrize("argv, loaded", [
    (COUNT, []),
    (COUNT_0, []),
    (COUNT_BOTH, FLOAT),
    (COUNT_FLOAT, FLOAT),
    (GW, _lean(TABLES, FORMULAS)),
    (INTERSECT, _lean(TABLES, FORMULAS)),
    (TABLE, []),
    (TABLE_0, []),
    (TABLE_FLOAT, FLOAT),
    (VERIFY, _lean(TABLES, FORMULAS, ["lgquot.oracle", "lgquot.verify"])),
], ids=["count", "count-genus-0", "count-both", "count-float", "gw", "intersect", "table",
        "table-genus-0", "table-float", "verify"])
def test_cli_process_imports_only_what_it_runs(argv, loaded, tmp_path):
    script = (
        f"import json, sys; sys.path.insert(0, {SRC!r}); "
        f"from lgquot.cli import main; code = main({argv!r}); "
        f"package = sorted(m for m in sys.modules if m.partition('.')[0] == 'lgquot'); "
        f"print(json.dumps([code, [m for m in {LEAN!r} if m in sys.modules], package]))"
    )
    code, lean, package = _run_script(script, tmp_path)
    assert [code, lean] == [0, loaded]
    assert set(package) == {"lgquot", "lgquot._count", "lgquot._ring", "lgquot.cli", *loaded} - {
        "dataclasses", "decimal", "fractions"}


# Each command loads what its query runs before the clock starts, so that
# elapsed_ms times the query alone.  gw, intersect and verify load the field
# and the point tables before their clock; a count or table, at any genus and
# on either backend, builds no table.
_TIMED = """
import json, sys
sys.path.insert(0, {src!r})
from lgquot import cli

run_query, seen = cli._run_query, []

def loaded():
    return sorted(m for m in sys.modules if m == "lgquot" or m.startswith("lgquot."))

def timed(params, backend, fmt, compute, *rest):
    def watched():
        seen.append(loaded())
        try:
            return compute()
        finally:
            seen.append(loaded())
    return run_query(params, backend, fmt, watched, *rest)

cli._run_query = timed
code = cli.main({argv!r})
print(json.dumps([code, seen]))
"""


@pytest.mark.parametrize("argv", [COUNT, COUNT_FLOAT, COUNT_FLOAT_0, COUNT_0,
                                  COUNT_0 + ["--backend", "both"], GW, INTERSECT, TABLE, TABLE_0,
                                  VERIFY],
                         ids=["count", "count-float", "count-float-genus-0", "count-genus-0",
                              "count-both-genus-0", "gw", "intersect", "table", "table-genus-0",
                              "verify"])
def test_no_module_loads_while_a_query_is_timed(argv, tmp_path):
    code, (started, stopped) = _run_script(_TIMED.format(src=SRC, argv=argv), tmp_path)
    assert code == 0
    assert started == stopped


# -- the value classes ------------------------------------------------------------------------

VALUES = [
    (lambda: Partition((2, 1, 0)), lambda: Partition((2,)),
     "Partition(parts=(2, 1))"),
    (lambda: StrictPartition(3, (2, 1)), lambda: StrictPartition(2, (2, 1)),
     "StrictPartition(n=3, parts=(2, 1))"),
    (lambda: IndexTuple(2, (-1, 1)), lambda: IndexTuple(2, (1, 3)),
     "IndexTuple(N=2, doubled=(-1, 1))"),
    (lambda: SkewMatrix(((0, 1), (-1, 0))), lambda: SkewMatrix(((0, 2), (-2, 0))),
     "SkewMatrix(rows=((0, 1), (-1, 0)))"),
    (lambda: SchubertExpression.monomial([(2, 1), (1,)], 3),
     lambda: SchubertExpression.monomial([(2, 1)], 3),
     "SchubertExpression(3*Q[1]*Q[2, 1])"),
    (lambda: CheckOutcome("x", True, "1/1 cases"), lambda: CheckOutcome("x", False, "0/1 cases"),
     "CheckOutcome(name='x', passed=True, detail='1/1 cases')"),
]


@pytest.mark.parametrize("make, make_other, text", VALUES,
                         ids=[text.partition("(")[0] for _m, _o, text in VALUES])
def test_value_classes_behave_as_frozen_values(make, make_other, text):
    a, b, other = make(), make(), make_other()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != other and not a == other
    assert len({a, b, other}) == 2
    assert repr(a) == text
    field = type(a)._fields[0]
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(other, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.undeclared = 1
    assert a == b
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin == a and hash(twin) == hash(a)


def test_value_equality_needs_the_same_class():
    assert Partition((2, 1)) != StrictPartition(3, (2, 1))
    assert StrictPartition(3, (2, 1)) != Partition((2, 1))
    assert Partition((2, 1)) != (2, 1)
    assert Partition((2, 1)) != ((2, 1),)
    assert summation_tuples(2)[0] == IndexTuple(2, (-1, 1))


def test_fields_accept_keywords():
    assert StrictPartition(n=3, parts=(2, 1)) == StrictPartition(3, (2, 1))
    assert CheckOutcome(name="x", passed=True) == CheckOutcome("x", True, "")

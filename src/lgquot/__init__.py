"""Exact Gromov-Witten invariants, Quot-scheme intersection numbers, and
maximal-subbundle counts for Lagrangian Grassmannians over curves.

The oracle's names (`build_qh_algebra`, `trace_invariant`, `QHAlgebra`, ...)
load `lgquot.oracle` on first use, so a process that only counts never
imports it.
"""

from .cyclotomic import (
    CyclotomicNumber,
    ExactBackend,
    FloatBackend,
    NonIntegerValueError,
    NonvanishingAssumptionError,
    SingularEulerError,
    cyclotomic_polynomial,
    euler_phi,
    make_backend,
    root_of_unity,
    sqrt_two,
    working_order,
)
from .invariants import (
    NonHomogeneousError,
    ParityError,
    SchubertExpression,
    expected_dimension,
    gw_invariant,
    intersection_number,
    maximal_count,
    maximal_subbundle_degree,
    point_from_tuple,
    required_degree,
    verify_hecke_recursion,
    verify_staircase_insertion,
    verify_twist_identity,
)
from .partitions import (
    IndexTuple,
    Partition,
    StrictPartition,
    dual_partition,
    filter_no_opposites,
    filter_unit_product,
    root_tuples,
    staircase,
    strict_partitions,
    summation_tuples,
)
from .symfunc import (
    PointTable,
    SkewMatrix,
    complete_all,
    determinant,
    elementary_all,
    pfaffian,
    qtilde,
    qtilde_pair,
    schur,
)

__version__ = "0.1.0"

# the suites of `lgquot verify`, readable without importing lgquot.verify
SUITE_NAMES = ("identities", "oracle", "backends")

# a star import resolves the oracle's names through __getattr__ below
__all__ = [
    "CyclotomicNumber", "ExactBackend", "FloatBackend", "IndexTuple", "NonHomogeneousError",
    "NonIntegerValueError", "NonvanishingAssumptionError", "ParityError", "Partition",
    "PointTable", "QHAlgebra", "SUITE_NAMES", "SchubertExpression", "SingularEulerError",
    "SkewMatrix", "StrictPartition", "build_qh_algebra", "complete_all",
    "cyclotomic_polynomial", "determinant", "dual_partition", "eigenvalue_check",
    "elementary_all", "euler_phi", "expected_dimension", "filter_no_opposites",
    "filter_unit_product", "gw_invariant", "intersection_number", "make_backend",
    "maximal_count", "maximal_subbundle_degree", "mult_operator", "pfaffian",
    "point_from_tuple", "qtilde", "qtilde_pair", "quantum_euler", "required_degree",
    "root_of_unity", "root_tuples", "schur", "sqrt_two", "staircase", "strict_partitions",
    "summation_tuples", "trace_invariant", "verify_hecke_recursion",
    "verify_staircase_insertion", "verify_twist_identity", "working_order",
]

_ORACLE_NAMES = frozenset({
    "QHAlgebra",
    "build_qh_algebra",
    "eigenvalue_check",
    "mult_operator",
    "quantum_euler",
    "trace_invariant",
})


def __getattr__(name: str):
    """Resolve an oracle name on first use (PEP 562)."""
    if name in _ORACLE_NAMES:
        from . import oracle

        value = globals()[name] = getattr(oracle, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(globals().keys() | set(__all__))

"""Exact Gromov-Witten invariants, Quot-scheme intersection numbers, and
maximal-subbundle counts for Lagrangian Grassmannians over curves.

`import lgquot` loads the integer kernels (`_ring`) and the count engine
(`_count`), so `maximal_count` runs with nothing else loaded.  Every other
name loads its module on first use: the formulas and the Schubert
expressions (`invariants`), the partition classes and exponent tuples
(`partitions`), the cyclotomic field, the float backend, the point tables and
the oracle (`CyclotomicNumber`, `FloatBackend`, `PointTable`,
`build_qh_algebra`, ...).  So a process that only counts, exactly or in
floats, builds no `IndexTuple` and imports none of those modules but
`_float`.
"""

from ._count import maximal_count, maximal_subbundle_degree
from ._ring import (
    NonHomogeneousError,
    NonIntegerValueError,
    NonvanishingAssumptionError,
    OrbitSizeError,
    ParityError,
    SingularEulerError,
    euler_phi,
)

__version__ = "0.1.0"

# the suites of `lgquot verify`, readable without importing lgquot.verify
SUITE_NAMES = ("identities", "oracle", "backends")

# a star import resolves the lazy names through __getattr__ below
__all__ = [
    "CyclotomicNumber", "ExactBackend", "FloatBackend", "IndexTuple", "NonHomogeneousError",
    "NonIntegerValueError", "NonvanishingAssumptionError", "OrbitSizeError", "ParityError",
    "Partition", "PointTable", "QHAlgebra", "SUITE_NAMES", "SchubertExpression",
    "SingularEulerError", "SkewMatrix", "StrictPartition", "build_qh_algebra", "complete_all",
    "cyclotomic_polynomial", "determinant", "dual_partition", "eigenvalue_check",
    "elementary_all", "euler_phi", "expected_dimension", "filter_no_opposites",
    "filter_unit_product", "gw_invariant", "intersection_number", "make_backend",
    "maximal_count", "maximal_subbundle_degree", "mult_operator", "pfaffian",
    "point_from_tuple", "qtilde", "qtilde_pair", "quantum_euler", "required_degree",
    "root_of_unity", "root_tuples", "schur", "sqrt_two", "staircase", "strict_partitions",
    "summation_tuples", "trace_invariant", "verify_hecke_recursion",
    "verify_staircase_insertion", "verify_twist_identity", "working_order",
]

# the names resolved on first use (PEP 562), each with the module that defines
# it; the modules of the formulas, the partitions, the field and the tables
# are attributes as well
_LAZY = {
    **{module: module for module in ("cyclotomic", "invariants", "partitions", "symfunc")},
    "FloatBackend": "_float",
    **dict.fromkeys(("SchubertExpression", "expected_dimension", "gw_invariant",
                     "intersection_number", "point_from_tuple", "required_degree",
                     "verify_hecke_recursion", "verify_staircase_insertion",
                     "verify_twist_identity"), "invariants"),
    **dict.fromkeys(("IndexTuple", "Partition", "StrictPartition", "dual_partition",
                     "filter_no_opposites", "filter_unit_product", "root_tuples", "staircase",
                     "strict_partitions", "summation_tuples"), "partitions"),
    **dict.fromkeys(("CyclotomicNumber", "ExactBackend", "cyclotomic_polynomial", "make_backend",
                     "root_of_unity", "sqrt_two", "working_order"), "cyclotomic"),
    **dict.fromkeys(("PointTable", "SkewMatrix", "complete_all", "determinant", "elementary_all",
                     "pfaffian", "qtilde", "qtilde_pair", "schur"), "symfunc"),
    **dict.fromkeys(("QHAlgebra", "build_qh_algebra", "eigenvalue_check", "mult_operator",
                     "quantum_euler", "trace_invariant"), "oracle"),
}


def __getattr__(name: str):
    """Resolve a name of `_LAZY` on first use."""
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # with a fromlist, __import__ returns the submodule itself (importlib is not loaded yet)
    source = __import__(f"{__name__}.{module}", fromlist=(name,))
    value = globals()[name] = source if name == module else getattr(source, name)
    return value


def __dir__():
    return sorted(globals().keys() | set(__all__))

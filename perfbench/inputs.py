"""Seeded inputs for every workload.

Standard library only: the parent process builds and checks inputs without
importing ``lgquot``, and the worker process reads the same lists.  A workload
runs in rounds.  Every round of a workload has the same template (the same
ranks, parities and genus classes), so a round costs about the same whatever
the seed and a run of any length is a whole number of like rounds.  The seed
and the round index pick the free parameters.
"""

from __future__ import annotations

import random
from itertools import combinations

# the two float-backend counts that come back as wrong integers with exit 0;
# they are fixed inputs, independent of the seed, and fail on every run
FLOAT_KNOWN_WRONG = ((6, 4, 0), (8, 3, 0))


def _rng(workload: str, seed: int, index: int = 0) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def strict_partitions(n: int) -> list[tuple[int, ...]]:
    """All nonempty strict partitions with parts in 1..n."""
    out = []
    for r in range(1, n + 1):
        out.extend(combinations(range(n, 0, -1), r))
    return out


def admissible(n: int, g: int, ell: int) -> bool:
    """The parity condition of the count: n(ell - g + 1) even."""
    return n * (ell - g + 1) % 2 == 0


def gw_degree(n: int, g: int, insertions) -> int | None:
    """The map degree d >= 0 at which the inserted weights are admissible."""
    total = sum(sum(lam) for lam in insertions)
    numerator = total - n * (n + 1) // 2 * (1 - g)
    if numerator % (n + 1) or numerator < 0:
        return None
    return numerator // (n + 1)


def _even(rng: random.Random, lo: int = -4, hi: int = 4) -> int:
    return 2 * rng.randint(lo // 2, hi // 2)


# -- cold_rank and float_wide: one CLI process per operation ---------------------


def cold_rank_template(seed: int) -> list[dict]:
    """Rank 6 with odd ell, and ranks 7, 7 and 8 with even ell.

    Genera are drawn from classes of like cost: for even ell the time goes to
    the staircase values and barely depends on the genus.  The two rank-7
    queries sit in the middle of the cost order, so the median of a run's
    operations is a rank-7 time whatever the seed.
    """
    rng = _rng("cold_rank", seed)
    return [
        {"n": 6, "g": rng.randint(2, 5), "ell": _even(rng) + 1},
        {"n": 7, "g": rng.choice((3, 5)), "ell": _even(rng)},
        {"n": 7, "g": rng.choice((3, 5)), "ell": _even(rng)},
        {"n": 8, "g": rng.randint(2, 5), "ell": _even(rng)},
    ]


def float_wide_template(seed: int) -> list[dict]:
    """Ranks 8 and 9, even ell, true values below 2^53, plus the two known faults."""
    rng = _rng("float_wide", seed)
    ops = [
        {"n": 8, "g": 1, "ell": _even(rng)},
        {"n": 8, "g": 2, "ell": _even(rng)},
        {"n": 9, "g": 1, "ell": _even(rng)},
    ]
    ops += [{"n": n, "g": g, "ell": ell, "known_wrong": True} for n, g, ell in FLOAT_KNOWN_WRONG]
    return ops


def cli_round(template: list[dict], index: int) -> list[dict]:
    """Round `index` of a CLI workload: the template with ell shifted by 2 * index.

    Seeded ops move by 2 per round, so each value must repeat the first
    round's (twist invariance); the known-wrong ops keep their fixed inputs.
    """
    out = []
    for op in template:
        shift = 0 if op.get("known_wrong") else 2 * index
        out.append(dict(op, ell=op["ell"] + shift))
    return out


# -- warm_session: library calls in one process -----------------------------------

WARM_RANKS = (1, 2, 3, 4, 5, 6)


def _insertions(rng: random.Random, n: int, g: int, count: int | None = None) -> tuple[list, int]:
    """Random strict insertions (`count` of them, or 1..4) at an admissible degree."""
    parts = strict_partitions(n)
    while True:
        ins = [rng.choice(parts) for _ in range(count or rng.randint(1, 4))]
        d = gw_degree(n, g, ins)
        if d is not None:
            return [list(lam) for lam in ins], d


def _monomial(rng: random.Random, n: int, weight: int) -> list[list[int]]:
    """Random product of aK and Q[...] factors of the given total weight."""
    parts = strict_partitions(n)
    factors = []
    while weight > 0:
        if rng.random() < 0.5:
            lam = (rng.randint(1, min(n, weight)),)
        else:
            lam = rng.choice([p for p in parts if sum(p) <= weight])
        factors.append(list(lam))
        weight -= sum(lam)
    return factors


def _intersection(rng: random.Random, n: int, g: int, ell: int) -> dict:
    c = n * (n + 1) // 2 * (g - 1 - ell)
    dim = (-c) % (n + 1) + (n + 1) * rng.randint(0, 1)
    e = -(dim + c) // (n + 1)
    return {"fn": "intersect", "n": n, "g": g, "ell": ell, "e": e,
            "factors": _monomial(rng, n, dim)}


def warm_round(seed: int, index: int) -> list[dict]:
    """One round of about fifty calls across ranks 1..6.

    Per rank 2..6: a genus-0 invariant (the S^(-1) path), two invariants at
    genus 1..6, and intersection numbers at genus 1..6 and both parities of
    ell.  Per rank 1..6: counts over a range of four genera starting at 1..3
    at one ell, with each odd-ell count repeated at ell + 2.  Genus 0 stays in
    its own slot, so every round takes the slow inverse path equally often.
    """
    rng = _rng("warm_session", seed, index)
    ops = []
    for n in WARM_RANKS[1:]:
        for g in (0, rng.randint(1, 6), rng.randint(1, 6)):
            ins, d = _insertions(rng, n, g)
            ops.append({"fn": "gw", "n": n, "g": g, "d": d, "ins": ins})
        ops.append(_intersection(rng, n, rng.randint(1, 6), _even(rng)))
        ops.append(_intersection(rng, n, rng.randint(1, 6), _even(rng) + 1))
    for n in WARM_RANKS:
        ell = rng.randint(-3, 3)
        g0 = rng.randint(1, 3)
        for g in range(g0, g0 + 4):
            if admissible(n, g, ell):
                ops.append({"fn": "count", "n": n, "g": g, "ell": ell})
                if ell % 2:
                    ops.append({"fn": "count", "n": n, "g": g, "ell": ell + 2})
    return ops


# -- oracle_algebra: build, reload and trace -------------------------------------

ORACLE_RANKS = (3, 4)


def oracle_round(seed: int, index: int) -> list[dict]:
    """Trace queries for one round: at each rank, genus 0..6 twice, three insertions each.

    The matrix work of a trace depends on the genus and the number of
    insertions, so both are fixed and the seed picks the partitions.
    """
    rng = _rng("oracle_algebra", seed, index)
    ops = []
    for n in ORACLE_RANKS:
        for g in (0, 1, 2, 3, 4, 5, 6) * 2:
            ins, d = _insertions(rng, n, g, count=3)
            ops.append({"fn": "trace", "n": n, "g": g, "d": d, "ins": ins})
    return ops

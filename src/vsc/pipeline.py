"""Mirror map and Gromov-Witten extraction for Fano hypersurfaces.

B-model generating functions live in flat coordinates x^0 .. x^{N-2}; their
expansions use q = e^{x^1} and the block variables x^2 .. x^{N-2}.  The
mirror map t(x) collects two-point constants with an identity endpoint, its
inverse comes from fixed-point iteration, one q-order per pass, and
composing the genus-1 potential with the inverse turns virtual structure
constants into Gromov-Witten invariants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import mul

# elliptic_constant is unused here; perfbench/tracer.py wraps it under this name.
from .elliptic import elliptic_constant, graph_values  # noqa: F401
from .genus0 import Genus0Chain, genus0_constant
from .graphs import graphs_of_degree
from .hypersurface import Hypersurface, Ins, InsT, ins_factorial, ins_key
from .series import TruncatedSeries, substitute

__all__ = ["weighted_insertions", "mirror_corrections", "invert_corrections",
           "genus0_pair_series", "GwRow", "gw_table"]


def weighted_insertions(N: int, weight: int) -> list[Ins]:
    """All insertion multisets {a: m_a} over a = 2..N-2 with sum (a-1) m_a = weight.

    Ordered by increasing m_2, then m_3, and so on: the counts below the
    last slot a = N-2 run in product order, and the weight they leave fixes
    its count, so the product never walks the last slot's range.
    """
    if N == 3:  # no slots
        return [{}] if weight == 0 else []
    slots, c = range(2, N - 1), N - 3  # c: the last slot's a - 1
    return [{a: m for a, m in zip(slots, (*ms, rest // c)) if m}
            for ms in product(*(range(weight // (a - 1) + 1) for a in slots[:-1]))
            if (rest := weight - sum(map(mul, ms, range(1, c)))) >= 0 and rest % c == 0]


def _exps(N: int, ins: InsT) -> tuple[int, ...]:
    counts = dict(ins)
    return tuple(counts.get(a, 0) for a in range(2, N - 1))


@lru_cache(maxsize=None)
def _constant_sets(N: int, k: int, q_cap: int, *slots: int) -> tuple[tuple[int, InsT], ...]:
    # (d, p >= 2 insertions) of every constant of degree d <= q_cap that meets
    # its selection rule: w(O_{h^a} O_{h^b} | ins)_{0,d} for slots a, b, else w(ins)_{1,d}
    X = Hypersurface(N, k)
    weight = (lambda d: X.genus0_weight(d, *slots)) if slots else X.genus1_weight
    return tuple((d, ins_key(ins)) for d in range(1, q_cap + 1)
                 for ins in weighted_insertions(N, weight(d)))


def _chain_jobs(N: int, k: int, q_cap: int, slots) -> list[tuple[Genus0Chain, InsT]]:
    # the genus-0 chain jobs of the constants of _constant_sets, for each slot pair
    return [(Genus0Chain(d, a, b), ins) for a, b in slots
            for d, ins in _constant_sets(N, k, q_cap, a, b)]


def mirror_corrections(N: int, k: int, q_cap: int, cache=None,
                       workers: int = 1) -> dict[int, TruncatedSeries]:
    """Corrections C_p with t^p = x^p + C_p(x) for p = 1..N-2.

    C_p sums (1/k) w(O_{h^{N-2-p}} O_{h^0} | ins)_{0,d} over degrees and over
    insertions of weight (N-k) d + p - 1, each divided by its m_a!.  These
    are the coordinates the inversion needs; their chains are one planner call.
    """
    Hypersurface(N, k)
    graph_values(N, k, _chain_jobs(N, k, q_cap, [(a, 0) for a in range(N - 2)]), cache, workers)
    return {p: genus0_pair_series(N, k, q_cap, N - 2 - p, 0).scale(Fraction(1, k))
            for p in range(1, N - 1)}


def invert_corrections(corrections: dict[int, TruncatedSeries]) -> dict[int, TruncatedSeries]:
    """Corrections D_p with x^p = t^p + D_p(t), from t^p = x^p + C_p(x).

    Every coordinate can appear on the right hand side, so ``substitute``
    needs the keys to be exactly 1..N-2 and raises ValueError otherwise.
    D is the fixed point of D <- -C(t + D).  C has no q^0 part, so the q^j
    order of C(t + D) involves D only below q^j: D = -C up to q^1, and pass
    j = 2..q_cap settles q^j from C and D truncated there, the step short of
    Newton's method (Brent & Kung, J. ACM 25, 1978).  A final pass at full
    precision checks the fixed point.
    """
    def step(cs, cur):
        return {p: -s for p, s in zip(corrections, substitute(cs, cur))}

    cs = list(corrections.values())
    q_cap = cs[0].q_cap if cs else 0
    D = {p: -s.truncate(min(q_cap, 1)) for p, s in corrections.items()}
    for j in range(2, q_cap + 1):
        D = step([s.truncate(j) for s in cs], {p: s.truncate(j) for p, s in D.items()})
    if step(cs, D) != D:
        raise RuntimeError("mirror map inversion did not reach its fixed point")
    return D


def _genus1_b(N, k, q_cap, cache, workers, chains=()):
    # Every (d, insertion set) of the table already meets the selection rule
    # and has no p <= 1 insertion, so its constant is the bare graph sum; all
    # graph residues of the table go through one graph_values call, and the
    # genus-0 chain jobs a caller passes in ride along on it.
    sets = _constant_sets(N, k, q_cap)
    jobs, owner = [], []
    for i, (d, ins) in enumerate(sets):
        for graph in graphs_of_degree(d):
            jobs.append((graph, ins))
            owner.append(i)
    values = graph_values(N, k, [*chains, *jobs], cache, workers)[len(chains):]
    sums = [Fraction(0)] * len(sets)
    for i, value in zip(owner, values):
        sums[i] += value
    terms = {(d, _exps(N, ins)): val / ins_factorial(ins) for (d, ins), val in zip(sets, sums)}
    return TruncatedSeries(N - 3, q_cap, terms), dict(zip(sets, sums))


def genus0_pair_series(N: int, k: int, q_cap: int, a: int, b: int) -> TruncatedSeries:
    """q-dependent part of the two-point function w(O_{h^a} O_{h^b})_0(x).

    The classical piece k x^{N-2-a-b} is again left to the caller.
    """
    return TruncatedSeries(N - 3, q_cap, {
        (d, _exps(N, ins)): genus0_constant(N, k, d, a, b, dict(ins)) / ins_factorial(ins)
        for d, ins in _constant_sets(N, k, q_cap, a, b)})


@dataclass
class GwRow:
    """One table row: degree, insertions, invariants and the raw constant."""

    d: int
    ins: Ins
    n1: Fraction
    w1: Fraction
    n0: Fraction | None = None
    combo: Fraction | None = None
    n1_norm: Fraction | None = None


def gw_table(N: int, k: int, d_max: int, cache=None, workers: int = 1) -> list[GwRow]:
    """Gromov-Witten rows of M_N^k for d = 1..d_max.

    For N = 4 each degree carries one insertion class and the row reports
    n1 and n1 / k^{m_2}; for N = 5 the rows run over (m_2, m_3) with
    m_2 + 2 m_3 = (5-k) d and add n0 and the combination
    ((N-k) d - 2)/24 * n0 + n1, which should always be an integer.
    """
    if N not in (4, 5):
        raise ValueError("tables cover N = 4 and N = 5")
    if not 1 <= k < N:
        raise ValueError("need a Fano target, 1 <= k < N")
    X = Hypersurface(N, k)
    q_cap = d_max
    # One planner call evaluates every residue chain of the table: the
    # genus-0 chains of the mirror map and of the N = 5 pair series land in
    # elliptic.memo, where the genus0_constant calls below read them.
    slots = [(N - 2 - p, 0) for p in range(1, N - 1)] + ([(1, 1)] if N == 5 else [])
    f1b, w1_raw = _genus1_b(N, k, q_cap, cache, workers, _chain_jobs(N, k, q_cap, slots))
    D = invert_corrections(mirror_corrections(N, k, q_cap))
    pair = [genus0_pair_series(N, k, q_cap, 1, 1)] if N == 5 else []
    f1a, *a11 = substitute([f1b, *pair], D)
    f1a = f1a - D[1].scale(Fraction(X.genus1_linear_coeff(), 24))
    if N == 5:
        a11 = a11[0] + D[1].scale(k)
    rows = []
    for (d, ins), w1 in w1_raw.items():  # one per genus-1 set, in _constant_sets order
        sym = ins_factorial(ins)
        n1 = f1a.coefficient(d, _exps(N, ins)) * sym
        row = GwRow(d=d, ins=dict(ins), n1=n1, w1=w1)
        if N == 4:
            row.n1_norm = n1 / Fraction(k) ** row.ins.get(2, 0)
        else:
            n0 = a11.coefficient(d, _exps(N, ins)) * sym / Fraction(d * d)
            row.n0 = n0
            row.combo = Fraction(X.genus1_weight(d) - 2, 24) * n0 + n1
        rows.append(row)
    return rows

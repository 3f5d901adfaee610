"""Mirror map and Gromov-Witten extraction for Fano hypersurfaces.

B-model generating functions live in flat coordinates x^0 .. x^{N-2}; their
expansions use q = e^{x^1} and the block variables x^2 .. x^{N-2}.  The
mirror map t(x) collects two-point constants with an identity endpoint, its
inverse comes from fixed-point iteration, and composing the genus-1
potential with the inverse turns virtual structure constants into
Gromov-Witten invariants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

# elliptic_constant is unused here; perfbench/tracer.py wraps it under this name.
from .elliptic import elliptic_constant, graph_values  # noqa: F401
from .genus0 import genus0_constant
from .graphs import graphs_of_degree
from .hypersurface import Hypersurface, ins_key
from .series import TruncatedSeries, substitute

__all__ = ["weighted_insertions", "mirror_corrections", "invert_corrections",
           "genus1_b_series", "genus0_pair_series", "GwRow", "gw_table"]

Ins = dict[int, int]


def weighted_insertions(N: int, weight: int) -> list[Ins]:
    """All insertion multisets {a: m_a} over a = 2..N-2 with sum (a-1) m_a = weight.

    Ordered by increasing m_2, then m_3, and so on.
    """
    slots = list(range(2, N - 1))
    out: list[Ins] = []

    def rec(i: int, rem: int, cur: Ins):
        if i == len(slots):
            if rem == 0:
                out.append(dict(cur))
            return
        a = slots[i]
        for m in range(rem // (a - 1) + 1):
            if m:
                cur[a] = m
            rec(i + 1, rem - (a - 1) * m, cur)
        cur.pop(a, None)

    if weight >= 0:
        rec(0, weight, {})
    return out


def _exps(N: int, ins: Ins) -> tuple[int, ...]:
    return tuple(ins.get(a, 0) for a in range(2, N - 1))


def _sym(ins: Ins) -> int:
    out = 1
    for m in ins.values():
        out *= factorial(m)
    return out


def mirror_corrections(N: int, k: int, q_cap: int,
                       ps=None) -> dict[int, TruncatedSeries]:
    """Corrections C_p with t^p = x^p + C_p(x), one series per requested p.

    C_p sums (1/k) w(O_{h^{N-2-p}} O_{h^0} | ins)_{0,d} over degrees and over
    insertions of weight (N-k) d + p - 1, each divided by its m_a!.  By
    default p runs over 1..N-2, the coordinates the inversion needs.
    """
    Hypersurface(N, k)
    nblocks = N - 3
    if ps is None:
        ps = range(1, N - 1)
    out = {}
    for p in ps:
        terms = {}
        for d in range(1, q_cap + 1):
            for ins in weighted_insertions(N, (N - k) * d + p - 1):
                val = genus0_constant(N, k, d, N - 2 - p, 0, ins)
                if val:
                    terms[(d, _exps(N, ins))] = Fraction(val, k) / _sym(ins)
        out[p] = TruncatedSeries(nblocks, q_cap, terms)
    return out


def invert_corrections(corrections: dict[int, TruncatedSeries]) -> dict[int, TruncatedSeries]:
    """Corrections D_p with x^p = t^p + D_p(t), from t^p = x^p + C_p(x).

    Needs one series for every coordinate that can appear on the right hand
    side, so the keys must be exactly 1..N-2.  Iterating D <- -C(t + D)
    settles one q-order per pass; a final pass checks the fixed point.
    """
    sample = next(iter(corrections.values()))
    nblocks, q_cap = sample.nblocks, sample.q_cap
    if sorted(corrections) != list(range(1, nblocks + 2)):
        raise ValueError("inversion needs corrections for p = 1..N-2")
    zero = TruncatedSeries.zero(nblocks, q_cap)
    D = {p: zero for p in corrections}

    def step(cur):
        blocks = [TruncatedSeries.block(a, nblocks, q_cap) + cur[a + 2]
                  for a in range(nblocks)]
        return {p: -substitute(corrections[p], cur[1], blocks)
                for p in corrections}

    for _ in range(q_cap):
        D = step(D)
    if step(D) != D:
        raise RuntimeError("mirror map inversion did not reach its fixed point")
    return D


def genus1_b_series(N: int, k: int, q_cap: int, cache=None,
                    workers: int = 1) -> TruncatedSeries:
    """q-dependent part of the genus-1 B-model potential in the x-variables.

    The linear term -(1/24) (int c_{N-3} h) x^1 is not representable here and
    is handled by the caller during composition.
    """
    series, _ = _genus1_b(N, k, q_cap, cache, workers)
    return series


def _genus1_b(N, k, q_cap, cache, workers):
    # Every (d, insertion set) of the table already meets the selection rule
    # and has no p <= 1 insertion, so its constant is the bare graph sum; all
    # graph residues of the table go through one graph_values call.
    Hypersurface(N, k)
    sets = [(d, ins) for d in range(1, q_cap + 1)
            for ins in weighted_insertions(N, (N - k) * d)]
    jobs, owner = [], []
    for i, (d, ins) in enumerate(sets):
        for graph in graphs_of_degree(d):
            jobs.append((graph, ins_key(ins)))
            owner.append(i)
    sums = [Fraction(0)] * len(sets)
    for i, value in zip(owner, graph_values(N, k, jobs, cache, workers)):
        sums[i] += value
    terms = {(d, _exps(N, ins)): val / _sym(ins) for (d, ins), val in zip(sets, sums)}
    raw = {(d, ins_key(ins)): val for (d, ins), val in zip(sets, sums)}
    return TruncatedSeries(N - 3, q_cap, terms), raw


def genus0_pair_series(N: int, k: int, q_cap: int, a: int, b: int) -> TruncatedSeries:
    """q-dependent part of the two-point function w(O_{h^a} O_{h^b})_0(x).

    The classical piece k x^{N-2-a-b} is again left to the caller.
    """
    nblocks = N - 3
    terms = {}
    for d in range(1, q_cap + 1):
        for ins in weighted_insertions(N, N - 3 - a - b + (N - k) * d):
            val = genus0_constant(N, k, d, a, b, ins)
            if val:
                terms[(d, _exps(N, ins))] = val / _sym(ins)
    return TruncatedSeries(nblocks, q_cap, terms)


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
    nblocks = N - 3
    q_cap = d_max
    D = invert_corrections(mirror_corrections(N, k, q_cap))
    blocks = [TruncatedSeries.block(a, nblocks, q_cap) + D[a + 2]
              for a in range(nblocks)]
    f1b, w1_raw = _genus1_b(N, k, q_cap, cache, workers)
    f1a = substitute(f1b, D[1], blocks) - \
        D[1].scale(Fraction(X.genus1_linear_coeff(), 24))
    if N == 5:
        a11 = substitute(genus0_pair_series(N, k, q_cap, 1, 1), D[1], blocks) + \
            D[1].scale(k)
    rows = []
    for d in range(1, d_max + 1):
        for ins in weighted_insertions(N, (N - k) * d):
            sym = _sym(ins)
            n1 = f1a.coefficient(d, _exps(N, ins)) * sym
            row = GwRow(d=d, ins=ins, n1=n1, w1=w1_raw[(d, ins_key(ins))])
            if N == 4:
                row.n1_norm = n1 / Fraction(k) ** ins.get(2, 0)
            else:
                n0 = a11.coefficient(d, _exps(N, ins)) * sym / Fraction(d * d)
                row.n0 = n0
                row.combo = Fraction((N - k) * d - 2, 24) * n0 + n1
            rows.append(row)
    return rows

"""Genus-1 structure of Calabi-Yau hypersurfaces M_k^k.

For k = N no insertions survive the selection rules, so everything becomes a
power series in q = e^{x^1}.  The genus-1 potential splits along graph
families: stars resum to (chi/24) log Ltilde_0, the degenerate point pieces
have logarithm and dilogarithm closed forms, and the loop amplitudes are
conjecturally a weighted sum of log Ltilde_p, which together yield the
BCOV-Zinger form of the potential.  This module builds each piece exactly
and checks the identities degree by degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

# graph_residue and parallel_map are unused here; perfbench/tracer.py wraps
# them under this module's names.
from .elliptic import graph_residue, graph_values  # noqa: F401
from .genus0 import Genus0Chain, genus0_constant
from .graphs import (ClusterStarGraph, LoopGraph, PointGraph, StarGraph,
                     graphs_of_degree, ordered_partitions)
from .hypersurface import Hypersurface
from .parallel import parallel_map  # noqa: F401
from .series import TruncatedSeries

__all__ = ["ltilde", "ltilde_zero_closed", "alternating_two_point_sum",
           "log_one_minus", "dilog_integral", "family_series",
           "bcov_zinger_series", "CyReport", "cy_report"]

FAMILIES = {
    "star": StarGraph,
    "loop": LoopGraph,
    "cluster": ClusterStarGraph,
    "point": PointGraph,
}


def _check_cy(k: int) -> Hypersurface:
    if k < 3:
        raise ValueError("need k >= 3")
    return Hypersurface(k, k)


def ltilde(k: int, m: int, q_cap: int) -> TruncatedSeries:
    """Ltilde_m(q) = 1 + sum_d w(O_{h^{k-2-m}} O_{h^{m-1}} | O_h)_{0,d} / k q^d.

    m = 0 puts the power -1 endpoint into the denominator of the residue
    integrand; Ltilde_1 equals dt/dx of the one-variable mirror map.
    """
    _check_cy(k)
    if not 0 <= m <= k - 2:
        raise ValueError("need 0 <= m <= k-2")
    terms = {(0, ()): Fraction(1)}
    for d in range(1, q_cap + 1):
        val = genus0_constant(k, k, d, k - 2 - m, m - 1, {1: 1})
        terms[(d, ())] = val / k
    return TruncatedSeries(0, q_cap, terms)


def ltilde_zero_closed(k: int, q_cap: int) -> TruncatedSeries:
    """Ltilde_0 in closed form, sum_d (kd)! / (d!)^k q^d."""
    terms = {(d, ()): Fraction(factorial(k * d), factorial(d) ** k)
             for d in range(q_cap + 1)}
    return TruncatedSeries(0, q_cap, terms)


def alternating_two_point_sum(k: int, d: int) -> Fraction:
    """sum over compositions (d_1..d_l) of d of (-1)^{l-1} prod (k d_j)!/(d_j!)^k.

    Generating function identity: 1 - sum_d of this times q^d is 1/Ltilde_0.
    """
    _check_cy(k)
    out = Fraction(0)
    for comp in ordered_partitions(d):
        term = Fraction((-1) ** (len(comp) - 1))
        for dj in comp:
            term *= Fraction(factorial(k * dj), factorial(dj) ** k)
        out += term
    return out


def log_one_minus(k: int, q_cap: int) -> TruncatedSeries:
    """log(1 - k^k q) as an exact series."""
    terms = {(d, ()): Fraction(-(k ** (k * d)), d) for d in range(1, q_cap + 1)}
    return TruncatedSeries(0, q_cap, terms)


def dilog_integral(k: int, q_cap: int) -> TruncatedSeries:
    """Antiderivative of log(1 - k^k e^s) from -infinity to x, in q = e^x."""
    terms = {(d, ()): Fraction(-(k ** (k * d)), d * d) for d in range(1, q_cap + 1)}
    return TruncatedSeries(0, q_cap, terms)


def _family_sums(k: int, q_cap: int, cache=None, workers: int = 1,
                 chains=()) -> dict[str, TruncatedSeries]:
    """Per-family q-series of graph residue sums, from one graph_values call.

    The genus-0 chain jobs a caller passes in ride along on that call.
    """
    _check_cy(k)
    graphs = [(family, g) for d in range(1, q_cap + 1) for g in graphs_of_degree(d)
              for family, kind in FAMILIES.items() if isinstance(g, kind)]
    jobs = [*chains, *((g, ()) for _, g in graphs)]
    values = graph_values(k, k, jobs, cache, workers)[len(chains):]
    terms: dict[str, dict] = {family: {} for family in FAMILIES}
    for (family, graph), val in zip(graphs, values):
        t = terms[family]
        t[(graph.degree, ())] = t.get((graph.degree, ()), 0) + val
    return {family: TruncatedSeries(0, q_cap, t) for family, t in terms.items()}


def family_series(k: int, q_cap: int, family: str, cache=None,
                  workers: int = 1) -> TruncatedSeries:
    """One family's graph residue sums per degree, out of the sums of all four."""
    return _family_sums(k, q_cap, cache, workers)[family]


def bcov_zinger_series(k: int, q_cap: int) -> TruncatedSeries:
    """q-dependent part of the genus-1 potential in BCOV-Zinger form.

    Odd k:  (chi/24) log Ltilde_0 - (k-1)/48 log(1-k^k q)
            - sum_{p=0}^{(k-3)/2} (k-1-2p)^2/8 log Ltilde_p.
    Even k: same leading term, then -(k-4)/48 log(1-k^k q)
            - sum_{p=0}^{(k-4)/2} (k-2p)(k-2p-2)/8 log Ltilde_p.
    """
    X = _check_cy(k)
    chi = X.euler_characteristic()
    log_coeff = Fraction(-(k - 1), 48) if k % 2 else Fraction(-(k - 4), 48)
    return ltilde(k, 0, q_cap).log().scale(Fraction(chi, 24)) + \
        log_one_minus(k, q_cap).scale(log_coeff) + _loop_log_sum(k, q_cap)


def _loop_weights(k: int) -> dict[int, Fraction]:
    # weights of -log Ltilde_p on the conjectural loop side
    if k % 2:
        return {p: Fraction((k - 1 - 2 * p) ** 2, 8) for p in range((k - 1) // 2)}
    return {p: Fraction((k - 2 * p) * (k - 2 * p - 2), 8)
            for p in range((k - 2) // 2)}


def _loop_log_sum(k: int, q_cap: int) -> TruncatedSeries:
    # the weighted -log Ltilde_p sum of the loop side
    out = TruncatedSeries.zero(0, q_cap)
    for p, weight in _loop_weights(k).items():
        out = out - ltilde(k, p, q_cap).log().scale(weight)
    return out


@dataclass
class CyReport:
    """Exact q-series entering the genus-1 identities of M_k^k."""

    k: int
    q_cap: int
    l0: TruncatedSeries
    l1: TruncatedSeries
    stars: TruncatedSeries
    loops: TruncatedSeries
    clusters: TruncatedSeries
    points: TruncatedSeries
    lhs: TruncatedSeries  # loops + (k^2-1)/(24k) integral (+ even-k log piece)
    rhs: TruncatedSeries  # weighted -log Ltilde_p sum
    bcov: TruncatedSeries

    @property
    def log_l0(self) -> TruncatedSeries:
        return self.l0.log()

    @property
    def log_l1(self) -> TruncatedSeries:
        return self.l1.log()

    @property
    def graph_sum(self) -> TruncatedSeries:
        return self.stars + self.loops + self.clusters + self.points

    def identities(self) -> dict[str, bool]:
        chi = Hypersurface(self.k, self.k).euler_characteristic()
        l0_inv = self.l0.inverse()
        alt_inverts = all(
            alternating_two_point_sum(self.k, d) == -l0_inv.coefficient(d)
            for d in range(1, self.q_cap + 1))
        return {
            "cluster residues vanish": self.clusters.is_zero(),
            "stars match (chi/24) log Ltilde_0":
                self.stars == self.log_l0.scale(Fraction(chi, 24)),
            "loop sum matches weighted log Ltilde_p": self.lhs == self.rhs,
            "graph sum matches BCOV-Zinger form": self.graph_sum == self.bcov,
            "alternating two-point sums invert Ltilde_0": alt_inverts,
        }


def cy_report(k: int, q_cap: int, cache=None, workers: int = 1) -> CyReport:
    """Compute every series entering the genus-1 identities of M_k^k."""
    _check_cy(k)
    # One planner call evaluates every residue chain of the report: the
    # genus-0 chains of each Ltilde_m read below land in elliptic.memo.
    chains = [(Genus0Chain(d, k - 2 - m, m - 1), ())
              for m in sorted({0, 1, *_loop_weights(k)}) for d in range(1, q_cap + 1)]
    sums = _family_sums(k, q_cap, cache, workers, chains)
    l0 = ltilde(k, 0, q_cap)
    if l0 != ltilde_zero_closed(k, q_cap):
        raise RuntimeError("Ltilde_0 differs from its closed form")
    l1 = ltilde(k, 1, q_cap)
    lhs = sums["loop"] + dilog_integral(k, q_cap).scale(Fraction(k * k - 1, 24 * k))
    if k % 2 == 0:
        lhs = lhs + log_one_minus(k, q_cap).scale(Fraction(-1, 16))
    rhs = _loop_log_sum(k, q_cap)
    return CyReport(
        k=k, q_cap=q_cap, l0=l0, l1=l1,
        stars=sums["star"], loops=sums["loop"], clusters=sums["cluster"],
        points=sums["point"],
        lhs=lhs, rhs=rhs,
        bcov=bcov_zinger_series(k, q_cap))

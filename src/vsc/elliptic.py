"""Genus-1 virtual structure constants as graph sums of iterated residues.

The degree-d constant w(prod_p (O_{h^p})^{m_p})_{1,d} is a sum over the
graph catalog of degree d.  Every graph carries a rational integrand in its
own variable layout together with a residue schedule:

  star     core z_0 (residue at 0), then each tail inward-out, interior
           tail variables at 0 and at the evolved midpoint root, the tail
           end at 0 only;
  loop     cyclic chain, every variable at 0 and at its evolved root;
  cluster  contracted variable w at its root w = z_0 only, then the star
           schedule; these residues vanish whenever N = k, because the
           double-pole derivative at w = z_0 picks up a factor N - k, but
           for Fano targets with insertions they contribute;
  point    single variable, residue at 0.

Insertions with p = 0 kill the constant and each p = 1 insertion multiplies
it by d; both are applied analytically before the graph sum.

graph_values is the one planner for residue chains of both genera: tables
and reports hand it their genus-1 graphs together with the genus-0 chains
their mirror maps read, and it meets the disk cache and the pool for all.
"""

from __future__ import annotations

from fractions import Fraction

from .cache import ResidueCache, chain_key, graph_key
from .chain import residue_chain
from .genus0 import Genus0Chain, chain_residue, e_poly, memo, w_poly
from .graphs import (
    ClusterStarGraph,
    Graph,
    LoopGraph,
    PointGraph,
    StarGraph,
    graphs_of_degree,
    r_factor,
    sym_factor,
)
from .hypersurface import Hypersurface, format_insertions, ins_key
from .parallel import parallel_map
from .poly import SparsePoly, linear_form
from .ratfun import RatExpr

__all__ = ["elliptic_constant", "graph_residue", "graph_values"]

InsT = tuple[tuple[int, int], ...]


def _accumulated_form(parts: list[tuple[int, int]], n: int) -> SparsePoly:
    # linear form with repeated indices accumulated (cyclic layouts need this)
    coeffs: dict[int, int] = {}
    for v, c in parts:
        coeffs[v] = coeffs.get(v, 0) + c
    return linear_form({v: c for v, c in coeffs.items() if c}, n)


def _tail_indices(sigma: tuple[int, ...], first: int) -> list[list[int]]:
    out = []
    pos = first
    for part in sigma:
        out.append(list(range(pos, pos + part)))
        pos += part
    return out


def _tail_pieces(k, N, n, core, tails, num, den, designated, steps):
    """Attach the rational-tail factors shared by star and cluster layouts."""
    for tail in tails:
        num = num * e_poly(k, core, tail[0], n)
        den.append((_accumulated_form([(tail[0], 1), (core, -1)], n), 1))
        for j in range(len(tail) - 1):
            num = num * e_poly(k, tail[j], tail[j + 1], n)
        for j, v in enumerate(tail):
            last = j == len(tail) - 1
            den.append((SparsePoly.variable(v, n), N if last else N + 1))
            if not last:
                left = core if j == 0 else tail[j - 1]
                g = _accumulated_form([(v, 2), (left, -1), (tail[j + 1], -1)], n)
                den.append((g, 1))
                designated[v] = g
                steps.append((v, "both"))
            else:
                steps.append((v, "zero"))
    return num


def _tail_insertion_sum(a, k, n, core, tails) -> SparsePoly:
    s = SparsePoly.zero(n)
    for tail in tails:
        prev = core
        for v in tail:
            s = s + w_poly(a, prev, v, n)
            prev = v
    return s


def _star_terms(N: int, k: int, sigma: tuple[int, ...], ins_t: InsT):
    X = Hypersurface(N, k)
    d, l = sum(sigma), len(sigma)
    n = 1 + d
    core = 0
    tails = _tail_indices(sigma, 1)
    scalar = sym_factor(sigma) * Fraction(X.top_chern_coeff(), 24) / k ** (d - 1)
    num = SparsePoly.constant(scalar, n) * SparsePoly.variable(core, n) ** (N - 2)
    den: list[tuple[SparsePoly, int]] = [(SparsePoly.variable(core, n), N + l - 1)]
    designated: dict[int, SparsePoly] = {}
    steps: list[tuple[int, str]] = [(core, "zero")]
    num = _tail_pieces(k, N, n, core, tails, num, den, designated, steps)
    for a, m in ins_t:
        num = num * _tail_insertion_sum(a, k, n, core, tails) ** m
    return [(RatExpr(num, den), steps, designated)]


def _loop_terms(N: int, k: int, d: int, ins_t: InsT):
    n = d
    scalar = Fraction(1, 2 * d) / k**d
    num = SparsePoly.constant(scalar, n)
    for t in range(d):
        num = num * e_poly(k, t, (t + 1) % d, n)
    for a, m in ins_t:
        s = SparsePoly.zero(n)
        for t in range(d):
            s = s + w_poly(a, t, (t + 1) % d, n)
        num = num * s**m
    den: list[tuple[SparsePoly, int]] = []
    designated: dict[int, SparsePoly] = {}
    steps: list[tuple[int, str]] = []
    for t in range(d):
        den.append((SparsePoly.variable(t, n), N + 1))
        g = _accumulated_form([(t, 2), ((t - 1) % d, -1), ((t + 1) % d, -1)], n)
        den.append((g, 1))
        designated[t] = g
        steps.append((t, "both"))
    return [(RatExpr(num, den), steps, designated)]


def _cluster_terms(N: int, k: int, f: int, sigma: tuple[int, ...], ins_t: InsT):
    d, l = f + sum(sigma), len(sigma)
    n = 2 + sum(sigma)
    w, core = 0, 1
    tails = _tail_indices(sigma, 2)
    # The cluster vertex has valence l + 1 (l tails plus the edge to w), so its
    # vertex factor carries (k z_core)^l, one power more than an elliptic core.
    # With l - 1 the integrand would sit one degree too high and every chain
    # would die on the homogeneity count; l lands it exactly at minus the step
    # count of the chain, and it keeps the N = k case at zero.
    scalar = sym_factor(sigma) * Fraction(1, 24) * Fraction(k) ** (k * (f - 1) - 1) / k ** (
        l) / k ** (d - f - l)
    num = SparsePoly.constant(scalar, n) * e_poly(k, w, core, n)
    num = num * SparsePoly.variable(core, n) ** (k * (f - 1))
    den: list[tuple[SparsePoly, int]] = [
        (_accumulated_form([(w, 1), (core, -1)], n), 2),
        (SparsePoly.variable(w, n), 1),
        (SparsePoly.variable(core, n), l + N * (f - 1)),
    ]
    designated: dict[int, SparsePoly] = {w: _accumulated_form([(w, 1), (core, -1)], n)}
    steps: list[tuple[int, str]] = [(w, "root"), (core, "zero")]
    num = _tail_pieces(k, N, n, core, tails, num, den, designated, steps)
    for a, m in ins_t:
        s = w_poly(a, w, core, n) + w_poly(a, core, core, n).scale(f - 1)
        s = s + _tail_insertion_sum(a, k, n, core, tails)
        num = num * s**m
    half_a = RatExpr(num.scale(Fraction(-(N - 1), N)),
                     den + [(SparsePoly.variable(w, n), N)])
    half_b = RatExpr(num.scale(Fraction(-(N + 1), N)),
                     den + [(SparsePoly.variable(core, n), N)])
    return [(half_a, steps, designated), (half_b, steps, designated)]


def _point_terms(N: int, k: int, d: int, ins_t: InsT):
    n = 1
    z = SparsePoly.variable(0, n)
    num = SparsePoly.constant(r_factor(N, k, d) * Fraction(k) ** (k * d) / 24, n)
    num = num * z ** (k * d)
    for a, m in ins_t:
        num = num * (w_poly(a, 0, 0, n).scale(d)) ** m
    den = [(z, N * d + 1)]
    return [(RatExpr(num, den), [(0, "zero")], {})]


def _graph_terms(N: int, k: int, graph: Graph, ins_t: InsT):
    """(integrand, steps, designated) of each chain of one catalog graph."""
    if isinstance(graph, StarGraph):
        return _star_terms(N, k, graph.sigma, ins_t)
    if isinstance(graph, LoopGraph):
        return _loop_terms(N, k, graph.d, ins_t)
    if isinstance(graph, ClusterStarGraph):
        return _cluster_terms(N, k, graph.f, graph.sigma, ins_t)
    if isinstance(graph, PointGraph):
        return _point_terms(N, k, graph.d, ins_t)
    raise TypeError(f"unknown graph {graph!r}")


def graph_residue(N: int, k: int, graph: Graph, ins_t: InsT) -> Fraction:
    """Residue value of one catalog graph with the given p >= 2 insertions."""
    total = Fraction(0)
    for f, steps, designated in _graph_terms(N, k, graph, ins_t):
        total += residue_chain(f, steps, designated)
    return total


def _evaluate(args):
    N, k, part, ins_t = args
    if isinstance(part, Genus0Chain):
        return chain_residue(N, k, part, ins_t)
    return graph_residue(N, k, part, ins_t)


def _cache_key(N: int, k: int, part, ins_t: InsT) -> dict:
    ins = format_insertions(dict(ins_t))
    if isinstance(part, Genus0Chain):
        return chain_key(N, k, part.degree, part.a, part.b, ins)
    return graph_key(N, k, part.degree, part.label(), ins)


def graph_values(N: int, k: int, jobs: list[tuple[Graph | Genus0Chain, InsT]],
                 cache: ResidueCache | None = None,
                 workers: int = 1) -> list[Fraction]:
    """Residue values of (graph or genus-0 chain, p >= 2 insertions) jobs.

    The one planner for every residue chain of a table or report: duplicate
    jobs are evaluated once; genus-0 values come from genus0.memo, then any
    value from the disk cache; the misses run in one parallel_map call,
    highest degree first (ties in job order), so the longest chains start
    first and a whole table shares one pool.  Computed values are written
    to the cache, and genus-0 values also to the memo that genus0_constant
    reads.  Values are returned in job order.
    """
    values: dict[tuple, Fraction | None] = dict.fromkeys(jobs)
    for job in values:
        if isinstance(job[0], Genus0Chain):
            values[job] = memo.get((N, k, *job, "ascending"))
        if values[job] is None and cache is not None:
            values[job] = cache.get(_cache_key(N, k, *job))
    misses = sorted((job for job, value in values.items() if value is None),
                    key=lambda job: -job[0].degree)
    computed = parallel_map(_evaluate, [(N, k, *job) for job in misses], workers)
    for job, value in zip(misses, computed):
        values[job] = value
        if cache is not None:
            cache.put(_cache_key(N, k, *job), value)
    for job, value in values.items():
        if isinstance(job[0], Genus0Chain):
            memo[(N, k, *job, "ascending")] = value
    return [values[job] for job in jobs]


def elliptic_constant(N: int, k: int, d: int,
                      ins: dict[int, int] | None = None,
                      cache: ResidueCache | None = None,
                      workers: int = 1) -> Fraction:
    """w(prod_p (O_{h^p})^{m_p})_{1,d}, exactly.

    Returns 0 whenever the selection rule sum_p (p-1) m_p = (N-k) d fails.
    With a cache, per-graph values are reused across runs.
    """
    X = Hypersurface(N, k)
    if d < 1:
        raise ValueError("need d >= 1")
    ins = {p: m for p, m in (ins or {}).items() if m}
    if any(p < 0 or p > N - 2 for p in ins):
        raise ValueError("insertion powers must lie in 0..N-2")
    if ins.get(0):
        return Fraction(0)
    mult = Fraction(d) ** ins.pop(1, 0)
    if not X.genus1_selection(d, ins):
        return Fraction(0)
    jobs = [(graph, ins_key(ins)) for graph in graphs_of_degree(d)]
    return mult * sum(graph_values(N, k, jobs, cache, workers), Fraction(0))

"""Genus-1 virtual structure constants as graph sums of iterated residues.

The degree-d constant w(prod_p (O_{h^p})^{m_p})_{1,d} is a sum over the
graph catalog of degree d.  Every graph carries a rational integrand in its
own variable layout together with a residue schedule:

  star     core z_0 (residue at 0), then each tail inward-out, interior
           tail variables at 0 and at the evolved midpoint root, the tail
           end at 0 only;
  loop     cyclic chain, every variable at 0 and at its evolved root;
  cluster  the contracted variable w is written as w = z_0 + u, and u is
           taken at 0 only (the double pole at w = z_0), then the star
           schedule; its two contraction terms -(N-1)/N w^-N and
           -(N+1)/N z_0^-N share one denominator, so a cluster is one
           integrand and one chain like every other graph; these residues
           vanish whenever N = k, because the double-pole derivative at
           w = z_0 picks up a factor N - k, but for Fano targets with
           insertions they contribute;
  point    single variable, residue at 0.

Each builder only describes its layout and returns (integrand, steps); a
step is (variable, form) as in chain.residue_chain, genus0.midpoint adds an
interior vertex and returns its step, and genus0.integrand assembles the
integrand.  A star or cluster tail is a path that hangs on the core, a loop
is a cycle, a cluster adds the edge (u + z_core, core) and a self-loop of
weight f - 1 on the core, and a point is one vertex with a self-loop of
weight d.  Every graph whose chain opens with a residue at 0 alone (all but
loops) builds its numerator only below that first pole.

Insertions with p = 0 kill the constant and each p = 1 insertion multiplies
it by d; both are applied analytically before the graph sum.

graph_values is the one planner for residue chains of both genera: tables
and reports hand it their genus-1 graphs together with the genus-0 chains
their mirror maps read, and it meets the disk cache and the pool for all,
one pool item per graph or chain with all of its insertion sets.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .cache import ResidueCache, chain_key, graph_key
from .chain import residue_chain
from .genus0 import Genus0Chain, chain_residue, integrand, memo, midpoint
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

__all__ = ["elliptic_constant", "graph_residue", "graph_values"]

InsT = tuple[tuple[int, int], ...]


def _hang_tails(N: int, n: int, core: int, sigma: tuple[int, ...], den):
    """Hang one path per part of sigma on the core; returns (edges, steps).

    The tail vertices follow the core in index order.  Each tail adds the
    factor (first vertex - core) to the denominator, a midpoint and its step
    for every vertex but its end, which takes z^N and a step at 0 only.
    """
    edges: list[tuple[int, int]] = []
    steps: list[tuple[int, SparsePoly | None]] = []
    first = core + 1
    for part in sigma:
        path = [core, *range(first, first + part)]
        first += part
        edges += zip(path, path[1:])
        den.append((linear_form({path[1]: 1, core: -1}, n), 1))
        steps += [midpoint(N, n, v, left, right, den)
                  for left, v, right in zip(path, path[1:], path[2:])]
        den.append((SparsePoly.variable(path[-1], n), N))
        steps.append((path[-1], None))
    return edges, steps


def _star_terms(N: int, k: int, sigma: tuple[int, ...], ins_ts: list[InsT]):
    X = Hypersurface(N, k)
    d, l = sum(sigma), len(sigma)
    n = 1 + d
    core = 0
    scalar = sym_factor(sigma) * Fraction(X.top_chern_coeff(), 24) / k ** (d - 1)
    den: list[tuple[SparsePoly, int]] = [(SparsePoly.variable(core, n), N + l - 1)]
    edges, tail_steps = _hang_tails(N, n, core, sigma, den)
    steps = [(core, None), *tail_steps]
    lead = SparsePoly(n, {(N - 2,) + (0,) * d: scalar})
    return integrand(k, lead, edges, ins_ts, {}, den, steps), steps


def _loop_terms(N: int, k: int, d: int, ins_ts: list[InsT]):
    den: list[tuple[SparsePoly, int]] = []
    steps = [midpoint(N, d, t, (t - 1) % d, (t + 1) % d, den) for t in range(d)]
    edges = [(t, (t + 1) % d) for t in range(d)]
    lead = SparsePoly.constant(Fraction(1, 2 * d) / k**d, d)
    return integrand(k, lead, edges, ins_ts, {}, den, steps), steps


def _cluster_terms(N: int, k: int, f: int, sigma: tuple[int, ...], ins_ts: list[InsT]):
    d, l = f + sum(sigma), len(sigma)
    n = 2 + sum(sigma)
    u, core = 0, 1
    # The cluster vertex has valence l + 1 (l tails plus the edge to w), so its
    # vertex factor carries (k z_core)^l, one power more than an elliptic core.
    # With l - 1 the integrand would sit one degree too high for its chain;
    # l lands it exactly at minus the step count, and keeps N = k at zero.
    # The contraction terms -(N-1)/N w^-N and -(N+1)/N z_core^-N share one
    # denominator: w^N z_core^N below, -((N-1) z_core^N + (N+1) w^N)/N above.
    # The layout is written in u = w - z_core, so the chain opens with the
    # double pole at u = 0 and the numerator is built only to degree 1 in u.
    scalar = -sym_factor(sigma) * Fraction(k) ** (k * (f - 1) - 1) / (24 * N * k ** (d - f))
    w = linear_form({u: 1, core: 1}, n)
    den = [(SparsePoly.variable(u, n), 2), (w, N + 1),
           (SparsePoly.variable(core, n), l + N * f)]
    tail_edges, tail_steps = _hang_tails(N, n, core, sigma, den)
    steps = [(u, None), (core, None), *tail_steps]
    # the contracted loop is the edge (w, core) and a self-loop of weight f - 1
    edges = [(w, core), *tail_edges]
    tails = (0,) * sum(sigma)
    w_pow = SparsePoly(n, {(j, N - j) + tails: comb(N, j) for j in range(N + 1)})
    split = w_pow.scale(N + 1) + SparsePoly(n, {(0, N) + tails: N - 1})
    lead = split * SparsePoly(n, {(0, k * (f - 1)) + tails: scalar})
    return integrand(k, lead, edges, ins_ts, {core: f - 1}, den, steps), steps


def _point_terms(N: int, k: int, d: int, ins_ts: list[InsT]):
    # one vertex carrying a self-loop of weight d
    scalar = r_factor(N, k, d) * Fraction(k) ** (k * d) / 24
    den, steps = [(SparsePoly.variable(0, 1), N * d + 1)], [(0, None)]
    lead = SparsePoly(1, {(k * d,): scalar})
    return integrand(k, lead, [], ins_ts, {0: d}, den, steps), steps


def _graph_integrand(N: int, k: int, graph: Graph, ins_ts: list[InsT]):
    """(integrands, steps) of the one chain of a catalog graph, one integrand per set."""
    if isinstance(graph, StarGraph):
        return _star_terms(N, k, graph.sigma, ins_ts)
    if isinstance(graph, LoopGraph):
        return _loop_terms(N, k, graph.d, ins_ts)
    if isinstance(graph, ClusterStarGraph):
        return _cluster_terms(N, k, graph.f, graph.sigma, ins_ts)
    if isinstance(graph, PointGraph):
        return _point_terms(N, k, graph.d, ins_ts)
    raise TypeError(f"unknown graph {graph!r}")


def graph_residue(N: int, k: int, graph: Graph, ins_ts: list[InsT]) -> list[Fraction]:
    """Residues of a catalog graph, one per set of p >= 2 insertions; 0 off the selection rule."""
    live = [t for t in ins_ts if Hypersurface(N, k).genus1_selection(graph.degree, dict(t))]
    values = dict(zip(live, residue_chain(*_graph_integrand(N, k, graph, live))))
    return [values.get(ins_t, Fraction(0)) for ins_t in ins_ts]


def _evaluate(args):
    N, k, part, ins_ts = args
    if isinstance(part, Genus0Chain):
        return chain_residue(N, k, part, ins_ts)
    return graph_residue(N, k, part, ins_ts)


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
    value from the disk cache; the misses run in one parallel_map call, one
    item per part (graph or chain) with all its missing sets, sorted so
    their numerators share prefixes, highest degree first (ties in job
    order), so the longest chains start first and a whole table shares one
    pool.  Computed values are written to the cache, one record per job,
    and genus-0 values also to genus0.memo, read first on the next call.
    Values are returned in job order.
    """
    values: dict[tuple, Fraction | None] = dict.fromkeys(jobs)
    misses: dict[Graph | Genus0Chain, list[InsT]] = {}
    for job in values:
        if isinstance(job[0], Genus0Chain):
            values[job] = memo.get((N, k, *job))
        if values[job] is None and cache is not None:
            values[job] = cache.get(_cache_key(N, k, *job))
        if values[job] is None:
            misses.setdefault(job[0], []).append(job[1])
    items = sorted(((N, k, part, sorted(sets)) for part, sets in misses.items()),
                   key=lambda item: -item[2].degree)
    computed = parallel_map(_evaluate, items, workers) if items else []
    for (_, _, part, sets), values_of_part in zip(items, computed):
        for ins_t, value in zip(sets, values_of_part):
            values[(part, ins_t)] = value
            if cache is not None:
                cache.put(_cache_key(N, k, part, ins_t), value)
    for job, value in values.items():
        if isinstance(job[0], Genus0Chain):
            memo[(N, k, *job)] = value
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
    mult, ins = X.split_insertions(d, ins)
    if not mult or not X.genus1_selection(d, ins):
        return Fraction(0)
    jobs = [(graph, ins_key(ins)) for graph in graphs_of_degree(d)]
    return mult * sum(graph_values(N, k, jobs, cache, workers), Fraction(0))

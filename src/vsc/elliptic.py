"""Genus-1 virtual structure constants as graph sums of iterated residues.

The degree-d constant w(prod_p (O_{h^p})^{m_p})_{1,d} is a sum over the
graph catalog of degree d.  Every graph carries a rational integrand in its
own variable layout together with a residue schedule:

  star     core z_0 and each tail end at 0 only, then the interior tail
           variables inward-out, at 0 and at the evolved midpoint root;
  loop     cyclic chain, every variable at 0 and at its evolved root;
  cluster  the contracted variable w is written as w = z_0 + u, and u is
           taken at 0 only (the double pole at w = z_0), then the star
           schedule; its two contraction terms -(N-1)/N w^-N and
           -(N+1)/N z_0^-N share one denominator; these residues vanish
           whenever N = k, because the double-pole derivative at w = z_0
           picks up a factor N - k, but for Fano targets with insertions
           they contribute;
  point    single variable, residue at 0.

Stars and clusters factor through their tails.  After the residue at
z_0 = 0 (after u = 0, for a cluster) each tail's factors involve z_0 and
its own variables only, so the integrand is a product prod_i G_i, and the
insertion sums split over the tails as s_p = sum_i s_p^(i).  With
ins! = prod_p m_p!, a star is

    scalar * ins! * [t^ins] prod_i tau_i(t),  tau_i(t) = sum_ins' T_i(ins') t^ins' / ins'!,

where T_i(ins') is the chain of one piece: tail i as the path z_0, ..., z_L
of a genus-0 chain (genus0.path) with z_0^e, the tail factor z_1 - z_0 and
z_L^N below, at the weight w = sum_p (p - 1) m'_p of ins'.
Homogeneity fixes e: the piece must have degree minus its steps, which
gives e = w - L (N - k) + 2 for a tail of length L.  A cluster has one more factor, the chain of its
core without tails, with e = k f + w.  A piece with e <= 0 has no pole at
z_0 = 0 and is 0, so it is never built.

Each builder only describes its layout and returns (integrands, steps,
later); a step is (variable, form) as in chain.residue_chain, genus0.midpoint
adds an interior vertex and returns its step, and genus0.integrand assembles
the integrands.  A tail piece is a genus-0 path, a loop is a cycle, a
cluster core is the edge (u + z_core, core) with a self-loop of weight
f - 1 on the core, and a point is one vertex with a self-loop of weight d.
A part with insertions enters whole at step 0, its numerator built only
below the opening poles at 0 alone (a loop has none); in an insertion-free
part each factor enters just before the first step whose variable it holds.

Insertions with p = 0 kill the constant and each p = 1 insertion multiplies
it by d; both are applied analytically before the graph sum.

graph_values is the one planner for residue chains of both genera: tables
and reports hand it their genus-1 graphs together with the genus-0 chains
their mirror maps read, and it meets memo, the disk cache and the pool for
all, one pool item per loop, point, chain or piece with all of its insertion
sets; the pieces of a call are shared by all its stars and clusters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, lcm, prod
from typing import TYPE_CHECKING

from .chain import residue_chain
from .genus0 import Genus0Chain, chain_residue, integrand, midpoint, path
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
from .hypersurface import Hypersurface, InsT, format_insertions, ins_factorial, ins_weight
from .parallel import parallel_map
from .poly import SparsePoly, linear_form
if TYPE_CHECKING:
    from .cache import ResidueCache

__all__ = ["elliptic_constant", "graph_residue", "graph_values"]

# Values of graph_values jobs, keyed (N, k, graph or Genus0Chain, p >= 2
# insertions): every value it has computed, assembled or read from the disk
# cache in this process.
memo: dict[tuple, Fraction] = {}


@dataclass(frozen=True)
class Piece:
    """One factor of stars and clusters, at insertion weight w: a tail of the
    given length on its core (f = 0), or the contracted core of a
    cluster of multiplicity f without tails (length = 0)."""

    f: int
    length: int
    weight: int

    @property
    def degree(self) -> int:
        return self.f + self.length


def _tail_terms(N: int, k: int, piece: Piece, ins_ts: list[InsT]):
    length, n = piece.length, 1 + piece.length
    den: list[tuple[SparsePoly, int]] = []
    edges, steps = path(N, length, den)
    den += [(SparsePoly.variable(0, n), _core_order(N, k, piece)),
            (linear_form({1: 1, 0: -1}, n), 1), (SparsePoly.variable(length, n), N)]
    return integrand(k, SparsePoly.constant(1, n), edges, ins_ts, {}, den, steps)


def _cluster_core_terms(N: int, k: int, piece: Piece, ins_ts: list[InsT]):
    f, n = piece.f, 2
    u, core = 0, 1
    # The contraction terms -(N-1)/N w^-N and -(N+1)/N z_core^-N share one
    # denominator: w^N z_core^N below, -((N-1) z_core^N + (N+1) w^N)/N above;
    # the scalar -1/N goes with the cluster's.  The layout is written in
    # u = w - z_core, so the chain opens with the double pole at u = 0 and
    # a numerator with insertions is built only to degree 1 in u.
    w = linear_form({u: 1, core: 1}, n)
    den = [(SparsePoly.variable(u, n), 2), (w, N + 1),
           (SparsePoly.variable(core, n), _core_order(N, k, piece))]
    # lead: ((N+1) w^N + (N-1) z_core^N) z_core^(k (f-1)), w^N expanded in u
    lead = SparsePoly(n, {(j, N - j + k * (f - 1)): (N + 1) * comb(N, j) + (N - 1) * (j == 0)
                          for j in range(N + 1)})
    # the contracted loop is the edge (w, core) and a self-loop of weight f - 1
    steps = [(u, None), (core, None)]
    return integrand(k, lead, [(w, core)], ins_ts, {core: f - 1}, den, steps)


def _core_order(N: int, k: int, piece: Piece) -> int:
    """The power of z_core below a piece that makes it homogeneous of degree minus its steps.

    A tail's numerator has degree (k + 1) L + w and its denominator
    (N + 2)(L - 1) + N + 1 without the core, for 1 + L steps; a cluster
    core's has degree N + k f + 1 + w over u^2 w^(N+1), for 2 steps.
    """
    if piece.length:
        return piece.weight - piece.length * (N - k) + 2
    return k * piece.f + piece.weight


def _loop_terms(N: int, k: int, d: int, ins_ts: list[InsT]):
    den: list[tuple[SparsePoly, int]] = []
    steps = [midpoint(N, d, t, (t - 1) % d, (t + 1) % d, den) for t in range(d)]
    edges = [(t, (t + 1) % d) for t in range(d)]
    lead = SparsePoly.constant(Fraction(1, 2 * d) / k**d, d)
    return integrand(k, lead, edges, ins_ts, {}, den, steps)


def _point_terms(N: int, k: int, d: int, ins_ts: list[InsT]):
    # one vertex carrying a self-loop of weight d
    scalar = r_factor(N, k, d) * Fraction(k) ** (k * d) / 24
    den, steps = [(SparsePoly.variable(0, 1), N * d + 1)], [(0, None)]
    lead = SparsePoly(1, {(k * d,): scalar})
    return integrand(k, lead, [], ins_ts, {0: d}, den, steps)


def _part_integrand(N: int, k: int, part, ins_ts: list[InsT]):
    """(integrands, steps, later) of the chain of a loop, a point or a piece, one integrand
    per set."""
    if isinstance(part, Piece):
        return (_tail_terms if part.length else _cluster_core_terms)(N, k, part, ins_ts)
    if isinstance(part, LoopGraph):
        return _loop_terms(N, k, part.d, ins_ts)
    if isinstance(part, PointGraph):
        return _point_terms(N, k, part.d, ins_ts)
    raise TypeError(f"no chain of its own for {part!r}")


def _selected(N: int, k: int, graph: Graph, ins_t: InsT) -> bool:
    return Hypersurface(N, k).genus1_selection(graph.degree, ins_t)


def _factors(N: int, k: int, graph: StarGraph | ClusterStarGraph, ins_t: InsT):
    """((f, length), lowest weight, highest weight) of each piece of a star or cluster.

    A piece's lowest weight is the smallest at which it has a pole (the core
    order grows with the weight one for one), its highest the set's weight
    less the other pieces' lowest; a lone tail takes the whole set.
    """
    shapes = [(0, length) for length in graph.sigma]
    if isinstance(graph, ClusterStarGraph):
        shapes.insert(0, (graph.f, 0))
    lows = [max(0, 1 - _core_order(N, k, Piece(*shape, 0))) for shape in shapes]
    free = ins_weight(ins_t) - sum(lows)
    return [(shape, low + free if len(shapes) == 1 else low, low + free)
            for shape, low in zip(shapes, lows)]


@lru_cache(maxsize=None)
def _subsets(ins_t: InsT):
    """({weight: [(code, insertion key)]}, {code: weight}) of a set's sub-multisets.

    The code of counts m'_1, m'_2, ... is sum_i m'_i prod_{j<i} (2 m_j + 1).
    Adding the codes of two sub-multisets carries no digit, so the sum is the
    code of both taken together, which is a sub-multiset exactly when it is a
    key of {code: weight}; the set itself has the largest code.
    """
    by_weight: dict[int, list] = {}
    weight_of = {}
    radices = [2 * m + 1 for _, m in ins_t]
    for exps in product(*(range(m + 1) for _, m in ins_t)):
        code = sum(e * prod(radices[:i]) for i, e in enumerate(exps))
        key = tuple((p, e) for (p, _), e in zip(ins_t, exps) if e)
        w = weight_of[code] = ins_weight(key)
        by_weight.setdefault(w, []).append((code, key))
    return by_weight, weight_of


def _plan(N: int, k: int, jobs) -> dict:
    """{part: insertion sets} of the chains that (graph or genus-0 chain, set) jobs read.

    A loop, a point or a genus-0 chain is its own part.  A star or cluster
    reads each of its pieces at every weight the piece can take, with the
    sub-multisets of the job's set of that weight; off the selection rule
    it reads nothing.
    """
    parts: dict = {}
    for part, ins_t in jobs:
        if not isinstance(part, (StarGraph, ClusterStarGraph)):
            parts.setdefault(part, set()).add(ins_t)
        elif _selected(N, k, part, ins_t):
            by_weight, _ = _subsets(ins_t)
            for shape, lo, hi in _factors(N, k, part, ins_t):
                for w in filter(by_weight.__contains__, range(lo, hi + 1)):
                    keys = (key for _, key in by_weight[w])
                    parts.setdefault(Piece(*shape, w), set()).update(keys)
    return parts


def _from_pieces(N: int, k: int, graph: StarGraph | ClusterStarGraph, ins_t: InsT,
                 series: dict) -> Fraction:
    """scalar * ins! * [t^ins] prod_i tau_i(t) for the insertion series tau_i of the pieces.

    series maps each piece to the nonzero terms of its tau, {ins': T(ins') / ins'!};
    a piece or term it lacks is 0.
    """
    if not _selected(N, k, graph, ins_t):
        return Fraction(0)
    d = graph.degree
    if isinstance(graph, StarGraph):
        chi = Hypersurface(N, k).top_chern_coeff()
        scalar = sym_factor(graph.sigma) * Fraction(chi, 24) / k ** (d - 1)
    else:
        f = graph.f
        scalar = -sym_factor(graph.sigma) * Fraction(k) ** (k * (f - 1) - 1) \
            / (24 * N * k ** (d - f))
    factors = _factors(N, k, graph, ins_t)
    by_weight, weight_of = _subsets(ins_t)
    # each factor's terms over one common denominator, so the products below
    # run on integers
    taus, den = [], 1
    for shape, lo, hi in factors:
        tau = {code: terms[key] for w in range(lo, hi + 1)
               if (terms := series.get(Piece(*shape, w)))
               for code, key in by_weight.get(w, ()) if key in terms}
        common = lcm(*(x.denominator for x in tau.values()))
        taus.append({code: x.numerator * (common // x.denominator) for code, x in tau.items()})
        den *= common
    # multiply all but the last factor, keeping the partial products of a
    # sub-multiset of ins whose weight leaves the factors still to come their
    # lowest, then read off the coefficient of t^ins against the last
    top = max(weight_of)  # the code of ins
    acc = {0: 1}
    for i, tau in enumerate(taus[:-1]):
        hi = weight_of[top] - sum(lo for _, lo, _ in factors[i + 1:])
        new: dict = {}
        for a, x in acc.items():
            for b, y in tau.items():
                if weight_of.get(a + b, hi + 1) <= hi:
                    new[a + b] = new.get(a + b, 0) + x * y
        acc = new
    last = taus[-1]
    total = sum(x * last[top - a] for a, x in acc.items() if top - a in last)
    return scalar * Fraction(ins_factorial(ins_t) * total, den)


def graph_residue(N: int, k: int, graph: Graph, ins_ts: list[InsT]) -> list[Fraction]:
    """Residues of a catalog graph, one per set of p >= 2 insertions; 0 off the selection rule.

    A star or cluster goes through graph_values, which computes its pieces.
    """
    if isinstance(graph, (StarGraph, ClusterStarGraph)):
        return graph_values(N, k, [(graph, ins_t) for ins_t in ins_ts])
    live = [t for t in ins_ts if _selected(N, k, graph, t)]
    values = dict(zip(live, residue_chain(*_part_integrand(N, k, graph, live))))
    return [values.get(ins_t, Fraction(0)) for ins_t in ins_ts]


def _evaluate(args):
    N, k, part, ins_ts = args
    if isinstance(part, Genus0Chain):
        return chain_residue(N, k, part, ins_ts)
    if isinstance(part, Piece):
        return residue_chain(*_part_integrand(N, k, part, ins_ts))
    return graph_residue(N, k, part, ins_ts)


def _cache_key(N: int, k: int, part, ins_t: InsT) -> dict:
    from .cache import chain_key, graph_key  # only a run with a disk cache loads it
    ins = format_insertions(ins_t)
    if isinstance(part, Genus0Chain):
        return chain_key(N, k, part.degree, part.a, part.b, ins)
    return graph_key(N, k, part.degree, part.label(), ins)


def graph_values(N: int, k: int, jobs: list[tuple[Graph | Genus0Chain, InsT]],
                 cache: ResidueCache | None = None,
                 workers: int = 1) -> list[Fraction]:
    """Residue values of (graph or genus-0 chain, p >= 2 insertions) jobs.

    The one planner for every residue chain of a table or report: duplicate
    jobs are evaluated once; a value comes from memo, else from the disk
    cache.  A missed star or cluster is not a chain of its own but a product
    of pieces, which it shares with the other stars and clusters of the
    call.  The misses run in one parallel_map call, one item per part (loop,
    point, genus-0 chain, or piece at one weight) with all the sets the jobs
    read of it, sorted so their numerators share prefixes, highest degree
    first (ties in job order), so the longest chains start first and a whole
    table shares one pool.  Computed values are written to the cache, one
    record per job.  Every value returned goes to memo, so a later call in
    the process reads it there and never from or to the disk.  Values are
    returned in job order.
    """
    values = {job: memo.get((N, k, *job)) for job in jobs}
    missed = []
    for job, value in values.items():
        if value is None and cache is not None:
            value = values[job] = cache.get(_cache_key(N, k, *job))
        if value is None:
            missed.append(job)
    items = sorted(((N, k, part, sorted(sets)) for part, sets in _plan(N, k, missed).items()),
                   key=lambda item: -item[2].degree)
    computed = parallel_map(_evaluate, items, workers) if items else []
    series = {}
    for (_, _, part, sets), values_of_part in zip(items, computed):
        if isinstance(part, Piece):
            series[part] = {t: v / ins_factorial(t) for t, v in zip(sets, values_of_part) if v}
        else:
            values.update(((part, ins_t), value) for ins_t, value in zip(sets, values_of_part))
    for job in missed:
        if isinstance(job[0], (StarGraph, ClusterStarGraph)):
            values[job] = _from_pieces(N, k, *job, series)
        if cache is not None:
            cache.put(_cache_key(N, k, *job), values[job])
    memo.update(((N, k, *job), value) for job, value in values.items())
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
    jobs = [(graph, ins) for graph in graphs_of_degree(d)]
    return mult * sum(graph_values(N, k, jobs, cache, workers), Fraction(0))

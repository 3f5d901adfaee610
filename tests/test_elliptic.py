import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import vsc
from vsc.cache import ResidueCache, graph_key
from vsc.chain import residue_chain
from vsc.elliptic import _part_integrand, _plan, elliptic_constant, graph_residue, graph_values
from vsc.graphs import (
    ClusterStarGraph,
    LoopGraph,
    PointGraph,
    StarGraph,
    graphs_of_degree,
)
from vsc.hypersurface import ins_key
from vsc.pipeline import _constant_sets, weighted_insertions
from vsc.ratfun import RatExpr

from oracles import (cluster_by_halves, reduced_graph_residue, whole_graph_integrand,
                     whole_graph_residue, whole_loop)


def test_projective_plane_degree_one_graph_values():
    # star 1/8 plus point -1/2
    assert graph_residue(4, 1, StarGraph((1,)), [((2, 3),)])[0] == Fraction(1, 8)
    assert graph_residue(4, 1, PointGraph(1), [((2, 3),)])[0] == Fraction(-1, 2)
    assert elliptic_constant(4, 1, 1, {2: 3}) == Fraction(-3, 8)


def test_projective_plane_low_degrees():
    assert elliptic_constant(4, 1, 2, {2: 6}) == -63
    assert elliptic_constant(4, 1, 3, {2: 9}) == -77789


def test_quadric_surface_low_degrees():
    assert elliptic_constant(4, 2, 1, {2: 2}) == -1
    assert elliptic_constant(4, 2, 2, {2: 4}) == Fraction(-262, 3)


def test_cubic_surface_low_degrees():
    assert elliptic_constant(4, 3, 1, {2: 1}) == Fraction(-21, 8)
    assert elliptic_constant(4, 3, 2, {2: 2}) == Fraction(-1611, 8)
    # the selection rule forces m_2 = 2 at degree 2; m_2 = 1 gives nothing
    assert elliptic_constant(4, 3, 2, {2: 1}) == 0


def test_selection_rule_zero():
    assert elliptic_constant(5, 2, 1, {2: 2}) == 0
    assert elliptic_constant(5, 2, 1, {0: 1, 2: 1, 3: 1}) == 0


def test_fano_threefold_degree_one():
    assert elliptic_constant(5, 1, 1, {2: 4}) == Fraction(-7, 6)
    assert elliptic_constant(5, 2, 1, {2: 1, 3: 1}) == Fraction(-13, 6)
    assert elliptic_constant(5, 3, 1, {3: 1}) == Fraction(-21, 2)
    assert elliptic_constant(5, 3, 1, {2: 2}) == Fraction(-27, 2)
    assert elliptic_constant(5, 4, 1, {2: 1}) == Fraction(-344, 3)


def test_quintic_loop_values():
    assert graph_residue(5, 5, LoopGraph(2), [()])[0] == Fraction(-1174875, 4)
    assert graph_residue(5, 5, LoopGraph(3), [()])[0] == Fraction(-6913090625, 9)


def test_cluster_residues_vanish_on_calabi_yau():
    # for N = k the double-pole derivative at w = z_0 carries a factor N - k,
    # so every cluster-star residue dies; insertions are absent there anyway
    from vsc.graphs import partitions

    cases = []
    for d in (2, 3):
        for f in range(1, d):
            for sigma in partitions(d - f):
                cases.append(ClusterStarGraph(f, sigma))
    assert len(cases) >= 4
    for graph in cases:
        assert graph_residue(5, 5, graph, [()])[0] == 0, graph
        assert graph_residue(4, 4, graph, [()])[0] == 0, graph


def test_cluster_residues_contribute_on_fano():
    # single anchor per surface; these close the gap between the star, loop
    # and point pieces and the degree-2 constants
    assert graph_residue(4, 1, ClusterStarGraph(1, (1,)), [((2, 6),)])[0] == Fraction(135, 4)
    assert graph_residue(4, 2, ClusterStarGraph(1, (1,)), [((2, 4),)])[0] == Fraction(24)
    assert graph_residue(4, 3, ClusterStarGraph(1, (1,)), [((2, 2),)])[0] == Fraction(297, 8)


@pytest.mark.parametrize("N, k, ins_by_degree", [
    (4, 4, {1: (), 2: (), 3: ()}),
    (5, 1, {1: ((2, 4),), 2: ((2, 2), (3, 3))}),
    (4, 2, {1: ((2, 2),), 2: ((2, 4),), 3: ((2, 6),)}),
])
def test_unreduced_integrands_match_reduced_per_graph(N, k, ins_by_degree):
    # builders hand integrands to the chain unreduced; every graph's value
    # must equal the one computed from trial-divided integrands
    cancellable = 0
    for d, ins_t in ins_by_degree.items():
        for graph in graphs_of_degree(d):
            assert graph_residue(N, k, graph, [ins_t])[0] == \
                reduced_graph_residue(N, k, graph, ins_t), graph
            (f,), _ = whole_graph_integrand(N, k, graph, [ins_t])
            cancellable += f.reduce().den != f.den
    assert cancellable  # some integrand does carry a cancellable factor


@pytest.mark.parametrize("N, k", [(4, 1), (4, 4), (5, 1), (5, 2), (5, 5)])
def test_graph_integrands_have_degree_minus_step_count(N, k):
    # a chain of s residues turns a degree -s integrand into a constant: the
    # chains of loops and points, and of every piece a star or cluster reads
    checked = 0
    for d in range(1, 5):
        for ins in weighted_insertions(N, (N - k) * d):
            parts = _plan(N, k, [(g, ins_key(ins)) for g in graphs_of_degree(d)])
            for part, sets in parts.items():
                for ins_t in sets:
                    (f,), steps, later = _part_integrand(N, k, part, [ins_t])
                    if not f.is_zero():
                        # with the factors that enter the chain after its first step
                        degree = f.homogeneous_degree() + sum(
                            RatExpr(*factors).homogeneous_degree() for factors in later.values())
                        assert degree == -len(steps), (part, ins_t)
                        checked += 1
    assert checked


@pytest.mark.parametrize("N", [3, 4, 5])
def test_calabi_yau_loops_equal_their_even_vertices_first_chains(N):
    # the engine eliminates a loop's vertices in cyclic order; even vertices
    # first is another elimination order over whole numerators
    for d in range(2, 6):
        order = [*range(0, d, 2), *range(1, d, 2)]
        (value,) = graph_residue(N, N, LoopGraph(d), [()])
        assert residue_chain(*whole_loop(N, N, d, [()], order)) == [value] != [0], (N, d)


@pytest.mark.parametrize("N, k, dmax", [(5, 1, 4), (4, 1, 5)])
def test_loops_with_insertions_equal_their_even_vertices_first_chains(N, k, dmax):
    # every loop item of gw_table(N, k, dmax), all its insertion sets at once,
    # against the same loop over whole numerators eliminated even vertices first
    jobs = [(g, ins) for d, ins in _constant_sets(N, k, dmax) for g in graphs_of_degree(d)]
    loops = [(part, sorted(sets)) for part, sets in _plan(N, k, jobs).items()
             if isinstance(part, LoopGraph)]
    assert sorted(loop.d for loop, _ in loops) == list(range(2, dmax + 1))
    for loop, sets in loops:
        order = [*range(0, loop.d, 2), *range(1, loop.d, 2)]
        values = graph_residue(N, k, loop, sets)
        assert residue_chain(*whole_loop(N, k, loop.d, sets, order)) == values, loop
        assert any(values), loop


def _star_and_cluster_jobs(N, k, dmax):
    # the (graph, set) jobs of the stars and clusters of gw_table(N, k, dmax),
    # or of cy_report(k, dmax) when N = k
    return [(g, ins_key(ins)) for d in range(1, dmax + 1)
            for ins in weighted_insertions(N, (N - k) * d)
            for g in graphs_of_degree(d) if isinstance(g, (StarGraph, ClusterStarGraph))]


@pytest.mark.parametrize("N, k, dmax", [(5, 1, 3), (5, 2, 3), (5, 3, 3), (4, 1, 4), (4, 2, 4),
                                        (4, 4, 5), (5, 5, 5)])
def test_star_and_cluster_values_equal_their_whole_graph_chains(N, k, dmax):
    # stars and clusters are products of their tail and cluster-core pieces;
    # each job's value is the chain of its whole graph over all its variables
    jobs = _star_and_cluster_jobs(N, k, dmax)
    values = graph_values(N, k, jobs)
    for job, value in zip(jobs, values, strict=True):
        assert value == whole_graph_residue(N, k, *job), job
    nonzero = sum(value != 0 for value in values)
    if N == k:
        # every cluster vanishes by the factor N - k, and no star does
        assert nonzero == sum(isinstance(g, StarGraph) for g, _ in jobs)
    else:
        assert nonzero > len(values) // 2


@pytest.mark.extended
def test_extended_star_and_cluster_values_equal_their_whole_graph_chains():
    jobs = _star_and_cluster_jobs(5, 1, 5)
    assert len(jobs) == 357
    for job, value in zip(jobs, graph_values(5, 1, jobs), strict=True):
        assert value == whole_graph_residue(5, 1, *job), job


@pytest.mark.parametrize("N, k", [(4, 1), (4, 4), (5, 1), (5, 2)])
def test_cluster_is_the_sum_of_its_two_halves(N, k):
    # one integrand over the common denominator of both contraction terms;
    # for N = k every cluster vanishes by the factor N - k
    checked = 0
    for d in range(1, 5):
        clusters = [g for g in graphs_of_degree(d) if isinstance(g, ClusterStarGraph)]
        for ins in weighted_insertions(N, (N - k) * d):
            for graph in clusters:
                value = graph_residue(N, k, graph, [ins_key(ins)])[0]
                assert value == cluster_by_halves(N, k, graph, ins_key(ins)), graph
                assert value == 0 or N != k, graph
                checked += value != 0
    assert checked or N == k


def test_wrong_degree_integrand_raises_under_optimize():
    # a wrong-degree integrand must stop at chain entry, asserts or not,
    # instead of walking to 0
    script = """
import sys
from vsc.chain import residue_chain
from vsc.elliptic import Piece, _part_integrand
from vsc.genus0 import _integrand
from vsc.poly import SparsePoly
from vsc.ratfun import RatExpr
if not sys.flags.optimize:
    sys.exit(2)
for (f,), steps, later in (_part_integrand(4, 1, Piece(0, 1, 3), [((2, 3),)]),
                          _part_integrand(4, 1, Piece(1, 0, 2), [((2, 2),)]),
                          _integrand(4, 1, 2, 2, 2, [((2, 3),)])):
    f = RatExpr(f.num * SparsePoly.variable(0, f.nvars), f.den)
    try:
        residue_chain([f], steps, later)
    except RuntimeError:
        continue
    sys.exit(1)
"""
    src = str(Path(vsc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_projective_plane_degree_three():
    assert elliptic_constant(4, 1, 3, {2: 9}) == -77789


def test_mixed_insertions_degree_three():
    assert elliptic_constant(5, 2, 3, {2: 1, 3: 4}) == Fraction(-104500, 3)


def test_catalog_sum_matches_star_plus_point_at_degree_one():
    # degree 1 catalog is star((1,)) and point(1) only
    graphs = graphs_of_degree(1)
    total = sum(graph_residue(4, 2, g, [((2, 2),)])[0] for g in graphs)
    assert total == elliptic_constant(4, 2, 1, {2: 2})


def test_low_insertions_analytic():
    # each p = 1 insertion multiplies by d; p = 0 kills
    base = elliptic_constant(4, 1, 2, {2: 6})
    assert elliptic_constant(4, 1, 2, {1: 2, 2: 6}) == 4 * base
    assert elliptic_constant(4, 1, 2, {0: 1, 2: 6}) == 0


def test_tail_order_within_star_is_irrelevant():
    # star tails are unordered; build both orderings by hand
    v1 = graph_residue(4, 1, StarGraph((2, 1)), [((2, 9),)])[0]
    v2 = graph_residue(4, 1, StarGraph((1, 2)), [((2, 9),)])[0]
    assert v1 == v2


def test_disk_cache_round_trip(tmp_path, empty_memo):
    cache = ResidueCache(tmp_path / "cache")
    v1 = elliptic_constant(4, 1, 1, {2: 3}, cache=cache)
    assert cache.hits == 0 and cache.misses == 2
    empty_memo.clear()
    v2 = elliptic_constant(4, 1, 1, {2: 3}, cache=cache)
    assert v1 == v2 == Fraction(-3, 8)
    assert cache.hits == 2


def test_cache_ignores_corrupt_record(tmp_path, empty_memo):
    cache = ResidueCache(tmp_path)
    elliptic_constant(4, 1, 1, {2: 3}, cache=cache)
    empty_memo.clear()
    for path in (tmp_path).glob("*.json"):
        path.write_text("{not json")
    assert elliptic_constant(4, 1, 1, {2: 3}, cache=cache) == Fraction(-3, 8)


def test_cache_never_serves_another_schema(tmp_path, monkeypatch, empty_memo):
    import vsc.cache

    cache = ResidueCache(tmp_path)
    for graph in ("star(1)", "point(1)"):
        cache.put(graph_key(4, 1, 1, graph, "2:3"), Fraction(100))
    # under the schema they were written with, the records are served as is
    assert elliptic_constant(4, 1, 1, {2: 3}, cache=cache) == 200
    empty_memo.clear()
    monkeypatch.setattr(vsc.cache, "SCHEMA", vsc.cache.SCHEMA + 1)
    hits, misses = cache.hits, cache.misses
    assert elliptic_constant(4, 1, 1, {2: 3}, cache=cache) == Fraction(-3, 8)
    assert (cache.hits, cache.misses) == (hits, misses + 2)
    empty_memo.clear()
    # the recomputed values were written back under the new schema
    assert elliptic_constant(4, 1, 1, {2: 3}, cache=cache) == Fraction(-3, 8)
    assert cache.hits == hits + 2


def test_validation():
    with pytest.raises(ValueError):
        elliptic_constant(4, 1, 0, {2: 3})
    with pytest.raises(ValueError):
        elliptic_constant(4, 1, 1, {7: 1})

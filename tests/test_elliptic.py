import random
from fractions import Fraction

import pytest

from vsc.cache import ResidueCache
from vsc.elliptic import elliptic_constant, graph_residue
from vsc.graphs import (
    ClusterStarGraph,
    LoopGraph,
    PointGraph,
    StarGraph,
    graphs_of_degree,
)


def test_projective_plane_degree_one_graph_values():
    # star 1/8 plus point -1/2
    assert graph_residue(4, 1, StarGraph((1,)), ((2, 3),)) == Fraction(1, 8)
    assert graph_residue(4, 1, PointGraph(1), ((2, 3),)) == Fraction(-1, 2)
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
    assert graph_residue(5, 5, LoopGraph(2), ()) == Fraction(-1174875, 4)
    assert graph_residue(5, 5, LoopGraph(3), ()) == Fraction(-6913090625, 9)


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
        assert graph_residue(5, 5, graph, ()) == 0, graph
        assert graph_residue(4, 4, graph, ()) == 0, graph


def test_cluster_residues_contribute_on_fano():
    # single anchor per surface; these close the gap between the star, loop
    # and point pieces and the degree-2 constants
    assert graph_residue(4, 1, ClusterStarGraph(1, (1,)), ((2, 6),)) == Fraction(135, 4)
    assert graph_residue(4, 2, ClusterStarGraph(1, (1,)), ((2, 4),)) == Fraction(24)
    assert graph_residue(4, 3, ClusterStarGraph(1, (1,)), ((2, 2),)) == Fraction(297, 8)


def test_projective_plane_degree_three():
    assert elliptic_constant(4, 1, 3, {2: 9}) == -77789


def test_mixed_insertions_degree_three():
    assert elliptic_constant(5, 2, 3, {2: 1, 3: 4}) == Fraction(-104500, 3)


def test_catalog_sum_matches_star_plus_point_at_degree_one():
    # degree 1 catalog is star((1,)) and point(1) only
    graphs = graphs_of_degree(1)
    total = sum(graph_residue(4, 2, g, ((2, 2),)) for g in graphs)
    assert total == elliptic_constant(4, 2, 1, {2: 2})


def test_low_insertions_analytic():
    # each p = 1 insertion multiplies by d; p = 0 kills
    base = elliptic_constant(4, 1, 2, {2: 6})
    assert elliptic_constant(4, 1, 2, {1: 2, 2: 6}) == 4 * base
    assert elliptic_constant(4, 1, 2, {0: 1, 2: 6}) == 0


def test_tail_order_within_star_is_irrelevant():
    # star tails are unordered; build both orderings by hand
    v1 = graph_residue(4, 1, StarGraph((2, 1)), ((2, 9),))
    v2 = graph_residue(4, 1, StarGraph((1, 2)), ((2, 9),))
    assert v1 == v2


def test_disk_cache_round_trip(tmp_path):
    cache = ResidueCache(tmp_path / "cache")
    v1 = elliptic_constant(4, 1, 1, {2: 3}, cache=cache)
    assert cache.hits == 0 and cache.misses == 2
    v2 = elliptic_constant(4, 1, 1, {2: 3}, cache=cache)
    assert v1 == v2 == Fraction(-3, 8)
    assert cache.hits == 2


def test_cache_ignores_corrupt_record(tmp_path):
    cache = ResidueCache(tmp_path)
    elliptic_constant(4, 1, 1, {2: 3}, cache=cache)
    for path in (tmp_path).glob("*.json"):
        path.write_text("{not json")
    assert elliptic_constant(4, 1, 1, {2: 3}, cache=cache) == Fraction(-3, 8)


def test_cache_never_serves_another_schema(tmp_path, monkeypatch):
    import vsc.cache

    cache = ResidueCache(tmp_path)
    for graph in ("star(1)", "point(1)"):
        cache.put(4, 1, 1, graph, "2:3", Fraction(100))
    # under the schema they were written with, the records are served as is
    assert elliptic_constant(4, 1, 1, {2: 3}, cache=cache) == 200
    monkeypatch.setattr(vsc.cache, "SCHEMA", vsc.cache.SCHEMA + 1)
    hits, misses = cache.hits, cache.misses
    assert elliptic_constant(4, 1, 1, {2: 3}, cache=cache) == Fraction(-3, 8)
    assert (cache.hits, cache.misses) == (hits, misses + 2)
    # the recomputed values were written back under the new schema
    assert elliptic_constant(4, 1, 1, {2: 3}, cache=cache) == Fraction(-3, 8)
    assert cache.hits == hits + 2


def test_validation():
    with pytest.raises(ValueError):
        elliptic_constant(4, 1, 0, {2: 3})
    with pytest.raises(ValueError):
        elliptic_constant(4, 1, 1, {7: 1})

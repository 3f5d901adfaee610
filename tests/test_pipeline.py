from fractions import Fraction

import pytest

from vsc.pipeline import (GwRow, genus0_pair_series, genus1_b_series, gw_table,
                          invert_corrections, mirror_corrections,
                          weighted_insertions)
from vsc.series import TruncatedSeries, substitute


def test_weighted_insertions_small():
    assert weighted_insertions(4, 3) == [{2: 3}]
    assert weighted_insertions(5, 4) == [{3: 2}, {2: 2, 3: 1}, {2: 4}]
    assert weighted_insertions(5, 0) == [{}]
    assert weighted_insertions(5, -1) == []
    # slots 2..6 carry weights 1..5, so this counts partitions of 5
    assert len(weighted_insertions(8, 5)) == 7


# known mirror map coefficients, one tuple per degree

def test_mirror_map_projective_plane():
    C = mirror_corrections(4, 1, 3, ps=[0, 1, 2])
    assert [C[0].coefficient(d, (e,)) for d, e in [(1, 2), (2, 5), (3, 8)]] == \
        [Fraction(1, 2), Fraction(8, 15), Fraction(983, 840)]
    assert [C[1].coefficient(d, (e,)) for d, e in [(1, 3), (2, 6), (3, 9)]] == \
        [Fraction(1, 2), Fraction(7, 10), Fraction(2593, 1512)]
    assert [C[2].coefficient(d, (e,)) for d, e in [(1, 4), (2, 7), (3, 10)]] == \
        [Fraction(1, 4), Fraction(33, 70), Fraction(16589, 12600)]


def test_inverse_map_projective_plane():
    D = invert_corrections(mirror_corrections(4, 1, 3))
    assert [D[1].coefficient(d, (e,)) for d, e in [(1, 3), (2, 6), (3, 9)]] == \
        [Fraction(-1, 2), Fraction(-3, 40), Fraction(-3827, 30240)]
    assert [D[2].coefficient(d, (e,)) for d, e in [(1, 4), (2, 7), (3, 10)]] == \
        [Fraction(-1, 4), Fraction(-27, 280), Fraction(-7811, 50400)]


def test_mirror_map_quadric_surface():
    C = mirror_corrections(4, 2, 3)
    assert [C[1].coefficient(d, (e,)) for d, e in [(1, 2), (2, 4), (3, 6)]] == \
        [Fraction(3), Fraction(131, 6), Fraction(12329, 45)]
    assert [C[2].coefficient(d, (e,)) for d, e in [(1, 3), (2, 5), (3, 7)]] == \
        [Fraction(2), Fraction(313, 15), Fraction(10764, 35)]


def test_mirror_map_cubic_surface():
    C = mirror_corrections(4, 3, 3, ps=[0, 1, 2])
    assert [C[0].coefficient(d, (e,)) for d, e in [(1, 0), (2, 1), (3, 2)]] == \
        [Fraction(6), Fraction(144), Fraction(7398)]
    assert [C[1].coefficient(d, (e,)) for d, e in [(1, 1), (2, 2), (3, 3)]] == \
        [Fraction(21), Fraction(1611, 2), Fraction(52191)]
    assert [C[2].coefficient(d, (e,)) for d, e in [(1, 2), (2, 3), (3, 4)]] == \
        [Fraction(21), Fraction(1305), Fraction(106056)]


def _roundtrip(N, k, q_cap):
    C = mirror_corrections(N, k, q_cap)
    D = invert_corrections(C)
    nblocks = N - 3
    blocks = [TruncatedSeries.block(a, nblocks, q_cap) + C[a + 2]
              for a in range(nblocks)]
    for p in C:
        # x(t(x)) = x, i.e. D evaluated on the forward map cancels C
        assert substitute(D[p], C[1], blocks) + C[p] == \
            TruncatedSeries.zero(nblocks, q_cap)


def test_mirror_roundtrip():
    _roundtrip(4, 1, 3)
    _roundtrip(5, 3, 3)


def test_invert_requires_full_coordinate_set():
    C = mirror_corrections(4, 1, 2)
    with pytest.raises(ValueError):
        invert_corrections({1: C[1]})


def test_genus1_b_series_projective_plane():
    s = genus1_b_series(4, 1, 3)
    assert [s.coefficient(d, (3 * d,)) for d in (1, 2, 3)] == \
        [Fraction(-1, 16), Fraction(-7, 80), Fraction(-77789, 362880)]


def test_genus0_pair_series_row():
    # w(O_h O_h | (O_{h^3})^2)_{0,1} / 2! on the quartic threefold's cousin
    s = genus0_pair_series(5, 1, 1, 1, 1)
    assert s.coefficient(1, (0, 2)) != 0


# frozen Gromov-Witten rows; N = 4 tables list (d, m2, n1, n1/k^m2, w)

SURFACE_ROWS = {
    (4, 1): [(1, 3, 0, 0, Fraction(-3, 8)),
             (2, 6, 0, 0, Fraction(-63)),
             (3, 9, 1, 1, Fraction(-77789))],
    (4, 2): [(1, 2, 0, 0, Fraction(-1)),
             (2, 4, 0, 0, Fraction(-262, 3)),
             (3, 6, 0, 0, Fraction(-98632, 3))],
    (4, 3): [(1, 1, 0, 0, Fraction(-21, 8)),
             (2, 2, 0, 0, Fraction(-1611, 8)),
             (3, 3, 27, 1, Fraction(-156465, 4))],
}

# N = 5 rows list (d, m2, m3, n0, n1, combo, w)

THREEFOLD_ROWS = {
    (5, 1): [
        (1, 0, 2, 1, Fraction(-1, 12), 0, Fraction(-7, 12)),
        (1, 2, 1, 1, Fraction(-1, 12), 0, Fraction(-5, 6)),
        (1, 4, 0, 2, Fraction(-1, 6), 0, Fraction(-7, 6)),
        (2, 0, 4, 0, 0, 0, Fraction(-76, 3)),
        (2, 2, 3, 1, Fraction(-1, 4), 0, Fraction(-853, 12)),
        (2, 4, 2, 4, Fraction(-1), 0, Fraction(-198)),
        (2, 6, 1, 18, Fraction(-9, 2), 0, Fraction(-1097, 2)),
        (2, 8, 0, 92, Fraction(-23), 0, Fraction(-4541, 3)),
    ],
    (5, 2): [
        (1, 1, 1, 4, Fraction(-1, 6), 0, Fraction(-13, 6)),
        (1, 3, 0, 8, Fraction(-1, 3), 0, Fraction(-3)),
        (2, 0, 3, 8, Fraction(-4, 3), 0, Fraction(-287, 3)),
        (2, 2, 2, 16, Fraction(-8, 3), 0, Fraction(-264)),
        (2, 4, 1, 64, Fraction(-32, 3), 0, Fraction(-2174, 3)),
        (2, 6, 0, 320, Fraction(-160, 3), 0, Fraction(-5956, 3)),
    ],
    (5, 3): [
        (1, 0, 1, 18, 0, 0, Fraction(-21, 2)),
        (1, 2, 0, 45, 0, 0, Fraction(-27, 2)),
        (2, 0, 2, 54, Fraction(-9, 2), 0, Fraction(-2187, 2)),
        (2, 2, 1, 378, Fraction(-63, 2), 0, Fraction(-2862)),
        (2, 4, 0, 2187, Fraction(-729, 4), 0, Fraction(-30501, 4)),
        (3, 0, 3, 648, Fraction(-81), 27, Fraction(-299943)),
        (3, 2, 2, 7452, Fraction(-1161), 81, Fraction(-1188027)),
        (3, 4, 1, 65610, Fraction(-10449), 486, Fraction(-9537669, 2)),
        (3, 6, 0, 623295, Fraction(-200475, 2), 3645, Fraction(-19201644)),
    ],
    (5, 4): [
        (1, 1, 0, 320, Fraction(40, 3), 0, Fraction(-344, 3)),
        (2, 0, 1, 3888, 0, 0, Fraction(-84848, 3)),
        (2, 2, 0, 27200, 0, 0, Fraction(-222080, 3)),
    ],
}


@pytest.mark.parametrize("N,k", sorted(SURFACE_ROWS))
def test_gw_table_surfaces(N, k):
    rows = gw_table(N, k, 3)
    got = [(r.d, r.ins.get(2, 0), r.n1, r.n1_norm, r.w1) for r in rows]
    assert got == SURFACE_ROWS[(N, k)]
    assert all(r.n0 is None and r.combo is None for r in rows)


@pytest.mark.parametrize("N,k", sorted(THREEFOLD_ROWS))
def test_gw_table_threefolds(N, k):
    d_max = max(row[0] for row in THREEFOLD_ROWS[(N, k)])
    rows = gw_table(N, k, d_max)
    got = [(r.d, r.ins.get(2, 0), r.ins.get(3, 0), r.n0, r.n1, r.combo, r.w1)
           for r in rows]
    assert got == THREEFOLD_ROWS[(N, k)]
    for r in rows:
        assert r.combo.denominator == 1


def test_gw_table_validation():
    with pytest.raises(ValueError):
        gw_table(6, 1, 1)
    with pytest.raises(ValueError):
        gw_table(5, 5, 1)


def test_gw_table_runs_on_one_pool(monkeypatch):
    import vsc.parallel

    starts = []

    class CountingPool(vsc.parallel.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(vsc.parallel, "ProcessPoolExecutor", CountingPool)
    assert gw_table(4, 1, 3, workers=2) == gw_table(4, 1, 3)
    assert starts == [2]

"""Acceptance gate.

One check per golden-table or identity suite, each emitting a PASS/FAIL
line; every comparison is exact rational equality.  The long-running
high-degree jobs carry the `extended` marker and do not gate the default
run (`pytest -m extended` enables them).
"""

import time
from fractions import Fraction

import pytest

from vsc.calabi_yau import (alternating_two_point_sum, cy_report,
                            family_series, ltilde_zero_closed)
from vsc.chain import residue_chain
from vsc.elliptic import Piece, _part_integrand, elliptic_constant
from vsc.genus0 import genus0_constant
from vsc.graphs import ClusterStarGraph, graphs_of_degree
from vsc.hypersurface import Hypersurface
from vsc.pipeline import gw_table, invert_corrections, mirror_corrections
from vsc.poly import SparsePoly
from vsc.ratfun import RatExpr
from vsc.series import TruncatedSeries, substitute

from oracles import p2_genus1, p3_invariant, quintic_gopakumar_vafa, whole_graph_integrand


def _report(name: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


# -- golden tables, N = 4 ----------------------------------------------------

def test_projective_plane_table():
    t0 = time.monotonic()
    rows = gw_table(4, 1, 3)
    elapsed = time.monotonic() - t0
    ok = ([r.w1 for r in rows] ==
          [Fraction(-3, 8), Fraction(-63), Fraction(-77789)])
    ok = ok and [r.n1 for r in rows] == [0, 0, 1]
    ok = ok and [r.n1 for r in rows] == [p2_genus1(r.d) for r in rows]
    ok = ok and elapsed < 120
    _report(f"degree-1 surface table d<=3, n1 against Eguchi-Hori-Xiong ({elapsed:.1f}s)", ok)


def test_quadric_and_cubic_surface_tables():
    want = {
        2: [(2, 0, 0, Fraction(-1)),
            (4, 0, 0, Fraction(-262, 3)),
            (6, 0, 0, Fraction(-98632, 3))],
        3: [(1, 0, 0, Fraction(-21, 8)),
            (2, 0, 0, Fraction(-1611, 8)),
            (3, 27, 1, Fraction(-156465, 4))],
    }
    ok = True
    for k, rows in want.items():
        got = [(r.ins.get(2, 0), r.n1, r.n1_norm, r.w1)
               for r in gw_table(4, k, 3)]
        ok = ok and got == rows
    _report("degree-2 and degree-3 surface tables d<=3", ok)


# -- golden tables, N = 5; rows are (m2, m3) -> (n0, n1, combo, w) -----------

THREEFOLD_D2 = {
    1: {(1, 0, 2): (1, Fraction(-1, 12), 0, Fraction(-7, 12)),
        (1, 2, 1): (1, Fraction(-1, 12), 0, Fraction(-5, 6)),
        (1, 4, 0): (2, Fraction(-1, 6), 0, Fraction(-7, 6)),
        (2, 0, 4): (0, 0, 0, Fraction(-76, 3)),
        (2, 2, 3): (1, Fraction(-1, 4), 0, Fraction(-853, 12)),
        (2, 4, 2): (4, Fraction(-1), 0, Fraction(-198)),
        (2, 6, 1): (18, Fraction(-9, 2), 0, Fraction(-1097, 2)),
        (2, 8, 0): (92, Fraction(-23), 0, Fraction(-4541, 3))},
    2: {(1, 1, 1): (4, Fraction(-1, 6), 0, Fraction(-13, 6)),
        (1, 3, 0): (8, Fraction(-1, 3), 0, Fraction(-3)),
        (2, 0, 3): (8, Fraction(-4, 3), 0, Fraction(-287, 3)),
        (2, 2, 2): (16, Fraction(-8, 3), 0, Fraction(-264)),
        (2, 4, 1): (64, Fraction(-32, 3), 0, Fraction(-2174, 3)),
        (2, 6, 0): (320, Fraction(-160, 3), 0, Fraction(-5956, 3))},
    3: {(1, 0, 1): (18, 0, 0, Fraction(-21, 2)),
        (1, 2, 0): (45, 0, 0, Fraction(-27, 2)),
        (2, 0, 2): (54, Fraction(-9, 2), 0, Fraction(-2187, 2)),
        (2, 2, 1): (378, Fraction(-63, 2), 0, Fraction(-2862)),
        (2, 4, 0): (2187, Fraction(-729, 4), 0, Fraction(-30501, 4))},
    4: {(1, 1, 0): (320, Fraction(40, 3), 0, Fraction(-344, 3)),
        (2, 0, 1): (3888, 0, 0, Fraction(-84848, 3)),
        (2, 2, 0): (27200, 0, 0, Fraction(-222080, 3))},
}


def test_p3_wdvv_literature_values():
    # lines meeting 4 lines, conics meeting 8 lines, twisted cubics meeting 12
    # lines and through 6 points (Kontsevich-Manin, hep-th/9402147)
    ok = [p3_invariant(1, 4, 0), p3_invariant(2, 8, 0), p3_invariant(3, 12, 0),
          p3_invariant(3, 0, 6)] == [2, 92, 80160, 1]
    _report("P^3 WDVV oracle reproduces 2, 92, 80160 and 1", ok)


def _n0_matches_p3_wdvv(rows) -> bool:
    # the k = 1 threefold is P^3, so each n0 counts curves through lines
    # (h^2 insertions) and points (h^3 insertions)
    return all(r.n0 == p3_invariant(r.d, r.ins.get(2, 0), r.ins.get(3, 0))
               for r in rows)


def test_threefold_tables():
    ok = True
    seen = 0
    for k in (1, 2, 3, 4):
        d_max = 3 if k in (1, 3) else 2
        rows = gw_table(5, k, d_max)
        if k == 1:
            _report("every n0 row of gw_table(5,1,3) matches P^3 WDVV",
                    _n0_matches_p3_wdvv(rows))
        for r in rows:
            ok = ok and r.combo.denominator == 1  # integrality, every row
            key = (r.d, r.ins.get(2, 0), r.ins.get(3, 0))
            if key in THREEFOLD_D2[k]:
                seen += 1
                ok = ok and (r.n0, r.n1, r.combo, r.w1) == THREEFOLD_D2[k][key]
            if k == 1 and key == (3, 6, 3):
                ok = ok and r.combo == 1
            if k == 3 and key == (3, 0, 3):
                ok = ok and r.combo == 27
    ok = ok and seen == sum(len(v) for v in THREEFOLD_D2.values())
    _report("threefold tables: all d<=2 rows, two d=3 anchors, combo integral", ok)


# -- quintic genus-1 identities ----------------------------------------------

def test_quintic_genus_one_identities():
    t0 = time.monotonic()
    r = cy_report(5, 3)
    elapsed = time.monotonic() - t0
    ok = [r.loops.coefficient(d) for d in (2, 3)] == \
        [Fraction(-1174875, 4), Fraction(-6913090625, 9)]
    ok = ok and [r.log_l0.coefficient(d) for d in (1, 2, 3)] == \
        [120, 106200, 155136000]
    ok = ok and [r.log_l1.coefficient(d) for d in (1, 2, 3)] == \
        [770, 1139200, Fraction(6816105500, 3)]
    identity = [-625, -782000, Fraction(-4338868750, 3)]
    ok = ok and [r.lhs.coefficient(d) for d in (1, 2, 3)] == identity
    ok = ok and [r.rhs.coefficient(d) for d in (1, 2, 3)] == identity
    ok = ok and elapsed < 600
    _report(f"quintic loop/log-Ltilde series and identity d<=3 ({elapsed:.1f}s)", ok)


def test_quintic_gopakumar_vafa_numbers():
    # the A-model side of the quintic through d = 6 (Candelas-de la Ossa-Green-Parkes;
    # BCOV), read off the B-model series through the mirror map
    n0, n1 = quintic_gopakumar_vafa(6)
    ok = n0 == [2875, 609250, 317206375, 242467530000, 229305888887625,
                248249742118022000]
    ok = ok and n1 == [0, 0, 609250, 3721431625, 12129909700200, 31147299733286500]
    # Gopakumar-Vafa numbers are integers
    ok = ok and all(n.denominator == 1 for n in n0 + n1)
    _report("quintic n0 and n1 through d=6 match Gopakumar-Vafa literature values", ok)


@pytest.mark.extended
def test_extended_quintic_high_degrees():
    # d = 7, 8 of the same tables; this also inverts the mirror map at q_cap 8
    t0 = time.monotonic()
    n0, n1 = quintic_gopakumar_vafa(8)
    elapsed = time.monotonic() - t0
    ok = n0[6:] == [295091050570845659250, 375632160937476603550000]
    ok = ok and n1[6:] == [71578406022880761750, 154990541752961568418125]
    ok = ok and all(n.denominator == 1 for n in n0 + n1)
    _report(f"quintic n0 and n1 at d=7,8 match Gopakumar-Vafa literature values "
            f"({elapsed:.1f}s)", ok)


# -- property suite ----------------------------------------------------------

def test_cluster_vanishing_on_calabi_yau():
    # N = k admits no p >= 2 insertion, so the empty set is the only one that
    # meets the selection rule; test_elliptic covers the clusters of degree <= 3
    cluster_graphs = [g for g in graphs_of_degree(4) if isinstance(g, ClusterStarGraph)]
    ok = True
    for N in (4, 5):
        assert Hypersurface(N, N).genus1_selection(4, {})
        for g in cluster_graphs:
            (f,), steps = whole_graph_integrand(N, N, g, [()])
            assert not f.is_zero(), g
            ok = ok and residue_chain([f], steps) == [0]
        # the engine's cluster cores: nonzero integrands whose chains walk to 0
        for f_mult in {g.f for g in cluster_graphs}:
            (f,), steps = _part_integrand(N, N, Piece(f_mult, 0, 0), [()])
            assert not f.is_zero(), f_mult
            ok = ok and residue_chain([f], steps) == [0]
    _report("cluster residues vanish for N=k, every cluster of degree 4", ok)


def test_star_sums_match_log_ltilde():
    chi = Hypersurface(5, 5).euler_characteristic()
    want = ltilde_zero_closed(5, 3).log().scale(Fraction(chi, 24))
    _report("star sums equal (chi/24) log Ltilde_0 for the quintic d<=3",
            family_series(5, 3, "star") == want)


def test_alternating_sums_invert_ltilde_zero():
    ok = True
    for k in (3, 5):
        inv = ltilde_zero_closed(k, 5).inverse()
        for d in range(1, 6):
            ok = ok and alternating_two_point_sum(k, d) == -inv.coefficient(d)
    _report("alternating two-point sums invert Ltilde_0, k in {3,5}, d<=5", ok)


def test_homogeneity_guard():
    # every engine asserts the residue degree count; exercising each graph
    # family and both slot orders proves none of the assertions fired
    values = [
        genus0_constant(5, 3, 2, 1, 1, {2: 2, 3: 1}),
        genus0_constant(5, 3, 2, 2, 0, {2: 2, 3: 1}),
        genus0_constant(5, 3, 2, 0, 2, {2: 2, 3: 1}),
        elliptic_constant(4, 2, 2, {2: 4}),
        elliptic_constant(5, 5, 2),
    ]
    _report("homogeneity assertions hold across engines", all(
        isinstance(v, Fraction) for v in values))


def test_order_independence():
    cases = [
        (4, 1, 2, 1, 0, {2: 6}),
        (4, 1, 3, 1, 0, {2: 9}),
        (5, 3, 2, 1, 1, {2: 2, 3: 1}),
        (5, 3, 2, 2, 0, {2: 2, 3: 1}),
    ]
    # the chain of slots (b, a) is the descending chain of (a, b), relabelled
    # z_i -> z_{d-i}, so swapping the slots checks the elimination order
    ok = True
    for N, k, d, a, b, ins in cases:
        value = genus0_constant(N, k, d, a, b, ins)
        ok = ok and value == genus0_constant(N, k, d, b, a, ins) and value != 0
    _report("genus-0 chains agree under a slot swap", ok)


def test_residue_chains_never_divide(monkeypatch):
    # residues are taken at their true pole order, so no chain needs to
    # cancel a common factor: with both division routines disabled and the
    # planner memo empty, every chain still runs and every value still holds
    def refuse(*args, **kwargs):
        raise AssertionError("the residue chain divided")

    calls = []
    residue_at = RatExpr.residue_at

    def counted(self, v, *args):
        calls.append(v)
        return residue_at(self, v, *args)

    monkeypatch.setattr(RatExpr, "reduce", refuse)
    monkeypatch.setattr(SparsePoly, "divide_exact_linear", refuse)
    monkeypatch.setattr(RatExpr, "residue_at", counted)
    rows = {(r.d, r.ins.get(2, 0), r.ins.get(3, 0)): (r.n0, r.n1, r.combo, r.w1)
            for r in gw_table(5, 1, 2)}
    table_calls = len(calls)
    identities = cy_report(4, 3).identities()
    assert table_calls > 0 and len(calls) > table_calls, "no chain ran"
    ok = rows == THREEFOLD_D2[1] and bool(identities) and all(identities.values())
    _report("gw_table(5,1,2) and cy_report(4,3) hold with no division", ok)


def test_graph_counts():
    _report("graph catalog counts 2, 5, 8, 13, 20 for d=1..5",
            [len(graphs_of_degree(d)) for d in range(1, 6)] == [2, 5, 8, 13, 20])


def test_mirror_roundtrip():
    ok = True
    for N, k in ((4, 1), (5, 3)):
        q_cap, nblocks = 3, N - 3
        C = mirror_corrections(N, k, q_cap)
        D = invert_corrections(C)
        for p in C:
            ok = ok and substitute([D[p]], C)[0] + C[p] == \
                TruncatedSeries.zero(nblocks, q_cap)
    _report("mirror map inversion roundtrip exact at q_cap 3", ok)


# -- long-running jobs, exposed but not gating -------------------------------

@pytest.mark.extended
def test_extended_surface_high_degrees():
    t0 = time.monotonic()
    rows = gw_table(4, 1, 7)
    elapsed = time.monotonic() - t0
    ok = [r.n1 for r in rows[3:]] == [225, 87192, 57435240, 60478511040]
    ok = ok and [r.n1 for r in rows] == [p2_genus1(r.d) for r in rows]
    ok = ok and [r.w1 for r in rows[3:5]] == \
        [Fraction(-320162385), Fraction(-3123359504298)]
    rows = gw_table(4, 2, 4)
    ok = ok and (rows[3].n1, rows[3].n1_norm, rows[3].w1) == \
        (256, 1, Fraction(-29153744))
    _report(f"surface tables at d=4..7 (gw_table(4,1,7) {elapsed:.1f}s)", ok)


HIGH_DEGREE_ROWS = {
    (4, 0, 8): (4, Fraction(-4, 3), 1, Fraction(-7111330, 3)),
    (4, 2, 7): (58, Fraction(-179, 6), 4, Fraction(-26141813, 2)),
    (4, 4, 6): (480, Fraction(-248), 32, Fraction(-71830274)),
    (4, 6, 5): (4000, Fraction(-6070, 3), 310, Fraction(-1182256279, 3)),
    (4, 8, 4): (35104, Fraction(-51772, 3), 3220, Fraction(-2159333004)),
    (4, 10, 3): (327888, Fraction(-156594), 34674, Fraction(-35458691818, 3)),
    (4, 12, 2): (3259680, Fraction(-1515824), 385656,
                 Fraction(-193936379144, 3)),
    (4, 14, 1): (34382544, Fraction(-15620216), 4436268,
                 Fraction(-353359995764)),
    (4, 16, 0): (383306880, Fraction(-170763640), 52832040,
                 Fraction(-1930689790136)),
    (5, 0, 10): (105, Fraction(-147, 4), 42, Fraction(-8363354113, 4)),
    (5, 2, 9): (1265, Fraction(-2379, 4), 354, Fraction(-28682135389, 2)),
    (5, 4, 8): (13354, Fraction(-13047, 2), 3492, Fraction(-196198477325, 2)),
    (5, 6, 7): (139098, Fraction(-132549, 2), 38049,
                Fraction(-2010681907978, 3)),
    (5, 8, 6): (1492616, Fraction(-677808), 441654,
                Fraction(-13724961403006, 3)),
    (5, 10, 5): (16744080, Fraction(-7179606), 5378454,
                 Fraction(-93619004917238, 3)),
    (5, 12, 4): (197240400, Fraction(-79637976), 68292324,
                 Fraction(-212735629674372)),
    (5, 14, 3): (2440235712, Fraction(-928521900), 901654884,
                 Fraction(-4348697671027760, 3)),
    (5, 16, 2): (31658432256, Fraction(-11385660384), 12358163808,
                 Fraction(-9873859605646752)),
    (5, 18, 1): (429750191232, Fraction(-146713008096), 175599635328,
                 Fraction(-201722432909390752, 3)),
    (5, 20, 0): (6089786376960, Fraction(-1984020394752), 2583319387968,
                 Fraction(-1373530281059327936, 3)),
}


@pytest.mark.extended
def test_extended_threefold_high_degrees():
    rows = gw_table(5, 1, 5)
    ok = True
    seen = 0
    for r in rows:
        key = (r.d, r.ins.get(2, 0), r.ins.get(3, 0))
        if key in HIGH_DEGREE_ROWS:
            seen += 1
            ok = ok and (r.n0, r.n1, r.combo, r.w1) == HIGH_DEGREE_ROWS[key]
        ok = ok and r.combo.denominator == 1
    ok = ok and seen == len(HIGH_DEGREE_ROWS)
    _report("threefold table rows at d=4,5", ok)
    _report("every n0 row of gw_table(5,1,5) matches P^3 WDVV", _n0_matches_p3_wdvv(rows))


# n1 of the degree-6 rows of gw_table(5, 1, 6), keyed (m_2, m_3), as computed with
# numerators built on term dicts (SparsePoly.mul_capped) rather than packed rows
THREEFOLD_D6_N1 = {
    (0, 12): Fraction(1496, 3),
    (2, 11): Fraction(-30734, 3),
    (4, 10): Fraction(-159416),
    (6, 9): Fraction(-5858452, 3),
    (8, 8): Fraction(-22370056),
    (10, 7): Fraction(-250794036),
    (12, 6): Fraction(-2789164576),
    (14, 5): Fraction(-30697952032),
    (16, 4): Fraction(-328598241216),
    (18, 3): Fraction(-3269840555072),
    (20, 2): Fraction(-26350041204736),
    (22, 1): Fraction(-53038066768896),
    (24, 0): Fraction(4885850743278208),
}


@pytest.mark.extended
def test_extended_threefold_degree_six():
    t0 = time.monotonic()
    rows = gw_table(5, 1, 6)
    elapsed = time.monotonic() - t0
    ok = all(r.combo.denominator == 1 for r in rows)
    ok = ok and {(r.ins.get(2, 0), r.ins.get(3, 0)): r.n1 for r in rows if r.d == 6} == \
        THREEFOLD_D6_N1
    _report(f"threefold table rows at d=6, combo integral ({elapsed:.1f}s)", ok)
    _report("every n0 row of gw_table(5,1,6) matches P^3 WDVV", _n0_matches_p3_wdvv(rows))


@pytest.mark.extended
@pytest.mark.parametrize("k", [7, 8])
def test_extended_loop_identity_high_degree(k):
    r = cy_report(k, 5)
    checks = r.identities()
    _report(f"genus-1 identities for k={k} at d<=5", all(checks.values()))


def test_extended_jobs_are_exposed():
    marked = [fn for name, fn in globals().items()
              if name.startswith("test_extended_") and callable(fn)
              and any(m.name == "extended" for m in getattr(fn, "pytestmark", []))]
    _report("long-running jobs exposed behind the extended marker",
            len(marked) == 5)

"""Golden values and invariants for the genus-0 residue engine."""

import functools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsc import genus0
from vsc.calabi_yau import _loop_weights
from vsc.chain import residue_chain, root_in_var
from vsc.elliptic import Piece, _part_integrand, _plan, elliptic_constant
from vsc.genus0 import _integrand, e_poly, genus0_constant, numerator, w_poly
from vsc.graphs import ClusterStarGraph, LoopGraph, PointGraph, StarGraph, graphs_of_degree
from vsc.hypersurface import ins_key
from vsc.pipeline import _constant_sets, weighted_insertions
from vsc.poly import SparsePoly, linear_form
from vsc.ratfun import RatExpr

from oracles import (ascending_chain, genus0_direct, poly_add, poly_mul, poly_pow,
                     poly_substitute, subst_zero, uncapped_numerator)

F = Fraction


def test_e_poly_basic_identities():
    # e_k(z, z) = (kz)^{k+1} and e_k(0, y) has the j=k factor kill it... j=k gives kx,
    # so e_k(0, y) = 0; e_1(x, y) = x y
    n = 2
    x, y = SparsePoly.variable(0, n), SparsePoly.variable(1, n)
    assert e_poly(1, x, y) == x * y
    e3 = e_poly(3, x, y)
    assert poly_substitute(e3, 0, y) == SparsePoly(n, {(0, 4): 3 ** 4})
    assert subst_zero(e3, 0).is_zero()
    assert e3.homogeneous_degree() == 4
    # an endpoint may be a linear form: e_2(x + y, y) = 2y (x + 2y) (2x + 2y)
    assert e_poly(2, x + y, y) == y.scale(2) * (x + y.scale(2)) * (x + y).scale(2)


def test_w_poly_basic_identities():
    n = 2
    x, y = SparsePoly.variable(0, n), SparsePoly.variable(1, n)
    assert w_poly(0, x, y).is_zero()
    assert w_poly(1, x, y) == SparsePoly.constant(1, n)
    assert w_poly(3, x, y) == x * x + x * y + y * y
    # w_a(z, z) = a z^{a-1}
    assert poly_substitute(w_poly(4, x, y), 0, y) == SparsePoly(n, {(0, 3): 4})
    assert w_poly(4, y, y) == SparsePoly(n, {(0, 3): 4})
    # an endpoint may be a linear form
    assert w_poly(3, x + y, y) == (x + y) * (x + y) + (x + y) * y + y * y


@pytest.mark.parametrize("ends", ["variables", "forms", "x zero", "y zero", "both zero"])
def test_binary_forms_match_explicit_products_and_sums(ends):
    # e_k and w_p as written in the module docstring, with the Fraction
    # schoolbook product and sum, on every kind of endpoint an edge can have
    n = 3
    x, y = SparsePoly.variable(0, n), SparsePoly.variable(1, n)
    zero = SparsePoly.zero(n)
    x, y = {"variables": (x, y),
            "forms": (linear_form({0: F(2, 3), 2: -1}, n), linear_form({1: F(-5, 2), 2: 3}, n)),
            "x zero": (zero, y), "y zero": (x, zero), "both zero": (zero, zero)}[ends]
    one = SparsePoly.constant(1, n)
    for k in range(1, 7):
        want = one
        for j in range(k + 1):
            want = poly_mul(want, poly_add(x.scale(j), y.scale(k - j)))
        assert e_poly(k, x, y) == want
    for p in range(6):
        want = zero
        for j in range(p):
            want = poly_add(want, poly_mul(poly_pow(x, j), poly_pow(y, p - 1 - j)))
        assert w_poly(p, x, y) == want


def _literal_numerator(k, n, scalar, mono, edges, ins_t, loops):
    # the product written out factor by factor, every factor multiplied with
    # the Fraction schoolbook poly_mul; an edge endpoint is a variable index
    # or a linear form {variable: coefficient}
    def mono_poly(c, exps):
        e = [0] * n
        for v, x in exps:
            e[v] += x
        return SparsePoly(n, {tuple(e): c})

    def form(x):
        coeffs = {x: 1} if isinstance(x, int) else x
        return SparsePoly(n, {tuple(int(u == v) for u in range(n)): c
                              for v, c in coeffs.items()})

    out = mono_poly(scalar, enumerate(mono))
    edges = [(form(x), form(y)) for x, y in edges]
    for x, y in edges:
        for j in range(k + 1):
            out = poly_mul(out, x.scale(j) + y.scale(k - j))
    for p, m in ins_t:
        s = SparsePoly.zero(n)
        for j in range(p):
            for x, y in edges:
                s = s + poly_mul(poly_pow(x, j), poly_pow(y, p - 1 - j))
            for v, c in loops.items():
                s = s + mono_poly(c, [(v, p - 1)])
        for _ in range(m):
            out = poly_mul(out, s)
    return out


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_numerator_matches_literal_product(data):
    n = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(1, 4))
    vertex = st.integers(0, n - 1)
    # an endpoint is a variable or a linear form, as the cluster edge (u + z_core, z_core)
    end = st.one_of(vertex, st.dictionaries(vertex, st.integers(-2, 2), min_size=1, max_size=2))
    edges = data.draw(st.lists(st.tuples(end, end).filter(lambda e: e[0] != e[1]),
                               max_size=3) if n > 1 else st.just([]))
    # a cycle through every vertex, as a loop graph has
    if n > 1 and data.draw(st.booleans()):
        edges += [(v, (v + 1) % n) for v in range(n)][:3 - len(edges)]
    loops = data.draw(st.dictionaries(vertex, st.integers(0, 3), max_size=2))
    ins_t = tuple(data.draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                                     max_size=2)))
    mono = tuple(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    scalar = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=7))
    literal = _literal_numerator(k, n, scalar, mono, edges, ins_t, loops)
    lead = SparsePoly(n, {mono: scalar})
    forms = [tuple(x if isinstance(x, int) else linear_form(x, n) for x in e) for e in edges]
    assert list(numerator(k, lead, forms, [ins_t], loops)) == [literal]
    # capped at degree caps[v] in each x_v, two variables where there are two:
    # exactly the literal terms within every cap
    caps = data.draw(st.dictionaries(vertex, st.integers(-1, 8), min_size=min(n, 2), max_size=2))
    assert list(numerator(k, lead, forms, [ins_t], loops, caps)) == \
        [SparsePoly(n, {e: x for e, x in literal.items()
                        if all(e[v] <= c for v, c in caps.items())})]


def _capped_builds(N, k, dmax, families):
    # every genus-0 job (both slot orders) and every graph job of the given
    # families of gw_table(N, k, dmax), or of cy_report(k, dmax) when N = k,
    # as integrand builders; a star or cluster job as the pieces it reads
    slots = ([(k - 2 - m, m - 1) for m in sorted({0, 1, *_loop_weights(k)})] if N == k else
             [(N - 2 - p, 0) for p in range(1, N - 1)] + ([(1, 1)] if N == 5 else []))
    builds = [functools.partial(_integrand, N, k, d, *ends, [ins_key(ins)])
              for a, b in slots for d, ins in _constant_sets(N, k, dmax, a, b)
              for ends in ((a, b), (b, a))]
    jobs = [(g, ins_key(ins)) for d in range(1, dmax + 1)
            for ins in weighted_insertions(N, (N - k) * d)
            for g in graphs_of_degree(d) if isinstance(g, families)]
    builds += [functools.partial(_part_integrand, N, k, part, [ins_t])
               for part, sets in _plan(N, k, jobs).items() for ins_t in sorted(sets)]
    return builds


def test_capped_numerators_give_the_same_chain_values(monkeypatch):
    # N = k clusters all vanish, so only Fano clusters count towards the nonzero share
    builds = [b for job in [(5, 1, 3), (5, 2, 3), (4, 1, 4)]
              for b in _capped_builds(*job, (StarGraph, PointGraph, ClusterStarGraph))]
    builds += _capped_builds(5, 5, 4, (StarGraph, PointGraph))
    capped = [build() for build in builds]
    both_capped = numerator

    def first_cap_only(k, lead, edges, ins_ts, loops, caps=None):
        first = dict(list(caps.items())[:1]) if caps else caps
        return both_capped(k, lead, edges, ins_ts, loops, first)

    monkeypatch.setattr(genus0, "numerator", first_cap_only)
    first = [build() for build in builds]
    monkeypatch.setattr(genus0, "numerator", uncapped_numerator)
    full = [build() for build in builds]
    smaller = smaller_than_first = nonzero = 0
    for ((f,), steps), ((h,), _), ((g,), _) in zip(capped, first, full):
        (value,) = residue_chain([f], steps)
        assert [value] == residue_chain([g], steps)
        smaller += len(f.num.terms) < len(g.num.terms)
        smaller_than_first += len(f.num.terms) < len(h.num.terms)
        nonzero += value != 0
    # the second cap, of z_d or of a long tail's end, drops terms the first keeps
    assert smaller > len(builds) // 4 and nonzero > len(builds) // 2
    assert smaller_than_first > len(builds) // 4


@pytest.mark.parametrize("ins, message", [
    ({7: 1}, "insertion powers must lie in 0..N-2"),
    ({-1: 1}, "insertion powers must lie in 0..N-2"),
    ({1: -1, 2: 2}, "insertion counts must be >= 0"),
])
def test_insertions_checked_alike_by_both_constants(ins, message):
    # degree 0 and d >= 1 of genus 0 and genus 1 read insertions through one helper
    for constant, args in [(genus0_constant, (4, 1, 0, 1, 0)),
                           (genus0_constant, (4, 1, 2, 1, 0)),
                           (elliptic_constant, (4, 1, 1))]:
        with pytest.raises(ValueError, match=re.escape(message)):
            constant(*args, ins)


def test_root_in_var():
    g = linear_form({1: 2, 2: -1}, 3)  # 2 x1 - x2, root in x1 is x2/2
    r = root_in_var(g, 1)
    assert r == SparsePoly.variable(2, 3).scale(F(1, 2))
    assert root_in_var(g, 0) is None
    with pytest.raises(ValueError):
        root_in_var(g * g, 1)


def test_degree_zero_is_classical_pairing():
    assert genus0_constant(5, 3, 0, 1, 2, {0: 1}) == 3
    assert genus0_constant(5, 3, 0, 1, 1, {1: 1}) == 3
    assert genus0_constant(5, 3, 0, 1, 1, {2: 1}) == 0
    assert genus0_constant(5, 3, 0, 1, 1, {1: 2}) == 0
    assert genus0_constant(4, 2, 0, 0, 0, {2: 1}) == 2


def test_selection_rule_zero():
    assert genus0_constant(4, 1, 1, 0, 0, {2: 3}) == 0
    assert genus0_constant(5, 5, 1, 1, 0, {}) == 0


def test_quintic_three_point_with_negative_slot():
    # d * w(O_{h^3} O_{h^{-1}})_{0,d} / k must be (kd)!/(d!)^k
    assert genus0_constant(5, 5, 1, 3, -1) == 600          # 5 * 5!
    assert genus0_constant(5, 5, 2, 3, -1) == F(5, 2) * F(3628800, 32)


def test_quintic_two_point_3850():
    assert genus0_constant(5, 5, 1, 2, 0) == 3850


def test_cubic_surface_two_point():
    assert genus0_constant(4, 1, 1, 2, 2) == 1


@pytest.mark.parametrize("args,expected", [
    # coefficients of the known degree-1 mirror maps for surfaces in CP^3:
    # t^p = x^p + (1/k) sum e^{dx} w(O_{h^{2-p}} O_1 | (O_{h^2})^m) (x^2)^m / m!
    ((4, 1, 1, 1, 0, {2: 3}), 3),        # k=1: (1/2)(x2)^3 -> w = 3! / 2... = 3
    ((4, 1, 1, 0, 0, {2: 4}), 6),        # k=1: (1/4)(x2)^4 -> w = 4!/4 = 6
    ((4, 1, 1, 2, 0, {2: 2}), 1),        # k=1: (1/2)(x2)^2 -> w = 2!/2 = 1
    ((4, 2, 1, 0, 0, {2: 3}), 24),       # k=2: 2 (x2)^3 -> w = 2 * 2 * 3!
    ((4, 3, 1, 1, 0, {2: 1}), 63),       # k=3: 21 x2 -> w = 3 * 21
    ((4, 1, 2, 1, 0, {2: 6}), 504),      # k=1 degree 2: (7/10)(x2)^6 -> 7/10 * 6!
    ((4, 1, 2, 0, 0, {2: 7}), 2376),     # (33/70)(x2)^7 -> 33/70 * 7!
    ((4, 1, 2, 2, 0, {2: 5}), 64),       # (8/15)(x2)^5 -> 8/15 * 5!
    ((4, 1, 3, 1, 0, {2: 9}), 622320),   # (2593/1512)(x2)^9 -> 2593/1512 * 9!
])
def test_surface_mirror_map_coefficients(args, expected):
    assert genus0_constant(*args) == expected


def test_low_insertion_shortcut_matches_literal_integrand():
    base = genus0_constant(4, 1, 2, 2, 2, {2: 3})
    assert base != 0
    assert genus0_direct(4, 1, 2, 2, 2, {2: 3}) == base
    assert genus0_direct(4, 1, 2, 2, 2, {1: 2, 2: 3}) == 4 * base
    assert genus0_constant(4, 1, 2, 2, 2, {1: 2, 2: 3}) == 4 * base
    assert genus0_direct(4, 1, 2, 2, 2, {0: 1, 2: 3}) == 0
    assert genus0_constant(4, 1, 2, 2, 2, {0: 1, 2: 3}) == 0


def test_descending_order_agrees():
    # relabelling z_i -> z_{d-i} turns the chain of slots (b, a) into the
    # descending chain of (a, b), so this checks the elimination order too
    for N, k, d, a, b, ins in [(4, 1, 2, 1, 0, {2: 6}), (5, 3, 2, 3, 1, {2: 2})]:
        value = genus0_constant(N, k, d, a, b, ins)
        assert value == genus0_constant(N, k, d, b, a, ins) and value != 0


def test_branch_count_matches_two_to_the_d_minus_one():
    # in path order each of the d - 1 interior vertices branches at 0 and at its root
    fs, steps = ascending_chain(4, 1, 3, 1, 0, [((2, 9),)])
    assert steps == [(0, None), (1, linear_form({1: 2, 0: -1, 2: -1}, 4)),
                     (2, linear_form({2: 2, 1: -1, 3: -1}, 4)), (3, None)]
    stats = {}
    assert residue_chain(fs, steps, stats=stats) == [622320]
    assert stats.get("leaves", 0) + stats.get("pruned", 0) >= 4
    assert stats.get("leaves", 0) == 4  # all four branches contribute here
    # the engine takes both ends at 0 first; with z_0 = z_3 = 0 the root of
    # z_2 falls onto 0 on either branch of z_1, so there are two leaves
    fs, steps = _integrand(4, 1, 3, 1, 0, [((2, 9),)])
    stats = {}
    assert residue_chain(fs, steps, stats=stats) == [622320]
    assert stats == {"leaves": 2}


def test_residues_at_zero_alone_come_before_the_branching_steps():
    # genus0.integrand caps the numerator only in the opening run of steps at
    # 0 alone, and taking them first removes their variables before any branch
    chains = [_integrand(5, 1, d, a, b, [()])[1] for d in range(1, 6) for a, b in [(1, 0), (-1, 2)]]
    parts = [Piece(0, length, 6) for length in range(1, 6)] + \
        [Piece(f, 0, 2) for f in range(1, 5)] + \
        [LoopGraph(d) for d in range(2, 6)] + [PointGraph(d) for d in range(1, 6)]
    for steps in chains + [_part_integrand(5, 1, part, [()])[1] for part in parts]:
        at_zero = [form is None for _, form in steps]
        assert at_zero == sorted(at_zero, reverse=True), steps
        assert len({v for v, _ in steps}) == len(steps)


def test_integrands_walk_the_branches_together():
    # the genus-0 chain of degree 2 with (a, b) = (0, 0) and its own numerators
    # of degree 11; the first vanishes to order 2 at x0 = 0, so its true pole
    # order there is 2, not 4, and its residue at that branch has other
    # denominator exponents than the rest and must be walked apart from them;
    # the fourth is zero and walks nowhere
    n = 3
    den = [(SparsePoly.variable(0, n), 4), (SparsePoly.variable(2, n), 4)]
    steps = [(0, None), genus0.midpoint(4, n, 1, 0, 2, den), (2, None)]
    nums = [SparsePoly(n, terms) for terms in [
        {(2, 6, 3): 1, (3, 5, 3): -1, (2, 7, 2): 2},
        {(0, 8, 3): 1, (1, 7, 3): 2, (0, 4, 7): -3},
        {(0, 9, 2): 1, (2, 6, 3): 1, (0, 10, 1): 5},
        {},
        {(0, 11, 0): 2, (3, 6, 2): 1, (1, 6, 4): -1},
    ]]
    zero = SparsePoly.zero(n)
    first = [RatExpr(num, den).residue_at(0, zero).den for num in nums[:3]]
    assert first[0] != first[1] == first[2]
    alone, stats_alone = [], {}
    for num in nums:
        alone += residue_chain([RatExpr(num, den)], steps, stats=stats_alone)
    stats = {}
    together = residue_chain((RatExpr(num, den) for num in nums), steps, stats=stats)
    assert together == alone and stats == stats_alone
    assert sum(value != 0 for value in alone) == 4 and stats_alone["pruned"] > 0


def test_last_residue_needs_one_variable_left():
    # x0 / (x0 x1) has degree -1, but x1 is still there at the last step; its
    # residue at x0 = 0 is 0, and a read-off of the content would give 1
    x0, x1 = SparsePoly.variable(0, 2), SparsePoly.variable(1, 2)
    with pytest.raises(RuntimeError, match="x0, x1"):
        residue_chain([RatExpr(x0, [(x0, 1), (x1, 1)])], [(0, None)])
    # c x0^(E-1) / x0^E reads c off; a point is one such step
    assert residue_chain([RatExpr(x0.scale(F(-3, 7)) * x0, [(x0, 3)])], [(0, None)]) == \
        [F(-3, 7)]

"""Oracles and invariants for the polynomial / rational-expression kernel."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsc import RatExpr, SparsePoly, linear_form
from vsc.ratfun import NonLinearPoleError

from oracles import derivative, equals

F = Fraction


def P(nvars, terms):
    return SparsePoly(nvars, {tuple(e): F(c) for e, c in terms.items()})


def var(i, n=3):
    return SparsePoly.variable(i, n)


# -- polynomial arithmetic oracles -------------------------------------------


def test_product_difference_of_squares():
    x, y = var(0, 2), var(1, 2)
    assert (x + y) * (x - y) == x * x - y * y


def test_pow_matches_repeated_mul():
    x, y = var(0, 2), var(1, 2)
    p = x + 2 * y
    assert p ** 5 == p * p * p * p * p
    assert p ** 0 == SparsePoly.constant(1, 2)


def test_substitute_polynomial_value():
    x, y = var(0, 2), var(1, 2)
    p = x * x + y
    # x -> y + 1: (y+1)^2 + y = y^2 + 3y + 1
    q = p.substitute(0, y + 1)
    assert q == y * y + 3 * y + 1
    with pytest.raises(ValueError):
        p.substitute(0, x + y)


def test_derivative_and_degree():
    x, y = var(0, 2), var(1, 2)
    p = x ** 3 * y + 2 * x
    assert p.derivative(0) == 3 * x * x * y + 2
    assert p.total_degree() == 4
    assert p.degree_in(1) == 1
    with pytest.raises(ValueError):
        (x + x * y).homogeneous_degree()
    assert (x * y + x * x).homogeneous_degree() == 2


def test_divide_exact_linear():
    x, y, z = var(0), var(1), var(2)
    f = x + 2 * y
    p = f * (x * z + 3 * y * y + 1)
    assert p.divide_exact_linear(f) == x * z + 3 * y * y + 1
    assert x.divide_exact_linear(f) is None
    q = (4 * x * y * z).divide_exact_linear(2 * x)
    assert q == 2 * y * z


def test_linear_form_builder():
    f = linear_form({0: 2, 2: -1}, 3)
    assert f == 2 * var(0) - var(2)


# -- hypothesis invariants ----------------------------------------------------

small_polys = st.builds(
    lambda d: SparsePoly(3, {e: c for e, c in d.items() if c}),
    st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * 3),
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
        max_size=5,
    ),
)


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(small_polys, small_polys)
def test_shift_eps_matches_substitution(p, root):
    # p(v -> root + t) collected by t-degree must agree with shift_eps
    root = root.subst_zero(0).subst_zero(2)  # keep root free of x0 and the slot x2
    m = p.degree_in(0) + 1
    if m <= 0:
        m = 1
    coeffs = p.shift_eps(0, root, m)
    t = SparsePoly.variable(2, 3)
    shifted = p.subst_zero(2).substitute(0, root + t)
    for i, ci in enumerate(coeffs):
        collected = SparsePoly(3, {
            e[:2] + (0,): c for e, c in shifted.terms.items() if e[2] == i
        })
        assert collected == ci.subst_zero(2)


@settings(max_examples=40, deadline=None)
@given(small_polys)
def test_linear_division_roundtrip(p):
    f = linear_form({0: 1, 1: 2}, 3)
    assert (p * f).divide_exact_linear(f) == p


# -- residue oracles ----------------------------------------------------------


def test_residue_simple_pole_at_zero():
    # Res_{z=0} 1/z = 1
    one = SparsePoly.constant(1, 1)
    f = RatExpr(one, [(SparsePoly.variable(0, 1), 1)])
    assert f.residue_at(0, SparsePoly.zero(1)).as_fraction() == 1


def test_residue_no_pole_is_zero():
    # (w + y)/y^2 has no pole in w
    w, y = var(0, 2), var(1, 2)
    f = RatExpr(w + y, [(y, 2)])
    assert f.residue_at(0, SparsePoly.zero(2)).is_zero()
    # 1/(w - y) has no pole at w = 0 either
    g = RatExpr(SparsePoly.constant(1, 2), [(w - y, 1)])
    assert g.residue_at(0, SparsePoly.zero(2)).is_zero()


def test_residue_double_pole_is_derivative():
    # Res_{w=y} w^3/(w-y)^2 = 3y^2
    w, y = var(0, 2), var(1, 2)
    f = RatExpr(w ** 3, [(w - y, 2)])
    r = f.residue_at(0, y)
    assert r.num == 3 * y * y and not r.den


def test_residue_keeps_denominator_factored():
    # Res_{w=y} 1/((w-y)^2 w) = -1/y^2
    w, y = var(0, 2), var(1, 2)
    f = RatExpr(SparsePoly.constant(1, 2), [(w - y, 2), (w, 1)])
    r = f.residue_at(0, y)
    assert r.num == SparsePoly.constant(-1, 2)
    assert r.den == ((y, 2),)


def test_residue_overcounted_order_is_harmless():
    # z^2/z^5 has a pole of order 3; counting 5 factors still gives Res = delta
    z = SparsePoly.variable(0, 1)
    f = RatExpr(z ** 2, [(z, 5)])
    assert f.residue_at(0, SparsePoly.zero(1)).is_zero()
    g = RatExpr(z ** 4, [(z, 5)])
    assert g.residue_at(0, SparsePoly.zero(1)).as_fraction() == 1


def test_residue_matches_derivative_formula():
    # order-3 pole: Res = (1/2!) d^2/dw^2 [ (w-y)^3 f ] at w = y
    w, y, z = var(0), var(1), var(2)
    num = w * w * z + y ** 3 + w * z * z
    f = RatExpr(num, [(w - y, 3), (w + z, 1), (z, 2)])
    got = f.residue_at(0, y)
    stripped = RatExpr(num, [(w + z, 1), (z, 2)])
    manual = derivative(derivative(stripped, 0), 0)
    manual = RatExpr(manual.num.substitute(0, y),
                     [(g.substitute(0, y), e) for g, e in manual.den]) * F(1, 2)
    assert equals(got, manual)


def test_residue_rejects_nonlinear_vanishing_factor():
    w = SparsePoly.variable(0, 2)
    f = RatExpr(SparsePoly.constant(1, 2), [(w * w, 1)])
    with pytest.raises(NonLinearPoleError):
        f.residue_at(0, SparsePoly.zero(2))


def test_residue_raises_homogeneous_degree_by_one():
    # f homogeneous of degree -2 in (w, y): residue in w is degree -1
    w, y = var(0, 2), var(1, 2)
    f = RatExpr(w + 2 * y, [(w, 1), (w - y, 1), (y, 1)])
    assert f.homogeneous_degree() == -2
    r = f.residue_at(0, y)
    assert r.homogeneous_degree() == -1
    assert r.residue_at(1, SparsePoly.zero(2)).as_fraction() == 3


def test_residue_sum_over_all_poles_of_rational_function_vanishes():
    # sum of residues of w^2/((w-y)(w-2y)(w+y)) over its poles is 1 (top coeff)
    w, y = var(0, 2), var(1, 2)
    f = RatExpr(w * w, [(w - y, 1), (w - 2 * y, 1), (w + y, 1)])
    tot = F(0)
    for root in (y, 2 * y, -y):
        r = f.residue_at(0, root)
        tot += r.residue_at(1, SparsePoly.zero(2)).as_fraction() if r.den else 0
    # residue at infinity of f dw is -1, so finite residues sum to +1... times 1/y^0
    vals = [f.residue_at(0, root) for root in (y, 2 * y, -y)]
    s = SparsePoly.zero(2)
    for r in vals:
        assert not r.den
        s = s + r.num
    assert s == SparsePoly.constant(1, 2)


def test_substitute_folds_constants_and_rejects_zero_factor():
    w, y = var(0, 2), var(1, 2)
    f = RatExpr(w, [(2 * y, 2)])
    g = f.substitute(1, SparsePoly.constant(3, 2))
    assert not g.den and g.num == w.scale(F(1, 36))
    h = RatExpr(w, [(w - y, 1)])
    with pytest.raises(ZeroDivisionError):
        h.substitute(1, w)


def test_reduce_cancels_shared_linear_factors():
    x, y = var(0, 2), var(1, 2)
    f = RatExpr(x * x * y, [(x, 3), (y, 1)])
    r = f.reduce()
    assert r.num == SparsePoly.constant(1, 2)
    assert r.den == ((x, 1),)


def test_residue_commutes_with_disjoint_substitution():
    # substitution in y commutes with a residue in w when roots stay y-free
    w, y, z = var(0), var(1), var(2)
    f = RatExpr(w * w * y + z ** 3, [(w - z, 2), (y + z, 1)])
    r_then_s = f.residue_at(0, z).substitute(1, 2 * z)
    s_then_r = f.substitute(1, 2 * z).residue_at(0, z)
    assert equals(r_then_s, s_then_r)

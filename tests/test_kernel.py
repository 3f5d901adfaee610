"""Oracles and invariants for the polynomial / rational-expression kernel."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vsc.genus0
from vsc import RatExpr, SparsePoly, linear_form
from vsc.elliptic import Piece, _part_integrand
from vsc.genus0 import _integrand
from vsc.graphs import LoopGraph, PointGraph
from vsc.ratfun import NonLinearPoleError

from vsc.poly import MAX_DEGREE, Rows

from oracles import (as_fraction, derivative, dict_numerator, eps_coefficients, equals, poly_add,
                     poly_derivative, poly_divide_exact_linear, poly_mul, poly_substitute,
                     subst_zero, substitute)
from strategies import bounded_fractions

F = Fraction


def P(nvars, terms):
    return SparsePoly(nvars, {tuple(e): F(c) for e, c in terms.items()})


def var(i, n=3):
    return SparsePoly.variable(i, n)


# -- polynomial arithmetic oracles -------------------------------------------


def test_product_difference_of_squares():
    x, y = var(0, 2), var(1, 2)
    assert (x + y) * (x - y) == x * x - y * y


def test_substitute_polynomial_value():
    x, y = var(0, 2), var(1, 2)
    p = x * x + y
    # x -> y + 1: (y+1)^2 + y = y^2 + 3y + 1
    q = eps_coefficients(p, 0, y + 1, 1)[0]
    assert q == y * y + 3 * y + 1
    with pytest.raises(ValueError):
        p.shift_eps(0, x + y, 1)


def test_derivative_and_degree():
    x, y = var(0, 2), var(1, 2)
    p = P(2, {(3, 1): 1}) + 2 * x
    assert poly_derivative(p, 0) == 3 * x * x * y + 2
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
    # a monomial form goes through the synthetic division, one power at a time
    p = x * x * x * y + 5 * x * x * z
    assert p.divide_exact_linear(2 * x) == (x * x * y + 5 * x * z).scale(F(1, 2))
    assert p.divide_exact_linear(y) is None


def test_linear_form_builder():
    f = linear_form({0: 2, 2: -1}, 3)
    assert f == 2 * var(0) - var(2)


# -- hypothesis invariants ----------------------------------------------------

small_polys = st.builds(
    lambda d: SparsePoly(3, {e: c for e, c in d.items() if c}),
    st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * 3),
        bounded_fractions(5, 6),
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
    root = subst_zero(subst_zero(root, 0), 2)  # keep root free of x0 and the slot x2
    m = p.degree_in(0) + 1
    if m <= 0:
        m = 1
    coeffs = eps_coefficients(p, 0, root, m)
    t = SparsePoly.variable(2, 3)
    shifted = poly_substitute(subst_zero(p, 2), 0, root + t)
    for i, ci in enumerate(coeffs):
        collected = SparsePoly(3, {
            e[:2] + (0,): c for e, c in shifted.items() if e[2] == i
        })
        assert collected == subst_zero(ci, 2)


def test_shift_eps_returns_only_the_orders_up_to_the_degree():
    # (y + eps)^2 y + y = y^3 + y + 2 y^2 eps + y eps^2: 3 orders, however many asked
    x, y = var(0, 2), var(1, 2)
    p = x * x * y + y
    content, coeffs = p.shift_eps(0, y, 40)
    assert len(coeffs) == 3
    zeros = [SparsePoly.zero(2)] * 37
    assert eps_coefficients(p, 0, y, 40) == [y * y * y + y, 2 * y * y, y] + zeros
    # a pole of order 40 over a numerator of degree 39 in the pole variable
    f = RatExpr(P(1, {(39,): 1}), [(SparsePoly.variable(0, 1), 40)])
    assert as_fraction(f.residue_at(0, SparsePoly.zero(1))) == 1


@settings(max_examples=40, deadline=None)
@given(small_polys)
def test_linear_division_roundtrip(p):
    f = linear_form({0: 1, 1: 2}, 3)
    assert (p * f).divide_exact_linear(f) == p


@st.composite
def _poly_in(draw, n):
    return SparsePoly(n, draw(st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * n),
        bounded_fractions(5, 6),
        max_size=6,
    )))


def _check_linear_at(p, v, root):
    c, a = p.linear_at(v, root)
    assert [c, a] == eps_coefficients(p, v, root, 2)
    assert c + a * (SparsePoly.variable(v, p.nvars) - root) == p


def test_linear_at_cases():
    x0, x1, x2 = var(0), var(1), var(2)
    zero = SparsePoly.zero(3)
    # a polynomial x0 coefficient, a zero root and a root whose content is not an integer
    for p in (x1 * x0 + x2, (x1 * x0 + x2).scale(F(3, 4)), x0.scale(2) - x1 - x2, x2 + 1, zero):
        for root in (zero, x2.scale(F(1, 3)) - x1.scale(F(5, 2)), x1 + x2 * x2.scale(F(2, 7))):
            _check_linear_at(p, 0, root)
    assert (x1 * x0 + x2).linear_at(0, x2.scale(F(1, 3))) == (x1 * x2.scale(F(1, 3)) + x2, x1)
    with pytest.raises(ValueError, match="degree 2"):
        (x0 * x0 + x1).linear_at(0, x1)
    with pytest.raises(ValueError, match="pole variable"):
        x0.linear_at(0, x0 + x1)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_linear_at_matches_eps_coefficients(data):
    n = data.draw(st.integers(1, 4))
    v = data.draw(st.integers(0, n - 1))
    x = SparsePoly.variable(v, n)
    p = subst_zero(data.draw(_poly_in(n)), v) + subst_zero(data.draw(_poly_in(n)), v) * x
    root = subst_zero(data.draw(_poly_in(n)), v)
    if data.draw(st.booleans()):
        root = SparsePoly.zero(n)
    _check_linear_at(p, v, root)
    with pytest.raises(ValueError):
        (p + x * x).linear_at(v, root)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_packed_kernel_matches_tuple_oracles(data):
    # 1-6 variables, rational coefficients: product, sum, shift and exact division
    n = data.draw(st.integers(1, 6))
    a, b = data.draw(_poly_in(n)), data.draw(_poly_in(n))
    assert a * b == poly_mul(a, b)
    assert a + b == poly_add(a, b)
    assert a - b == poly_add(a, b.scale(-1))
    # shift_eps: with eps as an extra variable t, sum_i c_i t^i = a(x_v -> root + t)
    v = data.draw(st.integers(0, n - 1))
    root = subst_zero(b, v)
    coeffs = eps_coefficients(a, v, root, max(a.degree_in(v), 0) + 1)
    assert all(c.degree_in(v) <= 0 for c in coeffs)
    assert coeffs[0] == poly_substitute(a, v, root)

    def lift(p):
        return SparsePoly(n + 1, {e + (0,): c for e, c in p.items()})

    t = SparsePoly.variable(n, n + 1)
    collected, t_pow = SparsePoly.zero(n + 1), SparsePoly.constant(1, n + 1)
    for c in coeffs:
        collected = poly_add(collected, poly_mul(lift(c), t_pow))
        t_pow = poly_mul(t_pow, t)
    assert collected == poly_substitute(lift(a), v, poly_add(lift(root), t))
    # exact quotient of f*a by a linear f, and None for f*a + 1
    lin = data.draw(st.lists(bounded_fractions(4, 5),
                             min_size=n + 1, max_size=n + 1).filter(lambda c: any(c[:n])))
    f = linear_form(dict(enumerate(lin[:n])), n) + lin[n]
    fa = f * a
    assert fa.divide_exact_linear(f) == a == poly_divide_exact_linear(fa, f)
    assert (fa + 1).divide_exact_linear(f) is None
    assert poly_divide_exact_linear(fa + 1, f) is None


# -- packed rows -----------------------------------------------------------------


def _below(p, caps):
    """p without its terms of degree above caps[v] in x_v."""
    return SparsePoly(p.nvars, {e: c for e, c in p.items()
                                if all(e[v] <= cap for v, cap in caps.items())})


@st.composite
def _row_operands(draw):
    """(a, b, caps): integer polynomials of either sign, some of whose coefficients sit
    at or next to a power of two, and caps on none, some or all of the variables."""
    n = draw(st.integers(1, 4))
    big = 2 ** draw(st.integers(1, 90))
    coeff = st.one_of(st.integers(-9, 9),
                      st.sampled_from([big - 1, big, big + 1, 1 - big, -big, -big - 1]))

    def poly(max_size):
        terms = st.dictionaries(st.tuples(*[st.integers(0, 4)] * n), coeff, max_size=max_size)
        return draw(terms.map(lambda d: SparsePoly(n, {e: c for e, c in d.items() if c})))

    caps = draw(st.dictionaries(st.integers(0, n - 1), st.integers(-1, 9)))
    return poly(8), poly(4), caps


M = 2 ** 40 - 1  # the extreme slot values below come from coefficients of M


@settings(max_examples=150, deadline=None)
@given(_row_operands())
# the product of a by x0 - x1 has the coefficient -2M = -B, the slot bound itself
@example((P(2, {(2, 1): M, (1, 2): -M, (3, 0): 1}), P(2, {(1, 0): 1, (0, 1): -1}), {}))
# by a monomial: B = M = 2^40 - 1 = 2^(W-1) - 1, the largest slot value, next to a
# slot of -M, with caps on every variable, the slot variable and its partner included
@example((P(3, {(1, 1, 0): M, (0, 2, 0): -M, (2, 0, 0): 1, (0, 0, 2): -3}),
          P(3, {(0, 1, 1): 1}), {0: 1, 1: 2, 2: 3}))
def test_row_product_matches_capped_product(operands):
    a, b, caps = operands
    assert a.mul_capped(b, caps) == _below(a * b, caps)
    rows = Rows(a, caps, [[b]])
    assert rows.unpack(rows.mul(rows.pack(a), rows.pack(b))) == _below(a * b, caps)
    assert rows.unpack(rows.pack(a)) == _below(a, caps)


WEIGHT_12 = [((2, 2), (3, 5)), ((2, 4), (3, 4)), ((2, 6), (3, 3)), ((2, 8), (3, 2)),
             ((2, 10), (3, 1)), ((2, 12),)]
# (integrand builder, sorted insertion sets) of one pool item of gw_table(5, 1, 3) per layout
LAYOUTS = {
    "chain": (lambda sets: _integrand(5, 1, 3, 1, 0, sets),
              [((2, 1), (3, 2)), ((2, 3), (3, 1)), ((2, 5),)]),
    "tail piece": (lambda sets: _part_integrand(5, 1, Piece(0, 3, 12), sets), WEIGHT_12),
    "cluster core": (lambda sets: _part_integrand(5, 1, Piece(2, 0, 2), sets),
                     [((2, 2),), ((3, 1),)]),
    "loop": (lambda sets: _part_integrand(5, 1, LoopGraph(3), sets), WEIGHT_12),
    "point": (lambda sets: _part_integrand(5, 1, PointGraph(3), sets), WEIGHT_12),
}


@pytest.mark.parametrize("layout", LAYOUTS)
def test_numerator_matches_dict_accumulator(monkeypatch, layout):
    # the numerators of every layout, with its caps and shared prefixes, equal the
    # same accumulator on term dicts, term for term; so do those of a lead times
    # 1 - x0, whose products have integer coefficients of both signs
    seen = []
    engine = vsc.genus0.numerator

    def both(k, lead, edges, ins_ts, loops, caps=None):
        for signed in (lead - lead * SparsePoly.variable(0, lead.nvars), lead):
            got = list(engine(k, signed, edges, ins_ts, loops, caps))
            assert got == list(dict_numerator(k, signed, edges, ins_ts, loops, caps))
        seen.append((caps, got))
        return iter(got)

    monkeypatch.setattr(vsc.genus0, "numerator", both)
    build, sets = LAYOUTS[layout]
    build(sets)
    [(caps, nums)] = seen
    assert len(nums) == len(sets) and not any(num.is_zero() for num in nums)
    # caps on the ends of a chain or a tail, on u of a cluster core, none on a loop
    assert bool(caps) == (layout != "loop")


# -- packed exponent field -----------------------------------------------------


def test_packed_field_overflow_raises():
    x, y = var(0, 2), var(1, 2)
    top = P(2, {(MAX_DEGREE, 0): 1})
    assert top.total_degree() == MAX_DEGREE
    with pytest.raises(ValueError, match=str(MAX_DEGREE)):
        top * y  # each exponent fits its field, the total degree does not
    with pytest.raises(ValueError, match=str(MAX_DEGREE)):
        top * x
    with pytest.raises(ValueError, match=str(MAX_DEGREE)):
        P(2, {(40000, 0): 1}).shift_eps(0, y * y, 1)
    rows = Rows(top, {}, [[y]])
    with pytest.raises(ValueError, match=str(MAX_DEGREE)):
        rows.mul(rows.pack(top), rows.pack(y))


def test_constructor_rejects_bad_exponents():
    with pytest.raises(ValueError, match="nvars"):
        SparsePoly(2, {(1, 0, 0): 1})
    with pytest.raises(ValueError, match="negative"):
        SparsePoly(2, {(2, -1): 1})  # would borrow from the next field
    with pytest.raises(ValueError, match=str(MAX_DEGREE)):
        SparsePoly(2, {(MAX_DEGREE + 1, 0): 1})
    with pytest.raises(ValueError, match=str(MAX_DEGREE)):
        SparsePoly(2, {(MAX_DEGREE, 1): 1})
    assert SparsePoly(2, {(MAX_DEGREE, 0): 1}) == \
        SparsePoly(2, {(MAX_DEGREE - 1, 0): 1}) * var(0, 2)


def test_items_view_and_primitive_part():
    p = P(2, {(2, 0): F(3, 4), (0, 1): F(-1, 2)})
    assert dict(p.items()) == {(2, 0): F(3, 4), (0, 1): F(-1, 2)}
    content, part = p.primitive()
    assert content * part == p
    assert dict(part.items()) == {(2, 0): 3, (0, 1): -2}
    assert (-p).primitive()[1] == part


# -- residue oracles ----------------------------------------------------------


def test_residue_simple_pole_at_zero():
    # Res_{z=0} 1/z = 1
    one = SparsePoly.constant(1, 1)
    f = RatExpr(one, [(SparsePoly.variable(0, 1), 1)])
    assert as_fraction(f.residue_at(0, SparsePoly.zero(1))) == 1


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
    f = RatExpr(P(2, {(3, 0): 1}), [(w - y, 2)])
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
    f = RatExpr(P(1, {(2,): 1}), [(z, 5)])
    assert f.residue_at(0, SparsePoly.zero(1)).is_zero()
    g = RatExpr(P(1, {(4,): 1}), [(z, 5)])
    assert as_fraction(g.residue_at(0, SparsePoly.zero(1))) == 1


def test_residue_matches_derivative_formula():
    # order-3 pole: Res = (1/2!) d^2/dw^2 [ (w-y)^3 f ] at w = y
    w, y, z = var(0), var(1), var(2)
    num = w * w * z + P(3, {(0, 3, 0): 1}) + w * z * z
    f = RatExpr(num, [(w - y, 3), (w + z, 1), (z, 2)])
    got = f.residue_at(0, y)
    stripped = RatExpr(num, [(w + z, 1), (z, 2)])
    manual = derivative(derivative(stripped, 0), 0)
    manual = RatExpr(poly_substitute(manual.num, 0, y).scale(F(1, 2)),
                     [(poly_substitute(g, 0, y), e) for g, e in manual.den])
    assert equals(got, manual)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_residue_matches_derivative_formula_random(data):
    # Res_{v=root} f = (1/(m-1)!) d^{m-1}/dv^{m-1} [ (v-root)^m f ] at v = root,
    # for a pole of order 1-4 beside 0-3 non-vanishing linear factors
    small = st.integers(-3, 3)
    root = linear_form({1: data.draw(small), 2: data.draw(small)}, 3)
    m = data.draw(st.integers(1, 4))
    alpha = data.draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    den = []
    for _ in range(data.draw(st.integers(0, 3))):
        g = linear_form({i: data.draw(small) for i in range(3)}, 3) + data.draw(small)
        if not poly_substitute(g, 0, root).is_zero():
            den.append((g, data.draw(st.integers(1, 6))))
    if not root.is_zero():
        den.append((var(0), data.draw(st.integers(0, 6))))  # x_v^e off its pole
    num = data.draw(_poly_in(3))
    f = RatExpr(num, [((var(0) - root).scale(alpha), m)] + den)
    manual = RatExpr(num.scale(F(1, alpha ** m)), den)
    for _ in range(m - 1):
        manual = derivative(manual, 0)
    manual = substitute(manual, 0, root)
    expected = RatExpr(manual.num.scale(F(1, factorial(m - 1))), manual.den)
    assert equals(f.residue_at(0, root), expected)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_residue_at_true_order_matches_derivative_formula(data):
    # a numerator times (v-root)^j, j = 0..m+1, lowers the pole to order m - j:
    # the residue still matches the derivative formula at the counted order m,
    # and it is 0 for j >= m
    small = st.integers(-3, 3)
    root = linear_form({1: data.draw(small), 2: data.draw(small)}, 3)
    m = data.draw(st.integers(1, 4))
    j = data.draw(st.integers(0, m + 1))
    den = []
    for _ in range(data.draw(st.integers(0, 3))):
        g = linear_form({i: data.draw(small) for i in range(3)}, 3) + data.draw(small)
        if not poly_substitute(g, 0, root).is_zero():
            den.append((g, data.draw(st.integers(1, 6))))
    if not root.is_zero():
        den.append((var(0), data.draw(st.integers(0, 6))))  # x_v^e off its pole
    num = data.draw(_poly_in(3))
    for _ in range(j):
        num = num * (var(0) - root)
    manual = RatExpr(num, den)
    for _ in range(m - 1):
        manual = derivative(manual, 0)
    manual = substitute(manual, 0, root)
    expected = RatExpr(manual.num.scale(F(1, factorial(m - 1))), manual.den)
    got = RatExpr(num, [(var(0) - root, m)] + den).residue_at(0, root)
    assert equals(got, expected)
    if j >= m:
        assert got.is_zero()


def test_residue_with_polynomial_x_v_coefficient():
    # Res_{x0=0} 1/(x0^2 (x1 x0 + x2)) = -x1/x2^2
    x0, x1, x2 = var(0), var(1), var(2)
    f = RatExpr(SparsePoly.constant(1, 3), [(x0, 2), (x1 * x0 + x2, 1)])
    got = f.residue_at(0, SparsePoly.zero(3))
    assert equals(got, RatExpr(-x1, [(x2, 2)]))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_residue_with_polynomial_x_v_coefficient_matches_derivative_formula(data):
    # factors x0 h + r whose x0 coefficient h is a polynomial in x1, x2, beside a
    # pole of order 1-4 at x0 = 0, itself (x0 h0)^m for a constant or linear h0
    small = st.integers(-3, 3)
    x0, x1, x2 = var(0), var(1), var(2)
    m = data.draw(st.integers(1, 4))
    h0 = data.draw(st.sampled_from([SparsePoly.constant(2, 3), x1, x1 - 3 * x2]))
    den = []
    for i in range(data.draw(st.integers(1, 3))):
        h = linear_form({1: data.draw(small), 2: data.draw(small)}, 3) + data.draw(small)
        if i == 0:
            h = h * x1 + x2  # never constant
        r = linear_form({1: data.draw(small), 2: data.draw(small)}, 3) + data.draw(small)
        if r.is_zero():
            r = x1 + 1  # the factor must not vanish at x0 = 0
        den.append((x0 * h + r, data.draw(st.integers(1, 3))))
    num = data.draw(_poly_in(3))
    f = RatExpr(num, [(x0 * h0, m)] + den)
    manual = RatExpr(num, [(h0, m)] + den)
    for _ in range(m - 1):
        manual = derivative(manual, 0)
    manual = substitute(manual, 0, SparsePoly.zero(3))
    expected = RatExpr(manual.num.scale(F(1, factorial(m - 1))), manual.den)
    assert equals(f.residue_at(0, SparsePoly.zero(3)), expected)


def test_residue_rejects_nonlinear_vanishing_factor():
    w, y = var(0, 2), var(1, 2)
    f = RatExpr(SparsePoly.constant(1, 2), [(w * w, 1)])
    with pytest.raises(NonLinearPoleError):
        f.residue_at(0, SparsePoly.zero(2))
    # a factor nonlinear in w is rejected even where it does not vanish
    g = RatExpr(SparsePoly.constant(1, 2), [(w, 1), (w * w + y, 1)])
    with pytest.raises(NonLinearPoleError):
        g.residue_at(0, SparsePoly.zero(2))


def test_residue_raises_homogeneous_degree_by_one():
    # f homogeneous of degree -2 in (w, y): residue in w is degree -1
    w, y = var(0, 2), var(1, 2)
    f = RatExpr(w + 2 * y, [(w, 1), (w - y, 1), (y, 1)])
    assert f.homogeneous_degree() == -2
    r = f.residue_at(0, y)
    assert r.homogeneous_degree() == -1
    assert as_fraction(r.residue_at(1, SparsePoly.zero(2))) == 3


def test_residue_sum_over_all_poles_of_rational_function_vanishes():
    # sum of residues of w^2/((w-y)(w-2y)(w+y)) over its poles is 1 (top coeff)
    w, y = var(0, 2), var(1, 2)
    f = RatExpr(w * w, [(w - y, 1), (w - 2 * y, 1), (w + y, 1)])
    tot = F(0)
    for root in (y, 2 * y, -y):
        r = f.residue_at(0, root)
        tot += as_fraction(r.residue_at(1, SparsePoly.zero(2))) if r.den else 0
    # residue at infinity of f dw is -1, so finite residues sum to +1... times 1/y^0
    vals = [f.residue_at(0, root) for root in (y, 2 * y, -y)]
    s = SparsePoly.zero(2)
    for r in vals:
        # residue_at leaves y-factors uncancelled; reduce() cancels them
        r = r.reduce()
        assert not r.den
        s = s + r.num
    assert s == SparsePoly.constant(1, 2)


def test_substitute_folds_constants_and_rejects_zero_factor():
    w, y = var(0, 2), var(1, 2)
    f = RatExpr(w, [(2 * y, 2)])
    g = substitute(f, 1, SparsePoly.constant(3, 2))
    assert not g.den and g.num == w.scale(F(1, 36))
    h = RatExpr(w, [(w - y, 1)])
    with pytest.raises(ZeroDivisionError):
        substitute(h, 1, w)


def test_reduce_cancels_shared_linear_factors():
    x, y = var(0, 2), var(1, 2)
    f = RatExpr(x * x * y, [(x, 3), (y, 1)])
    r = f.reduce()
    assert r.num == SparsePoly.constant(1, 2)
    assert r.den == ((x, 1),)


def test_residue_commutes_with_disjoint_substitution():
    # substitution in y commutes with a residue in w when roots stay y-free
    w, y, z = var(0), var(1), var(2)
    f = RatExpr(w * w * y + P(3, {(0, 0, 3): 1}), [(w - z, 2), (y + z, 1)])
    r_then_s = substitute(f.residue_at(0, z), 1, 2 * z)
    s_then_r = substitute(f, 1, 2 * z).residue_at(0, z)
    assert equals(r_then_s, s_then_r)

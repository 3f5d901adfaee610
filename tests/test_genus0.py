"""Golden values and invariants for the genus-0 residue engine."""

from fractions import Fraction

import pytest

from vsc.chain import residue_chain, root_in_var
from vsc.genus0 import e_poly, genus0_constant, w_poly
from vsc.poly import SparsePoly

from oracles import genus0_direct

F = Fraction


def test_e_poly_basic_identities():
    # e_k(z, z) = (kz)^{k+1} and e_k(0, y) has the j=k factor kill it... j=k gives kx,
    # so e_k(0, y) = 0; e_1(x, y) = x y
    n = 2
    x, y = SparsePoly.variable(0, n), SparsePoly.variable(1, n)
    assert e_poly(1, 0, 1, n) == x * y
    e3 = e_poly(3, 0, 1, n)
    assert e3.substitute(0, y) == (3 * y) ** 4
    assert e3.subst_zero(0).is_zero()
    assert e3.homogeneous_degree() == 4


def test_w_poly_basic_identities():
    n = 2
    x, y = SparsePoly.variable(0, n), SparsePoly.variable(1, n)
    assert w_poly(0, 0, 1, n).is_zero()
    assert w_poly(1, 0, 1, n) == SparsePoly.constant(1, n)
    assert w_poly(3, 0, 1, n) == x * x + x * y + y * y
    # w_a(z, z) = a z^{a-1}
    assert w_poly(4, 0, 1, n).substitute(0, y) == 4 * y ** 3


def test_root_in_var():
    from vsc.poly import linear_form
    g = linear_form({1: 2, 2: -1}, 3)  # 2 x1 - x2, root in x1 is x2/2
    r = root_in_var(g, 1)
    assert r == SparsePoly.variable(2, 3).scale(F(1, 2))
    assert root_in_var(g, 0) is None


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
    for args in [(4, 1, 2, 1, 0, {2: 6}), (5, 3, 2, 3, 1, {2: 2})]:
        asc = genus0_constant(*args, order="ascending")
        desc = genus0_constant(*args, order="descending")
        assert asc == desc and asc != 0


def test_branch_count_matches_two_to_the_d_minus_one():
    from vsc.genus0 import _integrand
    f, des = _integrand(4, 1, 3, 1, 0, ((2, 9),))
    stats = {}
    steps = [(0, "zero"), (1, "both"), (2, "both"), (3, "zero")]
    val = residue_chain(f, steps, des, stats=stats)
    assert val == 622320
    assert stats.get("leaves", 0) + stats.get("pruned", 0) >= 4
    assert stats.get("leaves", 0) == 4  # all four branches contribute here

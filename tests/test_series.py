from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsc.series import TruncatedSeries, substitute

from oracles import block_series, series_add, series_mul
from strategies import bounded_fractions


def test_constructors_and_coefficients():
    s = TruncatedSeries(1, 3, {(1, (2,)): Fraction(5), (4, (0,)): Fraction(9)})
    assert s.coefficient(1, (2,)) == 5
    # beyond the cap is silently dropped
    assert s.coefficient(4, (0,)) == 0
    assert TruncatedSeries.constant(7, 2, 1).coefficient(0) == 7
    b = block_series(1, 2, 1)
    assert b.coefficient(0, (0, 1)) == 1


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        TruncatedSeries(0, 3, {(-1, ()): 1})
    with pytest.raises(ValueError):
        TruncatedSeries.from_json({"nblocks": 0, "q_cap": 2, "terms": [[-2, [], "1/2"]]})
    with pytest.raises(ValueError):
        TruncatedSeries(1, 3, {(1, (-1,)): 1})


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        TruncatedSeries(1, 2, {(0, (1, 1)): Fraction(1)})
    with pytest.raises(ValueError):
        TruncatedSeries.zero(1, 2) + TruncatedSeries.zero(2, 2)


def test_arithmetic():
    q = TruncatedSeries.q_power(1, 0, 4)
    one_q = TruncatedSeries.constant(1, 0, 4) + q
    s = one_q * one_q * one_q * one_q
    assert [s.coefficient(d) for d in range(5)] == [1, 4, 6, 4, 1]
    assert (s - s).is_zero()
    assert s.scale(Fraction(1, 2)).coefficient(2) == 3


def test_mul_truncates_in_q_only():
    # block exponents are exact; only q degrees above the cap drop out
    x = block_series(0, 1, 1)
    q = TruncatedSeries.q_power(1, 1, 1)
    p = (x + q) * (x + q)
    assert p.coefficient(0, (2,)) == 1
    assert p.coefficient(1, (1,)) == 2
    assert p.coefficient(2) == 0


def test_exp_log_known_series():
    q = TruncatedSeries.q_power(1, 0, 5)
    e = q.exp()
    assert [e.coefficient(d) for d in range(6)] == [
        1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24), Fraction(1, 120)]
    lg = (TruncatedSeries.constant(1, 0, 5) + q).log()
    assert [lg.coefficient(d) for d in range(6)] == [
        0, 1, Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 4), Fraction(1, 5)]


def test_exp_log_normalization_errors():
    one = TruncatedSeries.constant(1, 0, 3)
    with pytest.raises(ValueError):
        one.exp()
    with pytest.raises(ValueError):
        (one + one).log()
    with pytest.raises(ValueError):
        TruncatedSeries.zero(0, 3).inverse()
    # block content at q^0 blocks the inverse
    with pytest.raises(ValueError):
        (TruncatedSeries.constant(1, 1, 3) + block_series(0, 1, 3)).inverse()


def test_inverse_geometric():
    q = TruncatedSeries.q_power(1, 0, 4)
    inv = (TruncatedSeries.constant(1, 0, 4) - q).inverse()
    assert [inv.coefficient(d) for d in range(5)] == [1, 1, 1, 1, 1]
    inv2 = (TruncatedSeries.constant(2, 0, 4) + q).inverse()
    assert inv2.coefficient(0) == Fraction(1, 2)
    assert inv2.coefficient(2) == Fraction(1, 8)


small_fracs = bounded_fractions(3, 4)


@st.composite
def q_series(draw, nblocks=0, q_cap=4, min_q=1):
    terms = {}
    for d in range(min_q, q_cap + 1):
        exps = (0,) * nblocks
        terms[(d, exps)] = draw(small_fracs)
    return TruncatedSeries(nblocks, q_cap, terms)


@settings(max_examples=40, deadline=None)
@given(q_series())
def test_exp_log_roundtrip(v):
    one = TruncatedSeries.constant(1, v.nblocks, v.q_cap)
    assert v.exp().log() == v
    assert (one + v).log().exp() == one + v


@settings(max_examples=40, deadline=None)
@given(q_series(), small_fracs.filter(bool))
def test_inverse_roundtrip(v, c):
    s = TruncatedSeries.constant(c, v.nblocks, v.q_cap) + v
    one = TruncatedSeries.constant(1, v.nblocks, v.q_cap)
    assert s * s.inverse() == one


def test_exp_of_sum_is_product():
    a = TruncatedSeries(0, 5, {(1, ()): Fraction(2), (3, ()): Fraction(-1, 3)})
    b = TruncatedSeries(0, 5, {(2, ()): Fraction(1, 2)})
    assert (a + b).exp() == a.exp() * b.exp()


def test_substitute_identity():
    s = TruncatedSeries(2, 3, {
        (1, (1, 0)): Fraction(3), (2, (0, 2)): Fraction(-1, 2), (0, (1, 1)): Fraction(7)})
    shift = {p: TruncatedSeries.zero(2, 3) for p in (1, 2, 3)}
    assert substitute([s], shift)[0] == s


def test_substitute_hand_computed():
    # F = q x substituted on x^1 -> t^1 + 2q and x -> x + 3q:
    # q e^{2q} (x + 3q) = q x + 2q^2 x + 3q^2 + O(q^3)
    F = TruncatedSeries(1, 2, {(1, (1,)): Fraction(1)})
    shift = {1: TruncatedSeries(1, 2, {(1, (0,)): Fraction(2)}),
             2: TruncatedSeries.q_power(1, 1, 2).scale(3)}
    got = substitute([F], shift)[0]
    want = TruncatedSeries(1, 2, {
        (1, (1,)): Fraction(1), (2, (1,)): Fraction(2), (2, (0,)): Fraction(3)})
    assert got == want


def test_substitute_scalar_exponential_shift():
    # sum_d q^d / d on x^1 -> t^1 + A turns each q^d into q^d e^{dA}
    cap = 4
    F = TruncatedSeries(0, cap, {(d, ()): Fraction(1, d) for d in range(1, cap + 1)})
    A = TruncatedSeries(0, cap, {(1, ()): Fraction(1)})
    got = substitute([F], {1: A})[0]
    expect = TruncatedSeries.zero(0, cap)
    for d in range(1, cap + 1):
        expect = expect + (TruncatedSeries.q_power(d, 0, cap) *
                           A.scale(d).exp()).scale(Fraction(1, d))
    assert got == expect


def _layered_series(first_degree, nblocks=2, top=2):
    # q_cap 3, two or three terms at every q-degree from first_degree on (one
    # with no blocks), each block exponent at most top
    layer = st.dictionaries(st.sampled_from(list(product(range(top + 1), repeat=nblocks))),
                            small_fracs,
                            min_size=min(2, 3 ** nblocks), max_size=3)
    return st.lists(layer, min_size=4 - first_degree, max_size=4 - first_degree).map(
        lambda layers: TruncatedSeries(nblocks, 3, {(d, e): c for d, terms in
                                                    enumerate(layers, first_degree)
                                                    for e, c in terms.items()}))


def _literal_substitute(f, shift):
    # sum c (q exp(D_1))^d prod_a (x^a + D_{a+2})^{e_a}, with exp(D_1) = sum_j D_1^j / j!
    nblocks, cap = f.nblocks, f.q_cap
    one = TruncatedSeries.constant(1, nblocks, cap)
    exp_d1, power = one, one
    for j in range(1, cap + 1):
        power = series_mul(power, shift[1].scale(Fraction(1, j)))
        exp_d1 = series_add(exp_d1, power)
    values = [series_mul(TruncatedSeries.q_power(1, nblocks, cap), exp_d1)]
    values += [series_add(block_series(a, nblocks, cap), shift[a + 2])
               for a in range(nblocks)]
    out = TruncatedSeries.zero(nblocks, cap)
    for (d, exps), c in f.items():
        term = TruncatedSeries.constant(c, nblocks, cap)
        for value, e in zip(values, (d, *exps)):
            for _ in range(e):
                term = series_mul(term, value)
        out = series_add(out, term)
    return out


@settings(max_examples=30, deadline=None)
@given(st.lists(_layered_series(0), min_size=2, max_size=3),
       _layered_series(1), _layered_series(0), _layered_series(1))
def test_substitute_matches_literal_evaluation(series, d1, d2, d3):
    shift = {1: d1, 2: d2, 3: d3}
    assert substitute(series, shift) == [_literal_substitute(f, shift) for f in series]
    for bad in ({1: d1, 2: d2}, {**shift, 4: d3}, {}):
        with pytest.raises(ValueError):
            substitute(series, bad)


@pytest.mark.parametrize("nblocks, zero", [(0, ()), (1, ()), (1, (1,)), (2, (3,)), (3, ())],
                         ids=["0-blocks", "1-block", "zero-D1", "zero-D3", "3-blocks"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_substitute_matches_literal_evaluation_at_more_shapes(nblocks, zero, data):
    # other block counts, a zero D_1, and a zero D_a, whose table axis stops at
    # its first entry; every nonzero D_a with a >= 2 has a q^0 part.  Block
    # exponents stay at most 1 with three blocks, where the oracle is slow.
    top = 1 if nblocks == 3 else 2
    series = data.draw(st.lists(_layered_series(0, nblocks, top), min_size=1, max_size=3))
    shift = {p: TruncatedSeries.zero(nblocks, 3) if p in zero else
             data.draw(_layered_series(int(p == 1), nblocks, top))
             for p in range(1, nblocks + 2)}
    assert substitute(series, shift) == [_literal_substitute(f, shift) for f in series]


def test_substitute_products_do_not_grow_with_the_series(monkeypatch):
    # the table T(d, i) is shared by every term of every series of a call, so
    # more series, or more terms of the same q-degrees and the same largest
    # block exponents, make no further product
    products = []
    mul = TruncatedSeries.__mul__

    def counted(self, other):
        products.append(1)
        return mul(self, other)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counted)
    f = TruncatedSeries(2, 3, {(d, (2, 1)): Fraction(d, 3) for d in (1, 2, 3)})
    g = f + TruncatedSeries(2, 3, {(d, e): Fraction(d + 1 + sum(e)) for d in (1, 2, 3)
                                   for e in [(0, 0), (1, 0), (2, 0), (0, 1)]})
    shift = {1: TruncatedSeries(2, 3, {(1, (1, 0)): Fraction(2), (2, (0, 0)): Fraction(-1)}),
             2: TruncatedSeries(2, 3, {(0, (0, 1)): Fraction(1, 2), (1, (0, 0)): Fraction(3)}),
             3: TruncatedSeries(2, 3, {(1, (1, 0)): Fraction(-1), (2, (0, 1)): Fraction(5)})}
    counts = []
    for series in ([f], [f, f, f], [g]):
        products.clear()
        substitute(series, shift)
        counts.append(len(products))
    assert len(g.items()) == 15
    assert counts[0] == counts[1] == counts[2] > 0, counts


def test_json_roundtrip():
    s = TruncatedSeries(2, 3, {(1, (1, 0)): Fraction(3, 7), (3, (0, 5)): Fraction(-2)})
    assert TruncatedSeries.from_json(s.to_json()) == s


@st.composite
def series_pairs(draw):
    """Two series of one shape, each with block content at q^0 and a term at the cap."""
    nblocks = draw(st.integers(0, 2))
    q_cap = draw(st.integers(0, 4))
    keys = st.tuples(st.integers(0, q_cap), st.tuples(*[st.integers(0, 2)] * nblocks))
    pair = []
    for _ in range(2):
        terms = draw(st.dictionaries(keys, small_fracs, max_size=6))
        terms[(0, (1,) * nblocks)] = draw(small_fracs)
        terms[(q_cap, (0,) * nblocks)] = draw(small_fracs)
        pair.append(TruncatedSeries(nblocks, q_cap, terms))
    return pair


@settings(max_examples=60, deadline=None)
@given(series_pairs())
def test_mul_and_add_match_the_tuple_oracle(pair):
    a, b = pair
    assert a * b == series_mul(a, b)
    assert a + b == series_add(a, b)

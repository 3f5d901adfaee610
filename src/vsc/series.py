"""Truncated series in q = e^{x^1} with polynomial block coefficients.

A series is one ``SparsePoly`` in nblocks + 1 variables, capped in q:
variable 0 is q and the block variables x^a that follow it range over the
insertion slots 2..N-2 of the ambient problem (nblocks = N - 3, possibly 0).
A term q^d * prod_a (x^{a})^{e_a} has an exact rational coefficient.  Every
operation drops the terms above q^{q_cap} and nothing else: block exponents
stay exact, so every operation here is exact over the rationals up to the
stated q_cap.  The arithmetic is the kernel's; this module knows nothing of
its layout.

The q^0 layer may hold block polynomials (mirror maps have none, two-point
functions do), but exp/log/inverse require the usual normalizations and
raise otherwise.  ``substitute`` carries series through a change of flat
coordinates x^p = t^p + D_p(t), the shape of an inverse mirror map, by a
binomial expansion whose products depend on the shift, not on the series.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, prod

from .poly import SparsePoly, shifted_sum

Key = tuple[int, tuple[int, ...]]

__all__ = ["TruncatedSeries", "substitute"]


class TruncatedSeries:
    __slots__ = ("nblocks", "q_cap", "poly")

    def __init__(self, nblocks: int, q_cap: int,
                 terms: dict[Key, Fraction] | None = None):
        if nblocks < 0 or q_cap < 0:
            raise ValueError("nblocks and q_cap must be non-negative")
        self.nblocks, self.q_cap = nblocks, q_cap
        self.poly = SparsePoly(nblocks + 1, {(d, *exps): c for (d, exps), c
                                             in (terms or {}).items() if d <= q_cap})

    @classmethod
    def zero(cls, nblocks: int, q_cap: int) -> "TruncatedSeries":
        return cls(nblocks, q_cap)

    @classmethod
    def constant(cls, value, nblocks: int, q_cap: int) -> "TruncatedSeries":
        return cls(nblocks, q_cap, {(0, (0,) * nblocks): Fraction(value)})

    @classmethod
    def block(cls, index: int, nblocks: int, q_cap: int) -> "TruncatedSeries":
        return cls(nblocks, q_cap, {(0, tuple(int(a == index) for a in range(nblocks))): 1})

    @classmethod
    def q_power(cls, d: int, nblocks: int, q_cap: int) -> "TruncatedSeries":
        return cls(nblocks, q_cap, {(d, (0,) * nblocks): Fraction(1)})

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def items(self) -> list[tuple[Key, Fraction]]:
        """((d, block exponents), coefficient) pairs, sorted by key."""
        return sorted(((e[0], e[1:]), c) for e, c in self.poly.items())

    def coefficient(self, d: int, exps: tuple[int, ...] | None = None) -> Fraction:
        return self.poly.coefficient((d, *((0,) * self.nblocks if exps is None else exps)))

    def _like(self, poly: SparsePoly) -> "TruncatedSeries":
        out = TruncatedSeries.__new__(TruncatedSeries)
        out.nblocks, out.q_cap, out.poly = self.nblocks, self.q_cap, poly
        return out

    def _check(self, other: "TruncatedSeries"):
        if self.nblocks != other.nblocks or self.q_cap != other.q_cap:
            raise ValueError("series shapes differ")

    def truncate(self, q_cap: int) -> "TruncatedSeries":
        """The series at another q_cap: its product with 1, capped at q^q_cap.

        A cap above self.q_cap drops nothing, so the orders it adds read 0.
        """
        out = TruncatedSeries(self.nblocks, q_cap)
        out.poly = self.poly if q_cap >= self.q_cap else \
            self.poly.mul_capped(SparsePoly.constant(1, self.nblocks + 1), {0: q_cap})
        return out

    def _head(self) -> SparsePoly:
        """The block polynomial at q^0."""
        return self.truncate(0).poly

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        return self._like(self.poly + other.poly)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __neg__(self) -> "TruncatedSeries":
        return self._like(-self.poly)

    def scale(self, value) -> "TruncatedSeries":
        return self._like(self.poly.scale(value))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        return self._like(self.poly.mul_capped(other.poly, {0: self.q_cap}))

    __rmul__ = __mul__

    def exp(self) -> "TruncatedSeries":
        if not self._head().is_zero():
            raise ValueError("exp needs a series with no q^0 part")
        # Horner form of sum A^j / j!
        one = out = TruncatedSeries.constant(1, self.nblocks, self.q_cap)
        for j in range(self.q_cap, 0, -1):
            out = one + (self * out).scale(Fraction(1, j))
        return out

    def log(self) -> "TruncatedSeries":
        one = TruncatedSeries.constant(1, self.nblocks, self.q_cap)
        v = self - one
        if not v._head().is_zero():
            raise ValueError("log needs constant term exactly 1")
        # Horner form of sum (-1)^{j+1} v^j / j
        out = TruncatedSeries.zero(self.nblocks, self.q_cap)
        for j in range(self.q_cap, 0, -1):
            out = TruncatedSeries.constant(Fraction(1, j), self.nblocks, self.q_cap) - v * out
        return v * out

    def inverse(self) -> "TruncatedSeries":
        head = self._head()
        if not head.is_constant():
            raise ValueError("inverse needs a constant q^0 part")
        c0 = head.constant_value()
        if not c0:
            raise ValueError("inverse needs a nonzero constant term")
        one = out = TruncatedSeries.constant(1, self.nblocks, self.q_cap)
        v = self.scale(Fraction(1, c0)) - one
        for _ in range(self.q_cap):
            out = one - v * out
        return out.scale(Fraction(1, c0))

    def __eq__(self, other) -> bool:
        return isinstance(other, TruncatedSeries) and \
            (self.nblocks, self.q_cap, self.poly) == (other.nblocks, other.q_cap, other.poly)

    def __repr__(self) -> str:
        return (f"TruncatedSeries(nblocks={self.nblocks}, q_cap={self.q_cap}, "
                f"terms={len(self.items())})")

    def to_json(self) -> dict:
        return {"nblocks": self.nblocks, "q_cap": self.q_cap,
                "terms": [[d, list(exps), str(c)] for (d, exps), c in self.items()]}

    @classmethod
    def from_json(cls, data: dict) -> "TruncatedSeries":
        terms = {(d, tuple(exps)): Fraction(c) for d, exps, c in data["terms"]}
        return cls(data["nblocks"], data["q_cap"], terms)


def substitute(series: list[TruncatedSeries],
               shift: dict[int, TruncatedSeries]) -> list[TruncatedSeries]:
    """Evaluate each series(x) on the coordinate change x^p = t^p + D_p(t).

    ``shift`` maps p = 1..nblocks+1 to D_p, and nothing else: q = e^{x^1}
    takes the value Q = q exp(D_1) and block x^a the value x^a + D_{a+2}.
    Expanded binomially, a term c q^d x^e becomes the sum over i <= e of
    c prod_a C(e_a, i_a) x^{e-i} T(d, i), with T(d, i) = Q^d prod_a
    D_{a+2}^{i_a}.  The table T is shared by all series and built lazily,
    each entry one product of a lower one, so the number of products
    depends on the shift and the degrees, not on the number of terms.  An
    entry beyond a zero one is zero, so each axis of i stops at its first.
    """
    sample = next(iter(shift.values()), None)
    if sample is None or sorted(shift) != list(range(1, sample.nblocks + 2)):
        raise ValueError("the shift needs one series for each p = 1..nblocks+1")
    nblocks, q_cap = sample.nblocks, sample.q_cap
    for s in (*series, *shift.values()):
        sample._check(s)
    zeros = (0,) * nblocks
    table = {(0, zeros): TruncatedSeries.constant(1, nblocks, q_cap)}
    factors = [TruncatedSeries.q_power(1, nblocks, q_cap) * shift[1].exp(),
               *(shift[a + 2] for a in range(nblocks))]

    def entry(d: int, i: tuple[int, ...]) -> TruncatedSeries:
        if (t := table.get((d, i))) is None:
            a = max((b for b, k in enumerate(i) if k), default=-1)  # -1: the q axis
            lower = (d - 1, i) if a < 0 else (d, (*i[:a], i[a] - 1, *i[a + 1:]))
            t = table[(d, i)] = entry(*lower) * factors[a + 1]
        return t

    def walk(d: int, exps: tuple[int, ...]) -> list[tuple[int, ...]]:
        # every i <= exps with T(d, i) nonzero, raising one axis at a time
        found = [] if entry(d, zeros).is_zero() else [zeros]
        for a, top in enumerate(exps):
            for i in found[:]:
                for j in range(1, top + 1):
                    i = (*i[:a], j, *i[a + 1:])
                    if entry(d, i).is_zero():
                        break
                    found.append(i)
        return found

    return [sample._like(shifted_sum(nblocks + 1, (
        (c, prod(map(comb, exps, i)), (0, *(e - k for e, k in zip(exps, i))), table[(d, i)].poly)
        for (d, exps), c in f.items() for i in walk(d, exps)))) for f in series]

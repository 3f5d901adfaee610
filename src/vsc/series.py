"""Truncated series in q = e^{x^1} with polynomial block coefficients.

A term is q^d * prod_a (x^{a})^{e_a} with an exact rational coefficient,
where the block variables x^a range over the insertion slots 2..N-2 of the
ambient problem (nblocks = N - 3, possibly 0).  Truncation happens only in
the q-direction: block exponents stay exact, so every operation here is
exact over the rationals up to the stated q_cap.

The q^0 layer may hold block polynomials (mirror maps have none, two-point
functions do), but exp/log/inverse require the usual normalizations and
raise otherwise.
"""

from __future__ import annotations

from fractions import Fraction

Key = tuple[int, tuple[int, ...]]

__all__ = ["TruncatedSeries", "substitute"]


class TruncatedSeries:
    __slots__ = ("nblocks", "q_cap", "terms")

    def __init__(self, nblocks: int, q_cap: int,
                 terms: dict[Key, Fraction] | None = None):
        if nblocks < 0 or q_cap < 0:
            raise ValueError("nblocks and q_cap must be non-negative")
        self.nblocks = nblocks
        self.q_cap = q_cap
        clean: dict[Key, Fraction] = {}
        for (d, exps), c in (terms or {}).items():
            if d > q_cap or not c:
                continue
            if len(exps) != nblocks:
                raise ValueError("block exponent tuple has wrong length")
            clean[(d, tuple(exps))] = Fraction(c)
        self.terms = clean

    @classmethod
    def zero(cls, nblocks: int, q_cap: int) -> "TruncatedSeries":
        return cls(nblocks, q_cap)

    @classmethod
    def constant(cls, value, nblocks: int, q_cap: int) -> "TruncatedSeries":
        return cls(nblocks, q_cap, {(0, (0,) * nblocks): Fraction(value)})

    @classmethod
    def block(cls, index: int, nblocks: int, q_cap: int) -> "TruncatedSeries":
        exps = [0] * nblocks
        exps[index] += 1
        return cls(nblocks, q_cap, {(0, tuple(exps)): Fraction(1)})

    @classmethod
    def q_power(cls, d: int, nblocks: int, q_cap: int) -> "TruncatedSeries":
        return cls(nblocks, q_cap, {(d, (0,) * nblocks): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, d: int, exps: tuple[int, ...] | None = None) -> Fraction:
        if exps is None:
            exps = (0,) * self.nblocks
        return self.terms.get((d, tuple(exps)), Fraction(0))

    def q_layer(self, d: int) -> dict[tuple[int, ...], Fraction]:
        """Block polynomial sitting at q^d, as an exponent-to-coefficient map."""
        return {exps: c for (dd, exps), c in self.terms.items() if dd == d}

    def min_q_degree(self) -> int | None:
        return min((d for d, _ in self.terms), default=None)

    def _like(self, terms) -> "TruncatedSeries":
        return TruncatedSeries(self.nblocks, self.q_cap, terms)

    def _check(self, other: "TruncatedSeries"):
        if self.nblocks != other.nblocks or self.q_cap != other.q_cap:
            raise ValueError("series shapes differ")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, Fraction(0)) + c
        return self._like(out)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __neg__(self) -> "TruncatedSeries":
        return self._like({key: -c for key, c in self.terms.items()})

    def scale(self, value) -> "TruncatedSeries":
        value = Fraction(value)
        return self._like({key: c * value for key, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        out: dict[Key, Fraction] = {}
        for (d1, e1), c1 in self.terms.items():
            for (d2, e2), c2 in other.terms.items():
                d = d1 + d2
                if d > self.q_cap:
                    continue
                key = (d, tuple(x + y for x, y in zip(e1, e2)))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return self._like(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "TruncatedSeries":
        if n < 0:
            raise ValueError("negative powers go through inverse()")
        out = TruncatedSeries.constant(1, self.nblocks, self.q_cap)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def exp(self) -> "TruncatedSeries":
        if self.min_q_degree() == 0:
            raise ValueError("exp needs a series with no q^0 part")
        # Horner form of sum A^j / j!
        out = TruncatedSeries.constant(1, self.nblocks, self.q_cap)
        for j in range(self.q_cap, 0, -1):
            out = TruncatedSeries.constant(1, self.nblocks, self.q_cap) + \
                (self * out).scale(Fraction(1, j))
        return out

    def log(self) -> "TruncatedSeries":
        one = TruncatedSeries.constant(1, self.nblocks, self.q_cap)
        v = self - one
        if v.min_q_degree() == 0:
            raise ValueError("log needs constant term exactly 1")
        # Horner form of sum (-1)^{j+1} v^j / j
        out = TruncatedSeries.zero(self.nblocks, self.q_cap)
        for j in range(self.q_cap, 0, -1):
            out = TruncatedSeries.constant(Fraction(1, j), self.nblocks, self.q_cap) - v * out
        return v * out

    def inverse(self) -> "TruncatedSeries":
        c0 = self.coefficient(0)
        head = self.q_layer(0)
        if set(head) - {(0,) * self.nblocks}:
            raise ValueError("inverse needs a constant q^0 part")
        if not c0:
            raise ValueError("inverse needs a nonzero constant term")
        v = self.scale(Fraction(1, c0)) - TruncatedSeries.constant(1, self.nblocks, self.q_cap)
        out = TruncatedSeries.constant(1, self.nblocks, self.q_cap)
        for _ in range(self.q_cap):
            out = TruncatedSeries.constant(1, self.nblocks, self.q_cap) - v * out
        return out.scale(Fraction(1, c0))

    def __eq__(self, other) -> bool:
        return (isinstance(other, TruncatedSeries)
                and self.nblocks == other.nblocks
                and self.q_cap == other.q_cap
                and self.terms == other.terms)

    def __repr__(self) -> str:
        return (f"TruncatedSeries(nblocks={self.nblocks}, q_cap={self.q_cap}, "
                f"terms={len(self.terms)})")

    def to_json(self) -> dict:
        items = sorted(self.terms.items())
        return {
            "nblocks": self.nblocks,
            "q_cap": self.q_cap,
            "terms": [[d, list(exps), str(c)] for (d, exps), c in items],
        }

    @classmethod
    def from_json(cls, data: dict) -> "TruncatedSeries":
        terms = {(d, tuple(exps)): Fraction(c) for d, exps, c in data["terms"]}
        return cls(data["nblocks"], data["q_cap"], terms)


def substitute(series: TruncatedSeries, q_shift: TruncatedSeries,
               blocks: list[TruncatedSeries]) -> TruncatedSeries:
    """Evaluate series(x) on x^1 = t^1 + A(t), x^a = blocks[a](t).

    q_shift is A, so q_x^d becomes q_t^d exp(A)^d; blocks[a] is the full
    substituted series for the a-th block variable, linear term included.
    """
    if len(blocks) != series.nblocks:
        raise ValueError("need one block series per block variable")
    nblocks, q_cap = series.nblocks, series.q_cap
    for s in (q_shift, *blocks):
        if s.nblocks != nblocks or s.q_cap != q_cap:
            raise ValueError("series shapes differ")
    exp_shift = q_shift.exp()
    exp_pows = [TruncatedSeries.constant(1, nblocks, q_cap)]
    block_pows: list[dict[int, TruncatedSeries]] = [
        {0: TruncatedSeries.constant(1, nblocks, q_cap)} for _ in blocks]

    def bpow(a: int, e: int) -> TruncatedSeries:
        cache = block_pows[a]
        if e not in cache:
            cache[e] = bpow(a, e - 1) * blocks[a]
        return cache[e]

    out = TruncatedSeries.zero(nblocks, q_cap)
    for (d, exps), c in sorted(series.terms.items()):
        while len(exp_pows) <= d:
            exp_pows.append(exp_pows[-1] * exp_shift)
        term = TruncatedSeries.q_power(d, nblocks, q_cap) * exp_pows[d]
        for a, e in enumerate(exps):
            if e:
                term = term * bpow(a, e)
        out = out + term.scale(c)
    return out

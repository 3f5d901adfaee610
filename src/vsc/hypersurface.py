"""Degree-k hypersurfaces in CP^{N-1}: parameters, Chern data, selection rules."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod

__all__ = ["Hypersurface", "Ins", "InsT", "ins_key", "ins_weight", "ins_factorial",
           "parse_insertions", "format_insertions"]

# An insertion multiset {p: m_p} at the edges (arguments, parsed text, table
# rows); inside the engine always its canonical tuple, the one ins_key returns.
Ins = dict[int, int]
InsT = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Hypersurface:
    """M_N^k, a degree-k hypersurface in CP^{N-1}; Fano for k < N, Calabi-Yau for k = N."""

    N: int
    k: int

    def __post_init__(self):
        if self.N < 3:
            raise ValueError("need N >= 3")
        if not 1 <= self.k <= self.N:
            raise ValueError("need 1 <= k <= N")

    def chern_coeff(self, j: int) -> int:
        """Coefficient of h^j in c(T') = (1+h)^N / (1+kh)."""
        return sum(comb(self.N, j - i) * (-self.k) ** i for i in range(j + 1))

    def top_chern_coeff(self) -> int:
        """c_T(z) = top_chern_coeff * z^{N-2} is the top Chern class polynomial."""
        return self.chern_coeff(self.N - 2)

    def euler_characteristic(self) -> int:
        return self.k * self.top_chern_coeff()

    def genus1_linear_coeff(self) -> int:
        """Coefficient L in the universal genus-1 linear term -(1/24) L x^1."""
        return self.k * self.chern_coeff(self.N - 3)

    def split_insertions(self, d: int, ins: Ins | None) -> tuple[Fraction, InsT]:
        """(factor of the p <= 1 insertions, the key of the p >= 2 ones) of a degree-d constant.

        Zero counts are dropped, no count may be negative, and every power
        must lie in 0..N-2.  A p = 0 insertion makes the factor 0; each p = 1
        insertion multiplies it by d.
        """
        ins = {p: m for p, m in (ins or {}).items() if m}
        if any(m < 0 for m in ins.values()):
            raise ValueError("insertion counts must be >= 0")
        if any(p < 0 or p > self.N - 2 for p in ins):
            raise ValueError("insertion powers must lie in 0..N-2")
        return (Fraction(0) if ins.pop(0, 0) else Fraction(d) ** ins.pop(1, 0)), ins_key(ins)

    # -- selection rules: the weight sum_p (p-1) m_p a degree-d constant needs --

    def genus0_weight(self, d: int, a: int, b: int) -> int:
        """The weight of w(O_{h^a} O_{h^b} | ins)_{0,d}: N - 3 - a - b + (N-k) d."""
        return self.N - 3 - a - b + self.genus1_weight(d)

    def genus1_weight(self, d: int) -> int:
        """The weight of w(ins)_{1,d}: (N-k) d."""
        return (self.N - self.k) * d

    def genus0_selection(self, d: int, a: int, b: int, ins: InsT) -> bool:
        return ins_weight(ins) == self.genus0_weight(d, a, b)

    def genus1_selection(self, d: int, ins: InsT) -> bool:
        return ins_weight(ins) == self.genus1_weight(d)


def ins_key(ins: Ins | None) -> InsT:
    """Canonical hashable form of an insertion multiset, zero counts dropped."""
    return tuple(sorted((p, m) for p, m in (ins or {}).items() if m))


def ins_weight(ins: InsT) -> int:
    """Total weight sum_p (p-1) m_p entering the selection rules."""
    return sum((p - 1) * m for p, m in ins)


def ins_factorial(ins: InsT) -> int:
    """prod_p m_p!, the symmetry factor of an insertion multiset."""
    return prod(factorial(m) for _, m in ins)


def parse_insertions(text: str) -> Ins:
    """Parse "p:m,p:m" into {p: m}."""
    out: Ins = {}
    if not text.strip():
        return out
    for part in text.split(","):
        p_str, _, m_str = part.partition(":")
        try:
            p, m = int(p_str), int(m_str)
        except ValueError:
            raise ValueError(f"bad insertion {part!r}, expected p:m") from None
        if p < 0 or m < 0:
            raise ValueError(f"bad insertion {part!r}, need p, m >= 0")
        if m:
            out[p] = out.get(p, 0) + m
    return out


def format_insertions(ins: InsT) -> str:
    """The text "p:m,p:m" of a key, as parse_insertions reads it."""
    return ",".join(f"{p}:{m}" for p, m in ins)


def fraction_str(x: Fraction) -> str:
    """num/den with the denominator omitted when it is 1."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

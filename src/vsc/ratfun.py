"""Rational expressions with factored denominators and exact residues.

A ``RatExpr`` is ``num / prod_i f_i^{e_i}``.  The denominator stays a list of
``(factor, multiplicity)`` pairs and is never expanded.  Residues are taken at
points where every vanishing factor is linear in the pole variable; for a pole
of order m the residue equals

    (1/(m-1)!) d^{m-1}/dv^{m-1} [ (v - root)^m f ] at v = root .

It is computed here through the truncated expansion in eps = v - root: writing
f = P(eps) / (eps^m Q(eps)) with Q(0) = c0 not identically zero,

    Res = [ sum_{j<m} P_{m-1-j} u_j c0^{m-1-j} ] / c0^m ,
    u_0 = 1 ,  u_j = - sum_{i=1}^{j} Q_i u_{j-i} c0^{i-1} ,

so every intermediate stays polynomial and the denominator stays factored.
Overcounted denominator powers are cancelled afterwards by exact division.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .poly import SparsePoly

__all__ = ["RatExpr", "NonLinearPoleError"]

_ONE = Fraction(1)


class NonLinearPoleError(ValueError):
    """A denominator factor vanishing at the requested point is not linear."""


def _canonical_factor(f: SparsePoly) -> tuple[SparsePoly, Fraction]:
    """Scale f to coprime integer coefficients with positive leading sign.

    Returns (f_norm, lam) with f_norm = lam * f, so that identical factors
    produced along different substitution chains compare equal.
    """
    nums = [c.numerator for c in f.terms.values()]
    dens = [c.denominator for c in f.terms.values()]
    lam = Fraction(lcm(*dens) if len(dens) > 1 else dens[0],
                   gcd(*nums) if len(nums) > 1 else abs(nums[0]))
    lead = f.terms[min(f.terms)]
    if lead < 0:
        lam = -lam
    return f.scale(lam), lam


def _eps_mul(a: list[SparsePoly], b: list[SparsePoly], m: int) -> list[SparsePoly]:
    n = a[0].nvars
    out = [SparsePoly.zero(n) for _ in range(min(m, len(a) + len(b) - 1))]
    for i, ai in enumerate(a):
        if ai.is_zero():
            continue
        for j, bj in enumerate(b):
            if i + j >= m:
                break
            if bj.is_zero():
                continue
            out[i + j] = out[i + j] + ai * bj
    return out

def _eps_pow(base: list[SparsePoly], e: int, m: int) -> list[SparsePoly]:
    n = base[0].nvars
    result = [SparsePoly.constant(1, n)]
    while e:
        if e & 1:
            result = _eps_mul(result, base, m)
        e >>= 1
        if e:
            base = _eps_mul(base, base, m)
    return result


class RatExpr:
    __slots__ = ("num", "den")

    def __init__(self, num: SparsePoly, den: tuple | list = ()):
        merged: dict[tuple, list] = {}
        scale = _ONE
        for f, e in den:
            if e < 0:
                raise ValueError("negative denominator multiplicity")
            if e == 0:
                continue
            if f.is_zero():
                raise ZeroDivisionError("denominator factor is identically zero")
            if f.is_constant():
                scale /= f.constant_value() ** e
                continue
            fn, lam = _canonical_factor(f)
            scale *= lam ** e
            k = fn.key()
            if k in merged:
                merged[k][1] += e
            else:
                merged[k] = [fn, e]
        self.num = num.scale(scale) if scale != 1 else num
        self.den: tuple[tuple[SparsePoly, int], ...]
        if self.num.is_zero():
            self.den = ()
        else:
            self.den = tuple((f, e) for f, e in merged.values())

    @classmethod
    def zero(cls, nvars: int) -> RatExpr:
        return cls(SparsePoly.zero(nvars))

    @property
    def nvars(self) -> int:
        return self.num.nvars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __mul__(self, other) -> RatExpr:
        if isinstance(other, RatExpr):
            return RatExpr(self.num * other.num, self.den + other.den)
        if isinstance(other, (int, Fraction)):
            return RatExpr(self.num.scale(other), self.den)
        if isinstance(other, SparsePoly):
            return RatExpr(self.num * other, self.den)
        return NotImplemented

    __rmul__ = __mul__

    # -- substitution and residue ---------------------------------------------

    def substitute(self, v: int, value: SparsePoly) -> RatExpr:
        """Substitute v -> value; a denominator factor must not vanish identically."""
        den = []
        for f, e in self.den:
            fs = f.substitute(v, value)
            if fs.is_zero():
                raise ZeroDivisionError(
                    "substitution makes a denominator factor vanish identically")
            den.append((fs, e))
        return RatExpr(self.num.substitute(v, value), den)

    def residue_at(self, v: int, root: SparsePoly) -> RatExpr:
        """Residue in v at v = root; zero when no denominator factor vanishes."""
        n = self.nvars
        if root.degree_in(v) > 0:
            raise ValueError("root involves the pole variable")
        m = 0
        keep: list[tuple[SparsePoly, int]] = []
        expand: list[tuple[SparsePoly, int, SparsePoly]] = []
        scale = _ONE
        for f, e in self.den:
            if f.degree_in(v) <= 0:
                keep.append((f, e))
                continue
            f_at = f.substitute(v, root)
            if f_at.is_zero():
                if f.degree_in(v) != 1:
                    raise NonLinearPoleError(
                        f"vanishing denominator factor {f!r} is nonlinear in x{v}")
                alpha = f.derivative(v)
                m += e
                if alpha.is_constant():
                    scale /= alpha.constant_value() ** e
                else:
                    keep.append((alpha, e))
            else:
                expand.append((f, e, f_at))
        if m == 0:
            return RatExpr.zero(n)
        P = self.num.shift_eps(v, root, m)
        Q = [SparsePoly.constant(1, n)]
        for f, e, _ in expand:
            Q = _eps_mul(Q, _eps_pow(f.shift_eps(v, root, m), e, m), m)
        while len(Q) < m:
            Q.append(SparsePoly.zero(n))
        c0 = Q[0]
        c0_pow: dict[int, SparsePoly] = {0: SparsePoly.constant(1, n)}

        def cp(k: int) -> SparsePoly:
            p = c0_pow.get(k)
            if p is None:
                p = cp(k - 1) * c0
                c0_pow[k] = p
            return p

        u = [SparsePoly.constant(1, n)]
        for j in range(1, m):
            s = SparsePoly.zero(n)
            for i in range(1, j + 1):
                if Q[i].is_zero() or u[j - i].is_zero():
                    continue
                s = s + Q[i] * u[j - i] * cp(i - 1)
            u.append(-s)
        R = SparsePoly.zero(n)
        for j in range(m):
            if P[m - 1 - j].is_zero() or u[j].is_zero():
                continue
            R = R + P[m - 1 - j] * u[j] * cp(m - 1 - j)
        if R.is_zero():
            return RatExpr.zero(n)
        den = keep + [(f_at, e * m) for _, e, f_at in expand]
        return RatExpr(R.scale(scale), den).reduce()

    # -- normalization and extraction -----------------------------------------

    def reduce(self) -> RatExpr:
        """Cancel denominator factors of total degree 1 that divide the numerator."""
        num = self.num
        if num.is_zero():
            return RatExpr.zero(self.nvars)
        den = []
        for f, e in self.den:
            if f.total_degree() == 1:
                while e:
                    q = num.divide_exact_linear(f)
                    if q is None:
                        break
                    num = q
                    e -= 1
            if e:
                den.append((f, e))
        return RatExpr(num, den)

    def homogeneous_degree(self) -> int:
        """Degree of a homogeneous expression; raises if any part is inhomogeneous."""
        d = self.num.homogeneous_degree()
        for f, e in self.den:
            d -= e * f.homogeneous_degree()
        return d

    def as_fraction(self) -> Fraction:
        r = self if not self.den else self.reduce()
        if r.den:
            raise ValueError("expression is not a constant")
        return r.num.constant_value()

    def __repr__(self) -> str:
        if not self.den:
            return f"({self.num!r})"
        ds = " * ".join(f"({f!r})^{e}" if e > 1 else f"({f!r})" for f, e in self.den)
        return f"({self.num!r}) / [{ds}]"

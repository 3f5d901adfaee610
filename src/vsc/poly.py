"""Sparse multivariate polynomials over the rationals.

A polynomial in ``nvars`` variables is stored as a dict mapping exponent
tuples of length ``nvars`` to nonzero ``Fraction`` coefficients.  The zero
polynomial has an empty dict.  All arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

__all__ = ["SparsePoly", "linear_form"]

Exponents = tuple[int, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class SparsePoly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[Exponents, Fraction] | None = None):
        self.nvars = nvars
        self.terms: dict[Exponents, Fraction] = {}
        if terms:
            for e, c in terms.items():
                if len(e) != nvars:
                    raise ValueError(f"exponent tuple {e} does not match nvars={nvars}")
                c = Fraction(c)
                if c:
                    self.terms[e] = c

    @classmethod
    def _raw(cls, nvars: int, terms: dict[Exponents, Fraction]) -> SparsePoly:
        # internal fast path: trusts that terms are well-formed and zero-free
        p = cls.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    @classmethod
    def zero(cls, nvars: int) -> SparsePoly:
        return cls._raw(nvars, {})

    @classmethod
    def constant(cls, c, nvars: int) -> SparsePoly:
        c = Fraction(c)
        if not c:
            return cls._raw(nvars, {})
        return cls._raw(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, i: int, nvars: int) -> SparsePoly:
        e = [0] * nvars
        e[i] = 1
        return cls._raw(nvars, {tuple(e): _ONE})

    # -- predicates and views -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return _ZERO
        if len(self.terms) == 1:
            e, c = next(iter(self.terms.items()))
            if not any(e):
                return c
        raise ValueError("polynomial is not constant")

    def degree_in(self, v: int) -> int:
        # degree of the zero polynomial is reported as -1
        return max((e[v] for e in self.terms), default=-1)

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def homogeneous_degree(self) -> int:
        """Total degree if homogeneous (zero counts as any degree), else raises."""
        degs = {sum(e) for e in self.terms}
        if len(degs) > 1:
            raise ValueError(f"polynomial is not homogeneous: degrees {sorted(degs)}")
        return degs.pop() if degs else 0

    def coeff(self, exps: Exponents) -> Fraction:
        return self.terms.get(tuple(exps), _ZERO)

    def key(self) -> tuple:
        """Hashable canonical form, used to merge identical denominator factors."""
        return tuple(sorted(self.terms.items()))

    # -- arithmetic -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, SparsePoly):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == SparsePoly.constant(other, self.nvars)
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, self.key()))

    def __neg__(self) -> SparsePoly:
        return SparsePoly._raw(self.nvars, {e: -c for e, c in self.terms.items()})

    def __add__(self, other) -> SparsePoly:
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.constant(other, self.nvars)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, _ZERO) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return SparsePoly._raw(self.nvars, out)

    __radd__ = __add__

    def __sub__(self, other) -> SparsePoly:
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.constant(other, self.nvars)
        return self + (-other)

    def __rsub__(self, other) -> SparsePoly:
        return (-self) + other

    def scale(self, c) -> SparsePoly:
        c = Fraction(c)
        if not c:
            return SparsePoly.zero(self.nvars)
        return SparsePoly._raw(self.nvars, {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other) -> SparsePoly:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[Exponents, Fraction] = {}
        get = out.get
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                s = get(e, _ZERO) + ca * cb
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return SparsePoly._raw(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> SparsePoly:
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = SparsePoly.constant(1, self.nvars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    # -- calculus and substitution -------------------------------------------

    def derivative(self, v: int) -> SparsePoly:
        out: dict[Exponents, Fraction] = {}
        for e, c in self.terms.items():
            k = e[v]
            if k:
                e2 = e[:v] + (k - 1,) + e[v + 1:]
                out[e2] = out.get(e2, _ZERO) + k * c
        return SparsePoly._raw(self.nvars, {e: c for e, c in out.items() if c})

    def subst_zero(self, v: int) -> SparsePoly:
        return SparsePoly._raw(self.nvars, {e: c for e, c in self.terms.items() if not e[v]})

    def substitute(self, v: int, value: SparsePoly) -> SparsePoly:
        """Replace variable ``v`` by ``value``; ``value`` must not involve ``v``."""
        if value.degree_in(v) > 0:
            raise ValueError("substitution value involves the substituted variable")
        if value.is_zero():
            return self.subst_zero(v)
        powers: dict[int, SparsePoly] = {0: SparsePoly.constant(1, self.nvars)}

        def pw(k: int) -> SparsePoly:
            p = powers.get(k)
            if p is None:
                p = pw(k - 1) * value
                powers[k] = p
            return p

        out = SparsePoly.zero(self.nvars)
        for e, c in self.terms.items():
            k = e[v]
            base = SparsePoly._raw(self.nvars, {e[:v] + (0,) + e[v + 1:]: c})
            out = out + (base * pw(k) if k else base)
        return out

    def shift_eps(self, v: int, root: SparsePoly, m: int) -> list[SparsePoly]:
        """Coefficients of eps^0 .. eps^{m-1} in self(v -> root + eps).

        The returned polynomials do not involve ``v``; ``root`` must not either.
        """
        if root.degree_in(v) > 0:
            raise ValueError("root involves the pole variable")
        n = self.nvars
        out: list[dict[Exponents, Fraction]] = [{} for _ in range(m)]
        if root.is_zero():
            for e, c in self.terms.items():
                k = e[v]
                if k < m:
                    e2 = e[:v] + (0,) + e[v + 1:]
                    d = out[k]
                    d[e2] = d.get(e2, _ZERO) + c
        else:
            powers: dict[int, SparsePoly] = {0: SparsePoly.constant(1, n)}

            def pw(k: int) -> SparsePoly:
                p = powers.get(k)
                if p is None:
                    p = pw(k - 1) * root
                    powers[k] = p
                return p

            for e, c in self.terms.items():
                k = e[v]
                base = e[:v] + (0,) + e[v + 1:]
                for i in range(min(k, m - 1) + 1):
                    coef = comb(k, i) * c
                    d = out[i]
                    for er, cr in pw(k - i).terms.items():
                        e2 = tuple(x + y for x, y in zip(base, er))
                        s = d.get(e2, _ZERO) + coef * cr
                        if s:
                            d[e2] = s
                        else:
                            d.pop(e2, None)
        return [SparsePoly._raw(n, {e: c for e, c in d.items() if c}) for d in out]

    # -- division by a linear factor ------------------------------------------

    def divide_exact_linear(self, form: SparsePoly) -> SparsePoly | None:
        """Exact quotient self / form for a polynomial of total degree 1, else None."""
        if form.total_degree() != 1:
            raise ValueError("divisor must have total degree 1")
        n = self.nvars
        if self.is_zero():
            return self
        # fast path: monomial divisor c * x_v
        if len(form.terms) == 1:
            (e0, c0), = form.terms.items()
            v = e0.index(1)
            out: dict[Exponents, Fraction] = {}
            for e, c in self.terms.items():
                if not e[v]:
                    return None
                out[e[:v] + (e[v] - 1,) + e[v + 1:]] = c / c0
            return SparsePoly._raw(n, out)
        # general case: synthetic division in a pivot variable
        pivot = -1
        cv = _ZERO
        for e, c in form.terms.items():
            if sum(e) == 1:
                i = e.index(1)
                if i > pivot:
                    pivot, cv = i, c
        tail = form - SparsePoly._raw(n, {(0,) * pivot + (1,) + (0,) * (n - pivot - 1): cv})
        by_deg: dict[int, SparsePoly] = {}
        for e, c in self.terms.items():
            k = e[pivot]
            e2 = e[:pivot] + (0,) + e[pivot + 1:]
            d = by_deg.setdefault(k, SparsePoly.zero(n))
            by_deg[k] = d + SparsePoly._raw(n, {e2: c})
        top = max(by_deg)
        quot: dict[Exponents, Fraction] = {}
        for j in range(top, 0, -1):
            nj = by_deg.pop(j, SparsePoly.zero(n))
            if nj.is_zero():
                continue
            g = nj.scale(1 / cv)
            for e, c in g.terms.items():
                e2 = e[:pivot] + (j - 1,) + e[pivot + 1:]
                quot[e2] = quot.get(e2, _ZERO) + c
            lower = by_deg.get(j - 1, SparsePoly.zero(n))
            by_deg[j - 1] = lower - g * tail
        rem = by_deg.get(0, SparsePoly.zero(n))
        if not rem.is_zero():
            return None
        return SparsePoly._raw(n, {e: c for e, c in quot.items() if c})

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(
                f"x{i}" if k == 1 else f"x{i}^{k}" for i, k in enumerate(e) if k
            )
            parts.append(f"{c}" if not mono else (f"{c}*{mono}" if c != 1 else mono))
        return " + ".join(parts)


def linear_form(coeffs: dict[int, Fraction | int], nvars: int) -> SparsePoly:
    """Homogeneous linear form sum_i coeffs[i] * x_i."""
    terms: dict[Exponents, Fraction] = {}
    for i, c in coeffs.items():
        c = Fraction(c)
        if c:
            e = [0] * nvars
            e[i] = 1
            terms[tuple(e)] = c
    return SparsePoly._raw(nvars, terms)

"""Rational expressions with factored denominators and exact residues.

A ``RatExpr`` is ``num / prod_i f_i^{e_i}``.  The denominator stays a list of
``(factor, multiplicity)`` pairs and is never expanded.

Every denominator factor that involves the pole variable v must be linear
in it.  That holds for every integrand of the residue chains: the vertex
factors z_i (to the power N+1), the midpoint factors 2 z_i - z_{i-1} -
z_{i+1}, the tail factors z_first - z_core and the contracted factor
w - z_core are linear forms.  Each root is solved from a linear form, so it
is linear too, and substituting it keeps every factor linear.  At v = root +
eps a factor therefore reads c + a eps, with c = f(root) and a its x_v
coefficient: its value and slope, which ``SparsePoly.linear_at`` reads off
without an eps-series.  The factors with c = 0 make the pole; its order m is
the sum of their multiplicities.  Each other factor enters by the binomial
series

    (c + a eps)^(-e) = sum_j (-1)^j C(e+j-1, j) a^j c^(-e-j) eps^j ,

whose j-th coefficient over the common denominator c^(e+m-1) is the
polynomial (-1)^j C(e+j-1, j) a^j c^(m-1-j).  With S the product of these
series truncated at eps^m, and P_j the coefficients of the numerator at
root + eps,

    Res = sum_{j<m} P_{m-1-j} S_j / ( prod a_0^{e_0} prod c^(e+m-1) ) ,

where a_0 runs over the x_v coefficients of the vanishing factors; the
factors free of v stay in the denominator as they were.  Every intermediate
stays polynomial, an eps-series of ``poly`` (integer term dicts with one
scalar): a residue normalizes only R = sum_j P_{m-1-j} S_j, summed in one dict.

The pole is taken at its true order.  If P = eps^i P' (P_0 .. P_{i-1} zero),
the formula reads off the eps^{m-1-i} coefficient of P' / prod (c + a eps)^e,
the same residue at order m - i, so ``residue_at`` drops those zeros first,
truncates S at the true order and gives each c the order e + m - i - 1; a
numerator vanishing to order m or more gives 0.  So a common factor of
numerator and denominator never changes a residue, and nothing in a residue
chain divides: integrands enter it as built and every residue leaves it as
computed.  A chain takes no residue at its last step: there the expression
is c x_v^(E-1) / x_v^E, and ``chain`` reads c off.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import SparsePoly, eps_coefficient, eps_line, eps_mul

__all__ = ["RatExpr", "NonLinearPoleError"]

_ONE = Fraction(1)


class NonLinearPoleError(ValueError):
    """A denominator factor is not linear in the pole variable of a residue."""


def _normalized(den) -> tuple[Fraction, tuple[tuple[SparsePoly, int], ...]]:
    """(scale, factors): 1 / prod f^e over den is scale / prod over factors,
    with constants folded into scale and primitive parts merged."""
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
        # the primitive part with a positive leading term is canonical, so
        # identical factors from different substitution chains merge on terms
        if f.content != 1:
            scale /= f.content ** e
            f = f.primitive()[1]
        k = frozenset(f.terms.items())
        if k in merged:
            merged[k][1] += e
        else:
            merged[k] = [f, e]
    return scale, tuple((f, e) for f, e in merged.values())


class RatExpr:
    __slots__ = ("num", "den")

    def __init__(self, num: SparsePoly, den: tuple | list = ()):
        scale, den = _normalized(den)
        self.num = num.scale(scale) if scale != 1 else num
        self.den = () if self.num.is_zero() else den

    @classmethod
    def zero(cls, nvars: int) -> RatExpr:
        return cls(SparsePoly.zero(nvars))

    @property
    def nvars(self) -> int:
        return self.num.nvars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    # -- residue --------------------------------------------------------------

    def residue_at(self, v: int, root: SparsePoly, side: dict | None = None) -> RatExpr:
        """Residue in v at v = root; zero when no denominator factor vanishes.

        side keeps what the denominator and root alone decide, for the other
        numerators over them at one branch of a chain: side[0] the pole order,
        the factors that stay and the (c, a, e) of the others; side[m] S, the
        result's normalized denominator, and S's scalar times the constant that
        normalizing folds out.
        Raises NonLinearPoleError for a factor of degree above 1 in v.
        """
        n = self.nvars
        if root.degree_in(v) > 0:
            raise ValueError("root involves the pole variable")
        side = {} if side is None else side
        if 0 not in side:
            m = 0
            den: list[tuple[SparsePoly, int]] = []
            lines: list[tuple[SparsePoly, SparsePoly, int]] = []
            for f, e in self.den:
                deg = f.degree_in(v)
                if deg <= 0:
                    den.append((f, e))
                    continue
                if deg > 1:
                    raise NonLinearPoleError(f"denominator factor {f!r} is nonlinear in x{v}")
                c, a = f.linear_at(v, root)
                if c.is_zero():
                    m += e
                    den.append((a, e))
                else:
                    lines.append((c, a, e))
            side[0] = m, den, lines
        m, den, lines = side[0]
        if m == 0:
            return RatExpr.zero(n)
        # the true order: drop the numerator's leading zero orders in eps
        content, P = self.num.shift_eps(v, root, m)
        i0 = next((i for i, p in enumerate(P) if p), None)
        if i0 is None:
            return RatExpr.zero(n)
        P, m = P[i0:], m - i0
        if m not in side:
            scale, S = _ONE, [{0: 1}]
            for c, a, e in lines:
                s, series = eps_line(c, a, e, m)
                scale, S = scale * s, eps_mul(S, series, range(m), n)
            fold, top = _normalized(den + [(c, e + m - 1) for c, _, e in lines])
            side[m] = scale * fold, S, top
        scale, S, top = side[m]
        R = eps_coefficient(P, S, m - 1, content * scale, n)
        if R.is_zero():
            return RatExpr.zero(n)
        res = RatExpr.__new__(RatExpr)  # top is already normalized
        res.num, res.den = R, top
        return res

    # -- normalization and extraction -----------------------------------------

    def reduce(self) -> RatExpr:
        """Cancel denominator factors of total degree 1 that divide the numerator.

        The residue chain never divides; the tests' oracles call it, and
        perfbench/tracer.py wraps it.
        """
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
                    e -= 1
                    num = q
            if e:
                den.append((f, e))
        return RatExpr(num, den)

    def homogeneous_degree(self) -> int:
        """Degree of a homogeneous expression; raises if any part is inhomogeneous."""
        d = self.num.homogeneous_degree()
        for f, e in self.den:
            d -= e * f.homogeneous_degree()
        return d

    def __repr__(self) -> str:
        if not self.den:
            return f"({self.num!r})"
        ds = " * ".join(f"({f!r})^{e}" if e > 1 else f"({f!r})" for f, e in self.den)
        return f"({self.num!r}) / [{ds}]"

"""Slow reference implementations the tests check the engines against."""

from fractions import Fraction

from vsc.chain import residue_chain
from vsc.genus0 import _integrand
from vsc.hypersurface import Hypersurface, ins_key
from vsc.poly import SparsePoly
from vsc.ratfun import RatExpr


def derivative(f: RatExpr, v: int) -> RatExpr:
    """d/dv of f by the quotient rule, denominator kept factored."""
    vfac = [(g, e) for g, e in f.den if g.degree_in(v) > 0]
    rest = [(g, e) for g, e in f.den if g.degree_in(v) <= 0]
    dnum = f.num.derivative(v)
    if not vfac:
        return RatExpr(dnum, f.den)
    n = f.nvars
    prod_all = SparsePoly.constant(1, n)
    for g, _ in vfac:
        prod_all = prod_all * g
    s = SparsePoly.zero(n)
    for i, (g, e) in enumerate(vfac):
        part = g.derivative(v).scale(e)
        for j, (h, _) in enumerate(vfac):
            if j != i:
                part = part * h
        s = s + part
    new_num = dnum * prod_all - f.num * s
    new_den = rest + [(g, e + 1) for g, e in vfac]
    return RatExpr(new_num, new_den).reduce()


def expanded_den(f: RatExpr) -> SparsePoly:
    out = SparsePoly.constant(1, f.nvars)
    for g, e in f.den:
        out = out * g ** e
    return out


def equals(f: RatExpr, g: RatExpr) -> bool:
    """f == g as rational functions, by cross-multiplying expanded denominators."""
    return f.num * expanded_den(g) == g.num * expanded_den(f)


def genus0_direct(N: int, k: int, d: int, a: int, b: int,
                  ins: dict[int, int] | None = None) -> Fraction:
    """Literal evaluation with p = 0, 1 insertions fed into the integrand.

    Validates the analytic handling of those insertions in genus0_constant;
    no selection-rule shortcut either.
    """
    Hypersurface(N, k)
    if d < 1:
        raise ValueError("need d >= 1")
    f, designated = _integrand(N, k, d, a, b, ins_key(ins))
    steps = [(0, "zero")] + [(i, "both") for i in range(1, d)] + [(d, "zero")]
    return residue_chain(f, steps, designated)

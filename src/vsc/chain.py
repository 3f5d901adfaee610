"""Iterated-residue driver.

Variables are eliminated one at a time.  A step is (variable, form): with
form None the residue is taken at 0 only; otherwise form is the variable's
designated denominator factor, a linear form in the original coordinates,
and the residue is taken at 0 and at the root of that factor as it looks
after all preceding substitutions.  Integrand builders hand every chain its
steps together with the integrand (genus0.integrand).

Pole order at each point is whatever the vanishing denominator factors say,
so a designated factor that merged with others or drifted onto 0 is still
counted exactly once.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import SparsePoly
from .ratfun import RatExpr

__all__ = ["residue_chain", "root_in_var"]


def root_in_var(form: SparsePoly, v: int) -> SparsePoly | None:
    """Root of a form linear in x_v, solved for x_v; None when x_v is absent."""
    if form.is_zero() or form.degree_in(v) <= 0:
        return None
    if form.degree_in(v) > 1:
        raise ValueError(f"designated factor {form!r} is nonlinear in x{v}")
    at_zero, cv = form.shift_eps(v, SparsePoly.zero(form.nvars), 2)
    if not cv.is_constant():
        raise ValueError(f"designated factor {form!r} has nonconstant x{v} coefficient")
    return at_zero.scale(Fraction(-1) / cv.constant_value())


def residue_chain(f: RatExpr, steps: list[tuple[int, SparsePoly | None]], *,
                  stats: dict | None = None) -> Fraction:
    """Sum of iterated residues over all admissible pole branches.

    steps: (variable, form) in elimination order.  The pending forms of the
    steps still to come are evolved through every substitution as the chain
    descends.  Homogeneity is checked at entry (a chain of s residues turns
    an integrand of degree -s into a constant) and after each residue (each
    step raises the degree by exactly one).
    """
    if f.is_zero():
        return Fraction(0)
    deg = f.homogeneous_degree()
    if deg != -len(steps):
        raise RuntimeError(f"integrand has homogeneous degree {deg}, "
                           f"not minus its {len(steps)} residue steps")

    def walk(g: RatExpr, pos: int, pending: list[SparsePoly | None], deg: int) -> Fraction:
        # pending[i] is the evolved form of steps[pos + i]
        if pos == len(steps):
            if stats is not None:
                stats["leaves"] = stats.get("leaves", 0) + 1
            return g.as_fraction()
        v = steps[pos][0]
        roots = [SparsePoly.zero(g.nvars)]
        if pending[0] is not None:
            root = root_in_var(pending[0], v)
            if root is not None and not root.is_zero():
                roots.append(root)
        total = Fraction(0)
        for root in roots:
            res = g.residue_at(v, root)
            if res.is_zero():
                if stats is not None:
                    stats["pruned"] = stats.get("pruned", 0) + 1
                continue
            if res.homogeneous_degree() != deg + 1:
                raise RuntimeError("residue must raise the homogeneous degree by 1")
            evolved = [p if p is None else p.substitute(v, root) for p in pending[1:]]
            total += walk(res, pos + 1, evolved, deg + 1)
        return total

    return walk(f, 0, [form for _, form in steps], deg)

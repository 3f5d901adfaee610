"""Iterated-residue driver.

Variables are eliminated one at a time.  A step is (variable, mode):

  "zero"  residue at 0 only;
  "both"  residues at 0 and at the root of the variable's designated
          denominator factor, as that factor looks after all preceding
          substitutions;
  "root"  residue at the designated root only (no pole at 0 is taken).

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
    cv = form.derivative(v)
    if not cv.is_constant():
        raise ValueError(f"designated factor {form!r} has nonconstant x{v} coefficient")
    c = cv.constant_value()
    return (form.subst_zero(v)).scale(Fraction(-1) / c)


def residue_chain(
    f: RatExpr,
    steps: list[tuple[int, str]],
    designated: dict[int, SparsePoly],
    stats: dict | None = None,
) -> Fraction:
    """Sum of iterated residues over all admissible pole branches.

    steps: (variable, mode) in elimination order, mode one of "zero", "both",
    "root".  designated maps a variable to its designated denominator factor
    in the original coordinates; factors are evolved through every
    substitution as the chain descends.  Homogeneity is checked after each
    residue (each step raises the degree of a homogeneous expression by
    exactly one).
    """
    if f.is_zero():
        return Fraction(0)
    deg = f.homogeneous_degree()

    def walk(g: RatExpr, pos: int, pending: dict[int, SparsePoly], deg: int) -> Fraction:
        if pos == len(steps):
            if stats is not None:
                stats["leaves"] = stats.get("leaves", 0) + 1
            return g.as_fraction()
        v, mode = steps[pos]
        roots = [] if mode == "root" else [SparsePoly.zero(g.nvars)]
        if mode in ("both", "root"):
            form = pending.get(v)
            if form is not None:
                root = root_in_var(form, v)
                if root is not None and (mode == "root" or not root.is_zero()):
                    if not any(root == r for r in roots):
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
            evolved = {u: p.substitute(v, root) for u, p in pending.items() if u != v}
            total += walk(res, pos + 1, evolved, deg + 1)
        return total

    return walk(f, 0, dict(designated), deg)

"""Iterated-residue driver.

Variables are eliminated one at a time.  A step is (variable, form): with
form None the residue is taken at 0 only; otherwise form is the variable's
designated denominator factor, a linear form in the original coordinates,
and the residue is taken at 0 and at the root of that factor as it looks
after all preceding substitutions.  Integrand builders hand every chain its
steps together with the integrand (genus0.integrand).

Pole order at each point is whatever the vanishing denominator factors say,
so a designated factor that merged with others or drifted onto 0 is still
counted exactly once.  One chain walks every integrand of a layout, one per
insertion set, and computes each branch's denominator side once for all.
"""

from __future__ import annotations

import itertools
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
    at_zero, cv = form.linear_at(v, SparsePoly.zero(form.nvars))
    if not cv.is_constant():
        raise ValueError(f"designated factor {form!r} has nonconstant x{v} coefficient")
    return at_zero.scale(Fraction(-1) / cv.constant_value())


def residue_chain(fs, steps: list[tuple[int, SparsePoly | None]], *,
                  stats: dict | None = None) -> list[Fraction]:
    """Sum of iterated residues over all admissible pole branches, per integrand of fs.

    fs: integrands over one denominator; steps: (variable, form) in
    elimination order.  The pending forms of the steps still to come are
    evolved through every substitution below a nonzero residue.  A branch's
    roots, evolved forms and residue_at side memo come from the denominator
    alone: the first integrand there computes them, and keeps them if a later
    one follows.  Homogeneity is checked at entry (a chain of s residues
    turns an integrand of degree -s into a constant) and after each residue.
    """
    stats = {} if stats is None else stats
    branches: dict[tuple, list] = {}

    def walk(g: RatExpr, path: tuple, pending: list[SparsePoly | None], deg: int) -> Fraction:
        # pending[i] is the evolved form of steps[len(path) + i]
        if not path and g.homogeneous_degree() != deg:
            raise RuntimeError(f"integrand has homogeneous degree {g.homogeneous_degree()}, "
                               f"not minus its {len(steps)} residue steps")
        if len(path) == len(steps):
            stats["leaves"] = stats.get("leaves", 0) + 1
            return g.as_fraction()
        v = steps[len(path)][0]
        entry = branches.get(path)
        if entry is None:
            roots = [SparsePoly.zero(g.nvars)]
            if pending[0] is not None:
                root = root_in_var(pending[0], v)
                if root is not None and not root.is_zero():
                    roots.append(root)
            entry = [[root, {}, None] for root in roots]
            if later is not None:
                branches[path] = entry
        total = Fraction(0)
        for i, (root, side, evolved) in enumerate(entry):
            res = g.residue_at(v, root, side)
            if res.is_zero():
                stats["pruned"] = stats.get("pruned", 0) + 1
                continue
            if res.homogeneous_degree() != deg + 1:
                raise RuntimeError("residue must raise the homogeneous degree by 1")
            if evolved is None:  # kept for the next integrand that gets here
                evolved = entry[i][2] = [p if p is None else p.linear_at(v, root)[0]
                                         for p in pending[1:]]
            # the root index and res.den's exponents (set by the true order) fix res.den
            total += walk(res, (*path, (i, tuple(e for _, e in res.den))), evolved, deg + 1)
        return total

    values, forms = [], [form for _, form in steps]
    for f, later in itertools.pairwise(itertools.chain(fs, [None])):  # later is built first
        values.append(Fraction(0) if f.is_zero() else walk(f, (), forms, -len(steps)))
    return values

"""Iterated-residue driver.

Variables are eliminated one at a time.  A step is (variable, form): with
form None the residue is taken at 0 only; otherwise form is the variable's
designated denominator factor, a linear form in the original coordinates,
and the residue is taken at 0 and at the root of that factor as it looks
after all preceding substitutions.  Integrand builders hand every chain its
steps together with the integrand (genus0.integrand), those at 0 alone first.

Pole order at each point is whatever the vanishing denominator factors say,
so a designated factor that merged with others or drifted onto 0 is still
counted exactly once.  One chain walks every integrand of a layout, one per
insertion set, down the branches together, and computes each branch's
roots, evolved forms, pole orders and binomial series once for all of them.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import SparsePoly

__all__ = ["residue_chain", "root_in_var"]


def root_in_var(form: SparsePoly, v: int) -> SparsePoly | None:
    """Root of a form linear in x_v, solved for x_v; None when x_v is absent."""
    if form.is_zero() or form.degree_in(v) <= 0:
        return None
    at_zero, cv = form.linear_at(v, SparsePoly.zero(form.nvars))
    if not cv.is_constant():
        raise ValueError(f"designated factor {form!r} has nonconstant x{v} coefficient")
    return at_zero.scale(Fraction(-1) / cv.constant_value())


def residue_chain(fs, steps: list[tuple[int, SparsePoly | None]], *,
                  stats: dict | None = None) -> list[Fraction]:
    """Sum of iterated residues over all admissible pole branches, per integrand of fs.

    fs: integrands over one denominator, read once; steps: (variable, form)
    in elimination order.  The integrands go down the branches together: a
    branch finds its roots, one residue_at side dict per root and the forms
    of the steps still to come, evolved through each root, once for all.
    Below a root the nonzero residues split by their denominator exponents,
    which the true pole order fixes, so each group shares one denominator.
    Every expression entering a step must be homogeneous of degree minus the
    steps left: a chain of s residues turns degree -s into a constant.
    """
    stats = {} if stats is None else stats
    values: list[Fraction] = []

    def walk(gs, steps: list[tuple[int, SparsePoly | None]]) -> None:
        # gs: (index in values, expression) pairs over one denominator
        if not steps:
            for i, g in gs:
                stats["leaves"] = stats.get("leaves", 0) + 1
                values[i] += g.as_fraction()
            return
        (v, form), rest = steps[0], steps[1:]
        branches = []  # (root, side, {den exponents: group}) per root, from the first g
        for i, g in gs:
            if g.homogeneous_degree() != -len(steps):
                raise RuntimeError(f"expression has homogeneous degree {g.homogeneous_degree()}, "
                                   f"not minus its {len(steps)} residue steps left")
            if not branches:
                branches.append((SparsePoly.zero(g.nvars), {}, {}))
                root = None if form is None else root_in_var(form, v)
                if root is not None and not root.is_zero():
                    branches.append((root, {}, {}))
            for root, side, groups in branches:
                res = g.residue_at(v, root, side)
                if res.is_zero():
                    stats["pruned"] = stats.get("pruned", 0) + 1
                else:
                    groups.setdefault(tuple(e for _, e in res.den), []).append((i, res))
        for root, _, groups in branches:
            if groups:
                evolved = [(w, p if p is None else p.linear_at(v, root)[0]) for w, p in rest]
                for group in groups.values():
                    walk(group, evolved)

    def numbered():
        for f in fs:
            values.append(Fraction(0))
            if not f.is_zero():
                yield len(values) - 1, f

    walk(numbered(), steps)
    return values

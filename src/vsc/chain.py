"""Iterated-residue driver.

Variables are eliminated one at a time.  A step is (variable, form): with
form None the residue is taken at 0 only; otherwise form is the variable's
designated denominator factor, a linear form in the original coordinates,
and the residue is taken at 0 and at the root of that factor as it looks
after all preceding substitutions.  Integrand builders hand every chain its
steps together with the integrand (genus0.integrand), those at 0 alone first.

A factor may enter late, just before the first step whose variable it
contains.  No earlier substitution touches it, and each earlier residue, in
a variable it lacks, carries it along, so every value is the whole integrand's.

Pole order at each point is whatever the vanishing denominator factors say,
so a designated factor that merged with others or drifted onto 0 is still
counted exactly once.  One chain walks every integrand of a layout, one per
insertion set, down the branches together, and computes each branch's
roots, evolved forms, pole orders and binomial series once for all of them.

The last step needs no residue.  Every other variable is gone by then, and
a denominator factor is a linear form, normalized to a primitive part, so a
factor in x_v alone is x_v itself.  An expression of homogeneous degree -1
in x_v alone is therefore c x_v^(E-1) / x_v^E, whose residue at 0 is c, the
content of its one-term numerator; a leaf reads c off and checks the shape.
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
    at_zero, cv = form.linear_at(v, SparsePoly.zero(form.nvars))
    if not cv.is_constant():
        raise ValueError(f"designated factor {form!r} has nonconstant x{v} coefficient")
    return at_zero.scale(Fraction(-1) / cv.constant_value())


def _leaf(g: RatExpr, v: int) -> Fraction:
    """The last residue, in x_v, of g = c x_v^(E-1) / x_v^E: the content c."""
    x = SparsePoly.variable(v, g.nvars)
    num = g.num
    if len(num.terms) != 1 or num.degree_in(v) != num.total_degree() \
            or any(f != x for f, _ in g.den):
        left = sorted({i for i in range(g.nvars) for p in (num, *(f for f, _ in g.den))
                       if p.degree_in(i) > 0})
        raise RuntimeError(f"last residue in x{v} meets an expression in "
                           f"{', '.join(f'x{i}' for i in left)}, not in x{v} alone")
    return num.content


def residue_chain(fs, steps: list[tuple[int, SparsePoly | None]],
                  later: dict[int, tuple[SparsePoly, list]] | None = None, *,
                  stats: dict | None = None) -> list[Fraction]:
    """Sum of iterated residues over all admissible pole branches, per integrand of fs.

    fs: integrands over one denominator, read once; steps: (variable, form)
    in elimination order; later: {j: (numerator, denominator factors)} that
    every expression takes just before step j.  The integrands go down the
    branches together: a branch finds its roots, one residue_at side dict
    per root and the forms of the steps still to come, evolved through each
    root, once for all.  Below a root the nonzero residues split by their
    denominator exponents, which the true pole order fixes, so each group
    shares one denominator.  Every expression at a step must be homogeneous
    of degree minus the steps left, less the degree still to enter: a chain
    of s residues turns degree -s into a constant.  At the last step, in x_v,
    an expression of degree -1 in x_v alone is c x_v^(E-1) / x_v^E, and its
    residue c is read off without residue_at; anything else raises RuntimeError.
    """
    stats = {} if stats is None else stats
    later = later or {}
    # ahead[j]: the degree of the factors that enter after step j
    degree = {j: RatExpr(*factors).homogeneous_degree() for j, factors in later.items()}
    ahead = [sum(d for i, d in degree.items() if i > j) for j in range(len(steps))]
    values: list[Fraction] = []

    def walk(gs, steps: list[tuple[int, SparsePoly | None]]) -> None:
        # gs: (index in values, expression) pairs over one denominator
        (v, form), rest = steps[0], steps[1:]
        j = len(ahead) - len(steps)
        if j in later:
            num, den = later[j]
            gs = ((i, RatExpr(g.num * num, [*g.den, *den])) for i, g in gs)
        branches = []  # (root, side, {den exponents: group}) per root, from the first g
        for i, g in gs:
            if (d := g.homogeneous_degree()) != -len(steps) - ahead[j]:
                raise RuntimeError(f"expression has homogeneous degree {d}, not minus its "
                                   f"{len(steps)} residue steps left less the degree "
                                   f"{ahead[j]} still to enter")
            if not rest:
                stats["leaves"] = stats.get("leaves", 0) + 1
                values[i] += _leaf(g, v)
                continue
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

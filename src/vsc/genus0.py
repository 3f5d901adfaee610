"""Genus-0 virtual structure constants by iterated residues along a chain.

The degree-d constant w(O_{h^a} O_{h^b} | prod_p (O_{h^p})^{m_p})_{0,d} is the
multiple residue, over z_0, z_d and then z_1, ..., z_{d-1}, of

    z_0^a z_d^b prod_{j=1}^d e_k(z_{j-1}, z_j)
    / prod_{i=1}^{d-1} [ k z_i (2 z_i - z_{i-1} - z_{i+1}) ]
    * prod_p ( sum_{n=1}^d w_p(z_{n-1}, z_n) )^{m_p}
    * prod_{q=0}^d z_q^{-N} ,

with e_k(x, y) = prod_{j=0}^k (j x + (k-j) y) and
w_p(x, y) = sum_{j=0}^{p-1} x^j y^{p-1-j}.  The endpoints z_0, z_d only have
poles at 0 and go first (path order z_0, ..., z_d gives the same value); each
interior z_i also has one at the root of its factor (2 z_i - z_{i-1} - z_{i+1})
as evolved by the earlier substitutions, which for z_{d-1} is 0.  A slot
value of -1 moves that endpoint power into the denominator.

Every residue-chain integrand of either genus is described by its layout:
a leading polynomial (a scaled vertex monomial, for a cluster also its
contraction factor), edges, self-loop weights, a denominator and residue
steps (variable, form) as in chain.residue_chain, those at 0 alone first;
``midpoint`` adds an interior chain vertex and returns its step.  An edge
ends at a variable or at a linear form, such as w = z_core + u of a cluster.
``integrand`` is the one assembler of every layout, one integrand per
insertion set.  ``path`` lays out the path 0, 1, ..., d: the genus-0 chain
is that path with its slot powers, a tail piece (elliptic.py) that path with
its core power and tail factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chain import residue_chain
from .hypersurface import Hypersurface, ins_count, ins_key
from .poly import Rows, SparsePoly, binary_form, linear_form
from .ratfun import RatExpr

__all__ = ["e_poly", "w_poly", "numerator", "integrand", "midpoint", "path",
           "genus0_constant", "Genus0Chain", "chain_residue"]


@dataclass(frozen=True)
class Genus0Chain:
    """The chain of a degree-d genus-0 constant between endpoint slots a, b.

    Paired with its p >= 2 insertions it is a job of elliptic.graph_values.
    """

    degree: int
    a: int
    b: int



def e_poly(k: int, x: SparsePoly, y: SparsePoly) -> SparsePoly:
    """e_k(x, y) = prod_j (j x + (k-j) y), the Euler factor of an edge: the
    binary form of the integer coefficients of prod_j (j X + (k-j) Y)."""
    coeffs = [1]
    for j in range(k + 1):  # coefficient i belongs to X^i Y^(j+1-i)
        coeffs = [(k - j) * a + j * b for a, b in zip([*coeffs, 0], [0, *coeffs])]
    return binary_form(coeffs, x, y)


def w_poly(p: int, x: SparsePoly, y: SparsePoly) -> SparsePoly:
    """w_p(x, y) = sum_{j<p} x^j y^{p-1-j}: the binary form with p coefficients 1.

    w_0 = 0, w_1 = 1, and a self-loop x = y gives the diagonal value p x^{p-1}.
    """
    return binary_form([1] * p, x, y)


def numerator(k: int, lead: SparsePoly, edges, ins_ts,
              loops: dict[int, int], caps: dict[int, int] | None = None):
    """Yield lead * prod_{(x,y) in edges} e_k(x, y) * prod_p s_p^{m_p} per set of ins_ts.

    An edge endpoint is a variable index or a linear form (a SparsePoly);
    indices become variables on entry, so e_k and w_p see forms only.
    The insertion sum of a layout is s_p = sum_{(x,y) in edges} w_p(x, y)
    + sum_v loops[v] w_p(x_v, x_v).  One accumulator takes one small factor
    at a time, edges first, so no two large polynomials are ever multiplied:
    for dense powers this beats squaring (Fateman, "On the computation of
    powers of sparse polynomials", Stud. Appl. Math. 53, 1974).  Each set
    starts from the longest product prefix it shares with the set before it
    (sorted sets share most); only the prefixes the next set reuses are kept.
    The accumulator, its prefixes and the factors are kept as packed rows
    (``poly.Rows``), so each product multiplies big integers, and each
    set's product is unpacked once.

    With caps = {v: c, ...} a numerator keeps only the terms of degree <= c
    in each x_v, those of lead included.  Capped as ``integrand`` caps it, a
    numerator keeps the terms its chain's opening residues read, so the
    chain value is the same; it stays homogeneous, and if it is 0 the chain
    is 0.
    """
    n = lead.nvars
    edges = [tuple(SparsePoly.variable(x, n) if isinstance(x, int) else x for x in edge)
             for edge in edges]
    factors = [e_poly(k, x, y) for x, y in edges]
    ends = [(SparsePoly.variable(v, n), c) for v, c in loops.items()]
    s = {p: sum([w_poly(p, x, y) for x, y in edges] + [w_poly(p, x, x).scale(c) for x, c in ends],
                SparsePoly.zero(n)) for p in {p for ins_t in ins_ts for p, _ in ins_t}}
    seqs = [[p for p, m in ins_t for _ in range(m)] for ins_t in ins_ts]
    rows = Rows(lead, caps or {}, [[*factors, *(s[p] for p in seq)] for seq in seqs])
    acc = rows.pack(lead)
    for f in factors:
        acc = rows.mul(acc, rows.pack(f))
    s = {p: rows.pack(f) for p, f in s.items()}
    prefix = [acc]  # prefix[j]: the product of the current set's first j factors
    for seq, after in zip(seqs, [*seqs[1:], []]):
        keep = next((j for j, (p, q) in enumerate(zip(seq, after)) if p != q),
                    min(len(seq), len(after)))
        acc = prefix[-1]
        for j in range(len(prefix), len(seq) + 1):
            acc = rows.mul(acc, s[seq[j - 1]])
            if j <= keep:
                prefix.append(acc)
        del prefix[keep + 1:]
        yield rows.unpack(acc)


def integrand(k: int, lead: SparsePoly, edges, ins_ts, loops: dict[int, int],
              den: list[tuple[SparsePoly, int]], steps):
    """The integrands of a layout, one per insertion set, built only below the opening poles.

    A chain opens with its steps at 0 alone (a loop has none).  A residue at
    x_v = 0 of order m reads only the numerator's terms of degree below m in
    x_v, so x_v is capped at m - 1 when no earlier opening residue can raise
    m: when every factor that vanishes at x_v = 0 once the earlier opening
    variables are 0 is a power of x_v itself.
    """
    caps, opened = {}, set()
    for v, form in steps:
        if form is not None:
            break
        opened.add(v)
        # the linear factors in x_v that vanish at 0 with the opened variables
        at_zero = [(f, e) for f, e in den if f.degree_in(v) > 0 and
                   all(f.degree_in(u) <= 0 for u in range(lead.nvars) if u not in opened)]
        if all(len(f.terms) == 1 for f, _ in at_zero):
            caps[v] = sum(e for _, e in at_zero) - 1
    return (RatExpr(num, den) for num in numerator(k, lead, edges, ins_ts, loops, caps))


def midpoint(N: int, n: int, v: int, left: int, right: int,
             den: list[tuple[SparsePoly, int]]) -> tuple[int, SparsePoly]:
    """Add the denominator piece of interior chain vertex v between left and right.

    That is x_v^{N+1} and the midpoint factor 2 x_v - x_left - x_right,
    which is 2 x_v - 2 x_left when left = right (the loop of degree 2).
    Returns the step of v, with that factor as its designated form.
    """
    g = linear_form({v: 2, left: -2} if left == right else {v: 2, left: -1, right: -1}, n)
    den.append((SparsePoly.variable(v, n), N + 1))
    den.append((g, 1))
    return v, g


def genus0_constant(N: int, k: int, d: int, a: int, b: int,
                    ins: dict[int, int] | None = None, cache=None) -> Fraction:
    """w(O_{h^a} O_{h^b} | prod_p (O_{h^p})^{m_p})_{0,d}, exactly.

    Insertions with p = 0 kill the constant, each p = 1 insertion multiplies
    the remaining one by d; both are applied analytically.  Degree 0 is the
    classical pairing k * delta_{a+b+c, N-2} for a single insertion O_{h^c}.
    Returns 0 whenever the selection rule fails.  Chains go through elliptic.graph_values.
    """
    X = Hypersurface(N, k)
    if d < 0:
        raise ValueError("need d >= 0")
    if not (-1 <= a <= N - 2 and -1 <= b <= N - 2):
        raise ValueError("slot powers must lie in -1..N-2")
    mult, rest = X.split_insertions(d, ins)
    if d == 0:
        if ins_count(ins) != 1:
            return Fraction(0)
        (c, _), = ins_key(ins)
        return Fraction(k) if a + b + c == N - 2 else Fraction(0)
    if not mult or not X.genus0_selection(d, a, b, rest):
        return Fraction(0)
    from .elliptic import graph_values  # the planner's module imports this one
    return mult * graph_values(N, k, [(Genus0Chain(d, a, b), ins_key(rest))], cache)[0]


def chain_residue(N: int, k: int, chain: Genus0Chain, ins_ts) -> list[Fraction]:
    """Residues of one genus-0 chain, one per set of p >= 2 insertions, computed afresh."""
    return residue_chain(*_integrand(N, k, chain.degree, chain.a, chain.b, ins_ts))


def path(N: int, d: int, den: list[tuple[SparsePoly, int]]):
    """(edges, steps) of the path 0, 1, ..., d: both ends at 0, then z_1, ..., z_{d-1}.

    Each interior vertex adds its piece to den through midpoint; the caller
    adds the powers of the two ends."""
    steps = [(0, None), (d, None), *(midpoint(N, d + 1, i, i - 1, i + 1, den) for i in range(1, d))]
    return [(j - 1, j) for j in range(1, d + 1)], steps


def _integrand(N, k, d, a, b, ins_ts):
    """(integrands, steps) of the chain of slots a, b on the path of degree d."""
    n = d + 1
    den = [(SparsePoly.variable(0, n), N - min(a, 0)),
           (SparsePoly.variable(d, n), N - min(b, 0))]
    edges, steps = path(N, d, den)
    mono = (max(a, 0),) + (0,) * (d - 1) + (max(b, 0),)
    lead = SparsePoly(n, {mono: Fraction(1, k ** (d - 1))})
    return integrand(k, lead, edges, ins_ts, {}, den, steps), steps

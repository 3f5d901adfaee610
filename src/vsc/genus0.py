"""Genus-0 virtual structure constants by iterated residues along a chain.

The degree-d constant w(O_{h^a} O_{h^b} | prod_p (O_{h^p})^{m_p})_{0,d} is the
multiple residue, in ascending order z_0, ..., z_d, of

    z_0^a z_d^b prod_{j=1}^d e_k(z_{j-1}, z_j)
    / prod_{i=1}^{d-1} [ k z_i (2 z_i - z_{i-1} - z_{i+1}) ]
    * prod_p ( sum_{n=1}^d w_p(z_{n-1}, z_n) )^{m_p}
    * prod_{q=0}^d z_q^{-N} ,

with e_k(x, y) = prod_{j=0}^k (j x + (k-j) y) and
w_p(x, y) = sum_{j=0}^{p-1} x^j y^{p-1-j}.  The endpoints z_0, z_d only have
poles at 0; each interior z_i also at the root of its factor
(2 z_i - z_{i-1} - z_{i+1}) as evolved by the earlier substitutions.
A slot value of -1 moves that endpoint power into the denominator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .chain import residue_chain
from .hypersurface import Hypersurface, ins_count, ins_key
from .poly import SparsePoly, linear_form
from .ratfun import RatExpr

__all__ = ["e_poly", "w_poly", "genus0_constant"]


def e_poly(k: int, u: int, v: int, nvars: int) -> SparsePoly:
    """e_k(x_u, x_v), the Euler factor of one chain edge, expanded."""
    out = SparsePoly.constant(1, nvars)
    for j in range(k + 1):
        out = out * linear_form({u: j, v: k - j}, nvars)
    return out


def w_poly(p: int, u: int, v: int, nvars: int) -> SparsePoly:
    """w_p(x_u, x_v) = sum_{j<p} x_u^j x_v^{p-1-j}; w_0 = 0, w_1 = 1.

    Exponents accumulate, so u = v gives the diagonal value p x_u^{p-1}.
    """
    out = SparsePoly.zero(nvars)
    for j in range(p):
        e = [0] * nvars
        e[u] += j
        e[v] += p - 1 - j
        out = out + SparsePoly(nvars, {tuple(e): Fraction(1)})
    return out


def genus0_constant(N: int, k: int, d: int, a: int, b: int,
                    ins: dict[int, int] | None = None,
                    order: str = "ascending") -> Fraction:
    """w(O_{h^a} O_{h^b} | prod_p (O_{h^p})^{m_p})_{0,d}, exactly.

    Insertions with p = 0 kill the constant, each p = 1 insertion multiplies
    the remaining one by d; both are applied analytically.  Degree 0 is the
    classical pairing k * delta_{a+b+c, N-2} for a single insertion O_{h^c}.
    Returns 0 whenever the selection rule fails.
    """
    X = Hypersurface(N, k)
    if d < 0:
        raise ValueError("need d >= 0")
    if a < -1 or b < -1:
        raise ValueError("slot powers must be >= -1")
    ins = {p: m for p, m in (ins or {}).items() if m}
    if any(p < 0 or p > N - 2 for p in ins):
        raise ValueError("insertion powers must lie in 0..N-2")
    if d == 0:
        if ins_count(ins) != 1:
            return Fraction(0)
        (c, _), = ins_key(ins)
        return Fraction(k) if a + b + c == N - 2 else Fraction(0)
    if ins.get(0):
        return Fraction(0)
    mult = Fraction(d) ** ins.pop(1, 0)
    if not X.genus0_selection(d, a, b, ins):
        return Fraction(0)
    if order not in ("ascending", "descending"):
        raise ValueError("order must be ascending or descending")
    return mult * _chain_value(N, k, d, a, b, ins_key(ins), order)


@lru_cache(maxsize=None)
def _chain_value(N, k, d, a, b, ins_t, order):
    f, designated = _integrand(N, k, d, a, b, ins_t)
    if f.homogeneous_degree() != -(d + 1):
        raise RuntimeError("genus-0 integrand has the wrong homogeneous degree")
    interior = [(i, "both") for i in range(1, d)]
    if order == "ascending":
        steps = [(0, "zero")] + interior + [(d, "zero")]
    else:
        steps = [(d, "zero")] + interior[::-1] + [(0, "zero")]
    return residue_chain(f, steps, designated)


def _integrand(N, k, d, a, b, ins_t):
    n = d + 1
    num = SparsePoly.constant(Fraction(1, k ** (d - 1)), n)
    den: list[tuple[SparsePoly, int]] = []
    for slot, q in ((a, 0), (b, d)):
        if slot >= 0:
            num = num * SparsePoly.variable(q, n) ** slot
        else:
            den.append((SparsePoly.variable(q, n), 1))
    for j in range(1, d + 1):
        num = num * e_poly(k, j - 1, j, n)
    for p, m in ins_t:
        s = SparsePoly.zero(n)
        for j in range(1, d + 1):
            s = s + w_poly(p, j - 1, j, n)
        num = num * s ** m
    designated: dict[int, SparsePoly] = {}
    for q in range(d + 1):
        den.append((SparsePoly.variable(q, n), N))
    for i in range(1, d):
        den.append((SparsePoly.variable(i, n), 1))
        g = linear_form({i - 1: -1, i: 2, i + 1: -1}, n)
        den.append((g, 1))
        designated[i] = g
    return RatExpr(num, den), designated

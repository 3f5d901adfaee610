"""Slow reference implementations the tests check the engines against."""

from fractions import Fraction
from functools import cache
from math import comb

from vsc import series
from vsc.calabi_yau import cy_report, ltilde
from vsc.chain import residue_chain
from vsc.elliptic import _part_integrand
from vsc.genus0 import _integrand, e_poly, integrand, midpoint, numerator, w_poly
from vsc.graphs import ClusterStarGraph, StarGraph, sym_factor
from vsc.hypersurface import Hypersurface, ins_key
from vsc.pipeline import invert_corrections
from vsc.poly import SparsePoly, linear_form
from vsc.ratfun import RatExpr
from vsc.series import TruncatedSeries


def poly_mul(a: SparsePoly, b: SparsePoly) -> SparsePoly:
    """a * b by the schoolbook loop over exponent tuples and Fraction coefficients.

    An independent reference for the packed integer product of SparsePoly.
    """
    bt = list(b.items())
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in bt:
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return SparsePoly(a.nvars, out)


def poly_pow(p: SparsePoly, e: int) -> SparsePoly:
    """p^e by e multiplications with poly_mul."""
    out = SparsePoly.constant(1, p.nvars)
    for _ in range(e):
        out = poly_mul(out, p)
    return out


def poly_add(a: SparsePoly, b: SparsePoly) -> SparsePoly:
    """a + b term by term over exponent tuples."""
    out = dict(a.items())
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return SparsePoly(a.nvars, out)


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """a * b by the pair loop over (d, exps) keys and Fraction coefficients.

    Drops the pairs whose q degrees add up past the cap.  An independent
    reference for the capped kernel product behind TruncatedSeries.
    """
    bt = b.items()
    out: dict = {}
    for (d1, e1), c1 in a.items():
        for (d2, e2), c2 in bt:
            d = d1 + d2
            if d > a.q_cap:
                continue
            key = (d, tuple(x + y for x, y in zip(e1, e2)))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return TruncatedSeries(a.nblocks, a.q_cap, out)


def series_add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """a + b term by term over (d, exps) keys."""
    out = dict(a.items())
    for key, c in b.items():
        out[key] = out.get(key, Fraction(0)) + c
    return TruncatedSeries(a.nblocks, a.q_cap, out)


def full_precision_inversion(corrections: dict[int, TruncatedSeries]) -> dict[int, TruncatedSeries]:
    """D with x^p = t^p + D_p(t), from t^p = x^p + C_p(x), by q_cap + 1 full passes.

    Iterates D <- -C(t + D) from D = 0 at full precision, each pass settling
    one more q-order, and checks the fixed point with one more pass.  The
    reference for pipeline.invert_corrections, which truncates its passes.
    """
    def step(cur):
        return {p: -s for p, s in zip(corrections,
                                      series.substitute(list(corrections.values()), cur))}

    D = {p: TruncatedSeries.zero(s.nblocks, s.q_cap) for p, s in corrections.items()}
    new = step(D)
    for _ in range(D[1].q_cap):
        D, new = new, step(new)
    if new != D:
        raise RuntimeError("mirror map inversion did not reach its fixed point")
    return D


def poly_divide_exact_linear(p: SparsePoly, form: SparsePoly) -> SparsePoly | None:
    """p / form by synthetic division in Fractions, else None.

    An independent reference for SparsePoly.divide_exact_linear: pivots on the
    highest variable of the form and divides by its rational coefficient.
    """
    n = p.nvars
    f = dict(form.items())
    if max((sum(e) for e in f), default=-1) != 1:
        raise ValueError("divisor must have total degree 1")
    pivot, cv = max((e.index(1), c) for e, c in f.items() if sum(e) == 1)
    tail = {e: c for e, c in f.items() if sum(e) == 0 or e.index(1) != pivot}
    by_deg: dict = {}
    for e, c in p.items():
        by_deg.setdefault(e[pivot], {})[e[:pivot] + (0,) + e[pivot + 1:]] = c
    quot: dict = {}
    for j in range(max(by_deg, default=0), 0, -1):
        lower = by_deg.setdefault(j - 1, {})
        for e, c in by_deg.pop(j, {}).items():
            if not c:
                continue
            g = c / cv
            quot[e[:pivot] + (j - 1,) + e[pivot + 1:]] = g
            for et, ct in tail.items():
                e2 = tuple(x + y for x, y in zip(e, et))
                lower[e2] = lower.get(e2, 0) - g * ct
    if any(by_deg.get(0, {}).values()):
        return None
    return SparsePoly(n, quot)


def poly_derivative(p: SparsePoly, v: int) -> SparsePoly:
    """d/dx_v of p, term by term."""
    out: dict = {}
    for e, c in p.items():
        k = e[v]
        if k:
            e2 = e[:v] + (k - 1,) + e[v + 1:]
            out[e2] = out.get(e2, 0) + k * c
    return SparsePoly(p.nvars, out)


def subst_zero(p: SparsePoly, v: int) -> SparsePoly:
    """p at x_v = 0: the terms free of x_v."""
    return SparsePoly(p.nvars, {e: c for e, c in p.items() if not e[v]})


def eps_coefficients(p: SparsePoly, v: int, root: SparsePoly, m: int) -> list[SparsePoly]:
    """The m coefficients of ``p.shift_eps(v, root, m)`` as polynomials.

    Not an oracle: a bridge that lets the kernel tests compare shift_eps,
    which works on packed integer dicts, with polynomials.
    """
    content, coeffs = p.shift_eps(v, root, m)
    coeffs += [{}] * (m - len(coeffs))
    return [SparsePoly._make(p.nvars, d, content) for d in coeffs]


def poly_substitute(p: SparsePoly, v: int, value: SparsePoly) -> SparsePoly:
    """p with x_v replaced by value, summing each term times a power of value.

    An expansion independent of SparsePoly.shift_eps and of the packed
    product: it multiplies with poly_mul.
    """
    if value.degree_in(v) > 0:
        raise ValueError("substitution value involves the substituted variable")
    powers = [SparsePoly.constant(1, p.nvars)]
    out = SparsePoly.zero(p.nvars)
    for e, c in p.items():
        k = e[v]
        while len(powers) <= k:
            powers.append(poly_mul(powers[-1], value))
        base = SparsePoly(p.nvars, {e[:v] + (0,) + e[v + 1:]: c})
        out = poly_add(out, poly_mul(base, powers[k]))
    return out


def substitute(f: RatExpr, v: int, value: SparsePoly) -> RatExpr:
    """f with x_v -> value; a denominator factor must not vanish identically."""
    den = []
    for g, e in f.den:
        gs = poly_substitute(g, v, value)
        if gs.is_zero():
            raise ZeroDivisionError(
                "substitution makes a denominator factor vanish identically")
        den.append((gs, e))
    return RatExpr(poly_substitute(f.num, v, value), den)


def derivative(f: RatExpr, v: int) -> RatExpr:
    """d/dv of f by the quotient rule, denominator kept factored."""
    vfac = [(g, e) for g, e in f.den if g.degree_in(v) > 0]
    rest = [(g, e) for g, e in f.den if g.degree_in(v) <= 0]
    dnum = poly_derivative(f.num, v)
    if not vfac:
        return RatExpr(dnum, f.den)
    n = f.nvars
    prod_all = SparsePoly.constant(1, n)
    for g, _ in vfac:
        prod_all = prod_all * g
    s = SparsePoly.zero(n)
    for i, (g, e) in enumerate(vfac):
        part = poly_derivative(g, v).scale(e)
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
        out = out * poly_pow(g, e)
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
    return residue_chain(*_integrand(N, k, d, a, b, [ins_key(ins)]))[0]


def uncapped_numerator(k, lead, edges, ins_ts, loops, caps=None):
    """genus0.numerator with every term kept, whatever the caps.

    The engine drops the terms that its chain's opening residues do not read
    and shares product prefixes between sets; this reference builds the
    whole product of each set alone, edges first.
    """
    for ins_t in ins_ts:
        yield _uncapped_product(k, lead, edges, ins_t, loops)


def dict_numerator(k, lead, edges, ins_ts, loops, caps=None):
    """genus0.numerator on term dicts: every product through ``SparsePoly.__mul__``, or
    ``SparsePoly.mul_capped`` when there are caps.

    The same accumulator as the engine's, with the same factors, factor
    order and shared prefixes, but no packed rows.
    """
    n = lead.nvars
    mul = SparsePoly.__mul__ if not caps else (lambda a, b: a.mul_capped(b, caps))
    edges = [tuple(SparsePoly.variable(x, n) if isinstance(x, int) else x for x in edge)
             for edge in edges]
    acc = mul(SparsePoly.constant(1, n), lead)
    for x, y in edges:
        acc = mul(acc, e_poly(k, x, y))
    ends = [(SparsePoly.variable(v, n), c) for v, c in loops.items()]
    s = {p: sum([w_poly(p, x, y) for x, y in edges] + [w_poly(p, x, x).scale(c) for x, c in ends],
                SparsePoly.zero(n)) for p in {p for ins_t in ins_ts for p, _ in ins_t}}
    seqs = [[p for p, m in ins_t for _ in range(m)] for ins_t in ins_ts]
    prefix = [acc]  # prefix[j]: the product of the current set's first j factors
    for seq, after in zip(seqs, [*seqs[1:], []]):
        keep = next((j for j, (p, q) in enumerate(zip(seq, after)) if p != q),
                    min(len(seq), len(after)))
        acc = prefix[-1]
        for j in range(len(prefix), len(seq) + 1):
            acc = mul(acc, s[seq[j - 1]])
            if j <= keep:
                prefix.append(acc)
        del prefix[keep + 1:]
        yield acc


def _uncapped_product(k, lead, edges, ins_t, loops):
    n = lead.nvars
    edges = [tuple(SparsePoly.variable(x, n) if isinstance(x, int) else x for x in edge)
             for edge in edges]
    acc = lead
    for x, y in edges:
        acc = acc * e_poly(k, x, y)
    for p, m in ins_t:
        s = SparsePoly.zero(n)
        for x, y in edges:
            s = s + w_poly(p, x, y)
        for v, c in loops.items():
            x = SparsePoly.variable(v, n)
            s = s + w_poly(p, x, x).scale(c)
        for _ in range(m):
            acc = acc * s
    return acc


def ascending_chain(N: int, k: int, d: int, a: int, b: int, ins_ts):
    """(integrands, steps) of a genus-0 chain eliminated in path order z_0, z_1, ..., z_d.

    A different elimination order from the engine's, which takes both ends
    at 0 first and the interior vertices after them, and caps its numerators
    in both ends; here every numerator is built whole, one set at a time.
    """
    n = d + 1
    den = [(SparsePoly.variable(0, n), N - min(a, 0)),
           (SparsePoly.variable(d, n), N - min(b, 0))]
    steps = [(0, None), *(midpoint(N, n, i, i - 1, i + 1, den) for i in range(1, d)), (d, None)]
    lead = SparsePoly(n, {(max(a, 0),) + (0,) * (d - 1) + (max(b, 0),): Fraction(1, k ** (d - 1))})
    edges = [(j - 1, j) for j in range(1, d + 1)]
    return [RatExpr(_uncapped_product(k, lead, edges, ins_t, {}), den) for ins_t in ins_ts], steps


def whole_graph_integrand(N: int, k: int, graph, ins_ts):
    """(integrands, steps) of a catalog graph as one chain over all its variables.

    A star is its core z_0 and every tail; a cluster is u = w - z_core, its
    core and every tail.  The engine factors both into tail and cluster-core
    pieces and multiplies their insertion series; loops and points are the
    engine's own chains.
    """
    if isinstance(graph, StarGraph):
        return _whole_star(N, k, graph.sigma, ins_ts)
    if isinstance(graph, ClusterStarGraph):
        return _whole_cluster(N, k, graph.f, graph.sigma, ins_ts)
    return _part_integrand(N, k, graph, ins_ts)


def _hang_tails(N, n, core, sigma, den):
    """Hang one path per part of sigma on the core; returns (edges, steps).

    The tail vertices follow the core in index order.  Each tail adds the
    factor (first vertex - core) to the denominator, and its vertices are
    taken from the core outwards: a midpoint and its step for every vertex
    but the end, which takes z^N and a step at 0 only.  The engine builds
    each tail on its own as a genus-0 path, ends first.
    """
    edges, steps = [], []
    first = core + 1
    for part in sigma:
        tail = [core, *range(first, first + part)]
        first += part
        edges += zip(tail, tail[1:])
        den.append((linear_form({tail[1]: 1, core: -1}, n), 1))
        steps += [midpoint(N, n, v, left, right, den)
                  for left, v, right in zip(tail, tail[1:], tail[2:])]
        den.append((SparsePoly.variable(tail[-1], n), N))
        steps.append((tail[-1], None))
    return edges, steps


def _whole_star(N, k, sigma, ins_ts):
    X = Hypersurface(N, k)
    d, l = sum(sigma), len(sigma)
    n = 1 + d
    core = 0
    scalar = sym_factor(sigma) * Fraction(X.top_chern_coeff(), 24) / k ** (d - 1)
    den = [(SparsePoly.variable(core, n), N + l - 1)]
    edges, tail_steps = _hang_tails(N, n, core, sigma, den)
    steps = [(core, None), *tail_steps]
    lead = SparsePoly(n, {(N - 2,) + (0,) * d: scalar})
    return integrand(k, lead, edges, ins_ts, {}, den, steps), steps


def _whole_cluster(N, k, f, sigma, ins_ts):
    d, l = f + sum(sigma), len(sigma)
    n = 2 + sum(sigma)
    u, core = 0, 1
    # the cluster vertex has valence l + 1, so its vertex factor carries
    # (k z_core)^l; the contraction terms -(N-1)/N w^-N and -(N+1)/N z_core^-N
    # share one denominator, and the layout is written in u = w - z_core
    scalar = -sym_factor(sigma) * Fraction(k) ** (k * (f - 1) - 1) / (24 * N * k ** (d - f))
    w = linear_form({u: 1, core: 1}, n)
    den = [(SparsePoly.variable(u, n), 2), (w, N + 1),
           (SparsePoly.variable(core, n), l + N * f)]
    tail_edges, tail_steps = _hang_tails(N, n, core, sigma, den)
    steps = [(u, None), (core, None), *tail_steps]
    edges = [(w, core), *tail_edges]
    tails = (0,) * sum(sigma)
    w_pow = SparsePoly(n, {(j, N - j) + tails: comb(N, j) for j in range(N + 1)})
    split = w_pow.scale(N + 1) + SparsePoly(n, {(0, N) + tails: N - 1})
    lead = split * SparsePoly(n, {(0, k * (f - 1)) + tails: scalar})
    return integrand(k, lead, edges, ins_ts, {core: f - 1}, den, steps), steps


def whole_graph_residue(N: int, k: int, graph, ins_t) -> Fraction:
    """The value of a (graph, set) job from its whole-graph chain; 0 off the selection rule."""
    if not Hypersurface(N, k).genus1_selection(graph.degree, dict(ins_t)):
        return Fraction(0)
    return residue_chain(*whole_graph_integrand(N, k, graph, [ins_t]))[0]


def reduced_graph_residue(N: int, k: int, graph, ins_t) -> Fraction:
    """The whole-graph chain value with the integrand reduced before its chain.

    The engine hands its integrands to residue_chain unreduced; this is the
    same chain with the trial divisions done first.
    """
    (f,), steps = whole_graph_integrand(N, k, graph, [ins_t])
    return residue_chain([f.reduce()], steps)[0]


def cluster_by_halves(N: int, k: int, graph, ins_t) -> Fraction:
    """A cluster graph's value as the sum of two half chains.

    The contraction terms -(N-1)/N w^-N and -(N+1)/N z_core^-N are built as
    separate integrands over the shared numerator and schedule, in the
    contracted variable w itself; each takes its residue at w = z_core here
    and then walks the rest of the chain.  The engine puts
    both terms over one denominator, writes the layout in u = w - z_core and
    walks one chain.
    """
    f, sigma = graph.f, graph.sigma
    d, l = f + sum(sigma), len(sigma)
    n = 2 + sum(sigma)
    w, core = 0, 1
    scalar = sym_factor(sigma) * Fraction(1, 24) * Fraction(k) ** (k * (f - 1) - 1) / k ** (
        l) / k ** (d - f - l)
    den = [(linear_form({w: 1, core: -1}, n), 2), (SparsePoly.variable(w, n), 1),
           (SparsePoly.variable(core, n), l + N * (f - 1))]
    tail_edges, tail_steps = _hang_tails(N, n, core, sigma, den)
    steps = [(core, None), *tail_steps]
    edges = [(w, core), *tail_edges]
    mono = (0, k * (f - 1)) + (0,) * sum(sigma)
    (num,) = numerator(k, SparsePoly(n, {mono: scalar}), edges, [ins_t], {core: f - 1})
    half_w = RatExpr(num.scale(Fraction(-(N - 1), N)),
                     den + [(SparsePoly.variable(w, n), N)])
    half_core = RatExpr(num.scale(Fraction(-(N + 1), N)),
                        den + [(SparsePoly.variable(core, n), N)])
    at_core = SparsePoly.variable(core, n)
    return sum((residue_chain([half.residue_at(w, at_core)], steps)[0]
                for half in (half_w, half_core)), Fraction(0))


@cache
def p3_invariant(d: int, lines: int, points: int) -> int:
    """Rational degree-d curves in P^3 through general lines and points.

    The Kontsevich-Manin recursion (Comm. Math. Phys. 164 (1994),
    hep-th/9402147), independent of every residue engine.  Write the quantum
    potential as G = sum N(d, a, b) e^{d t1} t2^a t3^b / (a! b!), with a line
    class t2 and a point class t3, so that a + 2b = 4d.  The WDVV equation
    for (i, j, k, l) says that
        G_{i+j,k,l} + G_{i,j,k+l} - G_{i+k,j,l} - G_{i,k,j+l}
          = sum_e G_{ike} G_{3-e,j,l} - G_{ije} G_{3-e,k,l}  =: Q_{ijkl},
    with G_{..s..} = 0 for s = 0 or s > 3.  The right hand side has degrees
    below d only; (1,2,3,3), (1,3,1,2) and (1,2,1,2) then give the cases
    below, down to the line through two points.
    """
    if d < 1 or lines < 0 or points < 0 or lines + 2 * points != 4 * d:
        return 0
    if lines == 0:
        return 1 if d == 1 else _p3_quadratic(d, 0, points - 3, (1, 2, 3, 3))
    if points:
        return d * p3_invariant(d, lines - 2, points + 1) \
            - _p3_quadratic(d, lines - 2, points - 1, (1, 3, 1, 2))
    return 2 * d * p3_invariant(d, lines - 2, 1) \
        - _p3_quadratic(d, lines - 3, 0, (1, 2, 1, 2))


def _p3_derivative(idx: tuple[int, int, int], d: int, a: int, b: int) -> int:
    # coefficient (d, a, b) of G_{idx}: t1 gives a factor d, t2 and t3 shift
    if any(s < 1 or s > 3 for s in idx):
        return 0
    return d ** idx.count(1) * p3_invariant(d, a + idx.count(2), b + idx.count(3))


def _p3_quadratic(d: int, a: int, b: int, ijkl: tuple[int, int, int, int]) -> int:
    i, j, k, l = ijkl
    total = 0
    for d1 in range(1, d):
        for a1 in range(a + 1):
            for b1 in range(b + 1):
                weight = comb(a, a1) * comb(b, b1)
                lo, hi = (d1, a1, b1), (d - d1, a - a1, b - b1)
                for e in (1, 2):
                    total += weight * (
                        _p3_derivative((i, k, e), *lo) * _p3_derivative((3 - e, j, l), *hi)
                        - _p3_derivative((i, j, e), *lo) * _p3_derivative((3 - e, k, l), *hi))
    return total


@cache
def p2_genus0(d: int) -> int:
    """Rational plane curves of degree d through 3d - 1 general points.

    Kontsevich's recursion (Kontsevich-Manin, hep-th/9402147): 1, 1, 12,
    620, 87304, 26312976 for d = 1..6.
    """
    if d == 1:
        return 1
    return sum(p2_genus0(a) * p2_genus0(d - a) * a * a * (d - a)
               * ((d - a) * comb(3 * d - 4, 3 * a - 2) - a * comb(3 * d - 4, 3 * a - 1))
               for a in range(1, d))


@cache
def p2_genus1(d: int) -> int:
    """Elliptic plane curves of degree d through 3d general points.

    The Eguchi-Hori-Xiong recursion (hep-th/9605225; Getzler,
    alg-geom/9612004), independent of every residue engine:
        E_d = C(d,3)/12 N_d
              + sum_{d1+d2=d} C(3d-1, 3d1-1) d1 d2 (3d1-2)/9 N_{d1} E_{d2},
    with N_d = p2_genus0(d).  It gives 0, 0, 1, 225, 87192, 57435240 for d = 1..6.
    """
    e = Fraction(comb(d, 3), 12) * p2_genus0(d) + sum(
        Fraction(comb(3 * d - 1, 3 * d1 - 1) * d1 * (d - d1) * (3 * d1 - 2), 9)
        * p2_genus0(d1) * p2_genus1(d - d1) for d1 in range(1, d))
    if e.denominator != 1:
        raise ValueError(f"E_{d} = {e} is not an integer")
    return e.numerator


def quintic_gopakumar_vafa(q_cap: int) -> tuple[list[Fraction], list[Fraction]]:
    """Genus-0 and genus-1 Gopakumar-Vafa numbers n0_d, n1_d of the quintic, d = 1..q_cap.

    Read off the B-model side through the mirror map, as in
    Candelas-de la Ossa-Green-Parkes (Nucl. Phys. B359, 1991) and BCOV
    (hep-th/9309140).  The mirror map is t = x + sum_d (Ltilde_1)_d / d q^d;
    inverting it gives x = t + D(t), and composing with it turns a series in
    q = e^x into one in Q = e^t.  Then

        5 Ltilde_2 / Ltilde_1        = 5 + sum_d n0_d d^3 Q^d / (1 - Q^d),
        graph sum - D L / 24, L = 50 = sum_d (n1_d + n0_d / 12) Li_1(Q^d),

    and both are solved degree by degree, over the divisors of d.
    """
    report = cy_report(5, q_cap)
    l1 = report.l1
    shift = TruncatedSeries(0, q_cap, {(d, ()): l1.coefficient(d) / d
                                       for d in range(1, q_cap + 1)})
    D = invert_corrections({1: shift})[1]
    yukawa, f1 = series.substitute(
        [(ltilde(5, 2, q_cap) * l1.inverse()).scale(5), report.graph_sum], {1: D})
    f1 = f1 - D.scale(Fraction(Hypersurface(5, 5).genus1_linear_coeff(), 24))
    n0: list[Fraction] = []
    g: list[Fraction] = []  # g[d-1] = n1_d + n0_d / 12
    for d in range(1, q_cap + 1):
        divisors = [e for e in range(1, d) if d % e == 0]
        n0.append((yukawa.coefficient(d) - sum(n0[e - 1] * e ** 3 for e in divisors)) / d ** 3)
        g.append(f1.coefficient(d) - sum(g[e - 1] * Fraction(e, d) for e in divisors))
    return n0, [gd - n0d / 12 for gd, n0d in zip(g, n0)]

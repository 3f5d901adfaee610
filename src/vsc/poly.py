"""Sparse multivariate polynomials over the rationals, on an integer kernel.

A polynomial in ``nvars`` variables has the value ``content * sum_e
terms[e] * x^e``.  ``content`` is one ``Fraction`` and ``terms`` maps a
packed exponent to a nonzero ``int``.  The integer coefficients are
primitive (their gcd is 1) and the coefficient of the largest key is
positive, so each polynomial has exactly one representation and ``==``
compares fields.  The zero polynomial has no terms and content 0.

Packed exponents (Monagan & Pearce, "Polynomial division using dynamic
arrays, heaps, and packed exponent vectors", CASC 2007): the exponent of
x_i sits in the ``_BITS``-bit field starting at bit ``_BITS * i``, and the
total degree in the field above the last variable.  Multiplying monomials is
adding keys, and keys compare by total degree first, so ``max(terms)`` is the
leading term and gives the total degree.  A field holds at most
``MAX_DEGREE``; no exponent exceeds the total degree, so a total degree
within that limit never carries into the next field.  The constructor, a
product and a shift by a root of degree above 1 raise ``ValueError`` naming
the limit when a total degree would exceed it.  They never wrap.

By Gauss's lemma the product of primitive polynomials is primitive, and its
leading coefficient is the product of two positive ones.  A product therefore
multiplies plain ints and the two contents and needs no gcd pass.  A sum
brings both contents to a common one, adds integers, and takes one gcd.
Division by a linear factor divides the primitive parts, which is exact over
the integers whenever it is exact at all.  All arithmetic is exact.  An
eps-series is one scalar and a list of integer term dicts, not normalized,
whose eps^j coefficient is the scalar times dict j; residues are computed on
them by ``shift_eps``, ``eps_line``, ``eps_mul`` and ``eps_coefficient``.
A factor linear in x_v needs no series: ``linear_at`` gives its value and
slope at a root.  ``binary_form`` sums integer multiples of x^i y^(D-i), the
edge factors of a chain, on the same integer dicts, and ``shifted_sum`` sums
polynomials times monomials, the terms of a change of coordinates.

``Rows`` multiplies on packed rows, a Kronecker substitution in one
variable (Harvey, "Faster polynomial multiplication via multipoint Kronecker
substitution", J. Symb. Comp. 44, 2009), so that CPython's big-integer
multiply does the work per pair of terms.  It picks a slot variable u and a
partner w, uncapped variables first.  A term c x^e goes to the row whose key
is e with u's field cleared and e_u added to w's field, and adds c 2^(W e_u)
to that row's integer: the row holds e_u in slots of W bits and e_u + e_w in
its key.  Row keys add under a product as exponents do, so a product is one
multiply and add per pair of rows, and slot j of a row unpacks to e_u = j and
e_w = field - j.  The terms of a homogeneous polynomial that agree off u and
w share a row; without the partner each row of one would hold a single term.
With one variable the degree field, which holds e_u already, is the partner.
Caps on the other variables filter row keys in ``_capped``, the one capped
product, which ``mul_capped`` runs on terms; caps on u and w cut slots when
the rows are unpacked.  The slot width is W = bitlen(B) + 1, for B the
largest coefficient of the leading factor times the largest product of the
factors' l1 norms (sums of absolute coefficients) over the sets of factors
the rows will be unpacked for.
Every coefficient c of such a product has |c| <= B < 2^(W-1), so adding
2^(W-1) to each slot makes every digit nonnegative with no carry between
slots, and the balanced digits, negative ones included, come out exactly.

Only this module knows these layouts; ``items()`` and ``coefficient()`` hide
them.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from fractions import Fraction
from math import comb, gcd, lcm

__all__ = ["SparsePoly", "Rows", "binary_form", "linear_form", "shifted_sum", "MAX_DEGREE"]

Exponents = tuple[int, ...]
Terms = dict[int, int]

_BITS = 16
MAX_DEGREE = (1 << _BITS) - 1

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _check_degree(d: int) -> None:
    if d > MAX_DEGREE:
        raise ValueError(
            f"total degree {d} exceeds the packed exponent limit {MAX_DEGREE}")


def _pack(e: Exponents, nvars: int) -> int:
    """Packed key of the monomial x^e."""
    return sum(k << (_BITS * i) for i, k in enumerate(e)) | (sum(e) << (_BITS * nvars))


def _unit(v: int, nvars: int) -> int:
    """Packed key of the monomial x_v."""
    return (1 << (_BITS * v)) | (1 << (_BITS * nvars))


def _mul_add(out: Terms, a: Terms, b: Terms, top: int) -> Terms:
    """out += a * b for nonzero term dicts, zeros kept; top is the degree field's shift."""
    _check_degree((max(a) >> top) + (max(b) >> top))
    if len(a) > len(b):
        a, b = b, a
    get = out.get
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            out[e] = get(e, 0) + ca * cb
    return out


def _capped(a: Terms, b: Terms, top: int, fields: list[tuple[int, int]]) -> Terms:
    """a * b for term dicts or rows, zeros kept, without the products whose field at bit
    shift s exceeds cap for some (s, cap) in fields; top is the degree field's shift.

    The terms of b are grouped by their capped fields (the key under a mask),
    and each masked key of a meets only the groups within every cap.
    """
    _check_degree((max(a, default=0) >> top) + (max(b, default=0) >> top))
    mask = sum(MAX_DEGREE << shift for shift, _ in fields)
    groups: dict[int, list[tuple[int, int]]] = {}
    for eb, cb in b.items():
        groups.setdefault(eb & mask, []).append((eb, cb))
    partners: dict[int, list[tuple[int, int]]] = {}  # masked key of a -> terms of b
    out: Terms = {}
    get = out.get
    for ea, ca in a.items():
        if (terms := partners.get(ka := ea & mask)) is None:
            terms = partners[ka] = []
            for kb, group in groups.items():
                for shift, cap in fields:
                    if ((ka + kb) >> shift) & MAX_DEGREE > cap:
                        break
                else:
                    terms += group
        for eb, cb in terms:
            e = ea + eb
            out[e] = get(e, 0) + ca * cb
    return out


def _nonzero(terms: Terms) -> Terms:
    return terms if all(terms.values()) else {e: c for e, c in terms.items() if c}


def _powers(t: Terms, k: int, top: int) -> list[Terms]:
    """t^0, ..., t^k; a zero t (no terms) has none above t^0."""
    if len(t) == 1:  # the powers of a monomial need no products
        (e, c), = t.items()
        _check_degree(k * (e >> top))
        return [{j * e: c ** j} for j in range(k + 1)]
    out = [{0: 1}]
    for _ in range(k):
        out.append(_nonzero(_mul_add({}, out[-1], t, top)) if t else {})
    return out


class SparsePoly:
    __slots__ = ("nvars", "terms", "content")

    def __init__(self, nvars: int, terms: dict[Exponents, Fraction] | None = None):
        fracs: dict[int, Fraction] = {}
        for e, c in (terms or {}).items():
            if len(e) != nvars:
                raise ValueError(f"exponent tuple {e} does not match nvars={nvars}")
            if any(k < 0 for k in e):
                raise ValueError(f"negative exponent in {e}")
            _check_degree(sum(e))
            c = Fraction(c)
            if c:
                fracs[_pack(e, nvars)] = c
        den = lcm(*(c.denominator for c in fracs.values()))
        p = SparsePoly._make(nvars, {e: c.numerator * (den // c.denominator)
                                     for e, c in fracs.items()}, Fraction(1, den))
        self.nvars, self.terms, self.content = nvars, p.terms, p.content

    @classmethod
    def _raw(cls, nvars: int, terms: dict[int, int], content: Fraction) -> SparsePoly:
        # internal fast path: trusts that terms are primitive, zero-free and
        # have a positive leading coefficient.  Term dicts are shared between
        # polynomials (scale, negation), so none is changed after this call.
        p = cls.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        p.content = content
        return p

    @classmethod
    def _make(cls, nvars: int, terms: dict[int, int], content) -> SparsePoly:
        """content * terms for zero-free integer terms of any gcd and sign."""
        if not terms:
            return cls._raw(nvars, {}, _ZERO)
        g = gcd(*terms.values())
        if terms[max(terms)] < 0:
            g = -g
        if g != 1:
            terms = {e: c // g for e, c in terms.items()}
            content = content * g
        return cls._raw(nvars, terms, content)

    @classmethod
    def zero(cls, nvars: int) -> SparsePoly:
        return cls._raw(nvars, {}, _ZERO)

    @classmethod
    def constant(cls, c, nvars: int) -> SparsePoly:
        c = Fraction(c)
        if not c:
            return cls.zero(nvars)
        return cls._raw(nvars, {0: 1}, c)

    @classmethod
    def variable(cls, i: int, nvars: int) -> SparsePoly:
        return cls._raw(nvars, {_unit(i, nvars): 1}, _ONE)

    # -- predicates and views -------------------------------------------------

    def items(self) -> Iterator[tuple[Exponents, Fraction]]:
        """(exponent tuple, rational coefficient) pairs, in no particular order."""
        n, content = self.nvars, self.content
        for e, c in self.terms.items():
            yield tuple((e >> (_BITS * i)) & MAX_DEGREE for i in range(n)), content * c

    def coefficient(self, e: Exponents) -> Fraction:
        """Rational coefficient of x^e, 0 when the term is absent."""
        if len(e) != self.nvars:
            raise ValueError(f"exponent tuple {e} does not match nvars={self.nvars}")
        if min(e, default=0) < 0 or sum(e) > MAX_DEGREE:
            return _ZERO
        return self.content * self.terms.get(_pack(e, self.nvars), 0)

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return self.terms.keys() <= {0}

    def constant_value(self) -> Fraction:
        if self.is_constant():
            return self.content  # a primitive constant term is 1
        raise ValueError("polynomial is not constant")

    def degree_in(self, v: int) -> int:
        # degree of the zero polynomial is reported as -1
        shift = _BITS * v
        return max(((e >> shift) & MAX_DEGREE for e in self.terms), default=-1)

    def total_degree(self) -> int:
        return max(self.terms) >> (_BITS * self.nvars) if self.terms else -1

    def homogeneous_degree(self) -> int:
        """Total degree if homogeneous (zero counts as any degree), else raises."""
        if not self.terms:
            return 0
        top = _BITS * self.nvars
        # keys order by total degree first: the extremes differ iff any two do
        d = max(self.terms) >> top
        if min(self.terms) >> top != d:
            degs = sorted({e >> top for e in self.terms})
            raise ValueError(f"polynomial is not homogeneous: degrees {degs}")
        return d

    def primitive(self) -> tuple[Fraction, SparsePoly]:
        """(content, part) with self = content * part, where part has coprime
        integer coefficients and a positive leading term."""
        if not self.terms:
            raise ValueError("the zero polynomial has no primitive part")
        return self.content, SparsePoly._raw(self.nvars, self.terms, _ONE)

    # -- arithmetic -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, SparsePoly):
            return (self.nvars == other.nvars and self.content == other.content
                    and self.terms == other.terms)
        if isinstance(other, (int, Fraction)):
            return self == SparsePoly.constant(other, self.nvars)
        return NotImplemented

    def __neg__(self) -> SparsePoly:
        return SparsePoly._raw(self.nvars, self.terms, -self.content)

    def __add__(self, other) -> SparsePoly:
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.constant(other, self.nvars)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        a, b = self, other
        if len(a.terms) < len(b.terms):
            a, b = b, a
        # common content g/l: both contents are integer multiples of it
        pa, qa = a.content.numerator, a.content.denominator
        pb, qb = b.content.numerator, b.content.denominator
        g, l = gcd(pa, pb), lcm(qa, qb)
        ma, mb = pa // g * (l // qa), pb // g * (l // qb)
        out = dict(a.terms) if ma == 1 else {e: ma * c for e, c in a.terms.items()}
        get = out.get
        for e, c in b.terms.items():
            out[e] = get(e, 0) + mb * c
        return SparsePoly._make(self.nvars, _nonzero(out), Fraction(g, l))

    __radd__ = __add__

    def __sub__(self, other) -> SparsePoly:
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.constant(other, self.nvars)
        return self + (-other)

    def scale(self, c) -> SparsePoly:
        c = Fraction(c)
        if not c or not self.terms:
            return SparsePoly.zero(self.nvars)
        return SparsePoly._raw(self.nvars, self.terms, self.content * c)

    def __mul__(self, other) -> SparsePoly:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        n = self.nvars
        if not self.terms or not other.terms:
            return SparsePoly.zero(n)
        return SparsePoly._raw(n, _nonzero(_mul_add({}, self.terms, other.terms, _BITS * n)),
                               self.content * other.content)

    __rmul__ = __mul__

    def mul_capped(self, other: SparsePoly, caps: dict[int, int]) -> SparsePoly:
        """self * other without the terms of degree above ``caps[v]`` in x_v, for every v.

        The product of ``TruncatedSeries``: ``_capped`` on the term dicts,
        normalized again.  Series products are small, so they stay off packed
        rows (``Rows``), whose packing and unpacking would cost more than the
        product saves.
        """
        n = self.nvars
        return SparsePoly._make(n, _nonzero(_capped(self.terms, other.terms, _BITS * n,
                                                    [(_BITS * v, cap) for v, cap in caps.items()])),
                                self.content * other.content)

    # -- expansion around a point ---------------------------------------------

    def linear_at(self, v: int, root: SparsePoly) -> tuple[SparsePoly, SparsePoly]:
        """(c, a) with self = c + a (x_v - root), for self of degree <= 1 in x_v.

        The first two orders of ``shift_eps(v, root, 2)``, without a series:
        for self = A + a x_v, c = A + a root is summed on integer dicts.
        """
        if root.degree_in(v) > 0:
            raise ValueError("root involves the pole variable")
        n, shift, unit = self.nvars, _BITS * v, _unit(v, self.nvars)
        at: Terms = {}
        slope: Terms = {}
        for e, c in self.terms.items():
            k = (e >> shift) & MAX_DEGREE
            if k > 1:
                raise ValueError(f"polynomial has degree {k} in x{v}, above 1")
            (slope if k else at)[e - k * unit] = c
        content = self.content
        if slope and root.terms:
            p, q = root.content.as_integer_ratio()
            at, content = {e: q * c for e, c in at.items()}, content / q
            s = {e: p * c for e, c in root.terms.items()}
            at = _nonzero(_mul_add(at, slope, s, _BITS * n))
        return SparsePoly._make(n, at, content), SparsePoly._make(n, slope, self.content)

    def shift_eps(self, v: int, root: SparsePoly, m: int) -> tuple[Fraction, list[Terms]]:
        """Eps-series (content, dicts) of self(v -> root + eps) up to eps^{m-1}.

        Only the orders up to the degree in ``v`` can be nonzero, and only
        they get a dict.  The coefficients do not involve ``v``; ``root``
        must not either.
        This is the kernel's one expansion around a point of a numerator:
        residues read their values from it, and factors linear in ``v``
        take the same two orders from ``linear_at``.
        """
        if root.degree_in(v) > 0:
            raise ValueError("root involves the pole variable")
        n = self.nvars
        shift, unit, top = _BITS * v, _unit(v, n), _BITS * n
        K = self.degree_in(v)
        out: list[Terms] = [{} for _ in range(min(m, K + 1))]
        if not root.terms or not self.terms:
            for e, c in self.terms.items():
                k = (e >> shift) & MAX_DEGREE
                if k < m:
                    out[k][e - k * unit] = c
            return self.content, out
        # root = s / q with integer terms s; scale every term by q^K, K the
        # degree in v, so that the expansion stays in the integers
        q = root.content.denominator
        s = {e: root.content.numerator * c for e, c in root.terms.items()}
        deg_s = max(s) >> top
        if deg_s > 1:
            _check_degree(max((e >> top) + ((e >> shift) & MAX_DEGREE) * (deg_s - 1)
                              for e in self.terms))
        q_pow = [q ** j for j in range(K + 1)]
        s_pow = _powers(s, K, top)
        for e, c in self.terms.items():
            k = (e >> shift) & MAX_DEGREE
            base = e - k * unit
            for i in range(min(k, m - 1) + 1):
                coef = comb(k, i) * c * q_pow[K - k + i]
                d = out[i]
                get = d.get
                for er, cr in s_pow[k - i].items():
                    e2 = base + er
                    d[e2] = get(e2, 0) + coef * cr
        return self.content / q_pow[K], [_nonzero(d) for d in out]

    # -- division by a linear factor ------------------------------------------

    def divide_exact_linear(self, form: SparsePoly) -> SparsePoly | None:
        """Exact quotient self / form for a polynomial of total degree 1, else None.

        Synthetic division in the form's highest variable, on the primitive
        parts.  By Gauss's lemma their exact quotient, if there is one, has
        integer coefficients, so the first coefficient that the pivot
        coefficient does not divide proves there is none.
        """
        if form.total_degree() != 1:
            raise ValueError("divisor must have total degree 1")
        if not self.terms:
            return self
        n = self.nvars
        top = _BITS * n
        content = self.content / form.content
        # the pivot is the highest variable in the form: its key is the largest
        pivot = max(form.terms)
        cv = form.terms[pivot]
        shift = (pivot ^ (1 << top)).bit_length() - 1
        tail = [(e, c) for e, c in form.terms.items() if e != pivot]
        by_deg: dict[int, dict[int, int]] = {}
        for e, c in self.terms.items():
            j = (e >> shift) & MAX_DEGREE
            by_deg.setdefault(j, {})[e - j * pivot] = c
        quot: dict[int, int] = {}
        for j in range(max(by_deg), 0, -1):
            nj = by_deg.get(j)
            if not nj:
                continue
            lower = by_deg.setdefault(j - 1, {})
            get = lower.get
            up = (j - 1) * pivot
            for e, c in nj.items():
                if not c:
                    continue
                g, r = divmod(c, cv)
                if r:
                    return None
                quot[e + up] = g
                for et, ct in tail:
                    e2 = e + et
                    lower[e2] = get(e2, 0) - g * ct
        if any(by_deg.get(0, {}).values()):
            return None
        return SparsePoly._raw(n, quot, content)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.items()):
            mono = "*".join(
                f"x{i}" if k == 1 else f"x{i}^{k}" for i, k in enumerate(e) if k
            )
            parts.append(f"{c}" if not mono else (f"{c}*{mono}" if c != 1 else mono))
        return " + ".join(parts)


def eps_line(c: SparsePoly, a: SparsePoly, e: int, m: int) -> tuple[Fraction, list[Terms]]:
    """c^(e+m-1) (c + a eps)^(-e) up to eps^(m-1), for c = c0 c' and a = a0 a'
    (content times primitive part) and a0/c0 = p/q in lowest terms: its eps^j
    coefficient (-1)^j C(e+j-1, j) a^j c^(m-1-j) is (c0/q)^(m-1) times the
    integer (-1)^j C(e+j-1, j) p^j q^(m-1-j) times a'^j c'^(m-1-j)."""
    top = _BITS * c.nvars
    p, q = (a.content / c.content).as_integer_ratio()
    c_pow, a_pow, coeffs = _powers(c.terms, m - 1, top), {0: 1}, []
    for j in range(m):
        t = c_pow[m - 1 - j]
        if j and not a.is_constant():
            a_pow = _nonzero(_mul_add({}, a_pow, a.terms, top))
            t = _nonzero(_mul_add({}, a_pow, t, top))
        k = (-1) ** j * comb(e + j - 1, j) * p ** j * q ** (m - 1 - j)
        coeffs.append({x: k * y for x, y in t.items()})
    return (c.content / q) ** (m - 1), coeffs


def eps_mul(s: list[Terms], t: list[Terms], orders: Iterable[int], nvars: int) -> list[Terms]:
    """The dicts of the given orders of the product of two eps-series."""
    top, out = _BITS * nvars, []
    for j in orders:
        d: Terms = {}
        for i in range(max(0, j + 1 - len(t)), min(j + 1, len(s))):
            if s[i] and t[j - i]:
                _mul_add(d, s[i], t[j - i], top)
        out.append(_nonzero(d))
    return out


def eps_coefficient(s: list[Terms], t: list[Terms], j: int, content: Fraction,
                    nvars: int) -> SparsePoly:
    """content times the eps^j coefficient of the product of two eps-series."""
    return SparsePoly._make(nvars, eps_mul(s, t, [j], nvars)[0], content)


def shifted_sum(nvars: int,
                parts: Iterable[tuple[Fraction, int, Exponents, SparsePoly]]) -> SparsePoly:
    """sum c k x^e p over the parts (c, k, e, p), for rational c and integer k.

    The sum is taken on integer dicts over one common denominator, so a
    part costs no ``Fraction`` and no normalization.
    """
    top = _BITS * nvars
    parts = [(c.numerator * k * p.content.numerator, c.denominator * p.content.denominator,
              _pack(e, nvars), p.terms) for c, k, e, p in parts if p.terms]
    den = lcm(*(q for _, q, _, _ in parts))
    out: Terms = {}
    get = out.get
    for n, q, shift, terms in parts:
        _check_degree((shift >> top) + (max(terms) >> top))
        m = n * (den // q)
        for e, c in terms.items():
            e += shift
            out[e] = get(e, 0) + m * c
    return SparsePoly._make(nvars, _nonzero(out), Fraction(1, den))


def binary_form(coeffs: list[int], x: SparsePoly, y: SparsePoly) -> SparsePoly:
    """sum_i coeffs[i] x^i y^(D-i) for integer coeffs, D = len(coeffs) - 1.

    With r the product of the two contents' denominators, x = X / r and
    y = Y / r for integer dicts X, Y, so the sum is taken over r^D on dicts.
    """
    n, top, D = x.nvars, _BITS * x.nvars, len(coeffs) - 1
    qx, qy = x.content.denominator, y.content.denominator
    xp, yp = (_powers({e: r * f.content.numerator * c for e, c in f.terms.items()}, D, top)
              for f, r in ((x, qy), (y, qx)))
    out: Terms = {}
    for i, c in enumerate(coeffs):
        if c and xp[i] and yp[D - i]:
            _mul_add(out, {e: c * a for e, a in xp[i].items()}, yp[D - i], top)
    return SparsePoly._make(n, _nonzero(out), Fraction(1, qx * qy) ** D)


class Rows:
    """Capped products lead * f_1 * ... * f_m on packed rows, for each given list of factors.

    ``pack`` turns a polynomial into (numerator, denominator, rows) with its
    content as two ints, ``mul`` multiplies two of them and ``unpack`` gives
    the polynomial back without its terms of degree above ``caps[v]`` in
    x_v.  The slot width is derived from ``lead`` and ``sets``, so only the
    products of lead and a sublist of one of the sets may be unpacked.
    """

    __slots__ = ("nvars", "width", "shift", "part", "step", "cap_u", "cap_w", "fields")

    def __init__(self, lead: SparsePoly, caps: dict[int, int],
                 sets: Iterable[Iterable[SparsePoly]]):
        n = self.nvars = lead.nvars
        norms: dict[int, int] = {}  # l1 norm of each factor, at least 1
        bound = 1
        for factors in sets:
            b = 1
            for f in factors:
                if (x := norms.get(id(f))) is None:
                    x = norms[id(f)] = sum(map(abs, f.terms.values())) or 1
                b *= x
            bound = max(bound, b)
        self.width = (max(map(abs, lead.terms.values()), default=0) * bound).bit_length() + 1
        order = sorted(range(n), key=caps.__contains__)  # uncapped variables first
        # with one variable the partner is the degree field, which holds e_u already
        u, w = order[0], order[1] if n > 1 else n
        self.shift, self.part = _BITS * u, _BITS * w
        self.step = (1 << self.shift) - (1 << self.part if n > 1 else 0)
        self.cap_u, self.cap_w = caps.get(u, MAX_DEGREE), caps.get(w, MAX_DEGREE)
        self.fields = [(_BITS * v, cap) for v, cap in caps.items() if v not in (u, w)]

    def pack(self, p: SparsePoly) -> tuple[int, int, Terms]:
        """(numerator, denominator, rows) of p."""
        shift, width, step = self.shift, self.width, self.step
        rows: Terms = {}
        get = rows.get
        for e, c in p.terms.items():
            j = (e >> shift) & MAX_DEGREE
            e -= j * step
            rows[e] = get(e, 0) + (c << (width * j))
        return p.content.numerator, p.content.denominator, rows

    def mul(self, a: tuple[int, int, Terms], b: tuple[int, int, Terms]) -> tuple[int, int, Terms]:
        """a * b without the rows above the caps on the variables other than the slot and
        its partner."""
        (pa, qa, ra), (pb, qb, rb) = a, b
        return pa * pb, qa * qb, _nonzero(_capped(ra, rb, _BITS * self.nvars, self.fields))

    def unpack(self, a: tuple[int, int, Terms]) -> SparsePoly:
        """The polynomial of a, without its terms above the caps."""
        p, q, rows = a
        width, step, part, fields = self.width, self.step, self.part, self.fields
        cap_u, cap_w = self.cap_u, self.cap_w
        half, digit = 1 << (width - 1), (1 << width) - 1
        offsets = [0]  # offsets[m]: half in each of the slots 0 .. m-1
        for j in range((max(rows, default=0) >> (_BITS * self.nvars)) + 1):
            offsets.append(offsets[-1] | half << (width * j))
        terms: Terms = {}
        for k, v in rows.items():
            if any((k >> shift) & MAX_DEGREE > cap for shift, cap in fields):
                continue
            # the nonzero slots of v lie between its lowest set bit and its length
            lo = ((v & -v).bit_length() - 1) // width
            if lo < (cut := ((k >> part) & MAX_DEGREE) - cap_w):
                lo = cut
            if (hi := abs(v).bit_length() // width) > cap_u:
                hi = cap_u
            v = (v + offsets[hi + 1]) >> (width * lo)  # each digit is now c + half, in [0, 2 half)
            for key in range(k + lo * step, k + (hi + 1) * step, step):
                if c := (v & digit) - half:
                    terms[key] = c
                v >>= width
        return SparsePoly._make(self.nvars, terms, Fraction(p, q))


def linear_form(coeffs: dict[int, Fraction | int], nvars: int) -> SparsePoly:
    """Homogeneous linear form sum_i coeffs[i] * x_i."""
    terms: dict[Exponents, Fraction | int] = {}
    for i, c in coeffs.items():
        e = [0] * nvars
        e[i] = 1
        terms[tuple(e)] = c
    return SparsePoly(nvars, terms)

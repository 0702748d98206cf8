"""Truncated Laurent-Puiseux series in q with Cyc8 coefficients.

Exponents live on a fixed fractional lattice: a series with lattice denominator
D stores the coefficient of q^(k/D) under the integer key k.  Every series
carries an explicit truncation order (scaled): coefficients are certified
exactly for all exponents strictly below order/D and no key >= order is kept.
All arithmetic propagates the worst-case order; nothing is silently extended.

Representation and cost: a series stores rows {zeta-row r: four component
tables}, the tables dicts {key: non-zero component i of the coefficient},
keys below the order, each component an int unless non-integral; a row with
no key is not kept.  A QSeries is the row-0 case; a JSeries (jseries) keys
its rows by zeta-exponent.  Each operation the two share is written once
over the rows (_Series), and every walk works on the tables as plain numbers
and builds fresh ones through _assemble: sums (_sum, which + and
sum_of_series are, and _from_terms) add into one set of rows, products
(sum_of_products) convolve pairs of tables, row ra with row rb into row
ra + rb, and a chain of binomial factors (1 + c*q^e*zeta^d)^(+-1)
(binomials, _binomial_rows) updates a copy in place, O(N) per product and
O(N - e) per quotient, and folds the factors with e <= 0 into one monomial.
q-Pochhammer products and quotients are such chains.  A q-factorial sum
sum_n m_n R_n E_n (ratio_sum, _ratio_rows) carries its ratio R_n as one
chain's tables across the n-loop, below the order minus the shift of m_n,
applies the extra factors E_n to a copy, and adds every term into one
accumulator, assembled once; folded monomials lower its order, never raise
it.  A stored series is never written.  A Cyc8 is built only at the
boundary (indexing, terms(), coeff, to_pairs, eval_mpc, first_mismatch's
witness) and for factors.  Exponents are made exact by cyc8._canonical, the
package's one float refusal: a Monomial's are ints when integral, as Cyc8's
components are.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .cyc8 import Cyc8, ONE, _canonical, _coerce, mul4
from .errors import (DivergentProduct, LatticeMismatch,
                     NonExpandableDenominator, NonInvertibleLeadingTerm)

Rat = Union[int, Fraction]

def _scale(exp: Rat, D: int) -> int:
    if type(exp) is int:
        return exp * D
    e = _canonical(exp) * D
    if e.denominator != 1:
        raise LatticeMismatch(f"exponent {Fraction(exp)} not on the 1/{D} lattice")
    return e.numerator


class Monomial:
    """c * q^a * zeta^b with exact coefficient and exponents."""

    __slots__ = ("coeff", "q_exp", "z_exp")

    def __init__(self, coeff=1, q_exp: Rat = 0, z_exp: Rat = 0):
        self.coeff = _coerce(coeff)
        self.q_exp = _canonical(q_exp)
        self.z_exp = _canonical(z_exp)

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.coeff * other.coeff, self.q_exp + other.q_exp,
                        self.z_exp + other.z_exp)

    def pow(self, r: Rat) -> "Monomial":
        """Raise to an exact power; the coefficient must be a known root times
        a rational for fractional r, so we only allow integer r here."""
        k = _canonical(r)
        if type(k) is not int:
            raise ValueError("fractional powers of general monomials are not defined")
        base = self.coeff if k >= 0 else self.coeff.inverse()
        c = ONE
        for _ in range(abs(k)):
            c = c * base
        return Monomial(c, self.q_exp * k, self.z_exp * k)

    def __repr__(self):
        return f"Monomial({self.coeff!r}, q_exp={self.q_exp}, z_exp={self.z_exp})"


class _Series:
    """The stored form of QSeries and JSeries: on the lattices (1/D in q, 1/Dz
    in zeta), rows {zeta-row r: four component tables} below one scaled
    order.  The operations both types have are written here, once, over the
    rows.  Each type keeps its own constructor, and its own one-line __mul__
    and first_mismatch, which perfbench/spans.py wraps in each class body."""

    __slots__ = ("D", "Dz", "rows", "order")

    # -- inspection ------------------------------------------------------------

    def floor_key(self) -> int:
        """Least stored scaled q-exponent over all rows (order when zero)."""
        return min((min(t) for tables in self.rows.values() for t in tables if t),
                   default=self.order)

    def order_exp(self) -> Fraction:
        return Fraction(self.order, self.D)

    def is_zero(self) -> bool:
        return not self.rows

    def _at(self, k: int, r: int = 0) -> Tuple[Rat, Rat, Rat, Rat]:
        t0, t1, t2, t3 = self.rows.get(r, _NO_TABLES)
        return t0.get(k, 0), t1.get(k, 0), t2.get(k, 0), t3.get(k, 0)

    def _check(self, other: "_Series"):
        if type(other) is not type(self) or (self.D, self.Dz) != (other.D, other.Dz):
            raise LatticeMismatch(f"{type(self).__name__} on 1/{self.D}, zeta 1/{self.Dz} vs "
                                  f"{type(other).__name__} on 1/{other.D}, zeta 1/{other.Dz}")

    def __eq__(self, other) -> bool:
        """Equal coefficients to one common order; series known to different
        orders are not equal."""
        if type(other) is not type(self):
            return NotImplemented
        return self.first_mismatch(other) is None and self.order == other.order

    __hash__ = None   # mutable container semantics

    def _witness(self, other: "_Series"):
        """(q-exponent, zeta-exponent, self's, other's coefficient) at the least
        q-exponent, then least zeta-row, below the common order where the two
        differ, found on both sides' tables; None when they agree."""
        self._check(other)
        common = min(self.order, other.order)
        diff = [(k, r) for r in self.rows.keys() | other.rows.keys()
                for a, b in zip(self.rows.get(r, _NO_TABLES), other.rows.get(r, _NO_TABLES))
                for k in a.keys() | b.keys() if k < common and a.get(k, 0) != b.get(k, 0)]
        if not diff:
            return None
        k, r = min(diff)
        return (Fraction(k, self.D), Fraction(r, self.Dz),
                Cyc8(*self._at(k, r)), Cyc8(*other._at(k, r)))

    # -- arithmetic -----------------------------------------------------------------

    def __add__(self, other):
        return _sum(self, (self, other), self.order)

    def __neg__(self):
        return _assemble(self, self.rows, self.order, _coerce(-1))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return _assemble(self, self.rows, self.order, _coerce(c))

    def mul_monomial(self, mono: Monomial):
        return _assemble(self, self.rows, self.order,
                         *self._monomial(mono.coeff, mono.q_exp, mono.z_exp))

    def truncate(self, order_exp: Rat):
        return _assemble(self, self.rows, min(self.order, _scale(order_exp, self.D)))

    def _product(self, other):
        # the order contract over all rows at once: a per-row-pair order would
        # certify terms that a product of other rows could still reach
        self._check(other)
        order = min(self.order + other.floor_key(), other.order + self.floor_key())
        return sum_of_products(self, [(self, other)], order)

    def binomials(self, factors: Iterable[tuple]):
        """self times (1 + c*q^q_exp*zeta^z_exp)^sign over the factors
        (c, q_exp, sign) of a QSeries or (c, q_exp, z_exp, sign) of a JSeries,
        sign = +1 or -1: _binomial_rows on a copy of self's rows, O(N) per
        factor with q_exp > 0 at self's order, O(N - q_exp) for a quotient,
        assembled once.  The factors with q_exp <= 0 fold into one monomial,
        so a product's order drops by |q_exp| and a quotient's rises by
        |q_exp|, as with the factor's series or its inverse; a zeta-quotient
        raises NonExpandableDenominator."""
        rows, *mono = _binomial_rows(_copy(self.rows), self._factors(factors), self.order)
        return _assemble(self, rows, self.order, *mono)

    def ratio_sum(self, steps: Iterable[tuple]):
        """sum_n m_n R_n E_n over the steps (m_n, carried, extra), m_n =
        (c, q_exp) or (c, q_exp, z_exp) for c*q^q_exp*zeta^z_exp, the factors
        as binomials takes them: R_n is R_(n-1) (R_0 = self) times the carried
        ones, E_n the extra ones (_ratio_rows)."""
        return _assemble(self, *_ratio_rows(self, steps))


_NO_TABLES = ({}, {}, {}, {})   # the tables of an absent row; read, never written


class QSeries(_Series):
    """Sparse truncated Laurent-Puiseux series in q over Q(zeta8), the row-0
    case of _Series; the constructor takes the boundary form {key: Cyc8}."""

    __slots__ = ()

    def __init__(self, D: int, coeff: Optional[Dict[int, Cyc8]] = None,
                 order: int = 0):
        if D <= 0:
            raise ValueError("lattice denominator must be positive")
        self.D, self.Dz = D, 1
        self.order = order          # scaled: exponents k/D with k < order are certified
        tables = ({}, {}, {}, {})
        for k, c in (coeff or {}).items():
            if k < order:
                for t, x in zip(tables, c.components()):
                    if x:
                        t[k] = x
        self.rows = {0: tables} if any(tables) else {}

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(D: int, order_exp: Rat) -> "QSeries":
        return QSeries(D, {}, _scale(order_exp, D))

    @staticmethod
    def one(D: int, order_exp: Rat) -> "QSeries":
        return QSeries(D, {0: ONE}, _scale(order_exp, D))

    @staticmethod
    def from_terms(D: int, terms: Iterable[Tuple[Rat, Union[Cyc8, Rat]]],
                   order_exp: Rat) -> "QSeries":
        """The sum of c*q^exp over the terms (exp, c), c a Cyc8, int or
        Fraction (_from_terms)."""
        return _from_terms(QSeries(D), ((exp, 0, c) for exp, c in terms), order_exp)

    # -- inspection ------------------------------------------------------------

    @property
    def tables(self) -> Tuple[Dict[int, Rat], ...]:
        """The four component tables of row 0."""
        return self.rows.get(0, _NO_TABLES)

    def keys(self) -> List[int]:
        """The stored scaled exponents, ascending."""
        return sorted(set().union(*self.tables))

    @property
    def coeff(self) -> Dict[int, Cyc8]:
        """A read-only view {key: Cyc8} of the stored terms."""
        return {k: Cyc8(*self._at(k)) for k in self.keys()}

    def __getitem__(self, exp: Rat) -> Cyc8:
        k = _scale(exp, self.D)
        if k >= self.order:
            raise IndexError(f"coefficient of q^{Fraction(exp)} is beyond the truncation order")
        return Cyc8(*self._at(k))

    def terms(self) -> Iterable[Tuple[Fraction, Cyc8]]:
        for k in self.keys():
            yield Fraction(k, self.D), Cyc8(*self._at(k))

    def first_mismatch(self, other: "QSeries") -> Optional[Tuple[Fraction, Cyc8, Cyc8]]:
        """Smallest exponent (below the common order) where the two differ,
        with both coefficients (_Series._witness)."""
        w = self._witness(other)
        return None if w is None else (w[0], w[2], w[3])

    # -- lattice management ------------------------------------------------------

    def refine(self, D2: int) -> "QSeries":
        """Re-express on a finer lattice (D2 must be a multiple of D)."""
        if D2 % self.D != 0:
            raise LatticeMismatch(f"1/{D2} does not refine 1/{self.D}")
        m = D2 // self.D
        return _assemble(QSeries(D2), {0: [{k * m: v for k, v in t.items()} for t in self.tables]},
                         self.order * m)

    # -- arithmetic -----------------------------------------------------------------

    def shift(self, exp: Rat) -> "QSeries":
        """Multiply by q^exp."""
        return _assemble(self, self.rows, self.order, ONE, _scale(exp, self.D))

    def _monomial(self, c, exp, z_exp=0):
        if z_exp:
            raise LatticeMismatch("zeta-carrying monomial on a QSeries")
        return _coerce(c), _scale(exp, self.D), 0

    def _factors(self, factors):
        return [(_coerce(c), _scale(exp, self.D), 0, sign) for c, exp, sign in factors]

    def __mul__(self, other: "QSeries") -> "QSeries":
        return self._product(other)

    def invert(self) -> "QSeries":
        """Laurent inversion.

        Writing A = q^(f/D) * U with U a unit power series known to order
        (order - f), the result q^(-f/D) * U^(-1) is certified to order
        (order - 2f).
        """
        if self.is_zero():
            raise NonInvertibleLeadingTerm("cannot invert the zero series")
        f = self.floor_key()
        n = self.order - f       # available length of the unit part
        lead_inv = Cyc8(*self._at(f)).inverse()
        m = (-lead_inv).components()
        terms = [(k - f, self._at(k)) for k in self.keys() if k > f]
        inv = {0: lead_inv.components()}
        for k in range(1, n):
            s0 = s1 = s2 = s3 = 0
            for j, x in terms:
                if j > k:
                    break
                y = inv.get(k - j)
                if y is not None:
                    p0, p1, p2, p3 = mul4(x, y)
                    s0, s1, s2, s3 = s0 + p0, s1 + p1, s2 + p2, s3 + p3
            if s0 or s1 or s2 or s3:
                inv[k] = mul4(m, (s0, s1, s2, s3))
        return _assemble(self, {0: [{k - f: c[i] for k, c in inv.items()} for i in range(4)]},
                         n - f)

    def pow(self, k: int) -> "QSeries":
        """self^k for k >= 0; a quotient is a binomial chain or QSeries.invert."""
        if k < 0:
            raise ValueError("negative power of a series")
        if k == 0:
            return QSeries.one(self.D, self.order_exp())
        result = self
        for _ in range(k - 1):
            result = result * self
        return result

    # -- numerics / serialization ----------------------------------------------------

    def eval_mpc(self, mp, q):
        """Sum the stored terms at a numeric q (mpmath complex)."""
        out = mp.mpc(0)
        for k in self.keys():
            out += Cyc8(*self._at(k)).to_mpc(mp) * mp.power(q, mp.mpf(k) / self.D)
        return out

    def to_pairs(self):
        """JSON form: ascending [exponent "k/D", coefficient] pairs."""
        return [[str(e), str(c)] for e, c in self.terms()]

    def __repr__(self):
        ts = [f"({c})q^{e}" for e, c in list(self.terms())[:6]]
        more = " + ..." if len(self.keys()) > 6 else ""
        return f"QSeries[D={self.D}, O(q^{self.order_exp()})]: " + " + ".join(ts) + more


def sum_of_products(like: _Series, pairs: Iterable[tuple], order: int):
    """The sum of a * b over the pairs, of like's type and lattices, kept below
    the scaled order (which the caller certifies): row ra of a with row rb of
    b into row ra + rb.  Every pair of non-empty component tables (i of a's
    row, j of b's) is one scalar convolution into output component (i + j)
    mod 4, negated when i + j >= 4 (zeta^4 = -1).  All pairs accumulate into
    one set of rows of plain numbers, assembled once.  A rational product is
    a single convolution."""
    acc = {}
    for a, b in pairs:
        b_rows = [(rb, [(j, sorted(t.items())) for j, t in enumerate(tables) if t])
                  for rb, tables in b.rows.items()]
        for ra, a_tables in a.rows.items():
            for rb, b_parts in b_rows:
                tables = acc.setdefault(ra + rb, ({}, {}, {}, {}))
                for i, a_part in enumerate(a_tables):
                    for j, b_part in b_parts:
                        out = tables[(i + j) & 3]
                        sign = -1 if i + j >= 4 else 1
                        for ka, x in a_part.items():
                            x = sign * x
                            room = order - ka
                            for kb, y in b_part:
                                if kb >= room:
                                    break
                                k = ka + kb
                                out[k] = out.get(k, 0) + x * y
    return _assemble(like, acc, order)


def sum_of_series(D: int, series: Iterable[QSeries], order: int) -> QSeries:
    """The sum of the series on the 1/D lattice (_sum)."""
    return _sum(QSeries(D), series, order)


def _sum(like: _Series, series, order: int):
    """The sum of the series, of like's type and lattices, below the scaled
    order lowered to the shortest summand's.  Each summand's rows add into
    one set (_add_rows), assembled once: the keys that a later, shorter
    summand puts past the order are dropped there."""
    acc = {}
    for s in series:
        like._check(s)
        order = min(order, s.order)
        _add_rows(acc, s.rows, ONE, 0, 0, order)
    return _assemble(like, acc, order)


def _from_terms(like: _Series, terms, order_exp: Rat):
    """The sum of c*q^q_exp*zeta^z_exp over the terms (q_exp, z_exp, c), c a
    Cyc8, int or Fraction, of like's type and lattices: components added into
    one set of rows, assembled once."""
    order = _scale(order_exp, like.D)
    rows = defaultdict(lambda: ({}, {}, {}, {}))
    for qe, ze, c in terms:
        k, r = _scale(qe, like.D), _scale(ze, like.Dz)
        if k < order:
            parts = (c,) if isinstance(c, (int, Fraction)) else _coerce(c).components()
            for t, x in zip(rows[r], parts):
                if x:
                    t[k] = t.get(k, 0) + x
    return _assemble(like, rows, order)


def _add_rows(acc, rows, c: Cyc8, e: int, d: int, order: int):
    """acc[r + d] += c*q^e*zeta^d * rows[r] below the order, on component
    tables: component i of c*x collects c_j * x_l over j + l = i mod 4,
    negated when j + l >= 4 (zeta^4 = -1).  acc may be rows itself: rows are
    taken away from the side written to, so each is read before it is
    written, straight from its tables; only a row written into itself
    (d = 0) is read into lists first."""
    c_parts = [(j, x) for j, x in enumerate(c.components()) if x]
    for r in sorted(rows, reverse=d > 0):
        t = acc.setdefault(r + d, ({}, {}, {}, {}))
        src = rows[r]
        src = [list(s_l.items()) for s_l in src] if src is t else [s_l.items() for s_l in src]
        for l, s_l in enumerate(src):
            for j, x in c_parts:
                t_i = t[(j + l) & 3]
                x = -x if j + l >= 4 else x
                for k, y in s_l:
                    k += e
                    if k < order:
                        t_i[k] = t_i.get(k, 0) + x * y


def _add_root(rows, r: int, k: int, m: int):
    """rows[r] += zeta8^m * q^(k/D): component m & 3, negated by m & 4."""
    t = rows.setdefault(r, ({}, {}, {}, {}))[m & 3]
    t[k] = t.get(k, 0) + (-1 if m & 4 else 1)


def _spans(rows, order: int):
    """{r: (lo, G)}: row r's least key (the order when it has none) and the
    gcd of its keys, so that every key is a multiple of G and none is below
    lo."""
    return {r: (min((min(t) for t in tables if t), default=order),
                math.gcd(*(math.gcd(*t) for t in tables)))
            for r, tables in rows.items()}


def _binomial_rows(rows, factors, order: int, coef: Cyc8 = ONE, shift: int = 0,
                   dshift: int = 0):
    """The factors (c, e, d, sign) = (1 + c*zeta^d*q^e)^sign, scaled int
    exponents, on component tables keyed by zeta-row, in place at the order:
    keys at or past it (a lowered order leaves them behind) are dropped
    first, from the tables whose greatest key is.  Returns the rows and
    coef*q^shift*zeta^dshift times the monomial folded from the factors that
    are no step: e = d = 0 is the scalar 1 + c, and e < 0 is c*zeta^d*q^e
    times the step 1 + c^-1*zeta^-d*q^-e.

    A zeta-step (d != 0) is _add_rows from row r into row r + d.  A step with
    d = 0 works row by row (_multiply_tables, _divide_tables) on the row's
    span (lo, G) of _spans, taken once and kept across such steps: a step by
    q^e adds keys only at lo + e or above, on multiples of g = gcd(G, e), so
    g becomes the row's G and lo stays (a key that cancels only leaves it
    low).  A zeta-step moves keys between rows; the spans are taken again
    before the next step with d = 0."""
    for t in [t for tables in rows.values() for t in tables if t and max(t) >= order]:
        for k in [k for k in t if k >= order]:
            del t[k]
    spans = None
    for c, e, d, sign in factors:
        if c.is_zero():
            continue
        if d and sign < 0:
            raise NonExpandableDenominator("1/(1 + c*zeta^d*q^e) is no finite zeta-polynomial")
        if e < 0 or not (e or d):
            mono, k, dk = (c, e, d) if e < 0 else (ONE + c, 0, 0)
            if sign < 0:
                if mono.is_zero():
                    raise NonInvertibleLeadingTerm("division by the zero factor 1 + c*q^0")
                mono, k = mono.inverse(), -k
            coef, shift, dshift = coef * mono, shift + k, dshift + dk
            if not e:
                continue
            c, e, d = c.inverse(), -e, -d
        if d:
            _add_rows(rows, rows, c, e, d, order)
            spans = None
            continue
        if spans is None:
            spans = _spans(rows, order)
        for r, tables in rows.items():
            lo, g = spans[r]
            g = math.gcd(g, e)
            spans[r] = lo, g
            if sign > 0:
                _multiply_tables(tables, c, e, order)
            else:
                _divide_tables(tables, c, e, lo, g, order)
    return rows, coef, shift, dshift


def _copy(rows):
    """Fresh component tables for a walk that writes them."""
    return {r: [dict(t) for t in tables] for r, tables in rows.items()}


def _ratio_rows(series, steps):
    """ratio_sum on a copy of the series' rows, the ratio kept below order - e
    for m_n = c*q^e*zeta^d.  Returns the sum's rows and order."""
    rows, order = _copy(series.rows), series.order
    acc, top, low, mono = {}, order, order, (ONE, 0, 0)
    for m, carried, extra in steps:
        c, e, d = series._monomial(*m)
        top = min(top, order - e)
        mono = _binomial_rows(rows, series._factors(carried), top, *mono)[1:]
        term, tc, ts, td = (_binomial_rows(_copy(rows), series._factors(extra), top, *mono)
                            if extra else (rows, *mono))
        low = min(low, top + e + ts)
        _add_rows(acc, term, c * tc, e + ts, d + td, low)
    return acc, low


def _multiply_tables(tables, c: Cyc8, e: int, order: int):
    """s * (1 + c*q^e) in place on s's component tables (keys below the
    order), for e > 0.  A rational c keeps each component apart: its stored
    keys by descending k, t_(k+e) += c*t_k, so each key is read before it is
    written.  Any other c mixes the components (_add_rows of the row into
    itself)."""
    if not c.is_rational():
        _add_rows({0: tables}, {0: tables}, c, e, 0, order)
        return
    x = c.c0
    top = order - e
    for t in tables:
        for k in sorted(t, reverse=True):
            if k < top:
                j = k + e
                v = t.get(j, 0) + x * t[k]
                if v:
                    t[j] = v
                else:
                    t.pop(j, None)


def _divide_tables(tables, c: Cyc8, e: int, lo: int, g: int, order: int):
    """s / (1 + c*q^e) in place on s's component tables (keys below the
    order), for e > 0, in O(N - e): t_k = s_k - c*t_(k-e) by ascending k from
    lo + e up to the order in steps of g, where no key is below lo and every
    key and e are multiples of g: the only keys the quotient can reach.  A
    rational c keeps each component apart: one scalar recurrence per
    non-empty table.  Any other c mixes all four (mul4), read at k - e before
    any is written at k."""
    if c.is_rational():
        x = c.c0
        for t in tables:
            if t:
                for k in range(lo + e, order, g):
                    y = t.get(k - e)
                    if y:
                        v = t.get(k, 0) - x * y
                        if v:
                            t[k] = v
                        else:
                            del t[k]
        return
    m = (-c).components()
    for k in range(lo + e, order, g):
        y = [t.get(k - e, 0) for t in tables]
        if any(y):
            for t, d in zip(tables, mul4(m, y)):
                v = t.get(k, 0) + d
                if v:
                    t[k] = v
                else:
                    t.pop(k, None)


def _assemble(like: _Series, rows, order: int, coef: Cyc8 = ONE, shift: int = 0,
              dshift: int = 0):
    """The series of like's type and lattices with the rows of component
    tables times coef*q^(shift/D)*zeta^(dshift/Dz), to the scaled order +
    shift: the one way a walk's tables become a series.  The factor goes
    through _add_rows; fresh tables are then built without zero values or
    keys at or past the order, each value an int when integral (as Cyc8
    stores it), and a row left with no key is dropped.  The tables passed in
    are read, never kept."""
    if shift or dshift or coef != ONE:
        order += shift
        acc: Dict[int, Tuple[Dict[int, Rat], ...]] = {}
        _add_rows(acc, rows, coef, shift, dshift, order)
        rows = acc
    out = object.__new__(type(like))
    out.D, out.Dz, out.order, out.rows = like.D, like.Dz, order, {}
    for r, tables in rows.items():
        tables = tuple({k: v if type(v) is int or v.denominator > 1 else v.numerator
                        for k, v in t.items() if v and k < order} for t in tables)
        if any(tables):
            out.rows[r] = tables
    return out


def pochhammer_exponents(q_exp: Rat, n: Optional[int], order_exp: Rat,
                         step: Rat = 1) -> Iterable[Rat]:
    """The factor exponents q_exp + j*step (j = 0 .. n-1) of (a; q^step)_n,
    ints when q_exp and step are integral.

    n=None means the infinite product; its factors that are 1 mod q^order are
    dropped, which requires step > 0 (otherwise the product diverges).
    """
    q_exp, step = _canonical(q_exp), _canonical(step)
    if n is None and step <= 0:
        raise DivergentProduct("infinite q-Pochhammer with non-increasing exponents")
    j = 0
    while n is None or j < n:
        e = q_exp + j * step
        if n is None and e >= order_exp:
            return
        yield e
        j += 1


def pochhammer_factors(base: Monomial, n: Optional[int], order_exp: Rat,
                       step: Rat = 1, sign: int = 1) -> List[Tuple[Cyc8, Rat, int]]:
    """The factors (-a, e, sign) of (a; q^step)_n^sign for QSeries.binomials,
    one per exponent of pochhammer_exponents."""
    if base.z_exp != 0:
        raise LatticeMismatch("use jseries.jpochhammer for zeta-carrying bases")
    a = -base.coeff
    return [(a, e, sign) for e in pochhammer_exponents(base.q_exp, n, order_exp, step)]


def qpochhammer(D: int, base: Monomial, n: Optional[int], order_exp: Rat,
                step: Rat = 1) -> QSeries:
    """(a; q^step)_n = prod_{j=0}^{n-1} (1 - a*q^(j*step)) truncated at order,
    as one binomial chain."""
    return QSeries.one(D, order_exp).binomials(pochhammer_factors(base, n, order_exp, step))


def over_qpochhammer(s: QSeries, base: Monomial, n: Optional[int],
                     step: Rat = 1, power: int = 1) -> QSeries:
    """s / (a; q^step)_n^power as one binomial chain (O(N) per factor).

    For n=None the product stops at the first factor exponent e with
    floor(s) + e >= order(s): such a factor only changes keys at or past the
    order.  Each division keeps order(s) - floor(s), so the bound read off s
    holds for every partial quotient, including for a Laurent s."""
    reach = Fraction(s.order - s.floor_key(), s.D)
    return s.binomials(pochhammer_factors(base, n, reach, step, -1) * power)

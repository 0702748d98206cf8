"""q-truncated series whose q-coefficients are finite zeta-Laurent polynomials.

A JSeries on lattices (D, Dz) stores, for each zeta-exponent r/Dz with a
non-zero coefficient, the QSeries [zeta^(r/Dz)] under rows[r].  Every row
carries the JSeries' one truncation order, so the q-side has the QSeries
order contract and all coefficient arithmetic is QSeries arithmetic; the
zeta-side is always finite.  Substituting zeta := 1 (or any zeta-free
monomial) yields a QSeries, with the truncation order reduced by the worst
leftward exponent shift the substitution can cause.

The rows store component tables and build a Cyc8 only at the boundary, as
every QSeries does.  Binomial chains (JSeries.binomials, jpochhammer) and the
carried-ratio walk (JSeries.ratio_sum) run on copies of them: a zeta-factor
c*q^e*zeta^d adds c*q^e times row r - d into row r.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .cyc8 import Cyc8, ONE, _coerce
from .errors import LatticeMismatch, PrecisionExhausted
from .qseries import (Monomial, QSeries, _add_rows, _assemble, _binomial_rows, _copy,
                      _ratio_rows, _scale, pochhammer_exponents, sum_of_products)

Rat = Union[int, Fraction]


class JSeries:
    __slots__ = ("D", "Dz", "rows", "order")

    def __init__(self, D: int, Dz: int, rows: Optional[Dict[int, QSeries]] = None,
                 order: int = 0):
        """rows[r] is the QSeries [zeta^(r/Dz)]; each row's order is order."""
        self.D = D
        self.Dz = Dz
        self.order = order
        self.rows: Dict[int, QSeries] = {r: s for r, s in (rows or {}).items()
                                         if not s.is_zero()}

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def one(D: int, Dz: int, order_exp: Rat) -> "JSeries":
        return JSeries(D, Dz, {0: QSeries.one(D, order_exp)}, _scale(order_exp, D))

    @staticmethod
    def from_terms(D: int, Dz: int, terms: Iterable[Tuple[Rat, Rat, Cyc8]],
                   order_exp: Rat) -> "JSeries":
        by_row: Dict[int, List[Tuple[Rat, Cyc8]]] = {}
        for qe, ze, c in terms:
            by_row.setdefault(_scale(ze, Dz), []).append((qe, c))
        return JSeries(D, Dz, {r: QSeries.from_terms(D, t, order_exp)
                               for r, t in by_row.items()}, _scale(order_exp, D))

    @staticmethod
    def _from_tables(D: int, Dz: int, order: int, rows, coef: Cyc8 = ONE, shift: int = 0,
                     dshift: int = 0) -> "JSeries":
        """Component tables by zeta-row, keys below the scaled order (as from
        qseries._binomial_rows), assembled times coef*q^(shift/D)*zeta^(dshift/Dz)."""
        return JSeries(D, Dz, {r + dshift: _assemble(D, t, order, coef, shift)
                               for r, t in rows.items()}, order + shift)

    @staticmethod
    def from_qseries(s: QSeries, Dz: int) -> "JSeries":
        return JSeries(s.D, Dz, {0: s}, s.order)

    # -- inspection --------------------------------------------------------------

    def floor_key(self) -> int:
        return min((s.floor_key() for s in self.rows.values()), default=self.order)

    def order_exp(self) -> Fraction:
        return Fraction(self.order, self.D)

    def is_zero(self) -> bool:
        return not self.rows

    def zeta_support(self) -> Tuple[Fraction, Fraction]:
        """(min, max) zeta-exponent over all stored terms; (0, 0) when empty."""
        if not self.rows:
            return Fraction(0), Fraction(0)
        return Fraction(min(self.rows), self.Dz), Fraction(max(self.rows), self.Dz)

    def _row(self, r: int) -> QSeries:
        return self.rows.get(r) or QSeries(self.D, {}, self.order)

    def coefficient(self, q_exp: Rat, z_exp: Rat) -> Cyc8:
        return self._row(_scale(z_exp, self.Dz))[q_exp]

    def zeta_slice(self, z_exp: Rat) -> QSeries:
        """The QSeries [zeta^z_exp] of this series."""
        return self._row(_scale(z_exp, self.Dz))

    def first_mismatch(self, other: "JSeries"):
        """(q-exponent, zeta-exponent, self's, other's coefficient) at the
        least q-exponent, then least zeta-exponent, where the two differ."""
        self._check(other)
        found = []
        for r in self.rows.keys() | other.rows.keys():
            mm = self._row(r).first_mismatch(other._row(r))
            if mm is not None:
                found.append((mm[0], Fraction(r, self.Dz), mm[1], mm[2]))
        return min(found, key=lambda m: m[:2], default=None)

    def __eq__(self, other) -> bool:
        """Equal coefficients to one common order; series known to different
        orders are not equal."""
        if not isinstance(other, JSeries):
            return NotImplemented
        return self.first_mismatch(other) is None and self.order == other.order

    # -- arithmetic -----------------------------------------------------------------

    def _check(self, other: "JSeries"):
        if self.D != other.D or self.Dz != other.Dz:
            raise LatticeMismatch("JSeries lattice mismatch")

    def __add__(self, other: "JSeries") -> "JSeries":
        self._check(other)
        order = min(self.order, other.order)
        return JSeries(self.D, self.Dz,
                       {r: self._row(r) + other._row(r)
                        for r in self.rows.keys() | other.rows.keys()}, order)

    def __neg__(self) -> "JSeries":
        return JSeries(self.D, self.Dz, {r: -s for r, s in self.rows.items()}, self.order)

    def __sub__(self, other: "JSeries") -> "JSeries":
        return self + (-other)

    def scale(self, c) -> "JSeries":
        return JSeries(self.D, self.Dz, {r: s.scale(c) for r, s in self.rows.items()},
                       self.order)

    def mul_monomial(self, mono: Monomial) -> "JSeries":
        dz = _scale(mono.z_exp, self.Dz)
        q_part = Monomial(mono.coeff, mono.q_exp)
        return JSeries(self.D, self.Dz,
                       {r + dz: s.mul_monomial(q_part) for r, s in self.rows.items()},
                       self.order + _scale(mono.q_exp, self.D))

    def __mul__(self, other) -> "JSeries":
        if isinstance(other, QSeries):
            other = JSeries.from_qseries(other, self.Dz)
        self._check(other)
        # the order contract over all rows at once: a per-row-pair order would
        # certify terms that a product of other rows could still reach
        order = min(self.order + other.floor_key(), other.order + self.floor_key())
        pairs: Dict[int, List[Tuple[QSeries, QSeries]]] = {}
        for ra, a in self.rows.items():
            for rb, b in other.rows.items():
                pairs.setdefault(ra + rb, []).append((a, b))
        return JSeries(self.D, self.Dz,
                       {r: sum_of_products(self.D, p, order) for r, p in pairs.items()},
                       order)

    def _factors(self, factors):
        return [(_coerce(c), _scale(q, self.D), _scale(z, self.Dz), s) for c, q, z, s in factors]

    def _monomial(self, c, qe, ze):
        return _coerce(c), _scale(qe, self.D), _scale(ze, self.Dz)

    def binomials(self, factors: Iterable[Tuple[object, Rat, Rat, int]]) -> "JSeries":
        """self times (1 + c*q^q_exp*zeta^z_exp)^sign over the factors
        (c, q_exp, z_exp, sign), on copies of the rows' tables, assembled once
        (_binomial_rows); a zeta-quotient raises NonExpandableDenominator."""
        return JSeries._from_tables(self.D, self.Dz, self.order, *_binomial_rows(
            _copy({r: s.tables for r, s in self.rows.items()}), self._factors(factors), self.order))

    def ratio_sum(self, steps: Iterable[tuple]) -> "JSeries":
        """QSeries.ratio_sum on the rows; m_n = (c, q_exp, z_exp) is c*q^q_exp*zeta^z_exp."""
        acc, order = _ratio_rows(self, {r: s.tables for r, s in self.rows.items()}, steps)
        return JSeries._from_tables(self.D, self.Dz, order, acc)

    def truncate(self, order_exp: Rat) -> "JSeries":
        order = min(self.order, _scale(order_exp, self.D))
        return JSeries(self.D, self.Dz,
                       {r: s.truncate(order_exp) for r, s in self.rows.items()}, order)

    # -- substitution -------------------------------------------------------------

    def _landing_order(self, val: Monomial, tail_landing: Optional[int]) -> int:
        """Certified scaled q-order after zeta := val.

        Unknown terms (q-exponent >= order) can land left of the order when
        val carries a positive q-exponent and negative zeta-exponents occur;
        callers with cone-structure knowledge pass an exact tail_landing bound,
        otherwise the stored zeta-floor is used as the tail's assumed floor.
        """
        if tail_landing is not None:
            return min(self.order, tail_landing)
        e = _scale(val.q_exp, self.D)
        if e == 0:
            return self.order
        zmin, zmax = self.zeta_support()
        worst = min(0, min(_scale(zmin * e, self.D), _scale(zmax * e, self.D)))
        return self.order + worst

    def _land(self, val: Monomial, order: int, weighted: bool = False):
        """The rows with zeta^r := val^r (times r when weighted) summed to a
        QSeries certified to order, and the keys the rows' least terms land on.
        Each row's stored tables add into one accumulator (_add_rows, times
        the coefficient of val^r at its q-shift), assembled once."""
        acc, floors = {0: ({}, {}, {}, {})}, []
        for r, s in self.rows.items():
            rr = Fraction(r, self.Dz)
            if rr.denominator == 1:
                vc = val.pow(rr.numerator)
            elif val.coeff == ONE:
                # fractional zeta-powers only specialize cleanly at val = q^e
                vc = Monomial(1, val.q_exp * rr, 0)
            else:
                raise LatticeMismatch(
                    f"cannot substitute a general monomial into zeta^{rr}")
            e = _scale(vc.q_exp, self.D)
            _add_rows(acc, {0: s.tables},
                      Cyc8(rr) * vc.coeff if weighted else vc.coeff, e, 0, order)
            floors.append(s.floor_key() + e)
        return _assemble(self.D, acc[0], order), floors

    def substitute(self, val: Monomial, tail_landing: Optional[int] = None) -> QSeries:
        """Replace zeta^r by val^r; val must be zeta-free."""
        if val.z_exp != 0:
            raise LatticeMismatch("substitution value must be zeta-free")
        out, floors = self._land(val, self._landing_order(val, tail_landing))
        if floors and min(floors) >= out.order:
            raise PrecisionExhausted("substitution consumed the whole certified range")
        return out

    def dzeta_at_one(self) -> QSeries:
        """[d/dzeta (.)]_{zeta=1}: termwise r * c at the same q-exponent."""
        return self._land(Monomial(1), self.order, weighted=True)[0]

    def zeta_dzeta_at_q(self, tail_landing: Optional[int] = None) -> QSeries:
        """[zeta d/dzeta (.)]_{zeta=q}: termwise r * c * q^(k/D + r)."""
        q = Monomial(1, 1, 0)
        return self._land(q, self._landing_order(q, tail_landing), weighted=True)[0]

    def __repr__(self):
        n = sum(len(s.keys()) for s in self.rows.values())
        return f"JSeries[D={self.D}, Dz={self.Dz}, O(q^{self.order_exp()}), {n} terms]"


def jpochhammer(D: int, Dz: int, base: Monomial, n: Optional[int], order_exp: Rat,
                step: Rat = 1) -> JSeries:
    """(a; q^step)_n for a zeta-carrying monomial a, as one binomial chain."""
    return JSeries.one(D, Dz, order_exp).binomials(
        [(-base.coeff, e, base.z_exp, 1)
         for e in pochhammer_exponents(base.q_exp, n, order_exp, step)])

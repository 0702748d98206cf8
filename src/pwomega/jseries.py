"""q-truncated series whose q-coefficients are finite zeta-Laurent polynomials.

A JSeries on lattices (D, Dz) stores, for each zeta-exponent r/Dz with a
non-zero coefficient, the four component tables of [zeta^(r/Dz)] under
rows[r], below its one truncation order: the stored form of qseries._Series,
of which a QSeries is the row-0 case, so the q-side has the QSeries order
contract and every operation the two share is written once.  The zeta-side
is always finite.  Substituting zeta := 1 (or any zeta-free constant) yields
a QSeries at the same order; substituting a zeta-free monomial with a q-power
needs the caller's bound on where the unknown tail lands.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Optional, Tuple, Union

from .cyc8 import Cyc8, ONE, _coerce
from .errors import LatticeMismatch, PrecisionExhausted, UncertifiedOrder
from .qseries import (Monomial, QSeries, _Series, _add_rows, _assemble, _from_terms, _scale,
                      pochhammer_exponents)

Rat = Union[int, Fraction]


class JSeries(_Series):
    __slots__ = ()

    def __init__(self, D: int, Dz: int, rows: Optional[Dict[int, QSeries]] = None,
                 order: int = 0):
        """rows[r] is the QSeries [zeta^(r/Dz)] on the 1/D lattice, certified
        to at least the scaled order (UncertifiedOrder otherwise); its keys at
        or past the order are dropped."""
        self.D, self.Dz, self.order, self.rows = D, Dz, order, {}
        for r, s in (rows or {}).items():
            if s.D != D:
                raise LatticeMismatch(f"row on 1/{s.D} in a JSeries on 1/{D}")
            if s.order < order:
                raise UncertifiedOrder(f"row zeta^{Fraction(r, Dz)} is certified to "
                                       f"O(q^{s.order_exp()}), below O(q^{Fraction(order, D)})")
            tables = s.tables if s.order == order else tuple(
                {k: v for k, v in t.items() if k < order} for t in s.tables)
            if any(tables):
                self.rows[r] = tables

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def one(D: int, Dz: int, order_exp: Rat) -> "JSeries":
        return JSeries.from_qseries(QSeries.one(D, order_exp), Dz)

    @staticmethod
    def from_terms(D: int, Dz: int, terms: Iterable[Tuple[Rat, Rat, Cyc8]],
                   order_exp: Rat) -> "JSeries":
        """The sum of c*q^q_exp*zeta^z_exp over the terms (q_exp, z_exp, c)."""
        return _from_terms(JSeries(D, Dz), terms, order_exp)

    @staticmethod
    def _from_tables(D: int, Dz: int, order: int, rows) -> "JSeries":
        """Component tables by zeta-row, as qseries._add_root builds them."""
        return _assemble(JSeries(D, Dz), rows, order)

    @staticmethod
    def from_qseries(s: QSeries, Dz: int) -> "JSeries":
        return JSeries(s.D, Dz, {0: s}, s.order)

    # -- inspection --------------------------------------------------------------

    def zeta_support(self) -> Tuple[Fraction, Fraction]:
        """(min, max) zeta-exponent over all stored terms; (0, 0) when empty."""
        if not self.rows:
            return Fraction(0), Fraction(0)
        return Fraction(min(self.rows), self.Dz), Fraction(max(self.rows), self.Dz)

    def coefficient(self, q_exp: Rat, z_exp: Rat) -> Cyc8:
        return self.zeta_slice(z_exp)[q_exp]

    def zeta_slice(self, z_exp: Rat) -> QSeries:
        """The QSeries [zeta^z_exp] of this series."""
        r = _scale(z_exp, self.Dz)
        return _assemble(QSeries(self.D), {0: self.rows[r]} if r in self.rows else {}, self.order)

    def first_mismatch(self, other: "JSeries"):
        """(q-exponent, zeta-exponent, self's, other's coefficient) where the
        two differ first (_Series._witness)."""
        return self._witness(other)

    # -- arithmetic -----------------------------------------------------------------

    def __mul__(self, other) -> "JSeries":
        if isinstance(other, QSeries):
            other = JSeries.from_qseries(other, self.Dz)
        return self._product(other)

    def _monomial(self, c, qe, ze):
        return _coerce(c), _scale(qe, self.D), _scale(ze, self.Dz)

    def _factors(self, factors):
        return [(_coerce(c), _scale(q, self.D), _scale(z, self.Dz), s) for c, q, z, s in factors]

    # -- substitution -------------------------------------------------------------

    def _landing_order(self, val: Monomial, tail_landing: Optional[int]) -> int:
        """Certified scaled q-order after zeta := val.

        Unknown terms (q-exponent >= order) land left of the order when val
        carries a q-exponent and the tail has zeta-exponents of the opposite
        sign.  Nothing stored bounds the tail's zeta-exponents, so such a
        substitution needs the caller's tail_landing bound (UncertifiedOrder
        without one); a zeta-free constant keeps the order.
        """
        if tail_landing is not None:
            return min(self.order, tail_landing)
        if val.q_exp != 0:
            raise UncertifiedOrder(f"zeta := q^{val.q_exp} lands the unknown tail at an "
                                   "unknown order: pass its tail_landing bound")
        return self.order

    def _land(self, val: Monomial, order: int, weighted: bool = False):
        """The rows with zeta^r := val^r (times r when weighted) summed to a
        QSeries certified to order, and the keys the rows' least terms land on.
        Each row's tables add into one accumulator (_add_rows, times the
        coefficient of val^r at its q-shift), assembled once."""
        acc, floors = {}, []
        for r, tables in self.rows.items():
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
            _add_rows(acc, {0: tables}, Cyc8(rr) * vc.coeff if weighted else vc.coeff, e, 0, order)
            floors.append(min(min(t) for t in tables if t) + e)
        return _assemble(QSeries(self.D), acc, order), floors

    def substitute(self, val: Monomial, tail_landing: Optional[int] = None) -> QSeries:
        """Replace zeta^r by val^r; val must be zeta-free, and tail_landing
        (scaled) bounds where the unknown terms land when val has a q-power."""
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
        n = sum(len(set().union(*tables)) for tables in self.rows.values())
        return f"JSeries[D={self.D}, Dz={self.Dz}, O(q^{self.order_exp()}), {n} terms]"


def jpochhammer(D: int, Dz: int, base: Monomial, n: Optional[int], order_exp: Rat,
                step: Rat = 1) -> JSeries:
    """(a; q^step)_n for a zeta-carrying monomial a, as one binomial chain."""
    return JSeries.one(D, Dz, order_exp).binomials(
        [(-base.coeff, e, base.z_exp, 1)
         for e in pochhammer_exponents(base.q_exp, n, order_exp, step)])

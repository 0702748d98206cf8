"""Brute-force partition enumerators and exact generating functions.

Six counting families are supported:

  spt            partitions weighted by the multiplicity of the smallest part
  p_omega        partitions whose odd parts are all less than twice the
                 smallest part
  spt_omega      the same family, weighted by the smallest-part multiplicity
  pbar_omega     overpartitions with all odd parts less than twice the
                 smallest part and the smallest part overlined
  sptbar_omega   the same overpartitions, weighted by the smallest-part
                 multiplicity
  spt_g2         series-only family (no combinatorial enumerator)

An overpartition may overline the first occurrence of each part size, so a
partition with d distinct part sizes and its smallest part forced to carry an
overline contributes 2^(d-1) overpartitions.  The generating functions are
normative; the enumerators are validated against them in the test suite.
"""

from __future__ import annotations

import math
from itertools import chain, count, takewhile
from typing import List

from .errors import NoCombinatorialDefinition, ResourceBound
from .qseries import (Monomial, QSeries, _scale, over_qpochhammer, pochhammer_factors,
                      sum_of_series)

FAMILIES = ("spt", "p_omega", "spt_omega", "pbar_omega", "sptbar_omega", "spt_g2")

ENUMERATION_CAP = 50


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def census(family: str, N: int) -> List[int]:
    """Exact counts for the family at n = 1..N (none for N < 1), by one exhaustive
    enumeration: every partition of size <= N is visited once and counted
    at its own size.  The constraints are prefix-closed (a part added above
    the smallest changes neither the smallest part nor the odd-part bound),
    so every partial partition of the descent is itself a member."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if family == "spt_g2":
        raise NoCombinatorialDefinition("spt_g2 is defined by its series only")
    if N > ENUMERATION_CAP:
        raise ResourceBound(f"enumeration capped at n <= {ENUMERATION_CAP}")

    if family == "spt":
        return _enumerate(N, constrained=False, weight=lambda m, d: m)
    if family == "p_omega":
        return _enumerate(N, constrained=True, weight=lambda m, d: 1)
    if family == "spt_omega":
        return _enumerate(N, constrained=True, weight=lambda m, d: m)
    if family == "pbar_omega":
        return _enumerate(N, constrained=True, weight=lambda m, d: 2 ** (d - 1))
    if family == "sptbar_omega":
        return _enumerate(N, constrained=True, weight=lambda m, d: m * 2 ** (d - 1))
    raise AssertionError


def _enumerate(N: int, constrained: bool, weight) -> List[int]:
    counts = [0] * (N + 1)

    def rec(size: int, min_part: int, odd_bound: int, mult_smallest: int, distinct: int):
        """Count the partition of this size, then extend it by each larger
        part p (odd p below odd_bound = 2*smallest) with each multiplicity."""
        counts[size] += weight(mult_smallest, distinct)
        for p in range(min_part, N - size + 1):
            if constrained and p % 2 == 1 and p >= odd_bound:
                continue
            for m in range(1, (N - size) // p + 1):
                rec(size + m * p, p + 1, odd_bound, mult_smallest, distinct + 1)

    # the smallest part p, taken m times, sets the odd-part bound 2p
    for p in range(1, N + 1):
        for m in range(1, N // p + 1):
            rec(m * p, p + 1, 2 * p, m, 1)
    return counts[1:]


# ---------------------------------------------------------------------------
# generating functions
# ---------------------------------------------------------------------------

def _lambert_terms(N):
    """The terms n q^n / (1-q^n), n >= 1, of sum_{n>=1} n q^n / (1-q^n)."""
    return (QSeries.from_terms(1, [(n, n)], N).binomials([(-1, n, -1)])
            for n in range(1, math.ceil(N)))


def _definition_series(family: str, N) -> QSeries:
    """The smallest-part-indexed q-factorial sum defining the family,

        sum_{n>=1} q^n R_n / (1-q^n)^p   with

      spt              p=2  R_n = 1/(q^{n+1};q)_inf
      p_omega          p=1  R_n = 1/((q^{n+1};q)_n (q^{2n+2};q^2)_inf)
      spt_omega        p=2  the same R_n
      pbar_omega       p=1  R_n = (-q^{n+1};q)_n (-q^{2n+2};q^2)_inf /
                                  ((q^{n+1};q)_n (q^{2n+2};q^2)_inf)
      sptbar_omega     p=2  the same R_n
      spt_g2           p=2  R_n = 1/((q^{n+1};q)_n^2 (q^{2n+2};q^2)_inf (q^{4n+2};q^4)_inf)

    as one ratio_sum: R_0 is one chain of the factors of its products
    ("start"), R_n / R_(n-1) the binomials (1 + c*q^(a*n + b))^sign over the
    (c, a, b, sign) of "ratio", and (1-q^n)^-p the extra factors of term n.
    """
    if family == "spt":
        start = pochhammer_factors(Monomial(1, 1), None, N, sign=-1)
        ratio = [(-1, 1, 0, 1)]
    elif family in ("p_omega", "spt_omega"):
        start = pochhammer_factors(Monomial(1, 2), None, N, step=2, sign=-1)
        ratio = [(-1, 1, 0, 1), (-1, 2, -1, -1)]
    elif family in ("pbar_omega", "sptbar_omega"):
        start = (pochhammer_factors(Monomial(-1, 2), None, N, step=2)
                 + pochhammer_factors(Monomial(1, 2), None, N, step=2, sign=-1))
        ratio = [(1, 2, -1, 1), (-1, 1, 0, 1), (1, 1, 0, -1), (-1, 2, -1, -1)]
    elif family == "spt_g2":
        start = (pochhammer_factors(Monomial(1, 2), None, N, step=2, sign=-1)
                 + pochhammer_factors(Monomial(1, 2), None, N, step=4, sign=-1))
        ratio = [(-1, 1, 0, 1)] * 2 + [(-1, 4, -2, 1)] + [(-1, 2, -1, -1)] * 2 + [(-1, 2, 0, -1)]
    else:
        raise ValueError(f"unknown family {family!r}")
    power = 1 if family in ("p_omega", "pbar_omega") else 2
    return QSeries.one(1, N).binomials(start).ratio_sum(
        ((1, n), [(c, a * n + b, sign) for c, a, b, sign in ratio], [(-1, n, -1)] * power)
        for n in range(1, math.ceil(N)))


def _appell_series(family: str, N) -> QSeries:
    """The Appell-Lerch-type representation of the family's series; each of
    its sums over n is one sum_of_series."""
    order = _scale(N, 1)
    if family in ("spt", "spt_omega"):
        # (q^m; q^m)_inf^-1 (sum_{n>=1} n q^n / (1 - q^n)
        #     + sum_{n>=1} (-1)^n q^(m n(3n+1)/2) (1 + q^(mn)) / (1 - q^(mn))^2)
        # with m = 1 for spt and m = 2 for spt_omega
        m = 1 if family == "spt" else 2
        pairs = (QSeries.from_terms(1, [(e, sign), (e + m * n, sign)], N).binomials(
                     [(-1, m * n, -1)] * 2)
                 for n in takewhile(lambda n: m * n * (3 * n + 1) < 2 * N, count(1))
                 for e, sign in [(m * n * (3 * n + 1) // 2, (-1) ** n)])
        s = sum_of_series(1, chain(_lambert_terms(N), pairs), order)
        return over_qpochhammer(s, Monomial(1, m), None, step=m)
    if family == "sptbar_omega":
        # (-q^2; q^2)_inf (q^2; q^2)_inf^-1 (sum_{n>=1} n q^n / (1 - q^n)
        #     + 2 sum_{n>=1} (-1)^n q^(2n(n+1)) / (1 - q^(2n))^2)
        terms = (QSeries.from_terms(1, [(2 * n * (n + 1), 2 * (-1) ** n)], N).binomials(
                     [(-1, 2 * n, -1)] * 2)
                 for n in takewhile(lambda n: 2 * n * (n + 1) < N, count(1)))
        s = sum_of_series(1, chain(_lambert_terms(N), terms), order)
        # s has no negative powers, so the factors below N reach its order
        return s.binomials(pochhammer_factors(Monomial(-1, 2), None, N, step=2)
                           + pochhammer_factors(Monomial(1, 2), None, N, step=2, sign=-1))
    if family == "p_omega":
        # q * omega(q), omega(q) = sum_{n>=0} q^{2n(n+1)} / (q;q^2)_{n+1}^2
        terms = (over_qpochhammer(QSeries.from_terms(1, [(2 * n * (n + 1), 1)], N),
                                  Monomial(1, 1), n + 1, step=2, power=2)
                 for n in takewhile(lambda n: 2 * n * (n + 1) < N, count()))
        return sum_of_series(1, terms, order).shift(1).truncate(N)
    raise ValueError(f"family {family!r} has no Appell-Lerch side")


def genfun(family: str, N, side: str = "definition") -> QSeries:
    """The family's generating function to O(q^N), by the requested route."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if side == "definition":
        return _definition_series(family, N)
    if side == "appell":
        return _appell_series(family, N)
    raise ValueError("side must be 'definition' or 'appell'")

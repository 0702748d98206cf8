"""Counting families: enumerators against their generating functions."""

import pytest

from pwomega.cyc8 import Cyc8
from pwomega.errors import NoCombinatorialDefinition, ResourceBound
from pwomega.partitions import ENUMERATION_CAP, census, genfun

ENUMERATED = ("spt", "p_omega", "spt_omega", "pbar_omega", "sptbar_omega")


def coeffs(series, n_max):
    return [series[n] for n in range(1, n_max + 1)]


def test_pbar_omega_at_one():
    # the single overpartition of 1 is an overlined 1
    assert census("pbar_omega", 1) == [1]


def test_census_matches_definition_series_to_25():
    for family in ENUMERATED:
        gf = genfun(family, 30)
        counts = census(family, 25)
        assert len(counts) == 25
        for n, count in enumerate(counts, 1):
            assert gf[n] == Cyc8(count), (family, n)


def test_spt_census_matches_appell_side():
    # spt(n) against the Appell-Lerch representation of its series
    gf = genfun("spt", 21, side="appell")
    for n, count in enumerate(census("spt", 20), 1):
        assert gf[n] == Cyc8(count)


def test_weight_dominance():
    for light, heavy in (("p_omega", "spt_omega"), ("pbar_omega", "sptbar_omega")):
        for n, (a, b) in enumerate(zip(census(light, 25), census(heavy, 25)), 1):
            assert a <= b, (light, n)


def test_census_to_12_is_the_prefix_of_census_to_25():
    # one descent counts every size up to N, so a shorter one is its prefix
    for family in ENUMERATED:
        assert census(family, 12) == census(family, 25)[:12], family
        assert census(family, 0) == []


def test_spt_g2_has_no_enumerator():
    with pytest.raises(NoCombinatorialDefinition):
        census("spt_g2", 5)


def test_enumeration_cap():
    with pytest.raises(ResourceBound):
        census("spt", 51)
    for family in ENUMERATED:
        with pytest.raises(ResourceBound):
            census(family, ENUMERATION_CAP + 1)


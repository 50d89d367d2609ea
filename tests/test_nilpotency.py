"""Dot products, nilpotency chains, nil orbits, socle, and the
right-nilpotency criterion for decomposable semi-braces."""

import dataclasses
from functools import lru_cache

import full_scans
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semibrace.classify import enumerate_generic, enumerate_structural
from semibrace.construct import (
    FamilyId,
    brace_p2,
    family,
    left_nilpotent_example,
    rump_brace,
    trivial_semibrace,
    trivial_skewbrace,
)
from semibrace.core import InternalInvariantError
from semibrace.nilpotency import (
    NotASkewBraceError,
    check_rnilp1,
    dot_table,
    is_left_nil,
    is_right_nil,
    left_series,
    right_series,
    set_dot_plus_E,
    socle,
)
from semibrace.tables import cyclic_group, dicyclic_group


@pytest.fixture(scope="module")
def fam3():
    return family(FamilyId("pq-congruent", 3, 3, 2))


@pytest.fixture(scope="module")
def fam4():
    return family(FamilyId("pq-congruent", 4, 3, 2))


@pytest.fixture(scope="module")
def fam5():
    return family(FamilyId("pq-congruent", 5, 3, 2))


# ---------------------------------------------------------------------------
# the dot product


def test_dot_vanishes_on_trivial_structures():
    br = trivial_skewbrace(dicyclic_group(2))
    assert not dot_table(br).any()
    sb = trivial_semibrace(cyclic_group(5))
    assert not dot_table(sb).any()


def test_dot_closed_formula_on_product(fam3):
    # coordinates (g, e) at index 2g + e, with action g -> 2^e g mod 3:
    # (g1,e1).(g2,e2) = ((2^e1 - 1) g2 mod 3, 0)
    d = dot_table(fam3)
    for g1 in range(3):
        for e1 in range(2):
            for g2 in range(3):
                for e2 in range(2):
                    want = ((pow(2, e1, 3) - 1) * g2) % 3 * 2
                    assert d[2 * g1 + e1, 2 * g2 + e2] == want


def test_dot_lands_in_g(fam3, fam4):
    for b in (fam3, fam4):
        assert set(np.unique(dot_table(b)).tolist()) <= set(b.g_elements)


def test_dot_outside_g_is_an_internal_error(fam3):
    # G shrunk to {0}: the dots 2 and 4 now lie outside it
    bad = dataclasses.replace(fam3, g_elements=(0,))
    for f in (dot_table, right_series, left_series, is_right_nil):
        with pytest.raises(InternalInvariantError, match="dot product escaped G"):
            f(bad)


def test_set_dot_plus_e(fam3):
    assert set_dot_plus_E(fam3, [0], [0]) == fam3.e_elements
    assert set_dot_plus_E(fam3, range(6), range(6)) == tuple(range(6))
    sb = trivial_semibrace(cyclic_group(4))
    assert set_dot_plus_E(sb, range(4), range(4)) == tuple(range(4))  # = E


@lru_cache(maxsize=None)
def _census():
    """Every class of the generic census up to order 8 and of the
    structural censuses at orders 14, 15 and 18 (|E| of Sylow size)."""
    entries = [e for n in range(1, 9) for e in enumerate_generic(n)]
    entries += enumerate_structural(14) + enumerate_structural(15)
    entries += enumerate_structural(18, esylow=True)
    return tuple(e.semibrace for e in entries)


def test_set_dot_plus_e_matches_the_two_sided_closure():
    # every step either series can take from one of its members, on both
    # sides: the search from 0 over the dots against the original loop
    for b in _census():
        whole = tuple(range(b.n))
        for member in {*right_series(b).chain, *left_series(b).chain}:
            for xs, ys in ((member, whole), (whole, member)):
                assert set_dot_plus_E(b, xs, ys) == full_scans.set_dot_plus_E(b, xs, ys)


# ---------------------------------------------------------------------------
# chains


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_series_follow_a_relabelling(data):
    # a relabelling fixing 0 is an isomorphism, so each chain member, the
    # verdicts and the nil orders move with it
    if data.draw(st.booleans()):
        b = data.draw(st.sampled_from(_census()))
    else:
        b = family(data.draw(st.sampled_from(full_scans.families_up_to_fifty())))
    perm = np.array([0, *data.draw(st.permutations(range(1, b.n)))])
    moved = b.relabel(perm)
    for series in (right_series, left_series):
        before, after = series(b), series(moved)
        assert after.chain == tuple(tuple(sorted(perm[list(m)].tolist())) for m in before.chain)
        assert after.verdict == before.verdict
        assert [after.nil_orders[y] for y in perm] == list(before.nil_orders)


def test_trivial_semibrace_right_chain():
    sb = trivial_semibrace(cyclic_group(4))
    rep = right_series(sb)
    assert rep.verdict == "nilpotent at 2"
    assert rep.chain == (tuple(range(4)), tuple(range(4)))  # [B, E] with E = B
    assert rep.nilpotency_index == 2 and rep.nilpotent


def test_trivial_brace_chains():
    br = trivial_skewbrace(dicyclic_group(2))  # nonabelian additive group
    for rep in (right_series(br), left_series(br)):
        assert rep.verdict == "nilpotent at 2"
        assert rep.chain[-1] == (0,)


def test_fam3_not_nilpotent_either_side(fam3):
    rrep = right_series(fam3)
    assert rrep.verdict == "cycles without reaching E"
    assert rrep.chain == (tuple(range(6)),)  # B.B + E = G + E = B
    lrep = left_series(fam3)
    assert lrep.verdict == "cycles without reaching E"
    assert set_dot_plus_E(fam3, range(6), range(6)) == tuple(range(6))


def test_fam3_right_nil_not_left_nil(fam3):
    right_ok, right_orders = is_right_nil(fam3)
    assert right_ok
    assert all(o is not None and o <= 3 for o in right_orders)
    left_ok, left_orders = is_left_nil(fam3)
    assert not left_ok
    # elements (g, e) with g != 0, e = 1 never reach 0 on the left
    assert left_orders[3] is None and left_orders[5] is None
    assert left_orders[0] == 1


def test_fam4_and_fam5_right_nilpotent(fam4, fam5):
    assert right_series(fam4).nilpotent
    assert right_series(fam5).nilpotent


def test_series_report_json(fam3):
    obj = right_series(fam3).to_json()
    assert obj["kind"] == "right"
    assert obj["verdict"] == "cycles without reaching E"
    assert obj["chain"] == [list(range(6))]
    assert len(obj["nil_orders"]) == 6


def test_right_nilpotent_implies_right_nil():
    pool = [
        trivial_semibrace(cyclic_group(6)),
        trivial_skewbrace(cyclic_group(9)),
        rump_brace(9, 3),
        family(FamilyId("pq-congruent", 5, 3, 2)),
        family(FamilyId("2p2-E2-cyclic", 2, 3)),
    ]
    for b in pool:
        rep = right_series(b)
        if rep.nilpotent:
            assert rep.is_nil


# ---------------------------------------------------------------------------
# the order-27 left nilpotent example


def test_left_nilpotent_example_series():
    b = left_nilpotent_example(3)
    rep = left_series(b)
    assert rep.nilpotent
    # bound: the n-th member lies inside 3^(n-1) G + E; coordinates are
    # (g, e) -> 3g + e with g in Z/9, e in Z/3
    for i, member in enumerate(rep.chain):
        if i == 0:
            continue
        step = 3**i
        allowed = {(step * k % 9) * 3 + e for k in range(9) for e in range(3)}
        assert set(member) <= allowed
    assert rep.chain[-1] == b.e_elements


def test_left_nilpotent_example_at_5():
    b = left_nilpotent_example(5)
    rep = left_series(b)
    assert rep.nilpotent
    for i, member in enumerate(rep.chain):
        if i == 0:
            continue
        step = 5**i
        allowed = {(step * k % 25) * 5 + e for k in range(25) for e in range(5)}
        assert set(member) <= allowed


# ---------------------------------------------------------------------------
# socle


def test_socle_trivial_brace():
    elems, index = socle(trivial_skewbrace(cyclic_group(6)))
    assert elems == tuple(range(6)) and index == 1


def test_socle_rump_brace():
    elems, index = socle(rump_brace(9, 3))
    assert elems == (0, 3, 6) and index == 3


def test_socle_g4():
    elems, index = socle(brace_p2("G4", 3))
    assert elems == (0, 3, 6) and index == 3  # (g, 0) rows, index g*p


def test_socle_rejects_non_skew_brace():
    with pytest.raises(NotASkewBraceError):
        socle(trivial_semibrace(cyclic_group(3)))


# ---------------------------------------------------------------------------
# the right-nilpotency criterion


def test_check_rnilp1_direct_product(fam5):
    rep = check_rnilp1(fam5)
    assert rep.series_side and rep.structural_side and rep.agree


def test_check_rnilp1_fam3(fam3):
    rep = check_rnilp1(fam3)
    assert not rep.series_side and not rep.structural_side and rep.agree


def test_check_rnilp1_left_nilpotent_example():
    rep = check_rnilp1(left_nilpotent_example(3))
    assert not rep.structural_side and rep.agree


def test_check_rnilp1_requires_decomposable(fam4):
    with pytest.raises(ValueError, match="not decomposable"):
        check_rnilp1(fam4)

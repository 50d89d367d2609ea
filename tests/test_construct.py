"""Constructors: trivial structures, products, p^2 braces, family catalog."""

import hashlib

import numpy as np
import pytest

from semibrace.construct import (
    TWO_P2_THEOREMS,
    FamilyId,
    ParameterError,
    applicable_items,
    brace_p2,
    direct_product_semibrace,
    family,
    is_prime,
    left_nilpotent_example,
    rump_brace,
    semidirect,
    smallest_unit_of_order,
    theorems_for_order_pq,
    trivial_semibrace,
    trivial_skewbrace,
)
from semibrace.core import SemiBraceAxiomError, skew_part
from semibrace.tables import cyclic_group, dicyclic_group, is_normal_subset


def test_is_prime():
    assert [x for x in range(30) if is_prime(x)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_smallest_unit_of_order():
    assert smallest_unit_of_order(3, 2) == 2
    assert smallest_unit_of_order(7, 3) == 2
    assert smallest_unit_of_order(5, 4) == 2
    assert smallest_unit_of_order(9, 2) == 8  # negation mod 9
    with pytest.raises(ParameterError):
        smallest_unit_of_order(5, 3)  # 3 does not divide 4


def test_trivial_constructions():
    q8 = dicyclic_group(2)
    sb = trivial_semibrace(q8)
    assert sb.e_elements == tuple(range(8)) and sb.g_elements == (0,)
    br = trivial_skewbrace(q8)
    assert br.e_elements == (0,) and br.g_elements == tuple(range(8))
    assert np.array_equal(br.add.table, br.circ.table)


# ---------------------------------------------------------------------------
# semidirect products


def test_semidirect_inversion_action_matches_family():
    b1 = trivial_skewbrace(cyclic_group(3))
    b2 = trivial_semibrace(cyclic_group(2))
    inversion = np.array([[0, 1, 2], [0, 2, 1]])
    prod = semidirect(b1, b2, inversion)
    fam = family(FamilyId("pq-congruent", 3, 3, 2))
    assert np.array_equal(prod.add.table, fam.add.table)
    assert np.array_equal(prod.circ.table, fam.circ.table)


def test_semidirect_rejects_non_automorphism():
    b1 = trivial_skewbrace(cyclic_group(5))
    b2 = trivial_semibrace(cyclic_group(2))
    bad = np.array([[0, 1, 2, 3, 4], [0, 2, 1, 3, 4]])  # transposition breaks +
    with pytest.raises(ParameterError, match="automorphism"):
        semidirect(b1, b2, bad)


def test_semidirect_rejects_non_homomorphism():
    b1 = trivial_skewbrace(cyclic_group(5))
    b2 = trivial_semibrace(cyclic_group(4))
    ident = np.arange(5)
    neg = (-np.arange(5)) % 5
    bad = np.stack([ident, ident, neg, ident])  # alpha[1]^2 != alpha[2]
    with pytest.raises(ParameterError, match="homomorphism"):
        semidirect(b1, b2, bad)


# Actions of C2 on the trivial brace C3 that are not integer arrays of
# shape (2, 3) over range(3); a float entry used to be truncated to an
# automorphism
MALFORMED_ACTIONS = {
    "float": [[0, 1, 2], [0, 2.5, 1]],
    "out-of-range": [[0, 1, 2], [0, 1, 7]],
    "negative": [[0, 1, 2], [0, -1, 1]],
    "shape": [[0, 1, 2]],
}


@pytest.mark.parametrize("alpha", MALFORMED_ACTIONS.values(), ids=MALFORMED_ACTIONS.keys())
def test_semidirect_rejects_malformed_actions(alpha):
    b1 = trivial_skewbrace(cyclic_group(3))
    b2 = trivial_semibrace(cyclic_group(2))
    with pytest.raises(ParameterError):
        semidirect(b1, b2, alpha)


def test_direct_product_multiplies_idempotents():
    b1 = trivial_semibrace(cyclic_group(2))
    b2 = trivial_skewbrace(cyclic_group(3))
    prod = direct_product_semibrace(b1, b2)
    assert prod.n == 6
    assert len(prod.e_elements) == 2 and len(prod.g_elements) == 3


# ---------------------------------------------------------------------------
# rump braces and the size-p^2 braces


def test_rump_brace_cases():
    b = rump_brace(9, 3)
    assert b.circ.table[1, 1] == 5
    assert b.e_elements == (0,)
    triv = rump_brace(6, 0)
    assert np.array_equal(triv.add.table, triv.circ.table)
    ok = rump_brace(4, 2)
    assert ok.n == 4


def test_rump_brace_invalid_parameter():
    with pytest.raises(SemiBraceAxiomError) as exc:
        rump_brace(5, 1)
    assert exc.value.axiom == "circle-not-a-group"


def test_brace_p2_shapes():
    g1 = brace_p2("G1", 3)
    assert np.array_equal(g1.add.table, g1.circ.table)
    assert int(g1.circ.orders.max()) == 9

    g2 = brace_p2("G2", 3)
    assert int(g2.circ.orders.max()) == 9
    assert not np.array_equal(g2.add.table, g2.circ.table)

    g3 = brace_p2("G3", 3)
    assert np.array_equal(g3.add.table, g3.circ.table)
    assert int(g3.circ.orders.max()) == 3

    g4 = brace_p2("G4", 3)
    assert int(g4.circ.orders.max()) == 3
    assert g4.circ.is_abelian()
    assert not np.array_equal(g4.add.table, g4.circ.table)


def test_brace_p2_parameter_errors():
    with pytest.raises(ParameterError):
        brace_p2("G2", 2)
    with pytest.raises(ParameterError):
        brace_p2("G4", 2)
    with pytest.raises(ParameterError):
        brace_p2("G5", 3)
    with pytest.raises(ParameterError):
        brace_p2("G1", 4)
    assert brace_p2("G1", 2).n == 4 and brace_p2("G3", 2).n == 4


# ---------------------------------------------------------------------------
# classification families


def test_family_id_validation():
    with pytest.raises(ParameterError):
        FamilyId("nope", 1, 3, 2)
    with pytest.raises(ParameterError):
        FamilyId("pq-congruent", 7, 3, 2)
    with pytest.raises(ParameterError):
        FamilyId("pq-congruent", 1, 3)  # q missing
    with pytest.raises(ParameterError):
        FamilyId("2p2-Ep2", 1, 3, 2)  # q not allowed
    fid = FamilyId("2p2-E2-cyclic", 1, 3)
    assert fid.n == 18
    assert fid.to_json() == {"theorem": "2p2-E2-cyclic", "item": 1, "p": 3, "q": None}


@pytest.mark.parametrize(
    "p,q",
    [(2, 2), (3, 3), (5, 3), (7, 5)],
)
def test_noncongruent_families_build(p, q):
    for fid in applicable_items("pq-noncongruent", p, q):
        b = family(fid)
        assert b.n == p * q


@pytest.mark.parametrize("p,q", [(3, 2), (5, 2), (7, 3)])
def test_congruent_families_build(p, q):
    e_sizes = {}
    for fid in applicable_items("pq-congruent", p, q):
        b = family(fid)
        assert b.n == p * q
        e_sizes[fid.item] = len(b.e_elements)
    assert e_sizes == {1: p * q, 2: p * q, 3: q, 4: p, 5: q, 6: p}


@pytest.mark.parametrize("p", [3, 5])
def test_2p2_families_build(p):
    for theorem in ("2p2-E2-cyclic", "2p2-E2-noncyclic", "2p2-Ep2"):
        for fid in applicable_items(theorem, p):
            b = family(fid)
            assert b.n == 2 * p * p
            want = 2 if theorem.startswith("2p2-E2") else p * p
            assert len(b.e_elements) == want


def test_congruent_item4_is_s3_with_three_idempotents():
    b = family(FamilyId("pq-congruent", 4, 3, 2))
    assert not b.circ.is_abelian()
    assert sorted(b.circ.orders.tolist()) == [1, 2, 2, 2, 3, 3]
    assert b.e_elements == (0, 2, 4)


def test_congruent_item3_idempotent_set():
    b = family(FamilyId("pq-congruent", 3, 3, 2))
    assert b.e_elements == (0, 1)
    assert b.g_elements == (0, 2, 4)


def test_e2_cyclic_item3_has_g2_skew_part():
    b = family(FamilyId("2p2-E2-cyclic", 3, 3))
    assert b.circ.is_abelian()
    g2 = brace_p2("G2", 3)
    gp = skew_part(b).semibrace
    assert np.array_equal(gp.add.table, g2.add.table)
    assert np.array_equal(gp.circ.table, g2.circ.table)


def test_e2_noncyclic_item5_has_g4_skew_part():
    b = family(FamilyId("2p2-E2-noncyclic", 5, 3))
    assert not b.circ.is_abelian()
    g4 = brace_p2("G4", 3)
    gp = skew_part(b).semibrace
    assert np.array_equal(gp.add.table, g4.add.table)
    assert np.array_equal(gp.circ.table, g4.circ.table)


def test_ep2_families_have_index_two_idempotent_group():
    for item in range(1, 6):
        b = family(FamilyId("2p2-Ep2", item, 3))
        assert len(b.e_elements) == 9
        assert is_normal_subset(b.circ, b.e_elements)


def test_family_parameter_gating():
    with pytest.raises(ParameterError):
        family(FamilyId("pq-noncongruent", 3, 3, 2))  # 3 = 1 mod 2
    with pytest.raises(ParameterError):
        family(FamilyId("pq-congruent", 3, 5, 3))  # 5 != 1 mod 3
    with pytest.raises(ParameterError):
        family(FamilyId("pq-congruent", 3, 3, 3))
    with pytest.raises(ParameterError):
        family(FamilyId("pq-noncongruent", 1, 5, 3))  # item 1 needs p = q
    with pytest.raises(ParameterError):
        family(FamilyId("pq-noncongruent", 4, 3, 3))  # item 4 needs p != q
    with pytest.raises(ParameterError):
        family(FamilyId("pq-congruent", 3, 2, 3))  # ordered q <= p
    with pytest.raises(ParameterError):
        family(FamilyId("pq-congruent", 3, 9, 2))  # 9 not prime
    with pytest.raises(ParameterError):
        family(FamilyId("2p2-Ep2", 1, 2))  # p must be odd


def test_applicable_items_selection():
    assert [f.item for f in applicable_items("pq-noncongruent", 3, 3)] == [1, 2, 6]
    assert [f.item for f in applicable_items("pq-noncongruent", 5, 3)] == [3, 4, 5]
    assert len(applicable_items("2p2-E2-cyclic", 3)) == 3
    assert len(applicable_items("2p2-E2-noncyclic", 3)) == 5
    assert len(applicable_items("2p2-Ep2", 3)) == 5


def test_applicable_items_raises_where_the_theorem_does_not_apply():
    for args in (
        ("pq-congruent", 5, 3),  # 5 != 1 mod 3
        ("pq-noncongruent", 3, 2),  # 3 = 1 mod 2
        ("pq-congruent", 9, 2),  # 9 not prime
        ("2p2-Ep2", 2),  # p must be odd
    ):
        with pytest.raises(ParameterError):
            applicable_items(*args)


PINNED_ORDERS = ((2, 2), (3, 2), (3, 3), (5, 2), (5, 3), (5, 5), (7, 2), (7, 3), (7, 5), (7, 7),
                 (11, 2), (13, 3))


def test_family_tables_are_pinned():
    # The add and then the circ bytes, as int64, of every applicable pq item
    # over PINNED_ORDERS and then, for p = 3, 5 and 7 in turn, of every 2p^2
    # item: 93 families.  The digest was recorded from the item-by-item
    # coordinate formulas that the two product laws replaced.
    fids = [fid for p, q in PINNED_ORDERS
            for fid in applicable_items(theorems_for_order_pq(p, q), p, q)]
    fids += [fid for p in (3, 5, 7) for t in TWO_P2_THEOREMS for fid in applicable_items(t, p)]
    assert len(fids) == 93
    digest = hashlib.sha256()
    for b in map(family, fids):
        digest.update(b.add.table.astype(np.int64).tobytes())
        digest.update(b.circ.table.astype(np.int64).tobytes())
    assert digest.hexdigest()[:16] == "056cf0e80649770c"


def test_theorems_for_order_pq():
    assert theorems_for_order_pq(5, 3) == "pq-noncongruent"
    assert theorems_for_order_pq(3, 3) == "pq-noncongruent"
    assert theorems_for_order_pq(3, 2) == "pq-congruent"
    assert theorems_for_order_pq(7, 3) == "pq-congruent"
    with pytest.raises(ParameterError):
        theorems_for_order_pq(2, 3)
    with pytest.raises(ParameterError):
        theorems_for_order_pq(4, 2)


# ---------------------------------------------------------------------------
# the order-p^3 left nilpotent example


def test_left_nilpotent_example_shape():
    b = left_nilpotent_example(3)
    assert b.n == 27
    assert len(b.e_elements) == 3 and len(b.g_elements) == 9
    assert not is_normal_subset(b.circ, b.e_elements)


def test_left_nilpotent_example_rejects_bad_p():
    with pytest.raises(ParameterError):
        left_nilpotent_example(2)
    with pytest.raises(ParameterError):
        left_nilpotent_example(4)

"""Tests for the isomorphism machinery and the two census enumerators."""

import collections
import importlib.util
import itertools
import json
import logging
import zlib
from functools import lru_cache
from pathlib import Path

import full_scans
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semibrace import classify, core, tables
from semibrace.classify import (
    CensusEntry,
    census_from_json,
    census_to_json,
    enumerate_generic,
    enumerate_structural,
    group_isomorphic,
    isomorphic,
    skew_braces,
    small_groups,
    verify_classification,
    _merge_classes,
    _orbit_representatives,
    _survivor_tables,
)
from semibrace.construct import (
    FamilyId,
    ParameterError,
    applicable_items,
    family,
    semidirect,
    trivial_semibrace,
)
from semibrace.core import (
    SemiBraceAxiomError,
    brace_automorphism_group,
    verify,
)
from semibrace.tables import (
    MalformedTableError,
    _compose_rows,
    _row_powers,
    automorphisms,
    cyclic_group,
    homomorphisms,
    is_morphism,
    orbit_lengths,
    semidirect_table,
)
from semibrace.ybe import check_braid, solution_from


@lru_cache(maxsize=None)
def generic(n, emin=1):
    return tuple(enumerate_generic(n, emin=emin))


@lru_cache(maxsize=None)
def structural(n, emin=2, esylow=False):
    return tuple(enumerate_structural(n, emin=emin, esylow=esylow))


# ---------------------------------------------------------------------------
# group catalog


def test_small_groups_match_classical_counts():
    expected = {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5,
                9: 2, 10: 2, 12: 5, 14: 2, 16: 14, 18: 5, 27: 5}
    for n, count in expected.items():
        got = small_groups(n)
        assert len(got) == count
        assert all(g.n == n for g in got)
        for i in range(len(got)):
            for j in range(i + 1, len(got)):
                assert not group_isomorphic(got[i], got[j])


def test_small_groups_rejects_unsupported_order():
    with pytest.raises(ParameterError):
        small_groups(21)
    with pytest.raises(ParameterError):
        small_groups(0)


# ---------------------------------------------------------------------------
# skew brace catalog


def test_skew_brace_catalog_sizes():
    assert len(skew_braces(1)) == 1
    assert len(skew_braces(7)) == 1
    for m in (9, 25):
        braces = skew_braces(m)
        assert len(braces) == 4
        for b in braces:
            assert len(b.e_elements) == 1
        for i in range(4):
            for j in range(i + 1, 4):
                assert isomorphic(braces[i], braces[j]) is None


def test_skew_brace_catalog_rejects_other_orders():
    for m in (4, 6, 8, 12):
        with pytest.raises(ParameterError):
            skew_braces(m)


# ---------------------------------------------------------------------------
# isomorphism testing


def _is_witness_array(f, n):
    """f is a read-only int64 image array of shape (n,)."""
    return f.dtype == np.int64 and f.shape == (n,) and not f.flags.writeable


def test_isomorphic_reflexive_and_detects_relabeling():
    b = family(FamilyId("pq-congruent", 3, 3, 2))
    same = isomorphic(b, b)
    assert _is_witness_array(same, b.n) and same.tolist() == list(range(b.n))
    perm = np.array([0, 3, 1, 5, 2, 4])
    relabeled = b.relabel(perm)
    img = isomorphic(b, relabeled)
    assert img is not None and _is_witness_array(img, b.n)
    for x in range(b.n):
        for y in range(b.n):
            assert img[b.add.table[x, y]] == relabeled.add.table[img[x], img[y]]
            assert img[b.circ.table[x, y]] == relabeled.circ.table[img[x], img[y]]
    assert isomorphic(relabeled, b) is not None


def test_isomorphic_separates_known_distinct_families():
    b1 = family(FamilyId("pq-congruent", 1, 3, 2))
    b2 = family(FamilyId("pq-congruent", 2, 3, 2))
    assert isomorphic(b1, b2) is None
    c2 = family(FamilyId("2p2-E2-cyclic", 2, 3))
    c3 = family(FamilyId("2p2-E2-cyclic", 3, 3))
    assert isomorphic(c2, c3) is None


def test_signature_key_is_relabeling_invariant():
    b = family(FamilyId("2p2-Ep2", 4, 3))
    perm = np.arange(b.n)
    perm[1:] = np.roll(perm[1:], 3)
    relabeled = b.relabel(perm)
    assert b.signature_key == relabeled.signature_key
    for n in (18, 50):
        rng = np.random.default_rng(n)
        for entry in structural(n, esylow=True):
            b = entry.semibrace
            copy = b.relabel(np.concatenate([[0], 1 + rng.permutation(n - 1)]))
            assert b.signature_key == copy.signature_key


def test_orbit_lengths_of_census_lambda_maps():
    for n in range(1, 9):
        for entry in generic(n):
            lam = entry.semibrace.lam
            assert orbit_lengths(lam).tolist() == [full_scans.cycle_lengths(row) for row in lam]


@pytest.mark.parametrize("n", [6, 8])
def test_dedup_keeps_the_least_representative_of_relabelled_copies(n):
    census = generic(n)
    candidates = [(entry.semibrace, entry.provenance) for entry in census]
    rng = np.random.default_rng(n)
    want = []
    for entry in census:
        b = entry.semibrace
        copy = b.relabel(np.concatenate([[0], 1 + rng.permutation(n - 1)]))
        candidates.append((copy, "copy"))
        # the least (add, circ) pair wins; on a tie the class keeps the first
        _, _, key, prov = min(
            ((c.add.key(), c.circ.op.key()), rank, c.key(), prov)
            for rank, (c, prov) in enumerate(((b, entry.provenance), (copy, "copy")))
        )
        want.append((key, prov))
    got = [(e.semibrace.key(), e.provenance) for e in _merge_classes(candidates)]
    assert len(got) == len(census)
    assert sorted(got) == sorted(want)
    assert any(prov == "copy" for _, prov in got)
    assert any(prov != "copy" for _, prov in got)


def _least_isomorphism(b1, b2):
    """The isomorphism b1 -> b2 with the lexicographically least images of
    b1's circle generators, by brute force over every bijection fixing 0."""
    rest = np.array(list(itertools.permutations(range(1, b1.n))), dtype=np.int64)
    maps = np.hstack([np.zeros((rest.shape[0], 1), dtype=np.int64), rest.reshape(-1, b1.n - 1)])
    ok = np.ones(maps.shape[0], dtype=bool)
    for t1, t2 in ((b1.add.table, b2.add.table), (b1.circ.table, b2.circ.table)):
        ok &= (maps[:, t1] == t2[maps[:, :, None], maps[:, None, :]]).all(axis=(1, 2))
    found = maps[ok]
    gens = b1.circ.generating_sequence()
    return found[np.lexsort(found[:, gens].T[::-1])[0]]


def _small_structures():
    """Every census class of order 4, 6 and 8 and every family of order
    at most 8."""
    out = [e.semibrace for n in (4, 6, 8) for e in generic(n)]
    for theorem, p, q in (("pq-noncongruent", 2, 2), ("pq-congruent", 3, 2)):
        out.extend(family(fid) for fid in applicable_items(theorem, p, q))
    return out


def test_isomorphic_returns_the_least_isomorphism():
    # the witness is the first isomorphism in generator-image order, which
    # a search that visits generator images lexicographically must find
    rng = np.random.default_rng(7)
    for b in _small_structures():
        perm = np.concatenate([[0], 1 + rng.permutation(b.n - 1)])
        relabeled = b.relabel(perm)
        witness = isomorphic(b, relabeled)
        if b.key() == relabeled.key():
            assert witness.tolist() == list(range(b.n))
        else:
            assert witness.tolist() == _least_isomorphism(b, relabeled).tolist()


def test_isomorphic_matches_the_whole_table_test_of_plus():
    # `isomorphic` decides + on the circle generators; its witness is the
    # one of the whole-table test, on each family of order at most 50 and
    # a seeded relabelling of it, and the order-8 classes that share a
    # signature key, so that the search runs, stay apart
    rng = np.random.default_rng(32)
    for fid in full_scans.families_up_to_fifty():
        b = family(fid)
        copy = b.relabel(np.concatenate([[0], 1 + rng.permutation(b.n - 1)]))
        assert isomorphic(b, copy).tolist() == full_scans.plus_isomorphism(b, copy).tolist()
    pairs = [(b1, b2) for b1, b2 in itertools.combinations([e.semibrace for e in generic(8)], 2)
             if b1.signature_key == b2.signature_key]
    assert len(pairs) == 38
    for b1, b2 in pairs:
        assert isomorphic(b1, b2) is None and full_scans.plus_isomorphism(b1, b2) is None


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_relabeled_family_is_isomorphic_with_a_genuine_witness(data):
    b = family(data.draw(st.sampled_from(full_scans.families_up_to_fifty())))
    rest = data.draw(st.permutations(range(1, b.n)))
    relabeled = b.relabel([0, *rest])
    f = isomorphic(b, relabeled)
    assert f is not None
    assert is_morphism(f[None], b.add.table, relabeled.add.table)[0]
    assert is_morphism(f[None], b.circ.table, relabeled.circ.table)[0]


def test_size_mismatch_is_not_isomorphic():
    assert isomorphic(trivial_semibrace(cyclic_group(4)),
                      trivial_semibrace(cyclic_group(5))) is None


# ---------------------------------------------------------------------------
# generic enumeration


def test_generic_census_counts_small():
    assert len(generic(4, emin=2)) == 3
    assert len(generic(6, emin=2)) == 6


def test_generic_census_count_nine():
    census = generic(9, emin=2)
    assert len(census) == 3
    assert sorted(len(e.semibrace.e_elements) for e in census) == [3, 9, 9]


def test_generic_entries_are_valid_and_pairwise_distinct():
    census = generic(6, emin=2)
    for entry in census:
        b = entry.semibrace
        verify(b.add.table, b.circ.table)
        ok, _ = check_braid(solution_from(b))
        assert ok
    for i in range(len(census)):
        for j in range(i + 1, len(census)):
            assert isomorphic(census[i].semibrace, census[j].semibrace) is None


def test_generic_parameter_errors():
    with pytest.raises(ParameterError):
        enumerate_generic(11)
    with pytest.raises(ParameterError):
        enumerate_generic(0)
    with pytest.raises(ParameterError):
        enumerate_generic(4, emin=0)


def test_pruned_and_unpruned_sweeps_agree(monkeypatch):
    orders = (4, 5, 6)
    pruned = [census_to_json(generic(n, emin=1)) for n in orders]
    monkeypatch.setattr(classify, "_survivor_tables", full_scans.unpruned_survivor_tables)
    for n, a in zip(orders, pruned):
        b = census_to_json(enumerate_generic(n, emin=1))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_survivor_tables_match_the_unpruned_route():
    # The unpruned route tests every lambda map from Sym(n), so it lists the
    # semi-braces over a circle group independently of the regular
    # embeddings the pruned route builds.  It runs once per group, and the
    # |E| filters are applied to its tables here.
    sylow = {1: set(), 2: {2}, 3: {3}, 4: {4}, 5: {5}, 6: {2, 3}}
    for n in range(1, 7):
        for circ in small_groups(n):
            every = [
                (t.tobytes(), int((np.diagonal(t) == np.arange(n)).sum()))
                for t in full_scans.unpruned_survivor_tables(circ, 1, False)
            ]
            assert every
            for emin, esylow in itertools.product(sorted({1, 2, n}), (False, True)):
                want = [key for key, e in every if e >= emin and (e in sylow[n] or not esylow)]
                got = [t.tobytes() for t in _survivor_tables(circ, emin, esylow)]
                assert len(got) == len(want)
                assert set(got) == set(want)
    assert _survivor_tables(small_groups(1)[0], 1, True) == []


def test_reduced_first_pool_keeps_every_table(monkeypatch):
    # The first generator's pool holds one element per Stab(0)-class; the
    # reference takes all of Hol(G) x {pi : ord pi | ord c} there.
    groups = [g for n in range(1, 16) for g in small_groups(n)]
    filters = ((1, False), (2, True))
    reduced = [[t.tobytes() for t in _survivor_tables(g, *f)]
               for g in groups for f in filters]
    monkeypatch.setattr(classify, "_regular_tables", full_scans.regular_tables)
    full = [[t.tobytes() for t in _survivor_tables(g, *f)]
            for g in groups for f in filters]
    assert reduced == full


def _cycle_key(images):
    """(length of the cycle through 0, cycle lengths at the other points)."""
    lengths = full_scans.cycle_lengths(images)
    return lengths[0], tuple(sorted(lengths[1:]))


def test_first_pool_representatives_cover_each_class_once():
    for m in range(1, 12):
        for group in small_groups(m):
            auts = automorphisms(group)
            hol = group.table[np.arange(m)[:, None, None], auts[None]].reshape(-1, m)
            reps = hol[classify._holomorph_representatives(m)[group.key()]]
            inverse = np.argsort(auts, axis=1)
            # conj[r, b] = beta_b o rep_r o beta_b^-1, as image arrays
            conj = auts[np.arange(len(auts))[None, :, None], reps[:, inverse]]
            classes = [{row.tobytes() for row in rows} for rows in conj]
            assert sum(len(c) for c in classes) == len(hol), group.key()
            assert set().union(*classes) == {row.tobytes() for row in hol}
    for k in range(1, 8):
        for order in range(1, 13):
            keys = [_cycle_key(row) for row in classify._cycle_type_representatives(k, order)]
            assert len(keys) == len(set(keys)), (k, order)
            pool = {_cycle_key(row) for row in classify._order_divides_pool(k, order)}
            assert pool == set(keys), (k, order)


def test_endomorphism_test_keeps_the_rows_full_associativity_keeps():
    # The lemma in core.verify's docstring over every unpruned lambda map up
    # to order 6: among homomorphisms built along the BFS tree, the test
    # verify runs, is_morphism of each lambda_g on + for g in the
    # generators, selects exactly the rows that full associativity selects.
    rejected = 0
    for n in range(2, 7):
        arange = np.arange(n)
        for circ in small_groups(n):
            gens = circ.generating_sequence()
            for lam in full_scans.lambda_maps(circ, gens):
                add = full_scans.add_rows(circ, lam, arange)
                endo = np.array([is_morphism(row[gens], table, table).all()
                                 for row, table in zip(lam, add)], dtype=bool)
                assert (endo == full_scans.associative_rows(add)).all()
                rejected += int((~endo).sum())
    assert rejected > 0


def _dedup_census(n, emin):
    """The census by the merge the structural census uses: every table of
    `classify._survivor_tables` verified and offered to `_merge_classes`,
    which decides each class by `isomorphic`."""
    return _merge_classes(
        (verify(table, circ.table), f"generic:n={n}:group{gi}")
        for gi, circ in enumerate(small_groups(n))
        for table in classify._survivor_tables(circ, emin, False)
    )


def _assert_orbit_census_is_the_merge(orders, census):
    for n in orders:
        for emin in (1, 2):
            want = json.dumps(census_to_json(_dedup_census(n, emin)), sort_keys=True)
            got = json.dumps(census_to_json(census(n, emin)), sort_keys=True)
            assert got == want, (n, emin)


def test_orbit_census_matches_the_signature_and_search_merge(monkeypatch):
    _assert_orbit_census_is_the_merge(range(1, 11), generic)
    monkeypatch.setattr(classify, "_survivor_tables", full_scans.unpruned_survivor_tables)
    _assert_orbit_census_is_the_merge(range(1, 7), lambda n, emin: enumerate_generic(n, emin=emin))


@pytest.mark.parametrize("n", [6, 8])
def test_orbit_representatives_of_a_partial_input(n):
    # A random part of the survivor tables, in random order, is not closed
    # under Aut(C); its orbits are still its classes, with the least table
    # of each kept.
    rng = np.random.default_rng(n)
    for circ in small_groups(n):
        tables = _survivor_tables(circ, 1, False)
        part = [tables[i] for i in rng.permutation(len(tables))[: len(tables) // 2 + 1]]
        merged = _merge_classes((verify(table, circ.table), "") for table in part)
        want = sorted(entry.semibrace.key() for entry in merged)
        assert sorted(b.key() for b in _orbit_representatives(circ, part)) == want


def _axiom_error(table, circ):
    with pytest.raises(SemiBraceAxiomError) as err:
        verify(table, circ.table)
    return err.value.axiom, err.value.witness


def test_orbit_representatives_verify_every_table_outside_the_orbits():
    # Only tables outside the orbits seen so far are verified.  A corrupted
    # table is never in an orbit of valid ones, so it still raises the
    # error verify gives on it; of two, the first in byte order raises, as
    # when every table was verified.
    rng = np.random.default_rng(8)
    for circ in small_groups(8):
        tables = _survivor_tables(circ, 1, False)
        bad = []
        for _ in range(2):
            table = tables[rng.integers(len(tables))].copy()
            x, y = rng.integers(8, size=2)
            table[x, y] = (table[x, y] + rng.integers(1, 8)) % 8
            bad.append(table)
        for slipped in (bad[:1], bad):
            mixed = list(tables)
            for table in slipped:
                mixed.insert(rng.integers(len(mixed) + 1), table)
            with pytest.raises(SemiBraceAxiomError) as got:
                _orbit_representatives(circ, mixed)
            first = min(slipped, key=lambda t: t.tobytes())
            assert (got.value.axiom, got.value.witness) == _axiom_error(first, circ)


@pytest.mark.parametrize("n, by_e_size", [
    (12, {1: 38, 2: 12, 3: 10, 4: 5, 6: 4, 12: 5}),
    (14, {1: 6, 2: 2, 7: 2, 14: 2}),
])
def test_orbit_classes_above_the_generic_bound(n, by_e_size):
    # Orders that `enumerate_generic` does not admit yet.  The |E| = 1
    # classes are the skew braces, 38 of order 12 and 6 of order 14 in
    # Guarnieri and Vendramin, Skew braces and the Yang-Baxter equation
    # (Math. Comp. 2017); |E| = n gives one trivial semi-brace per group.
    counts = collections.Counter(
        len(b.e_elements)
        for circ in small_groups(n)
        for b in _orbit_representatives(circ, _survivor_tables(circ, 1, False))
    )
    assert dict(counts) == by_e_size


_ORDER_EIGHT_NAMES = {
    (1, 2, 4, 4, 8, 8, 8, 8): "C8",
    (1, 2, 2, 2, 4, 4, 4, 4): "C4xC2",
    (1, 2, 2, 2, 2, 2, 2, 2): "C2xC2xC2",
    (1, 2, 2, 2, 2, 2, 4, 4): "D8",
    (1, 2, 4, 4, 4, 4, 4, 4): "Q8",
}


def test_skew_brace_slice_matches_the_guarnieri_vendramin_counts():
    # |E| = 1 classes are the skew braces of order n; the counts are those
    # of Guarnieri and Vendramin, Skew braces and the Yang-Baxter equation
    # (Math. Comp. 2017), for orders 1 to 10.
    counts = [
        sum(len(entry.semibrace.e_elements) == 1 for entry in generic(n)) for n in range(1, 11)
    ]
    assert counts == [1, 1, 1, 4, 1, 6, 1, 47, 4, 6]


def test_generic_census_order_eight(monkeypatch):
    survivors = {}

    def counting(circ, *args, **kwargs):
        tables = _survivor_tables(circ, *args, **kwargs)
        name = _ORDER_EIGHT_NAMES[tuple(sorted(circ.element_orders().tolist()))]
        survivors[name] = len(tables)
        return tables

    monkeypatch.setattr(classify, "_survivor_tables", counting)
    census = enumerate_generic(8)
    assert len(census) == 64
    assert survivors == {"C8": 7, "C4xC2": 39, "C2xC2xC2": 247, "D8": 55, "Q8": 23}


# ---------------------------------------------------------------------------
# structural enumeration


def test_structural_census_counts():
    assert len(structural(4)) == 3
    assert len(structural(6)) == 6
    assert len(structural(9)) == 3
    assert len(structural(10)) == 6
    assert len(structural(15)) == 3


def test_structural_census_order_eighteen():
    census = structural(18, esylow=True)
    assert len(census) == 13
    by_e = {}
    for entry in census:
        by_e.setdefault(len(entry.semibrace.e_elements), []).append(entry)
    assert {k: len(v) for k, v in by_e.items()} == {2: 8, 9: 5}


def test_structural_merges_distinct_actions():
    # With |E| = 9 and E = (Z/3)^2 there are 14 action homomorphisms from a
    # two-element circle group into Aut(E), but only 3 isomorphism classes.
    census = structural(18, esylow=True)
    noncyclic_e = [
        e for e in census
        if len(e.semibrace.e_elements) == 9
        and max(e.semibrace.circ.element_orders()) != 18
        and 9 not in e.semibrace.circ.element_orders()
    ]
    assert len(noncyclic_e) == 3


@pytest.mark.parametrize("n, esylow", [(4, False), (6, False), (10, False), (14, False),
                                       (15, False), (18, True)])
def test_braid_holds_on_every_structural_product(monkeypatch, n, esylow):
    products = []

    def recording(*args):
        products.append(semidirect(*args))
        return products[-1]

    monkeypatch.setattr(classify, "semidirect", recording)
    enumerate_structural(n, esylow=esylow)
    assert products
    for b in products:
        holds, witness = check_braid(solution_from(b))
        assert holds, witness


@pytest.mark.parametrize("n, esylow", [(4, False), (6, False), (9, False), (10, False),
                                       (14, False), (15, False), (18, True), (50, True)])
def test_structural_census_matches_the_full_product_route(monkeypatch, n, esylow):
    want = census_to_json(full_scans.structural_census(n, esylow=esylow))
    assert census_to_json(structural(n, esylow=esylow)) == want
    # the moved actions in chunks of a few automorphisms of B1
    monkeypatch.setattr(tables, "SLAB", 256)
    assert census_to_json(enumerate_structural(n, esylow=esylow)) == want


def _generating_set(perms):
    """Members of the permutation group `perms`, taken greedily until they
    generate all of it."""
    gens, reached = [], {perms[0].tobytes()}
    for p in perms:
        if p.tobytes() in reached:
            continue
        gens.append(p)
        frontier = [q for q in perms if q.tobytes() in reached]
        while frontier:
            moved = [g[q] for q in frontier for g in gens]
            frontier = [q for q in moved if q.tobytes() not in reached]
            reached.update(q.tobytes() for q in frontier)
    assert len(reached) == len(perms)
    return gens


def _action_lists(n, esylow=True):
    """(B1, B2, Aut(B1), Aut(B2), homs) for every action list of the
    structural census at order n, as `enumerate_structural` forms them."""
    for e in classify._structural_e_sizes(n, 2, esylow):
        if e == n:
            continue
        for gbrace in skew_braces(n // e):
            gaut = brace_automorphism_group(gbrace)
            for egroup in small_groups(e):
                etriv, eaut = trivial_semibrace(egroup), automorphisms(egroup)
                yield gbrace, etriv, gaut, eaut, homomorphisms(egroup, gaut)
                yield etriv, gbrace, eaut, gaut, homomorphisms(gbrace.circ, eaut)


@pytest.mark.parametrize("n", [18, 50])
def test_automorphism_pairs_carry_products_onto_products(n):
    lists = 0
    for b1, b2, aut1, aut2, homs in _action_lists(n):
        lists += 1
        keys = {a.tobytes() for a in homs}
        ident1, ident2 = aut1[0], aut2[0]
        pairs = [(f, ident2) for f in _generating_set(aut1)]
        pairs += [(ident1, f) for f in _generating_set(aut2)]
        x1, x2 = np.divmod(np.arange(n), b2.n)
        add = semidirect_table(b1.add.table, b2.add.table, np.tile(ident1, (b2.n, 1)))
        for act in homs:
            circ = semidirect_table(b1.circ.table, b2.circ.table, act)
            for phi, psi in pairs:
                moved = np.empty_like(act)
                moved[np.ix_(psi, phi)] = phi[act]  # alpha'(psi c)(phi y) = phi(alpha(c)(y))
                assert moved.tobytes() in keys
                moved_circ = semidirect_table(b1.circ.table, b2.circ.table, moved)
                f = phi[x1] * b2.n + psi[x2]
                assert np.array_equal(np.sort(f), np.arange(n))
                assert is_morphism(f[None], add, add)[0]
                assert is_morphism(f[None], circ, moved_circ)[0]
    assert lists == 12


@pytest.mark.parametrize("n, esylow", [(6, False), (10, False), (14, False), (15, False),
                                       (18, True), (50, True)])
def test_circle_rows_order_actions_as_the_whole_product_key(n, esylow):
    # `_orbit_leaders` orders each action list by the first |B2| rows of the
    # product's circ table; the whole (add, circ) key of `semidirect` must
    # give the same order
    actions = 0
    for b1, b2, _, _, homs in _action_lists(n, esylow):
        actions += len(homs)

        def whole_key(i):
            b = semidirect(b1, b2, homs[i])
            return [b.add.table.tobytes(), b.circ.table.tobytes()], i

        def row_key(i):
            return classify._circle_rows(homs[i], b2.circ.table), i

        order = sorted(range(len(homs)), key=whole_key)
        assert sorted(range(len(homs)), key=row_key) == order
    assert actions


@pytest.mark.parametrize("n", [18, 50])
def test_structural_census_is_relabelling_invariant(monkeypatch, n):
    rng = np.random.default_rng(n)

    def moved(size):
        return np.concatenate([[0], 1 + rng.permutation(size - 1)])

    groups, braces = classify.small_groups, classify.skew_braces
    monkeypatch.setattr(classify, "small_groups",
                        lambda m: tuple(g.relabel(moved(m)) for g in groups(m)))
    monkeypatch.setattr(classify, "skew_braces",
                        lambda m: [b.relabel(moved(m)) for b in braces(m)])
    census = enumerate_structural(n, esylow=True)
    want = structural(n, esylow=True)
    assert len(census) == len(want)
    assert (sorted(e.semibrace.signature_key for e in census)
            == sorted(e.semibrace.signature_key for e in want))


def test_structural_parameter_errors():
    with pytest.raises(ParameterError):
        enumerate_structural(8)
    with pytest.raises(ParameterError):
        enumerate_structural(6, emin=1)
    with pytest.raises(ParameterError):
        enumerate_structural(15, esylow=True)


def test_generic_and_structural_censuses_agree():
    for n in (4, 6):
        gen = generic(n, emin=2)
        struct = structural(n)
        assert len(gen) == len(struct)
        for entry in gen:
            hits = [s for s in struct if isomorphic(entry.semibrace, s.semibrace)
                    is not None]
            assert len(hits) == 1


# ---------------------------------------------------------------------------
# classification verification


def test_verify_classification_pq():
    rep = verify_classification("pq-congruent", 3, 2)
    assert rep.ok
    assert len(rep.family_labels) == 6
    assert rep.census_count == 6
    assert rep.generic_checked
    rep = verify_classification("pq-noncongruent", 5, 3)
    assert rep.ok
    assert len(rep.family_labels) == 3
    assert not rep.generic_checked


def test_verify_classification_2p2():
    rep = verify_classification("2p2", 3)
    assert rep.ok
    assert len(rep.family_labels) == 13
    assert rep.census_count == 13
    data = rep.to_json()
    assert data["ok"] and data["family_count"] == 13


def _benchmark_classify_cases():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [case[:3] for case in workloads.CLASSIFY_CASES]


def test_automorphisms_are_searched_once_per_group(monkeypatch):
    """From empty caches, the benchmark's six classify cases search the
    automorphisms of each of their 16 distinct groups once (a search per
    call made 51), and their reports equal those of a search per call."""
    cases = _benchmark_classify_cases()
    search = tables.isomorphisms
    searched = []

    def counting(src, tgt, limit=None):
        if src is tgt:
            searched.append(src.key())
        return search(src, tgt, limit)

    def reports():
        for cached in (small_groups, classify._holomorph_representatives):
            cached.cache_clear()
        tables._AUTOMORPHISMS.clear()
        return [verify_classification(*case).to_json() for case in cases]

    monkeypatch.setattr(tables, "isomorphisms", counting)
    once = reports()
    assert len(searched) == len(set(searched)) == 16

    def per_call(g):
        return search(g, g)

    monkeypatch.setattr(classify, "automorphisms", per_call)
    monkeypatch.setattr(core, "automorphisms", per_call)
    assert reports() == once


def test_unsupported_catalogue_order_fails_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError(f"built {args} before checking the catalogue")

    monkeypatch.setattr(classify, "family", no_work)
    monkeypatch.setattr(classify, "skew_braces", no_work)
    message = "order 121 is outside the supported group catalog"
    with pytest.raises(ParameterError, match=message):
        verify_classification("2p2", 11)
    with pytest.raises(ParameterError, match=message):
        enumerate_structural(242, esylow=True)


def test_verify_classification_parameter_errors():
    with pytest.raises(ParameterError):
        verify_classification("nonsense", 3)
    with pytest.raises(ParameterError):
        verify_classification("pq-congruent", 3)


# ---------------------------------------------------------------------------
# serialization and cache


def test_census_json_round_trip():
    census = list(structural(6))
    data = census_to_json(census)
    back = census_from_json(json.loads(json.dumps(data)))
    assert len(back) == len(census)
    for a, b in zip(census, back):
        assert a.semibrace.key() == b.semibrace.key()
        assert a.provenance == b.provenance
    assert all(set(item) == {"semibrace", "provenance"} for item in data)


def test_census_json_rejects_corruption():
    data = census_to_json(list(structural(6)))
    with pytest.raises(MalformedTableError):
        census_from_json({"not": "a list"})
    broken = json.loads(json.dumps(data))
    del broken[0]["semibrace"]
    with pytest.raises(MalformedTableError):
        census_from_json(broken)
    tampered = json.loads(json.dumps(data))
    add = tampered[0]["semibrace"]["add"]
    add[1][1] = (add[1][1] + 1) % len(add)
    with pytest.raises(SemiBraceAxiomError):
        census_from_json(tampered)


def test_cache_round_trip(tmp_path):
    first = enumerate_generic(4, emin=2, cache_dir=tmp_path)
    files = list(tmp_path.glob("generic-*.json"))
    assert len(files) == 1
    second = enumerate_generic(4, emin=2, cache_dir=tmp_path)
    assert census_to_json(first) == census_to_json(second)
    files[0].write_text("{corrupt json")
    third = enumerate_generic(4, emin=2, cache_dir=tmp_path)
    assert census_to_json(first) == census_to_json(third)


def test_corrupt_cache_file_is_a_logged_miss(tmp_path, caplog):
    first = enumerate_generic(4, emin=2, cache_dir=tmp_path)
    (path,) = tmp_path.glob("generic-*.json")
    path.write_text("{corrupt json")
    with caplog.at_level(logging.WARNING, logger="semibrace.classify"):
        again = enumerate_generic(4, emin=2, cache_dir=tmp_path)
    assert census_to_json(again) == census_to_json(first)
    (record,) = caplog.records
    assert record.levelno == logging.WARNING
    assert str(path) in record.getMessage()
    assert "Expecting" in record.getMessage()


def test_deeply_nested_cache_file_is_a_logged_miss(tmp_path, caplog):
    first = enumerate_structural(6, cache_dir=tmp_path)
    (path,) = tmp_path.glob("structural-*.json")
    path.write_text("[" * 100_000)
    with caplog.at_level(logging.WARNING, logger="semibrace.classify"):
        again = enumerate_structural(6, cache_dir=tmp_path)
    assert census_to_json(again) == census_to_json(first)
    (record,) = caplog.records
    assert str(path) in record.getMessage()
    assert "recursion" in record.getMessage()


@pytest.mark.parametrize("enumerate_census, stored, n", [
    (enumerate_generic, 4, 6),
    (enumerate_structural, 6, 10),
])
def test_cache_file_of_another_order_is_a_logged_miss(tmp_path, caplog, enumerate_census, stored, n):
    kind = enumerate_census.__name__.split("_")[1]
    enumerate_census(n, cache_dir=tmp_path)
    (path,) = tmp_path.glob(f"{kind}-*.json")
    # the file records the requested parameters, but its entries are of
    # another order
    swapped = json.loads(path.read_text())
    swapped["entries"] = census_to_json(enumerate_census(stored))
    path.write_text(json.dumps(swapped))
    with caplog.at_level(logging.WARNING, logger="semibrace.classify"):
        again = enumerate_census(n, cache_dir=tmp_path)
    assert census_to_json(again) == census_to_json(enumerate_census(n))
    (record,) = caplog.records
    assert str(path) in record.getMessage()
    assert f"order {stored}, not {n}" in record.getMessage()


def test_cache_entry_of_infinite_order_is_a_logged_miss(tmp_path, caplog):
    # json writes float("inf") as Infinity and reads it back; the declared
    # order is not an integer, so the entry is malformed
    first = enumerate_generic(4, cache_dir=tmp_path)
    (path,) = tmp_path.glob("generic-*.json")
    stored = json.loads(path.read_text())
    stored["entries"][0]["semibrace"]["n"] = float("inf")
    path.write_text(json.dumps(stored))
    with caplog.at_level(logging.WARNING, logger="semibrace.classify"):
        again = enumerate_generic(4, cache_dir=tmp_path)
    assert census_to_json(again) == census_to_json(first)
    (record,) = caplog.records
    assert str(path) in record.getMessage()
    assert "malformed-table" in record.getMessage()


def test_no_cache_dir_hashes_no_source(monkeypatch):
    def unreachable():
        raise AssertionError("_code_version called without a cache dir")

    monkeypatch.setattr(classify, "_code_version", unreachable)
    assert len(enumerate_generic(4, cache_dir=None)) == 7
    assert len(enumerate_structural(6, cache_dir=None)) == 6


def test_cache_file_names_carry_the_source_hash(tmp_path):
    crc = 0
    for path in sorted(Path(classify.__file__).resolve().parent.glob("*.py")):
        crc = zlib.crc32(path.name.encode(), crc)
        crc = zlib.crc32(path.read_bytes(), crc)
    version = f"{crc:08x}"
    enumerate_generic(4, emin=2, cache_dir=tmp_path)
    enumerate_structural(6, cache_dir=tmp_path)
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        f"generic-n4-emin2-esylow0-{version}.json",
        f"structural-n6-emin2-esylow0-{version}.json",
    ]


def test_cache_separates_filters(tmp_path):
    enumerate_generic(4, emin=1, cache_dir=tmp_path)
    enumerate_generic(4, emin=2, cache_dir=tmp_path)
    assert len(list(tmp_path.glob("generic-*.json"))) == 2


def test_cache_file_of_another_filter_is_a_logged_miss(tmp_path, caplog):
    # the emin=2 census (3 classes) written under the emin=1 key: the file
    # records emin=2, so it is not returned as the 7-class census
    want = enumerate_generic(4)
    assert len(enumerate_generic(4, emin=2)) == 3 and len(want) == 7
    enumerate_generic(4, emin=1, cache_dir=tmp_path)
    enumerate_generic(4, emin=2, cache_dir=tmp_path)
    (full,) = tmp_path.glob("generic-n4-emin1-*.json")
    (filtered,) = tmp_path.glob("generic-n4-emin2-*.json")
    full.write_text(filtered.read_text())
    with caplog.at_level(logging.WARNING, logger="semibrace.classify"):
        again = enumerate_generic(4, cache_dir=tmp_path)
    assert census_to_json(again) == census_to_json(want)
    (record,) = caplog.records
    assert str(full) in record.getMessage()
    assert "'emin': 2" in record.getMessage()


def _order_divides_by_filter(n, k):
    """The old pool: every permutation of range(n), raised to the k-th power."""
    perms = full_scans.all_perms(n)
    ident = np.arange(n, dtype=perms.dtype)
    mask = (_row_powers(perms, k, _compose_rows) == ident[None, :]).all(axis=1)
    return np.ascontiguousarray(perms[mask])


def test_order_divides_pool_matches_filter():
    for n in range(1, 9):
        for k in range(1, n + 1):
            if n % k == 0:
                got = classify._order_divides_pool(n, k)
                want = _order_divides_by_filter(n, k)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (n, k)

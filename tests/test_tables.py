"""Group/table layer: oracles are computed independently inside the tests."""

import collections
import itertools
import math

import full_scans
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semibrace import tables
from semibrace.classify import SUPPORTED_GROUP_ORDERS, group_isomorphic, small_groups
from semibrace.construct import FamilyId, family
from semibrace.core import SemiBraceAxiomError, verify
from semibrace.tables import (
    CayleyTable,
    FiniteGroup,
    MalformedTableError,
    automorphisms,
    check_group,
    cyclic_group,
    dicyclic_group,
    direct_product,
    first_nonassociative,
    homomorphisms,
    isomorphisms,
    left_nested_generators,
    orbit_lengths,
    semidirect_group,
    subgroups,
)


def s3_table():
    """S3 built here from scratch via permutation composition."""
    perms = sorted(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    tab = [[idx[tuple(perms[i][perms[j][k]] for k in range(3))] for j in range(n)] for i in range(n)]
    return CayleyTable.of(tab)


def left_regular(g):
    """L_h(x) = h o x, one permutation per element: row h of the table.
    L_a . L_b = L_(a o b), so homomorphisms into it are those into g."""
    return g.table


def test_s3_is_group_by_brute_force_agreement():
    t = s3_table()
    ok = True
    for a, b, c in itertools.product(range(6), repeat=3):
        if t.apply(t.apply(a, b), c) != t.apply(a, t.apply(b, c)):
            ok = False
    assert ok
    rep = check_group(t)
    assert rep.is_group
    assert rep.identity == 0  # identity permutation sorts first


def test_right_zero_table_is_not_a_group():
    t = CayleyTable.of([[0, 1], [0, 1]])
    rep = check_group(t)
    assert not rep.is_group
    assert rep.failure[0] == "no-identity"
    # 1*0 = 0 != 1 shows index 0 is not a right identity
    assert rep.failure[1] == (1, 0)


def test_malformed_table_rejected():
    with pytest.raises(MalformedTableError):
        CayleyTable.of([[0, 1], [1, 2]])
    with pytest.raises(MalformedTableError):
        CayleyTable.of([[0, 1]])


def test_left_cancellative_right_zero_and_constant():
    # over C3, the right-zero addition a + b = b makes a semi-brace; the
    # constant one is associative but not left cancellative
    n = 3
    circ = cyclic_group(n).table
    verify([[b for b in range(n)] for _ in range(n)], circ)
    with pytest.raises(SemiBraceAxiomError) as exc:
        verify([[0] * n for _ in range(n)], circ)
    assert (exc.value.axiom, exc.value.witness) == ("add-not-left-cancellative", (0, 0, 1))


def test_groups_are_left_cancellative():
    # a group as both operations is a trivial skew brace
    for g in (cyclic_group(5), FiniteGroup.from_table(s3_table()), dicyclic_group(2)):
        verify(g.table, g.table)


def test_identity_relabeled_to_zero():
    # Z/3 with identity moved to position 2
    z3 = cyclic_group(3)
    perm = np.array([2, 0, 1])
    moved = z3.op.relabel(perm)
    assert check_group(moved).identity == 2
    g = FiniteGroup.from_table(moved)
    assert g.identity == 0
    assert g.mul(0, 1) == 1 and g.mul(1, 0) == 1


def test_automorphism_count_matches_unit_count():
    # |Aut(Z/n)| = #units mod n, counted here by gcd
    for n in range(1, 13):
        units = sum(1 for u in range(n) if math.gcd(u, n) == 1) if n > 1 else 1
        assert len(automorphisms(cyclic_group(n))) == units


def test_automorphisms_z4_and_gl23():
    assert len(automorphisms(cyclic_group(4))) == 2
    z3z3 = direct_product(cyclic_group(3), cyclic_group(3))
    auts = automorphisms(z3z3)
    assert len(auts) == 48  # (9-1)(9-3)
    # sorted lexicographically by image arrays
    keys = [tuple(a) for a in auts.tolist()]
    assert keys == sorted(keys)


def test_automorphisms_closed_under_composition_and_inverse():
    g = dicyclic_group(2)  # quaternion group
    auts = automorphisms(g)
    keys = {a.tobytes() for a in auts}
    assert len(auts) == 24  # Aut(Q8) = S4
    for a in auts[:6]:
        assert np.argsort(a).tobytes() in keys  # the inverse
        for b in auts[:6]:
            assert a[b].tobytes() in keys  # a after b


def test_homomorphism_counts_against_exhaustive_search():
    # every map src -> tgt checked directly, |src| <= 4, |tgt| <= 6
    z2, z3, z4 = cyclic_group(2), cyclic_group(3), cyclic_group(4)
    v4 = direct_product(z2, z2)
    s3 = FiniteGroup.from_table(s3_table())
    z6 = cyclic_group(6)
    for src, tgt in [(z2, z2), (z2, s3), (z3, z2), (z3, s3), (z4, z6), (v4, s3), (v4, z6)]:
        brute = 0
        for images in itertools.product(range(tgt.n), repeat=src.n):
            if images[0] != 0:
                continue
            if all(
                images[src.mul(a, b)] == tgt.mul(images[a], images[b])
                for a in range(src.n)
                for b in range(src.n)
            ):
                brute += 1
        assert len(homomorphisms(src, left_regular(tgt))) == brute


def test_expected_hom_counts():
    z2, z3 = cyclic_group(2), cyclic_group(3)
    s3 = FiniteGroup.from_table(s3_table())
    assert len(homomorphisms(z2, left_regular(s3))) == 4  # trivial + three transpositions
    assert len(homomorphisms(z3, left_regular(z2))) == 1


def _actions_by_brute_force(k, auts):
    """Every tuple of generator images drawn from `auts`, extended along
    product words and kept when it is a homomorphism on the full table of
    k; sorted lexicographically by the image arrays."""
    gens = k.generating_sequence()
    words = {0: ()}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for gi, g in enumerate(gens):
                y = k.mul(x, g)
                if y not in words:
                    words[y] = words[x] + (gi,)
                    nxt.append(y)
        frontier = nxt
    assert len(words) == k.n
    n = auts.shape[1]
    found = []
    for choice in itertools.product(auts, repeat=len(gens)):
        f = []
        for x in range(k.n):
            img = np.arange(n)
            for gi in words[x]:
                img = img[choice[gi]]
            f.append(img)
        if all(
            np.array_equal(f[k.mul(a, b)], f[a][f[b]]) for a in range(k.n) for b in range(k.n)
        ):
            found.append(tuple(tuple(img.tolist()) for img in f))
    return sorted(found)


def test_homomorphisms_into_automorphisms_match_brute_force():
    # K of order <= 6 into Aut(X) for every X of order <= 8, C2^3 with
    # Aut = GL(3, 2) of order 168 included; K = S3 is the non-abelian case,
    # where the order of composition matters
    for m in range(1, 9):
        for x in small_groups(m):
            auts = automorphisms(x)
            for k_order in range(1, 7):
                for k in small_groups(k_order):
                    got = [
                        tuple(tuple(row) for row in action)
                        for action in homomorphisms(k, auts).tolist()
                    ]
                    assert got == _actions_by_brute_force(k, auts)


def test_homomorphisms_from_order_twelve_match_brute_force():
    # A4 is generated by two elements of order 3, neither of which
    # normalises the subgroup of the other, so the power and conjugation
    # relations the search prunes with are not a presentation of it; only
    # the final homomorphism check rejects the other maps
    (a4,) = [k for k in small_groups(12) if k.element_orders().tolist().count(3) == 8]
    assert len(automorphisms(a4)) == 24
    for k in small_groups(12):
        for m in range(1, 7):
            for x in small_groups(m):
                target = left_regular(x)
                got = [
                    tuple(tuple(row) for row in action)
                    for action in homomorphisms(k, target).tolist()
                ]
                assert got == _actions_by_brute_force(k, target)


def _sym3_rows():
    """(k, f) for every catalogue group k of order 2 to 8, with f every tuple
    of generator images in Sym(3) closed over the BFS tree, so f[:, 0] = id."""
    sym3 = np.array(list(itertools.permutations(range(3))))
    for m in range(2, 9):
        for k in small_groups(m):
            gens = k.generating_sequence()
            choice = np.array(list(itertools.product(range(6), repeat=len(gens))))
            images = [sym3[choice[:, i]] for i in range(len(gens))]
            yield k, tables._lambda_rows(k.n, tables._bfs_tree(k, gens), images, tables._compose_rows)


def test_homomorphic_rows_match_the_full_table_check():
    # the row check keeps exactly the maps that are actions on the full table
    for k, f in _sym3_rows():
        gens = k.generating_sequence()
        tree = tables._bfs_tree(k, gens)
        got = tables._homomorphic_rows(f, k.table, gens, tree, tables._compose_rows)
        assert got.tolist() == [full_scans.is_action(row, k.table) for row in f]


def test_generator_action_check_matches_the_full_table_check():
    # on rows with images[0] = id, images[x o g] = images[x] . images[g] on
    # the generators g, compared with an empty tree, decides the whole law
    verdicts = collections.Counter()
    for k, f in _sym3_rows():
        assert (f[:, 0] == np.arange(3)).all()
        gens = left_nested_generators(k.table)[1:]
        got = tables._homomorphic_rows(f, k.table, gens, [], tables._compose_rows)
        want = [full_scans.is_action(row, k.table) for row in f]
        assert got.tolist() == want
        verdicts.update(want)
    assert verdicts[True] and verdicts[False]


def test_involutions_of_gl27():
    # Z2 -> Aut(C7 x C7) = GL(2, 7): the trivial action and the 57 involutions
    auts = automorphisms(direct_product(cyclic_group(7), cyclic_group(7)))
    assert len(auts) == 2016
    actions = homomorphisms(cyclic_group(2), auts)
    assert len(actions) == 58
    assert (actions[:, 0] == np.arange(49)).all()
    involutions = (np.take_along_axis(auts, auts, axis=1) == np.arange(49)).all(axis=1)
    assert sorted(a.tobytes() for a in actions[:, 1]) == sorted(p.tobytes() for p in auts[involutions])


def test_cycle_lengths_give_the_order_of_every_catalogue_automorphism():
    # `homomorphisms` reads each target permutation's order as the lcm of
    # its `orbit_lengths` row; `full_scans.permutation_order` walks the powers
    for n in range(1, 13):
        for g in small_groups(n):
            auts = automorphisms(g)
            orders = np.lcm.reduce(orbit_lengths(auts), axis=1)
            assert orders.tolist() == [full_scans.permutation_order(a) for a in auts]


def test_homomorphisms_need_identity_first():
    z3 = cyclic_group(3)
    with pytest.raises(MalformedTableError):
        homomorphisms(cyclic_group(2), automorphisms(z3)[::-1])


def test_homomorphisms_reject_an_unclosed_list():
    # C3 -> <(0 1 2)> sends 1 to the 3-cycle and 2 to its square, which the
    # list lacks
    perms = np.array([[0, 1, 2], [1, 2, 0]])
    with pytest.raises(MalformedTableError, match="not closed"):
        homomorphisms(cyclic_group(3), perms)


def test_homomorphisms_accept_any_list_order():
    # GL(2, 3) with the identity first and the rest reversed: the same
    # actions, ordered by the positions of their images in the given list
    auts = automorphisms(direct_product(cyclic_group(3), cyclic_group(3)))
    shuffled = np.concatenate([auts[:1], auts[:0:-1]])
    pos = {p.tobytes(): i for i, p in enumerate(shuffled)}
    for k in (*small_groups(2), *small_groups(3), *small_groups(4)):
        got = [tuple(p.tobytes() for p in action) for action in homomorphisms(k, shuffled)]
        want = [tuple(p.tobytes() for p in action) for action in homomorphisms(k, auts)]
        assert got == sorted(want, key=lambda action: [pos[key] for key in action])


def test_subgroups_z4_and_s3():
    subs = subgroups(cyclic_group(4))
    assert [len(s.elements) for s in subs] == [1, 2, 4]
    assert all(s.normal for s in subs)
    subs3 = subgroups(FiniteGroup.from_table(s3_table()))
    assert len(subs3) == 6
    order2 = [s for s in subs3 if len(s.elements) == 2]
    assert len(order2) == 3 and not any(s.normal for s in order2)


def _two_sided_closure(g, seed):
    """The subgroup generated by seed, by closing under products on both
    sides until nothing new appears."""
    members = {0, *seed}
    while True:
        more = members | {g.mul(x, y) for x in members for y in members}
        if more == members:
            return tuple(sorted(members))
        members = more


def test_closure_matches_a_two_sided_search():
    for n in (6, 8, 12):
        for g in small_groups(n):
            seeds = [()] + [(x,) for x in range(n)] + list(itertools.combinations(range(n), 2))
            for seed in seeds:
                assert g.closure(seed) == _two_sided_closure(g, seed), seed


def test_generating_sequence_is_the_greedy_one_and_its_trees_cover_each_prefix():
    # the generators the `iso` witness depends on: rank by (-order, index)
    # and admit an element unless the earlier ones already generate it
    for n in sorted(SUPPORTED_GROUP_ORDERS):
        for g in small_groups(n):
            ranked = sorted(range(1, n), key=lambda a: (-g.element_order(a), a))
            want: list[int] = []
            for a in ranked:
                if a not in _two_sided_closure(g, want):
                    want.append(a)
            gens = g.generating_sequence()
            assert gens == want
            for k in range(len(gens) + 1):
                tree = tables._bfs_tree(g, gens[:k])
                assert sorted(y for y, _, _ in tree) == list(g.closure(gens[:k]))[1:]
                earlier = {0}
                for y, parent, i in tree:
                    assert y == g.mul(parent, gens[i]) and parent in earlier
                    earlier.add(y)


def test_isomorphisms_distinguish_z4_from_v4():
    z4 = cyclic_group(4)
    v4 = direct_product(cyclic_group(2), cyclic_group(2))
    assert len(isomorphisms(z4, v4)) == 0
    assert len(isomorphisms(z4, z4)) == 2


def test_permutation_groups_are_read_only_sorted_image_rows():
    # `automorphisms` shares one array per group table, so it must be
    # read-only; its rows are sorted, with the identity first
    for n in (1, 6, 8, 9):
        for g in small_groups(n):
            auts = automorphisms(g)
            assert auts.dtype == np.int64 and auts.shape[1] == n
            assert np.array_equal(auts[0], np.arange(n))
            assert auts.tolist() == sorted(auts.tolist())
            with pytest.raises(ValueError):
                auts[0, 0] = 1
    z4, v4 = cyclic_group(4), direct_product(cyclic_group(2), cyclic_group(2))
    assert homomorphisms(cyclic_group(1), automorphisms(v4)).shape == (1, 1, 4)
    # an empty result is an array of shape (0, n), and bool() of a larger
    # array raises, so callers test its length
    assert isomorphisms(z4, v4).shape == (0, 4)
    assert group_isomorphic(z4, v4) is False
    assert group_isomorphic(v4, direct_product(cyclic_group(2), cyclic_group(2))) is True


def test_semidirect_group_builds_s3():
    z3, z2 = cyclic_group(3), cyclic_group(2)
    d3 = semidirect_group(z3, z2, np.array([[0, 1, 2], [0, 2, 1]]))
    assert len(isomorphisms(d3, FiniteGroup.from_table(s3_table()))) > 0


def test_semidirect_group_rejects_non_action():
    z3, z2 = cyclic_group(3), cyclic_group(2)
    ident, not_auto = [0, 1, 2], [1, 0, 2]  # the second moves the identity
    with pytest.raises(MalformedTableError):
        semidirect_group(z3, z2, np.array([ident, not_auto]))
    # both maps are automorphisms, but the identity of Z2 must act trivially
    inversion = [0, 2, 1]
    with pytest.raises(MalformedTableError, match="not a homomorphism"):
        semidirect_group(z3, z2, np.array([inversion, inversion]))


# Actions of C2 on C3 that are not integer arrays of shape (2, 3) over
# range(3); a float entry used to be truncated to an automorphism
MALFORMED_ACTIONS = {
    "float": [[0, 1, 2], [0, 2.9, 1.2]],
    "out-of-range": [[0, 1, 2], [0, 1, 7]],
    "negative": [[0, 1, 2], [0, -1, 1]],
    "shape": [[0, 1, 2]],
}


@pytest.mark.parametrize("action", MALFORMED_ACTIONS.values(), ids=MALFORMED_ACTIONS.keys())
def test_semidirect_group_rejects_malformed_actions(action):
    with pytest.raises(MalformedTableError):
        semidirect_group(cyclic_group(3), cyclic_group(2), action)


def test_dicyclic_table_matches_presentation():
    # index 2i + j is a^i b^j, and b a^k = a^-k b, b^2 = a^m
    for m in range(1, 6):
        want = np.zeros((4 * m, 4 * m), dtype=np.int64)
        for x in range(4 * m):
            for y in range(4 * m):
                i, j = divmod(x, 2)
                k, l = divmod(y, 2)
                first = (i + (-k if j else k) + (m if j and l else 0)) % (2 * m)
                want[x, y] = 2 * first + (j + l) % 2
        assert dicyclic_group(m).table.tobytes() == want.tobytes()


def test_dicyclic_groups():
    q8 = dicyclic_group(2)
    assert sorted(q8.element_orders().tolist()) == [1, 2, 4, 4, 4, 4, 4, 4]
    q16 = dicyclic_group(4)
    orders = sorted(q16.element_orders().tolist())
    assert orders.count(2) == 1  # unique involution marks generalized quaternion


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=1000))
def test_cyclic_group_element_orders(n, a):
    g = cyclic_group(n)
    a %= n
    assert g.element_order(a) == n // math.gcd(a, n)


def test_element_orders_match_element_order():
    for n in sorted(SUPPORTED_GROUP_ORDERS):
        for g in small_groups(n):
            assert g.element_orders().tolist() == [g.element_order(a) for a in range(n)]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=12).flatmap(
        lambda n: st.lists(st.permutations(list(range(n))), min_size=1, max_size=4)
    )
)
def test_orbit_lengths_match_a_cycle_walk(perms):
    got = orbit_lengths(np.array(perms))
    assert got.tolist() == [full_scans.cycle_lengths(p) for p in perms]


def test_relabel_transports_structure():
    # S3 is not abelian, so a relabelling that swapped the operands would fail
    perm = np.array([3, 1, 4, 5, 0, 2])
    for g in (cyclic_group(6), FiniteGroup.from_table(s3_table())):
        relabeled = g.op.relabel(perm)
        for a in range(6):
            for b in range(6):
                assert relabeled.apply(int(perm[a]), int(perm[b])) == int(perm[g.mul(a, b)])


@pytest.mark.parametrize(
    "perm", [[0, 1, 2], [0, 1, 2, 3, 0], [0, 0, 1, 2], [0, 1, 2, 4], [[0, 1], [2, 3]]]
)
def test_relabel_rejects_a_non_permutation(perm):
    # too short, too long, a repeated entry, an entry out of range, a 2-d array
    g = cyclic_group(4)
    with pytest.raises(MalformedTableError):
        g.op.relabel(perm)
    with pytest.raises(MalformedTableError):
        g.relabel(perm)


def test_semibrace_relabel_rejects_a_non_permutation():
    b = family(FamilyId("pq-congruent", 3, 3, 2))
    with pytest.raises(MalformedTableError):
        b.relabel([0, 1, 1, 2, 3, 4])
    with pytest.raises(MalformedTableError):
        b.relabel([0, 1, 2, 3, 4])
    with pytest.raises(MalformedTableError):
        b.relabel([[0, 1, 2], [3, 4, 5]])


# ---------------------------------------------------------------------------
# chunked and generator-based checks against the single-pass full scans

ABOVE_SLAB = full_scans.ABOVE_SLAB


def _group_outcome(t):
    rep = check_group(t)
    return rep.is_group, rep.identity, rep.failure


def _associativity_triple(t):
    """The associativity witness of the single-pass reference scan, or None."""
    _, witness = full_scans.check_left_cancellative_semigroup(t)
    return witness[1] if witness is not None and witness[0] == "not-associative" else None


def _corrupted(table, i, j, shift):
    out = table.copy()
    out[i, j] = (out[i, j] + shift) % table.shape[0]
    return CayleyTable.of(out)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(ABOVE_SLAB + full_scans.MID_SIZE),
    st.sampled_from(["add", "circ"]),
    st.integers(min_value=0, max_value=10 ** 6),
    st.integers(min_value=0, max_value=10 ** 6),
    st.integers(min_value=1, max_value=10 ** 6),
)
@example(full_scans.MID_SIZE[0], "circ", 4, 7, 2)
@example(full_scans.MID_SIZE[1], "circ", 9, 30, 11)
@example(full_scans.MID_SIZE[2], "circ", 61, 17, 40)
def test_checks_above_slab_match_full_scan(fid, which, i, j, shift):
    b = family(fid)
    table = b.add.table if which == "add" else b.circ.table
    n = b.n
    # the valid tables pass
    assert first_nonassociative(b.add.table) is None
    assert check_group(b.circ).is_group
    bad = _corrupted(table, i % n, j % n, 1 + shift % (n - 1))
    assert _group_outcome(bad) == full_scans.check_group(bad)
    assert first_nonassociative(bad.table) == _associativity_triple(bad)


def _small_tables():
    """Group and left cancellative semigroup tables of orders 3 to 8. In the
    right-zero one every element is a generator, and some corruptions break
    associativity only at the first of them, 0."""
    s3 = FiniteGroup.from_table(s3_table())
    q8 = dicyclic_group(2)
    add = np.array([[(x // 2 + y // 2) % 3 * 2 + y % 2 for y in range(6)] for x in range(6)])
    right_zero = np.tile(np.arange(3), (3, 1))
    return [s3.table, q8.table, cyclic_group(6).table, add, right_zero]


def test_every_small_corruption_matches_full_scan(monkeypatch):
    # Light's test decides at every n; the full scan for a witness runs in
    # one pass at the default slab and one row at a time at a slab of one
    # triple
    for slab in (tables.SLAB, 1):
        monkeypatch.setattr(tables, "SLAB", slab)
        for table in _small_tables():
            n = table.shape[0]
            for i, j, shift in itertools.product(range(n), range(n), range(1, n)):
                bad = _corrupted(table, i, j, shift)
                assert _group_outcome(bad) == full_scans.check_group(bad), (slab, i, j, shift)
                assert first_nonassociative(bad.table) == _associativity_triple(bad), (slab, i, j, shift)


def _left_nested_closure(table, gens):
    """Every (..(s1.s2)...).sk with all s_i in gens, by a plain search."""
    reached = set(gens)
    frontier = list(gens)
    while frontier:
        frontier = list({int(table[x, s]) for x in frontier for s in gens} - reached)
        reached.update(frontier)
    return reached


def test_left_nested_generators_are_greedy_and_generate():
    for table in _small_tables() + [family(fid).add.table for fid in ABOVE_SLAB[:2]]:
        gens = left_nested_generators(table)
        assert _left_nested_closure(table, gens) == set(range(table.shape[0]))
        for k, s in enumerate(gens):
            earlier = _left_nested_closure(table, gens[:k])
            # s is new, and every smaller index was already reached or chosen
            assert s not in earlier
            assert all(x in earlier or x in gens for x in range(s))
    # a group needs at most 1 + log2(n) of them, the identity first
    for fid in ABOVE_SLAB:
        circ = family(fid).circ.table
        gens = left_nested_generators(circ)
        assert gens[0] == 0 and len(gens) <= 1 + math.log2(circ.shape[0])
    # a right-zero operation x.y = y is generated by nothing less than everything
    assert left_nested_generators(np.tile(np.arange(5), (5, 1))) == [0, 1, 2, 3, 4]


def test_group_from_table_moves_inverses_with_identity():
    # from_report relabels without a second check; the inverses must follow
    g = dicyclic_group(2)
    moved = g.op.relabel(np.array([3, 1, 2, 0, 4, 5, 6, 7]))
    rep = check_group(moved)
    assert rep.identity == 3
    canon = FiniteGroup.from_table(moved)
    assert canon.identity == 0
    for a in range(canon.n):
        assert canon.mul(a, canon.inv(a)) == 0 and canon.mul(canon.inv(a), a) == 0

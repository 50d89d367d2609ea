"""Semi-brace verification, parts, ideals, and semidirect decompositions."""

import collections
import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import full_scans
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semibrace import core, tables
from semibrace.classify import enumerate_generic, skew_braces
from semibrace.construct import TWO_P2_THEOREMS, FamilyId, applicable_items, family
from semibrace.core import (
    InternalInvariantError,
    SemiBraceAxiomError,
    _induced_table,
    additive_decomposition,
    brace_automorphism_group,
    decompose,
    decompose_E_ideal,
    factorize,
    idempotents,
    is_ideal,
    kernel_lambda_on_E,
    lambda_map,
    semibrace_from_json,
    semidirect,
    skew_part,
    verify,
)
from semibrace.tables import (
    MalformedTableError,
    checked_action,
    cyclic_group,
    dicyclic_group,
    is_normal_subset,
    subgroups,
)
from semibrace.ybe import check_braid, solution_from


def is_trivial_action(alpha):
    """Every element of the acting factor acts as the identity."""
    return bool((alpha == np.arange(alpha.shape[1])).all())


def trivial_semibrace_tables(group):
    """add[a, b] = b alongside the group's own multiplication."""
    n = group.n
    add = np.tile(np.arange(n), (n, 1))
    return add, group.table


def trivial_brace_tables(group):
    """add = circ = the group's table."""
    return group.table.copy(), group.table.copy()


def pair_tables(p, q, u, kernel_side):
    """Hand-built size p*q examples on Z/p x Z/q, u a unit mod p.

    kernel_side=True: index (g, e) -> g*q + e,
        (g1,e1)+(g2,e2) = (g1+g2, e2),  (g1,e1)o(g2,e2) = (g1+u^e1*g2, e1+e2).
    kernel_side=False: index (e, g) -> e*q ... -> e*|G|+g with |G|=q,
        (e1,g1)+(e2,g2) = (e2, g1+g2),  (e1,g1)o(e2,g2) = (e1+u^g1*e2, g1+g2).
    """
    n = p * q
    add = np.zeros((n, n), dtype=int)
    circ = np.zeros((n, n), dtype=int)
    if kernel_side:
        for g1 in range(p):
            for e1 in range(q):
                for g2 in range(p):
                    for e2 in range(q):
                        i, j = g1 * q + e1, g2 * q + e2
                        add[i, j] = ((g1 + g2) % p) * q + e2
                        circ[i, j] = ((g1 + pow(u, e1, p) * g2) % p) * q + (e1 + e2) % q
    else:
        for e1 in range(p):
            for g1 in range(q):
                for e2 in range(p):
                    for g2 in range(q):
                        i, j = e1 * q + g1, e2 * q + g2
                        add[i, j] = e2 * q + (g1 + g2) % q
                        circ[i, j] = ((e1 + pow(u, g1, p) * e2) % p) * q + (g1 + g2) % q
    return add, circ


@pytest.fixture(scope="module")
def kernel_example():
    """|B|=6, G = Z/3 is the kernel of lambda on E, E = Z/2 not an ideal."""
    add, circ = pair_tables(3, 2, 2, kernel_side=True)
    return verify(add, circ)


@pytest.fixture(scope="module")
def e_ideal_example():
    """|B|=6, E = Z/3 is an ideal, G = Z/2 is not the kernel."""
    add, circ = pair_tables(3, 2, 2, kernel_side=False)
    return verify(add, circ)


def sample_pool():
    pool = [
        verify(*trivial_semibrace_tables(cyclic_group(5))),
        verify(*trivial_semibrace_tables(dicyclic_group(2))),
        verify(*trivial_brace_tables(cyclic_group(6))),
        verify(*trivial_brace_tables(dicyclic_group(2))),
        verify(*pair_tables(3, 2, 2, kernel_side=True)),
        verify(*pair_tables(3, 2, 2, kernel_side=False)),
        verify(*pair_tables(5, 2, 4, kernel_side=True)),
    ]
    return pool


POOL = sample_pool()


# ---------------------------------------------------------------------------
# verification and diagnostics


def test_trivial_semibrace_verifies():
    b = verify(*trivial_semibrace_tables(cyclic_group(4)))
    assert b.e_elements == (0, 1, 2, 3)
    assert b.g_elements == (0,)
    # lambda_a is left translation by a when every element is idempotent
    assert np.array_equal(b.lam, b.circ.table)


def test_trivial_brace_verifies():
    b = verify(*trivial_brace_tables(cyclic_group(4)))
    assert b.e_elements == (0,)
    assert b.g_elements == (0, 1, 2, 3)
    assert np.array_equal(b.lam, np.tile(np.arange(4), (4, 1)))


def test_identity_relabeled_to_zero():
    # shift Z/3 so its identity sits at index 1, in both tables
    g = cyclic_group(3)
    perm = np.array([1, 0, 2])
    shifted = g.op.relabel(perm).table
    b = verify(shifted, shifted)
    assert b.circ.table[0, 2] == 2 and b.circ.table[0, 0] == 0


def test_order_one_pair_verifies():
    # no circle generator besides the identity: the test is lambda_0 = id
    b = verify([[0]], [[0]])
    assert (b.e_elements, b.g_elements) == ((0,), (0,))


def test_circle_not_a_group_diagnostic():
    n = 3
    right_zero = np.tile(np.arange(n), (n, 1))
    add = right_zero.copy()
    with pytest.raises(SemiBraceAxiomError) as exc:
        verify(add, right_zero)
    assert exc.value.axiom == "circle-not-a-group"


def test_add_not_associative_diagnostic():
    circ = cyclic_group(3).table
    add = np.array([[0, 1, 2], [2, 0, 1], [1, 2, 0]])  # rows injective, not associative
    with pytest.raises(SemiBraceAxiomError) as exc:
        verify(add, circ)
    assert exc.value.axiom in ("add-not-associative", "add-not-left-cancellative")


def test_add_not_left_cancellative_diagnostic():
    circ = cyclic_group(2).table
    add = np.zeros((2, 2), dtype=int)  # constant: associative, not cancellative
    with pytest.raises(SemiBraceAxiomError) as exc:
        verify(add, circ)
    assert exc.value.axiom == "add-not-left-cancellative"
    assert exc.value.witness == (0, 0, 1)


def test_compatibility_diagnostic():
    add = np.array([[1, 0], [0, 1]])  # a + b = a + b + 1 mod 2
    circ = np.array([[0, 1], [1, 0]])
    with pytest.raises(SemiBraceAxiomError) as exc:
        verify(add, circ)
    assert exc.value.axiom == "compatibility"
    assert exc.value.witness == (0, 0, 0)


def _outcome(add, circ):
    """(axiom, witness) raised by verify, or None when it accepts."""
    try:
        verify(add, circ)
    except SemiBraceAxiomError as err:
        return err.axiom, err.witness
    return None


def _swapped(table, i, j):
    """The table relabeled by the transposition of i and j."""
    perm = np.arange(table.shape[0])
    perm[[i, j]] = perm[[j, i]]
    return perm[table[np.ix_(perm, perm)]]


def _corruptions(add, circ, i, j, shift, kind, which):
    n = add.shape[0]
    add, circ = add.copy(), circ.copy()
    target = add if which == "add" else circ
    if kind == "cell":
        target[i, j] = (target[i, j] + shift) % n
        return add, circ
    # two nonzero labels swapped in one table: both stay valid on their
    # own, so this reaches the compatibility check
    i, j = 1 + i % (n - 1), 1 + j % (n - 1)
    swapped = _swapped(target, i, j)
    return (swapped, circ) if which == "add" else (add, swapped)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(full_scans.ABOVE_SLAB + full_scans.MID_SIZE),
    st.sampled_from(["cell", "swap"]),
    st.sampled_from(["add", "circ"]),
    st.integers(min_value=0, max_value=10 ** 6),
    st.integers(min_value=0, max_value=10 ** 6),
    st.integers(min_value=1, max_value=10 ** 6),
)
@example(full_scans.MID_SIZE[0], "cell", "circ", 4, 7, 2)
@example(full_scans.MID_SIZE[1], "swap", "circ", 9, 30, 1)
@example(full_scans.MID_SIZE[2], "cell", "circ", 61, 17, 40)
def test_verify_above_slab_matches_full_scan(fid, kind, which, i, j, shift):
    b = family(fid)
    n = b.n
    add, circ = b.add.table, b.circ.table
    assert full_scans.verify_outcome(add, circ) is None
    assert verify(add, circ).key() == b.key()
    bad = _corruptions(add, circ, i % n, j % n, 1 + shift % (n - 1), kind, which)
    assert _outcome(*bad) == full_scans.verify_outcome(*bad)


def test_every_small_corruption_matches_full_scan(monkeypatch):
    # verify decides on the circle generators at every n; a slab of one
    # triple makes the failure path's full scans run one row at a time.  A
    # transposition keeps each table valid on its own, so those cases end
    # at the compatibility check
    monkeypatch.setattr(tables, "SLAB", 1)
    compat = 0
    for b in POOL:
        add, circ = b.add.table, b.circ.table
        n = b.n
        assert _outcome(add, circ) is None
        cases = [("swap", which, i, j, 1)
                 for which in ("add", "circ")
                 for i, j in itertools.combinations(range(n - 1), 2)]
        if n <= 8:
            cases += [("cell", which, i, j, shift)
                      for which in ("add", "circ")
                      for i, j, shift in itertools.product(range(n), range(n), range(1, n))]
        for kind, which, i, j, shift in cases:
            bad = _corruptions(add, circ, i, j, shift, kind, which)
            want = full_scans.verify_outcome(*bad)
            assert _outcome(*bad) == want, (b.n, kind, which, i, j, shift)
            compat += want is not None and want[0] == "compatibility"
    assert compat > 0


def test_verify_at_578_is_small():
    # 2p2 at p = 17: the full scans would hold several 578**3 int64 arrays,
    # 1.5 GB each; numpy reports its buffers to tracemalloc
    b = family(FamilyId("2p2-E2-noncyclic", 5, 17))
    rng = np.random.default_rng(17)
    perm = np.concatenate(([0], 1 + rng.permutation(b.n - 1)))
    add, circ = b.add.relabel(perm).table, b.circ.op.relabel(perm).table
    tracemalloc.start()
    try:
        again = verify(add, circ)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200 * 2 ** 20
    assert (again.n, len(again.e_elements), len(again.g_elements)) == (578, 2, 289)


def test_braid_check_at_242_is_small():
    # The benchmark's 2p2 structure at p = 11: 16-bit words and one x per
    # block, 1.34 MiB of block arrays.  A whole call peaked at 2.63 MiB by
    # tracemalloc; the full scan would hold several 242**3 int64 arrays,
    # 108 MiB each.
    s = solution_from(family(FamilyId("2p2-E2-noncyclic", 5, 11)))
    tracemalloc.start()
    try:
        holds = check_braid(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert holds == (True, None)
    assert peak < 3 * 2 ** 20


def test_verify_leaves_numpy_ma_unloaded():
    # In numpy 2 the first np.unique call imports numpy.ma, 10-20 ms in every
    # process.  numpy 1 imports numpy.ma with numpy, and then there is
    # nothing to keep unloaded.
    code = (
        "import sys, numpy\n"
        "eager = 'numpy.ma' in sys.modules\n"
        "from semibrace.construct import FamilyId, family\n"
        "from semibrace.core import verify\n"
        "b = family(FamilyId('2p2-E2-noncyclic', 5, 5))\n"
        "verify(b.add.table, b.circ.table)\n"
        "print(eager, 'numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(core.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    eager, loaded = proc.stdout.split()
    assert eager == "True" or loaded == "False"


def test_endomorphic_rows_accepts_an_empty_block():
    empty = np.zeros((0, 4, 4), dtype=np.int8)
    ok = full_scans.endomorphic_rows(empty, empty, [1, 2])
    assert ok.dtype == bool and ok.shape == (0,)


def test_malformed_table_diagnostic():
    with pytest.raises(SemiBraceAxiomError) as exc:
        verify([[0, 1]], [[0, 1], [1, 0]])
    assert exc.value.axiom == "malformed-table"
    with pytest.raises(SemiBraceAxiomError):
        verify([[0, 5], [1, 0]], [[0, 1], [1, 0]])


def test_json_round_trip(kernel_example):
    again = semibrace_from_json(kernel_example.to_json())
    assert again.key() == kernel_example.key()
    with pytest.raises(SemiBraceAxiomError):
        semibrace_from_json({"n": 2, "add": [[0, 1], [0, 1]]})


# ---------------------------------------------------------------------------
# parts and factorization


def test_induced_table_relabels_and_rejects_open_subsets():
    g = cyclic_group(6)
    sub = [0, 2, 4]
    want = [[sub.index(g.mul(x, y)) for y in sub] for x in sub]
    assert _induced_table(g.table, sub).tolist() == want
    with pytest.raises(InternalInvariantError, match="not closed"):
        _induced_table(g.table, [0, 1])


def test_skew_part_reports_a_failed_law(kernel_example, monkeypatch):
    def reject(add, circ):
        raise SemiBraceAxiomError("compatibility", (0, 0, 0))

    monkeypatch.setattr(core, "verify", reject)
    with pytest.raises(InternalInvariantError, match="skew brace law fails on G"):
        skew_part(kernel_example)



def test_kernel_example_parts(kernel_example):
    b = kernel_example
    assert b.e_elements == (0, 1)
    assert b.g_elements == (0, 2, 4)
    ep = idempotents(b)
    assert ep.group.n == 2
    gp = skew_part(b)
    # the skew part here is the trivial brace on Z/3
    assert np.array_equal(gp.semibrace.add.table, gp.semibrace.circ.table)
    assert sorted(gp.semibrace.circ.orders.tolist()) == [1, 3, 3]


def test_factorize_frozen_oracle(kernel_example):
    # worked out by hand: element 5 = (2,1) has g = (2,0) -> 4, e = (0,1) -> 1
    assert factorize(kernel_example, 5) == (4, 1)
    assert additive_decomposition(kernel_example, 5) == (4, 1)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_factorize_properties(data):
    b = data.draw(st.sampled_from(POOL))
    x = data.draw(st.integers(min_value=0, max_value=b.n - 1))
    g, e = factorize(b, x)
    assert g in set(b.g_elements) and e in set(b.e_elements)
    assert b.circ.table[g, e] == x
    g2, e2 = additive_decomposition(b, x)
    assert b.add.table[g2, e2] == x and g2 == g


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_recovered_addition(data):
    b = data.draw(st.sampled_from(POOL))
    x = data.draw(st.integers(min_value=0, max_value=b.n - 1))
    y = data.draw(st.integers(min_value=0, max_value=b.n - 1))
    # a + b = a o lambda_{a'}(b)
    assert b.add.table[x, y] == b.circ.table[x, b.lam[b.circ.inverse[x], y]]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_lambda_rho_product_identity(data):
    b = data.draw(st.sampled_from(POOL))
    x = data.draw(st.integers(min_value=0, max_value=b.n - 1))
    y = data.draw(st.integers(min_value=0, max_value=b.n - 1))
    # x o y = lambda_x(y) o rho_y(x), with r(x, y) = (lambda_x(y), rho_y(x))
    lam_xy, rho_yx = solution_from(b).r[x, y]
    assert lam_xy == b.lam[x, y]
    assert b.circ.table[x, y] == b.circ.table[lam_xy, rho_yx]


@pytest.mark.parametrize("b", POOL, ids=lambda b: f"n{b.n}e{len(b.e_elements)}")
def test_lambda_map_validates(b):
    assert lambda_map(b) is b.lam
    assert b.lam.shape == (b.n, b.n)
    assert np.array_equal(b.lam[0], np.arange(b.n))


def test_sizes_multiply():
    for b in POOL:
        assert len(b.e_elements) * len(b.g_elements) == b.n


# ---------------------------------------------------------------------------
# ideals and kernels


def test_zero_and_whole_are_ideals():
    for b in POOL:
        assert is_ideal(b, [0]).is_ideal
        assert is_ideal(b, range(b.n)).is_ideal


def test_kernel_example_E_not_ideal(kernel_example):
    rep = is_ideal(kernel_example, kernel_example.e_elements)
    assert not rep.is_ideal
    assert not rep.normal_in_circ
    assert rep.witness[0] == "normal-in-circ"


def test_e_ideal_example_E_is_ideal(e_ideal_example):
    rep = is_ideal(e_ideal_example, e_ideal_example.e_elements)
    assert rep.is_ideal


def test_kernel_membership(kernel_example, e_ideal_example):
    assert kernel_lambda_on_E(kernel_example) == kernel_example.g_elements
    assert kernel_lambda_on_E(e_ideal_example) == (0,)


def test_structure_maps_match_the_elementwise_references():
    # every family with n <= 50 and every order-8 class, on the subsets
    # (0,), B, E, G, the kernel, every subgroup of (B, o) when n <= 12, and
    # seeded random subsets and subgroups: each IdealReport, witness
    # included, equals the loop reference's, and so do the normality
    # tests, the kernels, the idempotent checks and the G x E pairs
    rng = random.Random(5)
    structures = [family(fid) for fid in full_scans.families_up_to_fifty()]
    structures += [e.semibrace for e in enumerate_generic(8)]
    kinds = collections.Counter()
    for b in structures:
        kernel = kernel_lambda_on_E(b)
        assert kernel == full_scans.kernel_lambda_on_E(b)
        assert full_scans.idempotents_are_a_right_zero_subgroup(b)
        assert idempotents(b).elements == b.e_elements
        for x in range(b.n):
            assert [*additive_decomposition(b, x), *factorize(b, x)] == full_scans.g_e_pairs(b, x)
        subsets = [(0,), range(b.n), b.e_elements, b.g_elements, kernel]
        if b.n <= 12:
            subsets += [s.elements for s in subgroups(b.circ)]
        for _ in range(3):
            subsets.append(rng.sample(range(b.n), rng.randrange(1, b.n + 1)))
            subsets.append(b.circ.closure(rng.sample(range(b.n), 2 if b.n > 1 else 1)))
        for s in subsets:
            report = is_ideal(b, s)
            assert report == full_scans.is_ideal(b, s)
            assert is_normal_subset(b.circ, s) == full_scans.is_normal_subset(b.circ, s)
            if report.witness is not None:
                kinds[report.witness[0], len(report.witness) > 1] += 1
    for kind in (("normal-in-circ", False), ("intersection-normal-in-g", False),
                 ("intersection-normal-in-g", True), ("rho-closed", True)):
        assert kinds[kind], kind


def test_subsets_must_hold_integers_in_range(kernel_example):
    b = kernel_example
    for bad in ([0, -1], [0, b.n], [0, 1.5]):
        with pytest.raises(MalformedTableError):
            is_ideal(b, bad)
        with pytest.raises(MalformedTableError):
            is_normal_subset(b.circ, bad)
    for x in (-1, b.n):
        with pytest.raises(IndexError):
            factorize(b, x)


def test_pair_inversion_needs_every_element_hit_once(kernel_example):
    b = kernel_example
    # G x G under + hits only G, some elements several times
    with pytest.raises(InternalInvariantError, match="not unique in the test pairing"):
        core._pair_positions(b.add.table, b.g_elements, b.g_elements, "test pairing")


# ---------------------------------------------------------------------------
# semidirect decompositions


def test_decompose_kernel_example(kernel_example):
    data = decompose(kernel_example)
    assert data is not None
    assert data.direction == "skew-by-trivial"
    assert data.brace.n == 3 and data.trivial_group.n == 2
    assert not is_trivial_action(data.alpha)
    # the other route must be unavailable: E is not an ideal here
    assert decompose_E_ideal(kernel_example) is None


def test_decompose_e_ideal_example(e_ideal_example):
    data = decompose_E_ideal(e_ideal_example)
    assert data is not None
    assert data.direction == "trivial-by-skew"
    assert data.brace.n == 2 and data.trivial_group.n == 3
    assert not is_trivial_action(data.alpha)
    # built so that the witness is literally the identity relabeling
    assert data.witness.tolist() == list(range(e_ideal_example.n))
    assert np.array_equal(data.product.add.table, e_ideal_example.add.table)
    assert decompose(e_ideal_example) is None


def test_trivial_brace_decomposes_both_ways():
    b = verify(*trivial_brace_tables(dicyclic_group(2)))
    both = decompose(b), decompose_E_ideal(b)
    for data in both:
        assert data is not None
        assert data.trivial_group.n == 1
        assert is_trivial_action(data.alpha)


def test_trivial_semibrace_decomposes_as_e_ideal():
    b = verify(*trivial_semibrace_tables(cyclic_group(6)))
    data = decompose_E_ideal(b)
    assert data is not None and data.brace.n == 1
    data2 = decompose(b)
    assert data2 is not None and is_trivial_action(data2.alpha)


def test_abelian_circle_gives_direct_product(kernel_example):
    # abelian circle group forces conjugation actions to be trivial
    add, circ = pair_tables(3, 2, 1, kernel_side=True)  # u = 1: direct product
    b = verify(add, circ)
    assert b.circ.is_abelian()
    data = decompose(b)
    assert data is not None and is_trivial_action(data.alpha)


def test_decompositions_exist_by_their_tests_and_match_the_elementwise_reference():
    # every family with n <= 50 and every order-8 class: each decomposition
    # exists exactly when its existence test holds, its action is the
    # conjugation one element at a time, and its witness carries both
    # tables of b onto the product
    structures = [family(fid) for fid in full_scans.families_up_to_fifty()]
    structures += [e.semibrace for e in enumerate_generic(8)]
    found = collections.Counter()
    for b in structures:
        g, e = b.g_elements, b.e_elements
        for split, exists, acting, acted in (
            (decompose, kernel_lambda_on_E(b) == g, e, g),
            (decompose_E_ideal, is_normal_subset(b.circ, e), g, e),
        ):
            data = split(b)
            found[split.__name__, data is not None] += 1
            assert (data is not None) == exists
            if data is None:
                continue
            assert data.alpha.tolist() == full_scans.conjugation_action(b, acting, acted)
            f = data.witness
            assert sorted(f.tolist()) == list(range(b.n))
            for t, pt in ((b.add, data.product.add), (b.circ, data.product.circ)):
                assert np.array_equal(f[t.table], pt.table[f[:, None], f[None, :]])
    assert len(found) == 4  # both directions both exist and fail somewhere


def test_checked_action_rejects_bad_actions():
    # the action check of the decompositions: Z2 acting on the trivial
    # brace Z3, raising the caller's class
    z3, z2 = cyclic_group(3), cyclic_group(2)
    kept = np.stack((z3.table, z3.table))
    ident, inversion, swap = [0, 1, 2], [0, 2, 1], [1, 0, 2]
    alpha = checked_action(np.array([ident, inversion]), z2, kept, InternalInvariantError)
    assert alpha.tolist() == [ident, inversion]
    with pytest.raises(InternalInvariantError, match="automorphism"):
        checked_action(np.array([ident, swap]), z2, kept, InternalInvariantError)
    # the constant map to 0 preserves both tables but is not a bijection
    with pytest.raises(InternalInvariantError, match="automorphism"):
        checked_action(np.array([ident, [0, 0, 0]]), z2, kept, InternalInvariantError)
    with pytest.raises(InternalInvariantError, match="homomorphism"):
        checked_action(np.array([inversion, inversion]), z2, kept, InternalInvariantError)


def test_semidirect_tables_shape():
    g = cyclic_group(2)
    b1 = verify(*trivial_brace_tables(g))
    b2 = verify(*trivial_semibrace_tables(g))
    b = semidirect(b1, b2, np.tile(np.arange(2), (2, 1)))
    assert b.n == 4
    assert len(b.e_elements) == 2 and len(b.g_elements) == 2


def test_brace_automorphism_group_trivial_brace():
    # for the trivial brace, both-table automorphisms = group automorphisms
    b = verify(*trivial_brace_tables(cyclic_group(5)))
    assert b and len(brace_automorphism_group(b)) == 4


def test_brace_automorphism_group_kernel_example(kernel_example):
    for f in brace_automorphism_group(kernel_example):
        assert np.array_equal(f[kernel_example.add.table], kernel_example.add.table[f[:, None], f[None, :]])


def test_brace_automorphism_group_matches_the_whole_table_test():
    # the lambda-generator test keeps exactly the circle automorphisms that
    # preserve the whole addition table, in the same order.  Every circle
    # automorphism of the skew braces of order p^2 preserves +, so the
    # order-8 census and the 2p^2 families at p = 3 are tested too
    braces = [b for m in (1, 2, 3, 5, 7, 9, 25, 49) for b in skew_braces(m)]
    families = [family(fid) for p in (3, 5) for t in TWO_P2_THEOREMS
                for fid in applicable_items(t, p)]
    braces += [skew_part(b).semibrace for b in families]
    braces += [e.semibrace for e in enumerate_generic(8)] + families[:13]
    for b in braces:
        assert np.array_equal(brace_automorphism_group(b), full_scans.brace_automorphisms(b))


def test_verify_of_a_group_matches_verify_of_its_table():
    # a FiniteGroup is taken as verified and skips only `check_group`: the
    # structure, and the tag and witness of each single-cell corruption of
    # +, are those of its table
    for entry in enumerate_generic(8):
        b = entry.semibrace
        add, circ, n = b.add.table, b.circ, b.n
        given, rows = verify(add, circ), verify(add, circ.table)
        assert given.key() == rows.key() and np.array_equal(given.lam, rows.lam)
        assert np.array_equal(given.circ.inverse, rows.circ.inverse)
        for i, j in itertools.product(range(n), range(n)):
            bad = add.copy()
            bad[i, j] = (bad[i, j] + 1 + (i * n + j) % (n - 1)) % n
            assert _outcome(bad, circ) == _outcome(bad, circ.table), (i, j)


def test_verify_moves_the_circle_generators_with_the_identity():
    # with the circle identity away from 0, verify relabels both tables by
    # the swap first and decides the laws on the generators recorded for the
    # canonical circle group; every verdict and witness is the full scan's
    for b in POOL:
        n = b.n
        perm = np.roll(np.arange(n), 1)  # the identity goes to n - 1
        add, circ = b.add.relabel(perm).table, b.circ.op.relabel(perm).table
        assert _outcome(add, circ) is None
        for i, j in itertools.product(range(n), range(n)):
            bad = add.copy()
            bad[i, j] = (bad[i, j] + 1 + (i * n + j) % (n - 1)) % n
            assert _outcome(bad, circ) == full_scans.verify_outcome(bad, circ), (i, j)


def test_relabel_preserves_structure(kernel_example):
    perm = np.array([0, 2, 1, 4, 3, 5])
    again = kernel_example.relabel(perm)
    assert len(again.e_elements) == 2
    assert len(again.g_elements) == 3
    with pytest.raises(Exception):
        kernel_example.relabel(np.array([1, 0, 2, 3, 4, 5]))

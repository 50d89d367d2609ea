"""Acceptance gate: the eight primary criteria, one test and one printed
pass/fail line each.

Censuses are computed once per session through the memoized helpers below;
the first criterion to touch a census pays its build cost inside its own
timing budget.
"""

import time
from functools import lru_cache

import full_scans
import numpy as np

from conftest import record_criterion
from semibrace import classify
from semibrace.classify import (
    census_to_json,
    enumerate_generic,
    enumerate_structural,
    isomorphic,
    small_groups,
)
from semibrace.construct import (
    FamilyId,
    applicable_items,
    brace_p2,
    family,
    left_nilpotent_example,
    semidirect,
    trivial_semibrace,
    trivial_skewbrace,
)
from semibrace.core import brace_automorphism_group, verify
from semibrace.nilpotency import (
    check_rnilp1,
    dot_table,
    is_right_nil,
    left_series,
    right_series,
    set_dot_plus_E,
)
from semibrace.tables import cyclic_group, homomorphisms, orbit_lengths
from semibrace.ybe import check_braid, check_properties, solution_from


@lru_cache(maxsize=None)
def generic(n, emin=2):
    return tuple(enumerate_generic(n, emin=emin))


@lru_cache(maxsize=None)
def structural(n, esylow=False):
    return tuple(enumerate_structural(n, esylow=esylow))


@lru_cache(maxsize=None)
def families_at(theorem, p, q=None):
    return tuple((fid, family(fid)) for fid in applicable_items(theorem, p, q))


def census_pool():
    """Every census entry the acceptance run enumerates, orders <= 18."""
    pool = []
    for n in (4, 6, 9, 10):
        pool.extend(generic(n, emin=2))
    for n in (1, 2, 3, 4, 5, 6):
        pool.extend(generic(n, emin=1))
    pool.extend(structural(15))
    pool.extend(structural(18, esylow=True))
    return pool


def constructed_pool():
    """Every explicitly constructed semi-brace of order <= 18."""
    built = []
    for theorem, p, q in [("pq-congruent", 3, 2), ("pq-congruent", 5, 2),
                          ("pq-noncongruent", 2, 2), ("pq-noncongruent", 3, 3),
                          ("pq-noncongruent", 5, 3)]:
        built.extend(b for _, b in families_at(theorem, p, q))
    for theorem in ("2p2-E2-cyclic", "2p2-E2-noncyclic", "2p2-Ep2"):
        built.extend(b for _, b in families_at(theorem, 3))
    return built


def assert_census_bijection(fams, census):
    """Each family matches exactly one census class; all classes matched."""
    hit = set()
    for fid, b in fams:
        matches = [k for k, entry in enumerate(census)
                   if isomorphic(b, entry.semibrace) is not None]
        assert len(matches) == 1, f"{fid} matched {len(matches)} census classes"
        assert matches[0] not in hit, f"{fid} collides with another family"
        hit.add(matches[0])
    assert hit == set(range(len(census)))


def test_criterion_1_congruent_pq_classification():
    start = time.monotonic()
    census = generic(6, emin=2)
    fams = families_at("pq-congruent", 3, 2)
    assert_census_bijection(fams, census)
    elapsed = time.monotonic() - start
    ok = len(census) == 6 and len(fams) == 6 and elapsed < 60
    record_criterion(1, ok, f"generic census at order 6 has {len(census)} "
                            f"classes matching the 6 families ({elapsed:.1f}s)")
    assert ok


def test_criterion_2_equal_prime_pq_classification():
    start4 = time.monotonic()
    census4 = generic(4, emin=2)
    fams4 = families_at("pq-noncongruent", 2, 2)
    assert_census_bijection(fams4, census4)
    elapsed4 = time.monotonic() - start4

    start9 = time.monotonic()
    census9 = generic(9, emin=2)
    fams9 = families_at("pq-noncongruent", 3, 3)
    assert_census_bijection(fams9, census9)
    elapsed9 = time.monotonic() - start9

    ok = (len(census4) == 3 and len(census9) == 3
          and [fid.item for fid, _ in fams4] == [1, 2, 6]
          and [fid.item for fid, _ in fams9] == [1, 2, 6]
          and elapsed4 < 60 and elapsed9 < 600)
    record_criterion(2, ok, f"generic censuses at orders 4 and 9 each have 3 "
                            f"classes matching items 1, 2, 6 "
                            f"({elapsed4:.1f}s, {elapsed9:.1f}s)")
    assert ok


def test_criterion_3_distinct_prime_pq_classification():
    start = time.monotonic()
    census15 = structural(15)
    fams15 = families_at("pq-noncongruent", 5, 3)
    assert_census_bijection(fams15, census15)

    census10 = structural(10)
    fams10 = families_at("pq-congruent", 5, 2)
    assert_census_bijection(fams10, census10)

    gen10 = generic(10, emin=2)
    assert_census_bijection(
        [(f"structural-{k}", e.semibrace) for k, e in enumerate(census10)], gen10
    )
    elapsed = time.monotonic() - start
    ok = (len(census15) == 3 and [fid.item for fid, _ in fams15] == [3, 4, 5]
          and len(census10) == 6 and len(gen10) == 6 and elapsed < 600)
    record_criterion(3, ok, f"structural censuses: order 15 has 3 classes "
                            f"(items 3-5), order 10 has 6, agreeing with the "
                            f"generic sweep ({elapsed:.1f}s)")
    assert ok


def test_criterion_4_order_2p2_classification():
    from semibrace.classify import verify_classification

    start = time.monotonic()
    counts = [len(applicable_items(t, 3))
              for t in ("2p2-E2-cyclic", "2p2-E2-noncyclic", "2p2-Ep2")]
    report = verify_classification("2p2", 3)
    census18 = structural(18, esylow=True)
    elapsed = time.monotonic() - start
    ok = (counts == [3, 5, 5] and report.ok
          and len(report.family_labels) == 13
          and report.census_count == 13
          and len(census18) == 13
          and elapsed < 900)
    record_criterion(4, ok, f"all 3+5+5=13 families at order 18 are valid, "
                            f"pairwise distinct, and match the Sylow-filtered "
                            f"census ({elapsed:.1f}s)")
    assert ok


def _matrix_involution(p: int, b: int) -> np.ndarray:
    """(g, f) -> (g + b*f, -f) on index g*p + f, as an image array."""
    images = np.empty(p * p, dtype=np.int64)
    for x in range(p * p):
        g, f = divmod(x, p)
        images[x] = ((g + b * f) % p) * p + ((-f) % p)
    return images


def _orders(perms: np.ndarray) -> list[int]:
    """The order of each image row: the lcm of its cycle lengths."""
    return np.lcm.reduce(orbit_lengths(perms), axis=1).tolist()


def test_criterion_5_brace_automorphism_facts():
    ok = True
    for p in (3, 5):
        aut1 = brace_automorphism_group(brace_p2("G1", p))
        ok = ok and _orders(aut1).count(2) == 1

        aut2 = brace_automorphism_group(brace_p2("G2", p))
        ok = ok and 2 not in _orders(aut2)

        aut4 = brace_automorphism_group(brace_p2("G4", p))
        involutions = aut4[np.array(_orders(aut4)) == 2]
        a = {b: _matrix_involution(p, b) for b in range(p)}
        a0 = a[0]
        for sigma in involutions:
            ok = ok and any(np.array_equal(sigma, a[b]) for b in range(p))
            # a_d o a_0 o a_d^-1: compose as a[b], invert as argsort
            conjugates = [a[d][a0[np.argsort(a[d])]].tobytes() for d in range(p)]
            ok = ok and sigma.tobytes() in conjugates
    record_criterion(5, ok, "order-2 brace automorphism counts and conjugacy "
                            "at p in {3, 5} are as stated")
    assert ok


def _trivial_g_products():
    """Semidirect products (trivial skew brace G) x| E, all orders <= 18."""
    out = []
    for g_size in range(1, 19):
        for e_size in range(1, 18 // g_size + 1):
            for ggroup in small_groups(g_size):
                gbrace = trivial_skewbrace(ggroup)
                if e_size == 1:
                    out.append(semidirect(
                        gbrace, trivial_semibrace(cyclic_group(1)),
                        np.arange(g_size)[None]))
                    continue
                gaut = brace_automorphism_group(gbrace)
                for egroup in small_groups(e_size):
                    etriv = trivial_semibrace(egroup)
                    for alpha in homomorphisms(egroup, gaut):
                        out.append(semidirect(gbrace, etriv, alpha))
    return out


def test_criterion_6_nilpotency_suite():
    pool = census_pool()

    # (a) dot lands in G; right nilpotent implies right nil
    part_a = True
    for entry in pool:
        b = entry.semibrace
        part_a = part_a and set(np.unique(dot_table(b))) <= set(b.g_elements)
        if right_series(b).nilpotent:
            part_a = part_a and is_right_nil(b)[0]

    # (b) the decomposable right-nilpotency criterion agrees both ways
    part_b = True
    decomposable = 0
    for entry in pool:
        try:
            report = check_rnilp1(entry.semibrace)
        except ValueError:
            continue
        decomposable += 1
        part_b = part_b and report.agree
    part_b = part_b and decomposable > 0

    # (c) over a trivial skew brace part, third element powers all vanish
    part_c = True
    for b in _trivial_g_products():
        nil, orders = is_right_nil(b)
        part_c = part_c and nil and all(k <= 3 for k in orders)

    # (d) the order-6 family with two idempotents that repeats itself
    b3 = family(FamilyId("pq-congruent", 3, 3, 2))
    everything = tuple(range(b3.n))
    part_d = (set(set_dot_plus_E(b3, everything, everything)) == set(everything)
              and not left_series(b3).nilpotent)

    # (e) the order-27 example is left nilpotent within the stated bound
    b27 = left_nilpotent_example(3)
    left = left_series(b27)
    part_e = left.nilpotent
    for step, chain_set in enumerate(left.chain, start=1):
        scale = 3 ** (step - 1)
        allowed = {(g * 3 + e) for g in range(9) for e in range(3)
                   if g % min(scale, 9) == 0}
        part_e = part_e and set(chain_set) <= allowed

    # (f) some census entry is right nil without being right nilpotent
    part_f = any(
        is_right_nil(e.semibrace)[0] and not right_series(e.semibrace).nilpotent
        for e in pool
    )

    ok = part_a and part_b and part_c and part_d and part_e and part_f
    record_criterion(6, ok, f"nilpotency suite over {len(pool)} census entries: "
                            f"dot closure, decomposition criterion "
                            f"({decomposable} decomposable), third powers over "
                            f"trivial parts, order-6 and order-27 examples, "
                            f"nil-not-nilpotent witness")
    assert part_a and part_b and part_c and part_d and part_e and part_f


def test_criterion_7_yang_baxter_suite():
    start = time.monotonic()
    pool = [e.semibrace for e in census_pool()] + constructed_pool()
    ok = True
    for b in pool:
        if b.n > 18:
            continue
        s = solution_from(b)
        holds, _ = check_braid(s)
        props = check_properties(s)
        ok = ok and holds and props.left_nondegenerate

    for n in range(1, 13):
        s = solution_from(trivial_skewbrace(cyclic_group(n)))
        ok = ok and check_properties(s).involutive

    for n in range(2, 7):
        s = solution_from(trivial_semibrace(cyclic_group(n)))
        ok = ok and not check_properties(s).bijective
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 300
    record_criterion(7, ok, f"braid relation and left non-degeneracy over "
                            f"{len(pool)} semi-braces, involutivity and "
                            f"non-bijectivity checks ({elapsed:.1f}s)")
    assert ok


def test_criterion_8_oracle_equivalence(monkeypatch):
    ok = True
    for n in (4, 6, 9, 10):
        gen = generic(n, emin=2)
        struct = structural(n)
        ok = ok and len(gen) == len(struct)
        for entry in gen:
            hits = [s for s in struct
                    if isomorphic(entry.semibrace, s.semibrace) is not None]
            ok = ok and len(hits) == 1
    orders = (1, 2, 3, 4, 5, 6)
    pruned = [census_to_json(generic(n, emin=1)) for n in orders]
    monkeypatch.setattr(classify, "_survivor_tables", full_scans.unpruned_survivor_tables)
    for n, want in zip(orders, pruned):
        ok = ok and census_to_json(enumerate_generic(n, emin=1)) == want
    record_criterion(8, ok, "generic and structural censuses agree at orders "
                            "4, 6, 9, 10; pruned and unpruned sweeps are "
                            "identical through order 6")
    assert ok

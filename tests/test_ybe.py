"""Yang-Baxter solutions induced by semi-braces."""

import itertools

import full_scans
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semibrace import ybe
from semibrace.construct import (
    FamilyId,
    applicable_items,
    family,
    left_nilpotent_example,
    trivial_semibrace,
    trivial_skewbrace,
)
from semibrace.tables import MalformedTableError, cyclic_group, semidirect_group
from semibrace.ybe import SolutionMap, check_braid, check_properties, solution_from


def s3_group():
    act = np.array([[0, 1, 2], [0, 2, 1]])
    return semidirect_group(cyclic_group(3), cyclic_group(2), act)


def test_abelian_trivial_brace_gives_flip():
    b = trivial_skewbrace(cyclic_group(5))
    s = solution_from(b)
    for x in range(5):
        for y in range(5):
            assert tuple(s.r[x, y]) == (y, x)
    props = check_properties(s)
    assert props.involutive and props.nondegenerate and props.bijective


def test_nonabelian_trivial_brace_gives_conjugation():
    g = s3_group()
    b = trivial_skewbrace(g)
    s = solution_from(b)
    for x in range(6):
        for y in range(6):
            assert tuple(s.r[x, y]) == (y, g.mul(g.mul(g.inverse[y], x), y))
    assert check_braid(s) == (True, None)
    props = check_properties(s)
    assert props.bijective and props.nondegenerate and not props.involutive


def test_trivial_semibrace_solution():
    b = trivial_semibrace(cyclic_group(4))
    s = solution_from(b)
    for x in range(4):
        for y in range(4):
            assert tuple(s.r[x, y]) == (b.circ.table[x, y], 0)
    assert check_braid(s) == (True, None)
    props = check_properties(s)
    assert props.left_nondegenerate
    assert not props.nondegenerate and not props.bijective and not props.involutive


def test_braid_failure_detected_with_witness():
    # r(x, y) = (x + 1 mod 3, y): first components of the two braid sides
    # come out as x + 2 and x + 1, so every triple fails, (0, 0, 0) first.
    n = 3
    shift = np.stack(
        [(np.arange(n)[:, None] + 1) % n + np.zeros((1, n), dtype=int),
         np.zeros((n, 1), dtype=int) + np.arange(n)[None, :]],
        axis=-1,
    )
    ok, witness = check_braid(SolutionMap.of(shift))
    assert not ok and witness == (0, 0, 0)


def _braid_sides(s, x, y, z):
    """Both sides of the braid relation at (x, y, z), one r at a time."""
    u, v = s.r[x, y]
    w1, z1 = s.r[v, z]
    lhs = (*s.r[u, w1], z1)
    w2, z2 = s.r[y, z]
    u2, v2 = s.r[x, w2]
    rhs = (u2, *s.r[v2, z2])
    return lhs, rhs


def _flip_map(n):
    """The flip solution r(x, y) = (y, x) as an (n, n, 2) array."""
    idx = np.arange(n)
    return np.stack(np.broadcast_arrays(idx[None, :], idx[:, None]), axis=-1)


def _braid_by_loops(s):
    for x, y, z in itertools.product(range(s.n), repeat=3):
        lhs, rhs = _braid_sides(s, x, y, z)
        if lhs != rhs:
            return False, (x, y, z)
    return True, None


def test_braid_checker_matches_literal_loops():
    rng = np.random.default_rng(7)
    found_bad = False
    for _ in range(20):
        n = 4
        s = SolutionMap.of(rng.integers(0, n, size=(n, n, 2)))
        got = check_braid(s)
        assert got == _braid_by_loops(s)
        found_bad = found_bad or not got[0]
    assert found_bad


def test_family_solutions_satisfy_braid():
    pool = []
    for p, q in ((3, 2), (5, 2)):
        for fid in applicable_items("pq-congruent", p, q):
            pool.append(family(fid))
    for fid in applicable_items("pq-noncongruent", 3, 3):
        pool.append(family(fid))
    for theorem in ("2p2-E2-cyclic", "2p2-E2-noncyclic", "2p2-Ep2"):
        for fid in applicable_items(theorem, 3):
            pool.append(family(fid))
    pool.append(left_nilpotent_example(3))
    for b in pool:
        s = solution_from(b)
        ok, witness = check_braid(s)
        assert ok, (b.n, witness)
        assert check_properties(s).left_nondegenerate


def test_solution_json_round_trip():
    s = solution_from(trivial_semibrace(cyclic_group(3)))
    obj = s.to_json()
    again = SolutionMap.of(obj["r"])
    assert again.n == obj["n"] and np.array_equal(again.r, s.r)
    with pytest.raises(MalformedTableError):
        SolutionMap.of(np.zeros((2, 2, 3), dtype=int))


def test_solution_map_rejects_non_integer_and_ragged_input():
    for bad in ([[[0.9, 0.2]]], [[[True, False]]], [[["0", "0"]]]):
        with pytest.raises(MalformedTableError, match="integers"):
            SolutionMap.of(bad)
    for ragged in ([[[0, 0], [0]], [[0, 0], [0, 0]]], [[[0, 0], [0, 0]], [[0, 0]]]):
        with pytest.raises(MalformedTableError, match="ragged"):
            SolutionMap.of(ragged)
    # the caller's array is copied, not frozen in place
    r = np.zeros((2, 2, 2), dtype=np.int64)
    s = SolutionMap.of(r)
    assert r.flags.writeable and not s.r.flags.writeable


# ---------------------------------------------------------------------------
# the chunked braid check against the single-pass full scan

# n = 74: 74**3 triples make seven blocks of at most ybe.BRAID_SLAB
# triples, 11 x each (the last one 8)
BRAID_FAMILIES = tuple(applicable_items("pq-congruent", 37, 2))


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(BRAID_FAMILIES),
    st.integers(min_value=0, max_value=10 ** 6),
    st.integers(min_value=0, max_value=10 ** 6),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=1, max_value=10 ** 6),
)
def test_braid_above_slab_matches_full_scan(fid, x, y, k, shift):
    s = solution_from(family(fid))
    n = s.n
    assert n ** 3 > ybe.BRAID_SLAB
    assert check_braid(s) == full_scans.check_braid(s.r) == (True, None)
    r = s.r.copy()
    r[x % n, y % n, k] = (r[x % n, y % n, k] + 1 + shift % (n - 1)) % n
    assert check_braid(SolutionMap.of(r)) == full_scans.check_braid(r)


def test_braid_every_small_corruption_matches_full_scan(monkeypatch):
    # one x per chunk, so a witness can come from any chunk
    monkeypatch.setattr(ybe, "BRAID_SLAB", 1)
    s = solution_from(family(FamilyId("pq-congruent", 3, 3, 2)))
    n = s.n
    for x, y, k, shift in itertools.product(range(n), range(n), range(2), range(1, n)):
        r = s.r.copy()
        r[x, y, k] = (r[x, y, k] + shift) % n
        assert check_braid(SolutionMap.of(r)) == full_scans.check_braid(r), (x, y, k, shift)


def test_braid_at_block_boundaries(monkeypatch):
    # Blocks of one x, of two x, of two x with a short last block (3n^2 - 1
    # triples hold two x) and of every x.  Next to uniform random maps, which
    # mostly fail at x = 0, flip maps r(x, y) = (y, x) with a few cells
    # overwritten fail first at any x, so witnesses also fall in the middle
    # and at the end of multi-x blocks.
    rng = np.random.default_rng(14)
    positions = set()
    for n in range(2, 8):
        flip = _flip_map(n)
        for slab in (n * n, 2 * n * n, 3 * n * n - 1, n ** 3):
            monkeypatch.setattr(ybe, "BRAID_SLAB", slab)
            rows = slab // (n * n)
            for k in range(60):
                if k % 3 == 0:
                    r = rng.integers(0, n, size=(n, n, 2))
                else:
                    r = flip.copy()
                    for _ in range(rng.integers(1, 4)):
                        r[rng.integers(n), rng.integers(n), rng.integers(2)] = rng.integers(n)
                s = SolutionMap.of(r)
                got = check_braid(s)
                assert got == _braid_by_loops(s) == full_scans.check_braid(s.r), (n, slab, k)
                if not got[0] and rows > 1:
                    x = got[1][0]
                    last = x % rows == rows - 1 or x == n - 1
                    positions.add("first" if x % rows == 0 else "last" if last else "middle")
    assert positions == {"first", "middle", "last"}


# The benchmark's large structures at n = 155 (two x per block at the
# default slab) and n = 242 (one x per block).
LARGE_BRAID_FAMILIES = (
    FamilyId("pq-congruent", 3, 31, 5),
    FamilyId("2p2-E2-cyclic", 3, 11),
    FamilyId("2p2-E2-noncyclic", 5, 11),
    FamilyId("2p2-Ep2", 5, 11),
)


@pytest.mark.parametrize("fid", LARGE_BRAID_FAMILIES, ids=str)
def test_packed_braid_matches_block_reference_on_large_structures(fid):
    # a seeded relabelling x -> perm[x] of r is again a solution; each
    # corruption moves one cell of one component by a nonzero shift mod n
    rng = np.random.default_rng(17)
    r = solution_from(family(fid)).r
    n = r.shape[0]
    perm = rng.permutation(n)
    inv = np.argsort(perm)
    r = perm[r[np.ix_(inv, inv)]]
    maps = [r]
    for k in (0, 1, 0, 1):
        bad = r.copy()
        x, y = rng.integers(n, size=2)
        bad[x, y, k] = (bad[x, y, k] + rng.integers(1, n)) % n
        maps.append(bad)
    got = [check_braid(SolutionMap.of(m)) for m in maps]
    assert got == [full_scans.check_braid_blocks(SolutionMap.of(m)) for m in maps]
    assert got[0] == (True, None) and not any(ok for ok, _ in got[1:])


def test_packed_braid_matches_block_reference_past_the_first_block():
    # A corrupted family solution mostly fails at x = 0, whose triples read
    # every cell as r(y, z).  A flip map r(x, y) = (y, x) with three cells
    # overwritten among four random points fails first at one of those
    # points, so at n = 242 (one x per block) the witness comes from a
    # later block.
    rng = np.random.default_rng(6)
    n = 242
    flip = _flip_map(n)
    got = []
    for _ in range(3):
        r = flip.copy()
        points = rng.choice(n, 4, replace=False)
        for _ in range(3):
            r[rng.choice(points), rng.choice(points), rng.integers(2)] = rng.choice(points)
        s = SolutionMap.of(r)
        got.append(check_braid(s))
        assert got[-1] == full_scans.check_braid_blocks(s)
        # the witness is genuine: the two sides, applied literally, differ there
        lhs, rhs = _braid_sides(s, *got[-1][1])
        assert lhs != rhs, got[-1]
    assert all(not ok and witness[0] > 0 for ok, witness in got), got


@pytest.mark.parametrize("n", (256, 257))
def test_braid_at_the_word_width_boundary(n):
    # n = 256 is the last order packed into 16-bit words and n = 257 the
    # first in 32-bit words.  r(x, y) = (s(y), t(x)) with s(x) = x + 1 and
    # t(x) = x + 2 mod n is a solution because s and t commute.  Each
    # corruption writes n - 1, the largest entry, or touches row or column
    # n - 1.  The flip map r(x, y) = (y, x) with r(0, 0) = (n - 1, 0) and
    # r(n - 1, 0) = (0, 0) fails first in the last block.
    idx = np.arange(n)
    r = np.stack(np.broadcast_arrays((idx[None, :] + 1) % n, (idx[:, None] + 2) % n), axis=-1)
    assert check_braid(SolutionMap.of(r)) == (True, None)
    flip = _flip_map(n)
    flip[0, 0, 0], flip[n - 1, 0, 1] = n - 1, 0
    maps = [flip]
    for x, y, k, value in ((0, 0, 0, n - 1), (n - 1, n - 1, 1, n - 1), (n - 1, 3, 0, 0),
                           (5, n - 1, 1, n - 1), (n - 2, n - 1, 0, 7)):
        bad = r.copy()
        bad[x, y, k] = value
        maps.append(bad)
    got = [check_braid(SolutionMap.of(m)) for m in maps]
    assert got == [full_scans.check_braid_blocks(SolutionMap.of(m)) for m in maps]
    assert not any(ok for ok, _ in got) and got[0][1][0] == n - 1, got


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_braid_verdict_is_invariant_under_relabelling(n, flip, seed):
    # a random map, or a flip map r(x, y) = (y, x) with up to three cells
    # overwritten; every seeded relabelling x -> perm[x] gets the same
    # verdict, and each witness is a triple where the two sides differ
    rng = np.random.default_rng(seed)
    if flip:
        r = _flip_map(n)
        for _ in range(rng.integers(0, 4)):
            r[rng.integers(n), rng.integers(n), rng.integers(2)] = rng.integers(n)
    else:
        r = rng.integers(0, n, size=(n, n, 2))
    holds, _ = check_braid(SolutionMap.of(r))
    for _ in range(3):
        perm = rng.permutation(n)
        inv = np.argsort(perm)
        s = SolutionMap.of(perm[r[np.ix_(inv, inv)]])
        ok, witness = check_braid(s)
        assert ok == holds
        if witness is not None:
            lhs, rhs = _braid_sides(s, *witness)
            assert lhs != rhs, witness


def test_braid_refuses_unpackable_order():
    # a zero-stride (2^16, 2^16, 2) view stands for a map too large to hold
    n = 1 << 16
    s = SolutionMap(n=n, r=np.broadcast_to(np.zeros(1, dtype=np.int64), (n, n, 2)))
    with pytest.raises(MemoryError, match="braid check"):
        check_braid(s)


def test_nondegeneracy_matches_row_and_column_loops():
    rng = np.random.default_rng(11)
    seen = set()
    for n in (1, 2, 3, 5):
        for _ in range(60):
            # rows of a and columns of bb are permutations, each table spoilt at
            # one cell half the time
            a = np.stack([rng.permutation(n) for _ in range(n)])
            bb = np.stack([rng.permutation(n) for _ in range(n)]).T.copy()
            for t in (a, bb):
                if rng.random() < 0.5:
                    t[rng.integers(n), rng.integers(n)] = rng.integers(n)
            props = check_properties(SolutionMap.of(np.stack([a, bb], axis=-1)))
            left = all(np.unique(a[x]).size == n for x in range(n))
            right = all(np.unique(bb[:, y]).size == n for y in range(n))
            assert (props.left_nondegenerate, props.nondegenerate) == (left, left and right)
            seen.add((left, right))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}

"""Finite groups and permutations as dense index tables.

Everything lives on the carrier {0, ..., n-1}: a binary operation is an n x n
integer table, a permutation is an image array. Groups are canonicalized so
that the identity sits at index 0.

The records are NamedTuples, which, unlike dataclasses, generate no code at
import (`import semibrace.cli` loads this module).
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np


class MalformedTableError(ValueError):
    """Table is not square or has an entry outside 0..n-1."""


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.int64)
    arr.setflags(write=False)
    return arr


class CayleyTable(NamedTuple):
    """An n x n operation table over the carrier 0..n-1."""

    n: int
    table: np.ndarray

    @classmethod
    def of(cls, rows) -> "CayleyTable":
        try:
            arr = np.asarray(rows)
        except ValueError as err:  # ragged rows: numpy's inhomogeneous shape
            raise MalformedTableError(f"table rows are ragged ({err})") from err
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise MalformedTableError(f"table must be square and nonempty, got shape {arr.shape}")
        if not np.issubdtype(arr.dtype, np.integer):
            raise MalformedTableError("table entries must be integers")
        n = arr.shape[0]
        if arr.min() < 0 or arr.max() >= n:
            bad = np.argwhere((arr < 0) | (arr >= n))[0]
            raise MalformedTableError(f"entry out of range 0..{n - 1} at {tuple(int(i) for i in bad)}")
        return cls(n=n, table=_freeze(arr.copy()))

    def relabel(self, perm: np.ndarray) -> "CayleyTable":
        """Transport the operation along x -> perm[x], a permutation of
        range(n)."""
        perm = np.asarray(perm, dtype=np.int64)
        if perm.shape != (self.n,) or not np.array_equal(np.sort(perm), np.arange(self.n)):
            raise MalformedTableError(f"relabelling is not a permutation of range({self.n})")
        inv = np.argsort(perm)
        new = perm[self.table[np.ix_(inv, inv)]]
        return CayleyTable(n=self.n, table=_freeze(new))

    def key(self) -> bytes:
        return self.table.tobytes()


class GroupReport(NamedTuple):
    is_group: bool
    identity: Optional[int]
    inverses: Optional[np.ndarray]
    failure: Optional[tuple]  # (kind, witness tuple)


# Largest number of (x, y, z) triples a full associativity scan holds in one
# numpy pass. The scans that find witnesses run in chunks of at most SLAB
# triples (one row of a at least), a few int64 temporaries of at most 8 MB
# each, so working memory stays O(n**2).
SLAB = 1 << 20


def slab_chunks(items: np.ndarray, per_item: int):
    """Consecutive pieces of `items`, each of at most SLAB // per_item
    items (at least one)."""
    size = max(1, SLAB // per_item)
    for start in range(0, len(items), size):
        yield items[start:start + size]


def _first_nonassociative(tab: np.ndarray) -> Optional[tuple[int, int, int]]:
    """The lexicographically first (a, b, c) with (a.b).c != a.(b.c), by a
    full scan chunked over a; None when the table is associative."""
    n = tab.shape[0]
    for a in slab_chunks(np.arange(n), n * n):
        left = tab[tab[a]]  # left[i, b, c] = tab[tab[a_i, b], c]
        right = tab[a][:, tab]  # right[i, b, c] = tab[a_i, tab[b, c]]
        diff = left != right
        if diff.any():
            i, b, c = (int(v) for v in np.argwhere(diff)[0])
            return int(a[i]), b, c
    return None


def _reach(cols: list[list[int]], seeds: Iterable[int], seen: set[int]) -> list[tuple[int, int, int]]:
    """The one closure search, breadth first, with cols[i][x] = x.g_i: adds
    to `seen` each unseen seed s and every left-nested product
    (..(s.g_1).g_2)...g_k of one, and returns (element, parent, generator
    index) in the order it adds them, with parent and index -1 for a seed.
    Only added elements are expanded, so the result is the closure of
    `seen` and the seeds under x -> x.g_i when `seen` starts closed."""
    found = []
    for s in seeds:
        if s not in seen:
            seen.add(s)
            found.append((s, -1, -1))
    for x, _, _ in found:  # the list grows as it is walked: a FIFO queue
        for i, col in enumerate(cols):
            y = col[x]
            if y not in seen:
                seen.add(y)
                found.append((y, x, i))
    return found


def _greedy_generators(tab: np.ndarray, ranked: Iterable[int]) -> list[int]:
    """The elements of `ranked`, in its order, that are not left-nested
    products (..(s1.s2)...).sk of the ones kept before them; it stops once
    every element of the carrier is reached.  Each new generator x adds its
    column and extends `seen` from x and every r.x, r seen."""
    gens: list[int] = []
    cols: list[list[int]] = []
    seen: set[int] = set()
    for x in ranked:
        if x in seen:
            continue
        gens.append(x)
        cols.append(tab[:, x].tolist())
        _reach(cols, {x, *map(cols[-1].__getitem__, seen)} - seen, seen)
        if len(seen) == tab.shape[0]:
            break
    return gens


def left_nested_generators(tab: np.ndarray) -> list[int]:
    """A generating set S, chosen greedily in index order: an element joins
    S unless it is already a left-nested product (..(s1.s2)...).sk of
    elements of S. Every element of the carrier is such a product in the end.

    For a group these are ordinary generators, so |S| <= 1 + log2(n); for a
    right-zero-like operation S may be most of the carrier."""
    return _greedy_generators(tab, range(tab.shape[0]))


def _associative_on(tab: np.ndarray, gens: Sequence[int]) -> bool:
    """Light's test: whether (x.s).y = x.(s.y) for all x, y and every s in
    `gens`, at O(n**2 |gens|) cost, in chunks of at most SLAB triples."""
    n = tab.shape[0]
    for part in slab_chunks(np.array(gens, dtype=np.int64), n * n):
        left = tab[tab[:, part]]  # left[x, i, y] = tab[tab[x, s_i], y]
        right = tab[:, tab[part]]  # right[x, i, y] = tab[x, tab[s_i, y]]
        if not np.array_equal(left, right):
            return False
    return True


def first_nonassociative(tab: np.ndarray) -> Optional[tuple[int, int, int]]:
    """The lexicographically first (a, b, c) with (a.b).c != a.(b.c), or
    None when the operation is associative.

    At every n this is Light's test, `_associative_on` the
    `left_nested_generators` S. It is sound for any table because T =
    {g : (x.g).y = x.(g.y) for all x, y} is closed under the operation: for
    g, h in T,
        (x.(g.h)).y = ((x.g).h).y = (x.g).(h.y) = x.(g.(h.y)) = x.((g.h).y),
    using g in T, h in T, g in T and h in T in turn. So T contains every
    left-nested product of S, which is every element. Only when the test
    fails does the chunked full scan run, to find the lexicographically
    first witness."""
    if _associative_on(tab, left_nested_generators(tab)):
        return None
    return _first_nonassociative(tab)


def check_group(t: CayleyTable) -> GroupReport:
    """Decide whether the table is a group; on failure the report names the
    first violated instance, in this order: no identity (the first left
    identity e and the first x with x.e != x, or no witness when there is no
    left identity), no inverse (the first a whose first right inverse b,
    a.b = identity, is missing or has b.a != identity), or the
    associativity triple of `first_nonassociative`."""
    tab = t.table
    arange = np.arange(t.n)
    left = (tab == arange).all(axis=1)  # e.x = x for every x
    ident = np.flatnonzero(left & (tab.T == arange).all(axis=1))
    if ident.size == 0:
        if not left.any():
            return GroupReport(False, None, None, ("no-identity", ()))
        e = int(np.argmax(left))
        bad = int(np.argmax(tab[:, e] != arange))
        return GroupReport(False, None, None, ("no-identity", (bad, e)))
    ident = int(ident[0])
    hits = tab == ident
    inv = np.argmax(hits, axis=1)
    ok = hits[arange, inv] & (tab[inv, arange] == ident)
    if not ok.all():
        return GroupReport(False, ident, None, ("no-inverse", (int(np.argmin(ok)),)))
    triple = first_nonassociative(tab)
    if triple is not None:
        return GroupReport(False, ident, None, ("not-associative", triple))
    return GroupReport(True, ident, _freeze(inv), None)


def identity_swap(n: int, identity: int) -> np.ndarray:
    """The transposition of 0 and `identity`, as an image array."""
    swap = np.arange(n)
    swap[[0, identity]] = swap[[identity, 0]]
    return swap


class FiniteGroup(NamedTuple):
    """A finite group given by its Cayley table, identity at index 0, with
    its generators and element orders recorded once by `from_report`."""

    op: CayleyTable
    identity: int
    inverse: np.ndarray
    # Read-only: the greedy generating sequence, highest element order first,
    # ties by index, without the identity.  The searches assign generator
    # images in this order, which fixes their witnesses; the law tests hold
    # on any generating set.
    generators: np.ndarray
    # Read-only: orders[x] is the order of x.
    orders: np.ndarray

    @classmethod
    def from_table(cls, t: CayleyTable) -> "FiniteGroup":
        """Validate and canonicalize: the identity is relabeled to index 0."""
        report = check_group(t)
        if not report.is_group:
            raise MalformedTableError(f"not a group: {report.failure}")
        return cls.from_report(t, report)

    @classmethod
    def from_report(cls, t: CayleyTable, report: GroupReport) -> "FiniteGroup":
        """Canonicalize a table that `check_group` accepted with `report`,
        without checking it again: the identity is relabeled to index 0 by
        `identity_swap`, and the inverses move with it.  Then the element
        orders are found by one walk x, x^2, ..., x^m = 0 over column x of
        the table for each x not yet reached, as x^k has order m / gcd(k,
        m), and the generators are the elements ranked by (-order, index)
        that the earlier ones do not generate."""
        inverse = report.inverses
        if report.identity != 0:
            swap = identity_swap(t.n, report.identity)
            t = t.relabel(swap)
            inverse = _freeze(swap[inverse[swap]])
        orders = [0] * t.n
        for x in range(t.n):
            if not orders[x]:
                col, powers = t.table[:, x].tolist(), [x]
                while powers[-1]:
                    powers.append(col[powers[-1]])
                for k, y in enumerate(powers, 1):
                    orders[y] = len(powers) // math.gcd(k, len(powers))
        gens = _greedy_generators(t.table, sorted(range(1, t.n), key=lambda a: (-orders[a], a)))
        return cls(t, 0, inverse, generators=_freeze(gens), orders=_freeze(orders))

    @property
    def n(self) -> int:
        return self.op.n

    @property
    def table(self) -> np.ndarray:
        return self.op.table

    def mul(self, a: int, b: int) -> int:
        return int(self.op.table[a, b])

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def closure(self, seed: Iterable[int]) -> tuple[int, ...]:
        """Subgroup generated by the seed, as a sorted tuple: the products of
        seed elements, reached from the identity by multiplying on the right
        by the seed (in a finite group the monoid the seed generates is a
        subgroup)."""
        seen: set[int] = set()
        _reach(self.table.T[list(seed)].tolist(), [0], seen)
        return tuple(sorted(seen))

    def relabel(self, perm: np.ndarray) -> "FiniteGroup":
        return FiniteGroup.from_table(self.op.relabel(perm))

    def key(self) -> bytes:
        return self.op.key()


class Subgroup(NamedTuple):
    elements: tuple[int, ...]
    normal: bool


# ---------------------------------------------------------------------------
# hom / iso search


def is_morphism(maps: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """One bool per row f of `maps` (rows, n): whether f(x * y) = f(x) * f(y)
    for all x and y, with * from the table `src` on the left and from `dst`
    on the right.  `src` and `dst` may also be stacks (t, n, n) of tables,
    and then f must be a morphism for each pair of tables at one index.  The
    rows are compared by (rows, t, n, n) flat gathers of at most SLAB entries."""
    n = src.shape[-1]
    src, dst = src.reshape(-1, n, n), dst.reshape(-1, n, n)
    start = np.arange(len(dst))[:, None, None] * n * n  # of table t in dst.ravel()
    ok = np.empty(len(maps), dtype=bool)
    for rows in slab_chunks(np.arange(len(maps)), src.size):
        f = maps[rows]
        at = start + f[:, None, :, None] * n + f[:, None, None, :]  # of dst[t, f(x), f(y)]
        ok[rows] = (np.take(f, src, axis=1) == dst.ravel()[at]).all(axis=(1, 2, 3))
    return ok


def checked_action(action, acting: FiniteGroup, kept: np.ndarray, error: type) -> np.ndarray:
    """`action` as a read-only int64 (k, d) array, after checking that it is
    an action of the group `acting`, of order k, by automorphisms of `kept`,
    a (d, d) table or a stack (t, d, d) of them: integer entries in
    range(d), rows that are bijections preserving each table, action[0] =
    id, and action[x o g] = action[x] . action[g] for every x and every g
    in `acting.generators`, which suffices for any generating set.  Raises
    `error`, the caller's exception class, naming the first failure."""
    k, d = acting.n, kept.shape[-1]
    try:
        arr = np.array(action)
    except ValueError as err:  # ragged rows: numpy's inhomogeneous shape
        raise error(f"action rows are ragged ({err})") from err
    if arr.shape != (k, d):
        raise error(
            f"the action must give one map of range({d}) per element of the acting group, "
            f"got shape {arr.shape}"
        )
    if not np.issubdtype(arr.dtype, np.integer) or arr.min() < 0 or arr.max() >= d:
        raise error(f"action entries must be integers in range({d})")
    arr = _freeze(arr)
    automorphic = (np.sort(arr, axis=1) == np.arange(d)).all(axis=1) & is_morphism(arr, kept, kept)
    if not automorphic.all():
        bad = int(np.argmin(automorphic))
        raise error(f"action[{bad}] is not an automorphism of the acted-on factor")
    if not (
        np.array_equal(arr[0], np.arange(d))
        and np.array_equal(arr[acting.table[:, acting.generators]], arr[:, arr[acting.generators]])
    ):
        raise error("the action is not a homomorphism from the acting group")
    return arr


# Prefix rows whose extensions by a whole pool are tested at once; each
# chunk builds (PREFIX_CHUNK, |pool|, w) temporaries.
PREFIX_CHUNK = 128
# Extended rows closed over the tree at once.
ROW_BATCH = 8192


def _compose_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Composition of image arrays along the last axis, a after b:
    out[..., y] = a[..., b[..., y]]; the other axes broadcast."""
    return np.take_along_axis(a, b, axis=-1)


def orbit_lengths(perms: np.ndarray) -> np.ndarray:
    """out[r, x] = the length of the cycle through x of the permutation whose
    image array is row r of `perms`, by one power loop over every row.  The
    sorted row is the cycle type with each length l repeated l times."""
    lengths = np.zeros(perms.shape, dtype=np.int64)
    start = np.arange(perms.shape[-1])
    power, k = perms, 1
    while True:
        lengths[(lengths == 0) & (power == start)] = k
        if lengths.all():
            return lengths
        power = _compose_rows(perms, power)
        k += 1


def _row_powers(p: np.ndarray, k: int, mul) -> np.ndarray:
    """Rowwise k-th power under `mul`; powers of one element commute, so the
    order of accumulation does not matter."""
    out = np.broadcast_to(np.arange(p.shape[-1], dtype=p.dtype), p.shape)
    base = p
    while k:
        if k & 1:
            out = mul(out, base)
        base = mul(base, base)
        k >>= 1
    return out


def _bfs_tree(g: FiniteGroup, gens: Sequence[int]) -> list[tuple[int, int, int]]:
    """(element, parent, generator index) triples in BFS order from the
    identity, where element = parent o gens[generator index].  The elements
    are those of the subgroup generated by `gens`, which may be proper,
    other than the identity."""
    return _reach(g.table.T[list(gens)].tolist(), [0], set())[1:]


def _lambda_rows(
    n: int, tree: list[tuple[int, int, int]], images: Sequence[np.ndarray], mul
) -> np.ndarray:
    """f[r, x] for row r of generator images (one (rows, w) array per
    generator) and x in the subgroup the tree covers, with f(0) the identity
    and f(x o g) = f(x) . f(g) along the tree.  Rows of elements outside
    that subgroup are left unset."""
    rows, w = images[0].shape
    f = np.empty((rows, n, w), dtype=images[0].dtype)
    f[:, 0] = np.arange(w)
    for y, x, gi in tree:
        f[:, y] = mul(f[:, x], images[gi])
    return f


def _homomorphic_rows(
    f: np.ndarray, table: np.ndarray, gens: Sequence[int], tree: list[tuple[int, int, int]], mul
) -> np.ndarray:
    """Rows r of maps f (rows, n, w) for which f(x o g) = f(x) . f(g) for
    every x and every g in `gens`.  The pairs on the edges of `tree`, along
    which `_lambda_rows` built f, hold by construction, so only the other
    pairs are compared, at O(rows n w) memory per generator.

    When `gens` generate the source and f(0) is the identity this is the
    whole homomorphism law: every y is a word in the generators, and by
    induction on its length
    f(x o y o g) = f(x o y) . f(g) = f(x) . f(y) . f(g) = f(x) . f(y o g)."""
    built = {(x, gi) for _, x, gi in tree}
    ok = np.ones(f.shape[0], dtype=bool)
    for gi, g in enumerate(gens):
        xs = [x for x in range(table.shape[0]) if (x, gi) not in built]
        ok &= (f[:, table[xs, g]] == mul(f[:, xs], f[:, g:g + 1])).all(axis=(1, 2))
    return ok


def _search_morphisms(
    src: FiniteGroup,
    gens: Sequence[int],
    pools: Sequence[np.ndarray],
    mul,
) -> Iterator[np.ndarray]:
    """The homomorphisms f from src whose generator images f(gens[j]) are
    drawn from pools[j] ((m_j, w) arrays of target elements), as blocks of
    complete maps f (rows, src.n, w).  Maps come in lexicographic order of
    their pool positions, the order a depth-first search visits them in.
    `gens` must generate src.  A target element is a row of width w that
    `mul` multiplies and np.arange(w) is the identity: a group label
    (w = 1) by table lookup, or an image row of a permutation group
    (w = degree) by `_compose_rows`.

    The generators are assigned one at a time.  With H the subgroup the
    earlier ones generate, f is known on H, and each chunk of (prefix row,
    pool entry) pairs is tested at once against two relations that every
    homomorphism satisfies: if g_j^t lies in H for some t below the order of
    g_j (least such t), f(g_j)^t = f(g_j^t); and if g_j o g_i o g_j^-
    lies in H, f(g_j) . f(g_i) = f(g_j o g_i o g_j^-) . f(g_j).  Each
    complete row is closed over the BFS tree of src and kept only if
    `_homomorphic_rows` holds, which is complete, so the relations only
    prune and need only be necessary."""
    levels = []
    prefix_tree: list[tuple[int, int, int]] = []
    for j, g in enumerate(gens):
        prefix = {0, *(y for y, _, _ in prefix_tree)}
        power, t = g, 1
        while power not in prefix:
            power = src.mul(power, g)
            t += 1
        # the least t with g^t in H is below the order of g iff g^t != 0
        pool_power = _row_powers(pools[j], t, mul) if power != 0 else None
        words = conjugates(src.table, src.inverse, [g], gens[:j])[0].tolist()
        conjugated = [(i, w) for i, w in enumerate(words) if w in prefix]
        tree = _bfs_tree(src, gens[: j + 1])
        levels.append((prefix_tree, power, pool_power, conjugated, tree))
        prefix_tree = tree

    def extend(j: int, images: list[np.ndarray]) -> Iterator[np.ndarray]:
        prefix_tree, power, pool_power, conjugated, tree = levels[j]
        pool = pools[j]
        count = images[0].shape[0] if images else 1
        for start in range(0, count, PREFIX_CHUNK):
            part = [arr[start:start + PREFIX_CHUNK] for arr in images]
            size = part[0].shape[0] if part else 1
            mask = np.ones((size, pool.shape[0]), dtype=bool)
            f = _lambda_rows(src.n, prefix_tree, part, mul) if part else None
            if pool_power is not None:
                mask &= (pool_power[None] == f[:, power][:, None]).all(axis=2)
            for i, w in conjugated:
                lhs = mul(pool[None], part[i][:, None])  # f(g_j) . f(g_i)
                rhs = mul(f[:, w][:, None], pool[None])  # f(w) . f(g_j)
                mask &= (lhs == rhs).all(axis=2)
            prev, chosen = np.nonzero(mask)
            for lo in range(0, prev.shape[0], ROW_BATCH):
                rows = [arr[prev[lo:lo + ROW_BATCH]] for arr in part]
                rows.append(pool[chosen[lo:lo + ROW_BATCH]])
                if j + 1 < len(gens):
                    yield from extend(j + 1, rows)
                else:
                    f = _lambda_rows(src.n, tree, rows, mul)
                    yield f[_homomorphic_rows(f, src.table, gens, tree, mul)]

    return extend(0, [])


def _positions(perms: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """A map from image arrays (along the last axis) to their row indices in
    `perms`, in any order, by one search over its sorted row bytes.  An image
    that is not a row raises MalformedTableError."""
    void = np.dtype((np.void, perms.shape[1] * perms.itemsize))
    keys = np.ascontiguousarray(perms).view(void).ravel()
    order = np.argsort(keys)
    ordered = keys[order]

    def find(f: np.ndarray) -> np.ndarray:
        query = np.ascontiguousarray(f).reshape(-1, f.shape[-1]).view(void).ravel()
        at = np.minimum(np.searchsorted(ordered, query), ordered.shape[0] - 1)
        if not (ordered[at] == query).all():
            raise MalformedTableError("permutations not closed under composition")
        return order[at].reshape(f.shape[:-1])

    return find


def _bijections(
    src: FiniteGroup, tgt: FiniteGroup, sigs_src: Sequence, sigs_tgt: Sequence
) -> Iterator[np.ndarray]:
    """The isomorphisms src -> tgt, groups of one order, that send each
    generator g of `src.generators` to an element y with sigs_tgt[y] ==
    sigs_src[g], as blocks of image rows (rows, n) in search order, which is
    lexicographic in the generators' images.  A signature must be kept by
    every isomorphism for the search to find them all.  The trivial group
    yields the identity row."""
    gens = src.generators.tolist()
    if not gens:
        yield np.zeros((1, 1), dtype=np.int64)
        return
    pools = [
        np.array([y for y in range(tgt.n) if sigs_tgt[y] == sigs_src[g]], dtype=np.int64)[:, None]
        for g in gens
    ]
    for f in _search_morphisms(src, gens, pools, lambda a, b: tgt.table[a, b]):
        found = f[:, :, 0]
        ordered = np.sort(found, axis=1)
        yield found[(ordered[:, 1:] != ordered[:, :-1]).all(axis=1)]


def homomorphisms(src: FiniteGroup, perms: np.ndarray) -> np.ndarray:
    """All homomorphisms from src into a permutation group, given as an
    array of image rows closed under composition with the identity first,
    such as `automorphisms` returns.

    Each action is the (src.n, degree) array of images of src's elements
    0..n-1, and the result stacks them, (count, src.n, degree).  Actions
    are ordered lexicographically by the row positions of their images in
    `perms`, which for sorted rows is lexicographic in the image arrays."""
    perms = np.asarray(perms, dtype=np.int64)
    if not len(perms) or not np.array_equal(perms[0], np.arange(perms.shape[1])):
        raise MalformedTableError("permutation group must list the identity first")
    gens = src.generators.tolist()
    if not gens:
        return perms[:1][None]
    # f(g) is any row whose order divides ord g: f(g)^(ord g) = id
    ident = np.arange(perms.shape[1])
    pools = [perms[(_row_powers(perms, src.orders[g], _compose_rows) == ident).all(axis=1)]
             for g in gens]
    found = _search_morphisms(src, gens, pools, _compose_rows)
    labels = np.concatenate([np.zeros((0, src.n), dtype=np.int64), *map(_positions(perms), found)])
    return perms[labels[np.lexsort(labels.T[::-1])]]


def isomorphisms(src: FiniteGroup, tgt: FiniteGroup, limit: Optional[int] = None) -> np.ndarray:
    """Group isomorphisms src -> tgt (all of them, or up to `limit`), as
    image rows (count, src.n) in lexicographic order.  An element's
    signature is its order and whether it is central; unequal signature
    multisets rule an isomorphism out, and `_bijections` draws each
    generator's images from the elements of its signature."""
    none = np.zeros((0, src.n), dtype=np.int64)
    if src.n != tgt.n:
        return none
    sigs = [
        list(zip(g.orders.tolist(), (g.table == g.table.T).all(axis=1).tolist()))
        for g in (src, tgt)
    ]
    if sorted(sigs[0]) != sorted(sigs[1]):
        return none
    found, count = [none], 0
    for block in _bijections(src, tgt, *sigs):
        found.append(block)
        count += len(block)
        if limit is not None and count >= limit:
            break
    rows = np.concatenate(found)[:limit]
    return rows[np.lexsort(rows.T[::-1])]


_AUTOMORPHISMS: dict[bytes, np.ndarray] = {}


def automorphisms(g: FiniteGroup) -> np.ndarray:
    """All automorphisms as read-only image rows (|Aut|, n), sorted
    lexicographically, so the identity comes first.  This is the one form
    of a permutation group here; it is computed once per group table, by
    `g.key()`, and shared."""
    key = g.key()
    if key not in _AUTOMORPHISMS:
        _AUTOMORPHISMS[key] = _freeze(isomorphisms(g, g))
    return _AUTOMORPHISMS[key]


def subgroups(g: FiniteGroup) -> list[Subgroup]:
    """All subgroups with normality flags, sorted by (size, elements)."""
    found = {(0,): None}
    frontier = [(0,)]
    while frontier:
        nxt = []
        for h in frontier:
            hset = set(h)
            for x in range(1, g.n):
                if x in hset:
                    continue
                k = g.closure(list(h) + [x])
                if k not in found:
                    found[k] = None
                    nxt.append(k)
        frontier = nxt
    out = []
    for elems in sorted(found, key=lambda e: (len(e), e)):
        out.append(Subgroup(elements=elems, normal=is_normal_subset(g, elems)))
    return out


def conjugates(table: np.ndarray, inverse: np.ndarray, by, of) -> np.ndarray:
    """The one conjugation: out[i, j] = by[i] o of[j] o by[i]^-1, with o
    from the group table `table` and its inverse array `inverse`, by one
    gather of shape (|by|, |of|)."""
    by, of = np.asarray(by, dtype=np.int64)[:, None], np.asarray(of, dtype=np.int64)
    return table[table[by, of], inverse[by]]


def parse_subset(n: int, elements: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
    """`elements` as a sorted int64 array, repeats kept, and its membership
    mask over range(n), after checking that each element is an integer in
    range(n); raises MalformedTableError otherwise."""
    items = list(elements)
    if not all(isinstance(x, (int, np.integer)) and 0 <= x < n for x in items):
        raise MalformedTableError(f"subset elements must be integers in range({n})")
    inside = np.zeros(n, dtype=bool)
    inside[items] = True
    return np.sort(np.array(items, dtype=np.int64)), inside


def is_normal_subset(g: FiniteGroup, elements: Iterable[int]) -> bool:
    """Whether b o s o b^-1 lies in the subset for every b in g and every
    element s of it."""
    subset, inside = parse_subset(g.n, elements)
    return bool(inside[conjugates(g.table, g.inverse, np.arange(g.n), subset)].all())


# ---------------------------------------------------------------------------
# constructions


def cyclic_group(n: int) -> FiniteGroup:
    a = np.arange(n)
    return FiniteGroup.from_table(CayleyTable.of((a[:, None] + a[None, :]) % n))


def semidirect_table(t1: np.ndarray, t2: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """The one product formula: (x1, x2)(y1, y2) = (x1 alpha[x2](y1), x2 y2),
    with the operations of the tables t1 and t2 and the pair (x1, x2) at
    index x1 * n2 + x2; alpha[x2] is the image array of the map attached to
    x2."""
    n2 = t2.shape[0]
    x1, x2 = np.divmod(np.arange(t1.shape[0] * n2), n2)
    return t1[x1[:, None], alpha[x2[:, None], x1[None, :]]] * n2 + t2[x2[:, None], x2[None, :]]


def semidirect_group(h: FiniteGroup, k: FiniteGroup, action: np.ndarray) -> FiniteGroup:
    """H x| K with K acting on H: (a, x)(b, y) = (a o action[x](b), x o y).

    Pair (a, x) gets index a * |K| + x. The action is a (|K|, |H|) array,
    row x the image array of the automorphism attached to x; it must be a
    homomorphism from K into Aut(H), which `checked_action` validates.
    """
    acted = checked_action(action, k, h.table, MalformedTableError)
    return FiniteGroup.from_table(CayleyTable.of(semidirect_table(h.table, k.table, acted)))


def direct_product(h: FiniteGroup, k: FiniteGroup) -> FiniteGroup:
    return semidirect_group(h, k, np.tile(np.arange(h.n), (k.n, 1)))


def dicyclic_group(m: int) -> FiniteGroup:
    """Order 4m: <a, b | a^(2m) = 1, b^2 = a^m, b a b^-1 = a^-1>."""
    if m < 1:
        raise MalformedTableError("dicyclic index must be >= 1")
    i, j = np.divmod(np.arange(4 * m), 2)  # index 2i + j is a^i b^j
    ii, jj, kk, ll = i[:, None], j[:, None], i[None, :], j[None, :]
    first = (ii + (1 - 2 * jj) * kk + m * jj * ll) % (2 * m)
    return FiniteGroup.from_table(CayleyTable.of(first * 2 + (jj + ll) % 2))

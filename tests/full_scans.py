"""Reference checks for the tests: the original single-pass n**3 scans of
associativity, left cancellation, compatibility and the braid relation,
kept verbatim so that the chunked and generator-based checks can be
compared against them witness for witness. Only use them on small n: each
builds several n x n x n int64 arrays. Also a full associativity scan of
a stack of tables, the action law on every pair of a group's elements
(the reference for the generator test `tables._homomorphic_rows`), the
brace automorphisms and the first isomorphism search by a whole-table
test of +, the conjugation action of a decomposition one element at a
time, a cycle walk, the reference for the vectorised
`tables.orbit_lengths`, the original two-sided closure of
`nilpotency.set_dot_plus_E`, the regular-embedding sweep with every
holomorph element and permutation in the first generator's pool, the
unpruned sweep that tests every lambda map from Sym(n) (a route to the
generic census independent of regular embeddings, for n <= 6) with its
row-stack endomorphism test `endomorphic_rows`, the order
of a permutation by walking its powers, the unpacked block scan of the
braid relation, the structural census with one product for every
action homomorphism, and the structure maps of `core` (ideals, normal
subsets, the kernel of lambda on E, the idempotent checks and the G x E
pairs) one element at a time with the loops of their first versions."""

import math
from functools import lru_cache

import numpy as np

from semibrace import ybe
from semibrace.classify import (
    _merge_classes,
    _order_divides_pool,
    _structural_e_sizes,
    _sylow_sizes,
    skew_braces,
    small_groups,
)
from semibrace.construct import (
    TWO_P2_THEOREMS,
    FamilyId,
    applicable_items,
    semidirect,
    theorems_for_order_pq,
    trivial_semibrace,
)
from semibrace.core import IdealReport, InternalInvariantError, _induced_table
from semibrace.nilpotency import dot_table
from semibrace.tables import (
    ROW_BATCH,
    CayleyTable,
    _bfs_tree,
    _bijections,
    _compose_rows,
    _homomorphic_rows,
    _lambda_rows,
    _search_morphisms,
    automorphisms,
    homomorphisms,
    is_morphism,
    orbit_lengths,
)

# Families whose n**3 exceeds tables.SLAB, so that a full scan for a
# witness runs in several chunks, small enough for the full scans here.
ABOVE_SLAB = (
    FamilyId("pq-congruent", 3, 53, 2),  # n = 106
    FamilyId("pq-congruent", 4, 37, 3),  # n = 111
    FamilyId("pq-noncongruent", 4, 23, 5),  # n = 115
    FamilyId("pq-noncongruent", 6, 11, 11),  # n = 121
)
# Families whose n**3 fits in one slab; Light's test decides them as well.
MID_SIZE = (
    FamilyId("2p2-Ep2", 3, 3),  # n = 18
    FamilyId("2p2-E2-cyclic", 2, 5),  # n = 50
    FamilyId("2p2-E2-noncyclic", 5, 7),  # n = 98
)


def families_up_to_fifty():
    """Every family of order pq or 2p**2 with n <= 50."""
    fids = []
    for p, q in ((2, 2), (3, 2), (3, 3), (5, 2), (5, 3), (5, 5), (7, 2), (7, 3), (7, 5),
                 (7, 7), (11, 2), (11, 3), (13, 2), (13, 3), (17, 2), (19, 2), (23, 2)):
        fids.extend(applicable_items(theorems_for_order_pq(p, q), p, q))
    for p in (3, 5):
        for theorem in TWO_P2_THEOREMS:
            fids.extend(applicable_items(theorem, p))
    return fids


def check_group(t: CayleyTable):
    """(is_group, identity, failure) as tables.check_group reports them."""
    tab = t.table
    n = t.n
    ident = None
    for e in range(n):
        if np.array_equal(tab[e], np.arange(n)) and np.array_equal(tab[:, e], np.arange(n)):
            ident = e
            break
    if ident is None:
        for e in range(n):
            if np.array_equal(tab[e], np.arange(n)):
                bad = int(np.argmax(tab[:, e] != np.arange(n)))
                return False, None, ("no-identity", (bad, e))
        return False, None, ("no-identity", ())
    for a in range(n):
        hits = np.flatnonzero(tab[a] == ident)
        if hits.size == 0 or tab[int(hits[0]), a] != ident:
            return False, ident, ("no-inverse", (a,))
    left = tab[tab, :]  # left[a,b,c] = tab[tab[a,b], c]
    right = tab[:, tab]  # right[a,b,c] = tab[a, tab[b,c]]
    diff = left != right
    if diff.any():
        a, b, c = (int(i) for i in np.argwhere(diff)[0])
        return False, ident, ("not-associative", (a, b, c))
    return True, ident, None


def check_left_cancellative_semigroup(t: CayleyTable):
    tab = t.table
    left = tab[tab, :]
    right = tab[:, tab]
    diff = left != right
    if diff.any():
        a, b, c = (int(i) for i in np.argwhere(diff)[0])
        return False, ("not-associative", (a, b, c))
    for a in range(t.n):
        row = tab[a]
        if np.unique(row).size != t.n:
            order = np.argsort(row, kind="stable")
            dup = np.flatnonzero(row[order[1:]] == row[order[:-1]])[0]
            b, c = sorted((int(order[dup]), int(order[dup + 1])))
            return False, ("not-left-cancellative", (a, b, c))
    return True, None


def first_incompatible(add: np.ndarray, tab: np.ndarray, inv: np.ndarray):
    n = add.shape[0]
    lam = tab[np.arange(n)[:, None], add[inv]]  # lam[a,b] = a o (a' + b)
    lhs = tab[:, add]  # lhs[a,b,c] = a o (b + c)
    rhs = add[tab[:, :, None], lam[:, None, :]]
    diff = lhs != rhs
    if diff.any():
        return tuple(int(i) for i in np.argwhere(diff)[0])
    return None


def verify_outcome(add_rows, circ_rows):
    """(axiom, witness) that the original verify raised for a pair of
    well-formed n x n tables, or None when it accepted them."""
    add_t, circ_t = CayleyTable.of(add_rows), CayleyTable.of(circ_rows)
    is_group, ident, failure = check_group(circ_t)
    if not is_group:
        return "circle-not-a-group", failure[1]
    if ident != 0:
        swap = np.arange(circ_t.n)
        swap[[0, ident]] = swap[[ident, 0]]
        add_t, circ_t = add_t.relabel(swap), circ_t.relabel(swap)
    ok, witness = check_left_cancellative_semigroup(add_t)
    if not ok:
        return f"add-{witness[0]}", witness[1]
    tab = circ_t.table
    inv = np.argmax(tab == 0, axis=1)
    triple = first_incompatible(add_t.table, tab, inv)
    if triple is not None:
        return "compatibility", triple
    if add_t.table[0, 0] != 0:
        return "zero-not-idempotent", (0,)
    return None


def check_braid(r: np.ndarray):
    """(holds, first failing (x, y, z)) for a solution map array r."""
    n = r.shape[0]
    a = r[:, :, 0]
    bb = r[:, :, 1]
    z_idx = np.arange(n)[None, None, :]
    x_idx = np.arange(n)[:, None, None]

    a_xy = a[:, :, None]
    b_xy = bb[:, :, None]
    a_bz = a[b_xy, z_idx]
    lhs1 = a[a_xy, a_bz]
    lhs2 = bb[a_xy, a_bz]
    lhs3 = bb[b_xy, z_idx]

    a_yz = a[None, :, :]
    b_yz = bb[None, :, :]
    rhs1 = a[x_idx, a_yz]
    b_x_ayz = bb[x_idx, a_yz]
    rhs2 = a[b_x_ayz, b_yz]
    rhs3 = bb[b_x_ayz, b_yz]

    bad = (lhs1 != rhs1) | (lhs2 != rhs2) | (lhs3 != rhs3)
    if bad.any():
        x, y, z = (int(i) for i in np.argwhere(bad)[0])
        return False, (x, y, z)
    return True, None


def check_braid_blocks(s):
    """The unpacked block kernel of `ybe.check_braid`, from before r was
    packed into words, kept verbatim but for reading ybe.BRAID_SLAB: blocks
    of consecutive x, six int64 gathers per block and fresh arrays for
    every block."""
    n = s.n
    a, bb = s.r[:, :, 0].ravel(), s.r[:, :, 1].ravel()  # a[x * n + y] = a(x, y)
    a2, b2 = a.reshape(n, n), bb.reshape(n, n)
    rows = max(1, ybe.BRAID_SLAB // (n * n))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        # arrays indexed [x - start, y, z]; flat indices into a and bb
        v = b2[start:stop]  # b(x, y)
        left = a2.take(v, axis=0)  # a(b(x, y), z)
        left += a2[start:stop, :, None] * n  # (a(x, y), a(b(x, y), z))
        x_ayz = np.arange(start * n, stop * n, n)[:, None, None] + a2  # (x, a(y, z))
        right = bb.take(x_ayz)
        right *= n
        right += b2  # (b(x, a(y, z)), b(y, z))
        bad = a.take(left) != a.take(x_ayz)
        bad |= bb.take(left) != a.take(right)
        bad |= b2.take(v, axis=0) != bb.take(right)
        if bad.any():
            i, y, z = (int(t) for t in np.argwhere(bad)[0])
            return False, (start + i, y, z)
    return True, None


def associative_rows(add: np.ndarray) -> np.ndarray:
    """Rows r of a stack of tables (rows, n, n) with (a + b) + c == a + (b + c)
    for every a, b and c, by one n**3 scan per row."""
    rows, n, _ = add.shape
    r = np.arange(rows)[:, None, None, None]
    left = add[r, add[:, :, :, None], np.arange(n)]
    right = add[r, np.arange(n)[:, None, None], add[:, None, :, :]]
    return (left == right).reshape(rows, n ** 3).all(axis=1)


def is_action(images: np.ndarray, table: np.ndarray) -> bool:
    """images[x o y] = images[x] . images[y] for a group table `table`, with
    images[x] the image array of the permutation attached to x: all k**2
    products at once."""
    k = table.shape[0]
    composed = images[np.arange(k)[:, None, None], images[None, :, :]]  # [x, y] = x . y
    return bool(np.array_equal(images[table], composed))


def conjugation_action(b, acting, acted) -> list[list[int]]:
    """rows[i][j] = the position in `acted` of c o y o c', for c = acting[i]
    and y = acted[j], one element at a time from the circle table: the
    action of a semidirect decomposition of b."""
    tab, inv = b.circ.table, b.circ.inverse
    return [[acted.index(int(tab[tab[c, y], inv[c]])) for y in acted] for c in acting]


def cycle_lengths(images) -> list[int]:
    """The length of the cycle through each point of a permutation, by
    walking every cycle once."""
    n = len(images)
    seen = np.zeros(n, dtype=bool)
    lengths = [0] * n
    for start in range(n):
        if seen[start]:
            continue
        cycle, x = [], start
        while not seen[x]:
            seen[x] = True
            cycle.append(x)
            x = int(images[x])
        for y in cycle:
            lengths[y] = len(cycle)
    return lengths


def permutation_order(images) -> int:
    """The least k >= 1 with images**k the identity, by walking the powers."""
    images = np.asarray(images)
    k, cur, ident = 1, images, np.arange(len(images))
    while not np.array_equal(cur, ident):
        cur = images[cur]
        k += 1
    return k


def set_dot_plus_E(b, xs, ys):
    """(X.Y) + E: the dots and 0, closed under x + y and y + x on both
    sides until nothing new appears, each member summed with every
    idempotent."""
    d = dot_table(b)
    xs = sorted(set(int(x) for x in xs))
    ys = sorted(set(int(y) for y in ys))
    seeds = set(int(v) for v in np.unique(d[np.ix_(xs, ys)]))
    add = b.add.table
    members = {0} | seeds
    frontier = list(members)
    while frontier:
        nxt = []
        cur = list(members)
        for x in frontier:
            for y in cur:
                for z in (int(add[x, y]), int(add[y, x])):
                    if z not in members:
                        members.add(z)
                        nxt.append(z)
        frontier = nxt
    out = {int(add[g, e]) for g in members for e in b.e_elements}
    return tuple(sorted(out))


def regular_tables(circ, gens, orders, group, k):
    """`classify._regular_tables` with the full pool Hol(G) x {pi : ord pi
    divides ord c} for every generator c, the first one included: each
    table comes once for every conjugate of rho by the stabiliser of 0."""
    n, m = circ.n, group.n
    auts = automorphisms(group)
    affine = group.table[np.arange(m)[:, None, None], auts[None]].reshape(m * auts.shape[0], m)
    pools = []
    for order in orders:
        pi = _order_divides_pool(k, order)
        pool = (affine[:, None, :, None] * k + pi[None, :, None, :]).astype(np.int8)
        pool = pool.reshape(affine.shape[0] * pi.shape[0], n)
        pools.append(pool[(orbit_lengths(pool) == order).all(axis=1)])
    x = np.arange(n)
    right_group = group.table[x[:, None] // k, x[None, :] // k] * k + x % k
    for rho in _search_morphisms(circ, gens, pools, _compose_rows):
        psi = rho[:, :, 0].astype(np.intp)
        psi = psi[(np.sort(psi, axis=1) == x).all(axis=1)]
        rows = np.arange(psi.shape[0])[:, None, None]
        pulled = np.argsort(psi, axis=1)[rows, right_group[psi[:, :, None], psi[:, None, :]]]
        yield pulled.astype(np.int8)


@lru_cache(maxsize=None)
def all_perms(n: int) -> np.ndarray:
    """All permutations of range(n), lexicographic, shape (n!, n), int8."""
    if n == 1:
        out = np.zeros((1, 1), dtype=np.int8)
        out.setflags(write=False)
        return out
    sub = all_perms(n - 1)
    blocks = []
    for first in range(n):
        rest = (sub + (sub >= first)).astype(np.int8)
        head = np.full((sub.shape[0], 1), first, dtype=np.int8)
        blocks.append(np.hstack([head, rest]))
    out = np.ascontiguousarray(np.vstack(blocks))
    out.setflags(write=False)
    return out


def add_rows(circ, lam: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """add[r, i, b] = a + b = a o lam_{a^-}(b) for a = elements[i]; each
    a^- must lie where lam is set."""
    tab8 = circ.table.astype(np.int8)
    return tab8[elements[None, :, None], lam[:, circ.inverse[elements], :]]


def lambda_maps(circ, gens):
    """Blocks (rows, n, n) of every homomorphism lam: (B, o) -> Sym(B),
    closed along the BFS tree of `gens`, which must generate B: every tuple
    of generator images from Sym(n) is tried, ROW_BATCH tuples at a time."""
    n = circ.n
    perms = all_perms(n)
    tree = _bfs_tree(circ, gens)
    shape = (perms.shape[0],) * len(gens)
    total = math.prod(shape)
    for start in range(0, total, ROW_BATCH):
        picks = np.unravel_index(np.arange(start, min(start + ROW_BATCH, total)), shape)
        lam = _lambda_rows(n, tree, [perms[p] for p in picks], _compose_rows)
        yield lam[_homomorphic_rows(lam, circ.table, gens, tree, _compose_rows)]


def endomorphic_rows(lam: np.ndarray, add: np.ndarray, gens) -> np.ndarray:
    """Rows r in which lam[r, g] is an endomorphism of + = add[r] for every
    g in `gens`; lam and add are (rows, n, n), at O(rows n**2 |gens|) cost.
    By the lemma in `core.verify`'s docstring, a row whose lam is a
    homomorphism from (B, o) passes exactly when add[r] is a semi-brace."""
    rows, n, _ = add.shape
    flat = add.reshape(rows, n * n)
    ok = np.ones(rows, dtype=bool)
    for g in gens:
        lg = lam[:, g].astype(np.intp)
        lhs = np.take_along_axis(lg, flat, axis=1)  # lam_g(b + c)
        rhs = np.take_along_axis(flat, (lg[:, :, None] * n + lg[:, None, :]).reshape(rows, n * n), axis=1)
        ok &= (lhs == rhs).all(axis=1)
    return ok


def unpruned_survivor_tables(circ, emin, esylow):
    """`classify._survivor_tables` by the unpruned route: each lambda map
    from `lambda_maps` is tested by `endomorphic_rows`, in the order
    they come, so the tables are not sorted.  Drop-in for
    `classify._survivor_tables` at n <= 6."""
    n = circ.n
    sylow = _sylow_sizes(n)
    allowed = np.array([e >= emin and (e in sylow or not esylow) for e in range(n + 1)])
    if n == 1:
        return [np.zeros((1, 1), dtype=np.int64)] if allowed[1] else []
    gens = circ.generating_sequence()
    if len(_bfs_tree(circ, gens)) + 1 != n:
        raise InternalInvariantError("generating sequence fails to generate")
    arange_n = np.arange(n)
    out = []
    for lam in lambda_maps(circ, gens):
        add = add_rows(circ, lam, arange_n)
        emask = allowed[(add[:, arange_n, arange_n] == arange_n).sum(axis=1)]
        add, lam = add[emask], lam[emask]
        out.extend(table.astype(np.int64) for table in add[endomorphic_rows(lam, add, gens)])
    return out


def plus_isomorphism(b1, b2):
    """The first `core.isomorphic`: its search, with + tested on each
    circle isomorphism row by `is_morphism` over the whole table."""
    if b1.n != b2.n:
        return None
    if b1.key() == b2.key():
        return np.arange(b1.n)
    if b1.signature_key != b2.signature_key:
        return None
    for block in _bijections(b1.circ, b2.circ, b1.signatures, b2.signatures):
        for f in block:
            if is_morphism(f[None], b1.add.table, b2.add.table)[0]:
                return f
    return None


def brace_automorphisms(b) -> np.ndarray:
    """The first `core.brace_automorphism_group`: the circle automorphisms
    that preserve the whole addition table, in `automorphisms` order."""
    auts, add = automorphisms(b.circ), b.add.table
    return auts[is_morphism(auts, add, add)]


def structural_census(n, emin=2, esylow=False):
    """The previous `classify.enumerate_structural` without the cache: the
    product of every action homomorphism is built, verified and offered to
    `_merge_classes`."""
    return _merge_classes(_every_structural_product(n, _structural_e_sizes(n, emin, esylow)))


def _every_structural_product(n, e_sizes):
    for e in e_sizes:
        if e == n:
            for k, egroup in enumerate(small_groups(n)):
                yield trivial_semibrace(egroup), f"structural:n={n}:trivial:group{k}"
            continue
        g_size = n // e
        for bi, gbrace in enumerate(skew_braces(g_size)):
            gaut = brace_automorphisms(gbrace)
            for ei, egroup in enumerate(small_groups(e)):
                etriv = trivial_semibrace(egroup)
                for hi, alpha in enumerate(homomorphisms(egroup, gaut)):
                    yield (
                        semidirect(gbrace, etriv, alpha),
                        f"structural:n={n}:e{e}:G{bi}xE{ei}:hom{hi}",
                    )
                eaut = automorphisms(egroup)
                for hi, alpha in enumerate(homomorphisms(gbrace.circ, eaut)):
                    yield (
                        semidirect(etriv, gbrace, alpha),
                        f"structural:n={n}:e{e}:E{ei}xG{bi}:hom{hi}",
                    )


def is_normal_subset(g, elements) -> bool:
    """b o a o b^-1 lies in the subset for every a in it and every b, one
    pair at a time."""
    eset = set(int(x) for x in elements)
    return all(g.mul(g.mul(b, a), g.inverse[b]) in eset for a in eset for b in range(g.n))


def is_ideal(b, elements) -> IdealReport:
    """`core.is_ideal`'s four conditions by nested loops that stop at the
    first failure of each; a witness is kept only when none came before."""
    ideal = tuple(sorted(int(x) for x in elements))
    iset = set(ideal)
    witness = None

    tab, inv = b.circ.table, b.circ.inverse
    sub_ok = 0 in iset and all(tab[x, y] in iset and inv[x] in iset for x in iset for y in iset)
    normal1 = sub_ok and is_normal_subset(b.circ, iset)
    if not normal1 and witness is None:
        witness = ("normal-in-circ",)

    gset = set(b.g_elements)
    ig = sorted(iset & gset)
    gadd = _induced_table(b.add.table, b.g_elements)
    gpos = {e: i for i, e in enumerate(b.g_elements)}
    if not check_group(CayleyTable.of(gadd))[0]:
        raise InternalInvariantError("(G, +) is not a group")
    neg = [int(np.flatnonzero(row == 0)[0]) for row in gadd]  # -g in the local labels
    igl = [gpos[x] for x in ig]
    igset = set(igl)
    normal2 = 0 in igset and all(int(gadd[x, y]) in igset for x in igl for y in igl)
    if normal2:
        for gl in range(len(b.g_elements)):
            for x in igl:
                conj = int(gadd[int(gadd[gl, x]), int(neg[gl])])
                if conj not in igset:
                    normal2 = False
                    if witness is None:
                        witness = ("intersection-normal-in-g", b.g_elements[gl], b.g_elements[x])
                    break
            if not normal2:
                break
    elif witness is None:
        witness = ("intersection-normal-in-g",)

    rho_ok = True
    for nn in ig:
        for x in range(b.n):
            t = b.add.table[inv[nn], x]
            if tab[inv[t], x] not in iset:
                rho_ok = False
                if witness is None:
                    witness = ("rho-closed", nn, x)
                break
        if not rho_ok:
            break

    lam_ok = True
    ie = sorted(iset & set(b.e_elements))
    for g in b.g_elements:
        for e in ie:
            if b.lam[g, e] not in iset:
                lam_ok = False
                if witness is None:
                    witness = ("lambda-closed", g, e)
                break
        if not lam_ok:
            break

    return IdealReport(
        elements=ideal,
        normal_in_circ=normal1,
        intersection_normal_in_g=normal2,
        rho_closed=rho_ok,
        lambda_closed=lam_ok,
        witness=witness,
    )


def kernel_lambda_on_E(b) -> tuple[int, ...]:
    """{x : lambda_x(e) = e for every e in E}, one pair at a time."""
    return tuple(x for x in range(b.n) if all(b.lam[x, e] == e for e in b.e_elements))


def idempotents_are_a_right_zero_subgroup(b) -> bool:
    """e o f and e' lie in E and e + f = f, for all e and f in E."""
    eset = set(b.e_elements)
    return all(
        b.circ.table[e, f] in eset and b.add.table[e, f] == f for e in eset for f in eset
    ) and all(b.circ.inverse[e] in eset for e in eset)


def g_e_pairs(b, x: int) -> list[int]:
    """[g, e, g2, e2] with x = g + e and x = g2 o e2 for g, g2 in G and e,
    e2 in E: g = x + 0, e the one idempotent with g + e = x, and e2 =
    lambda_{g'}(e), checked one element at a time (None where no single
    pair is found)."""
    g = int(b.add.table[x, 0])
    cands = [e for e in b.e_elements if b.add.table[g, e] == x]
    if len(cands) != 1:
        return None
    e2 = int(b.lam[b.circ.inverse[g], cands[0]])
    return [g, cands[0], g, e2] if b.circ.table[g, e2] == x else None

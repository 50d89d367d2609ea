"""Two independent enumerators for finite left cancellative left
semi-braces, and the classification checks built on them.

The generic enumerator builds, for every circle group of order n, the
addition tables of its regular embeddings into Hol(G) x Sym(E), one for
each right group G x E of order n that (B, +) can be.  The
structural enumerator builds semidirect products of a skew brace part and a
trivial part, in both directions, over the shapes n = pq and n = 2p^2 where
those products exhaust the classification.  Both produce censuses of
pairwise non-isomorphic representatives that can be checked against each
other and against the explicit families.
"""

from __future__ import annotations

import json
import math
import zlib
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .construct import (
    PQ_THEOREMS,
    TWO_P2_THEOREMS,
    applicable_items,
    brace_p2,
    family,
    is_prime,
    trivial_semibrace,
    trivial_skewbrace,
)
from .core import (
    InternalInvariantError,
    ParameterError,
    SemiBrace,
    brace_automorphism_group,
    isomorphic,
    semibrace_from_json,
    semidirect,
    verify,
)
from .tables import (
    FiniteGroup,
    MalformedTableError,
    _bfs_tree,
    _compose_rows,
    _search_morphisms,
    automorphisms,
    cyclic_group,
    dicyclic_group,
    homomorphisms,
    isomorphisms,
    orbit_lengths,
    semidirect_group,
    slab_chunks,
)

GENERIC_BOUND = 10


# ---------------------------------------------------------------------------
# group catalog


_CLASSICAL_GROUP_COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5, 9: 2, 10: 2,
    11: 1, 12: 5, 13: 1, 14: 2, 15: 1, 16: 14, 17: 1, 18: 5, 19: 1,
    20: 5, 25: 2, 27: 5, 49: 2, 50: 5,
}

SUPPORTED_GROUP_ORDERS = frozenset(_CLASSICAL_GROUP_COUNTS)


def _require_group_order(n: int) -> None:
    if n not in _CLASSICAL_GROUP_COUNTS:
        raise ParameterError(f"order {n} is outside the supported group catalog")


def group_isomorphic(g1: FiniteGroup, g2: FiniteGroup) -> bool:
    return len(isomorphisms(g1, g2, limit=1)) > 0


@lru_cache(maxsize=None)
def small_groups(n: int) -> tuple[FiniteGroup, ...]:
    """All groups of order n up to isomorphism, for the supported orders.

    Candidates come from cyclic, dicyclic, and split extensions H x| K over
    every proper factorization; duplicates are removed with group_isomorphic
    and the final count is asserted against the classical census.
    """
    _require_group_order(n)
    candidates: list[FiniteGroup] = [cyclic_group(n)]
    if n % 4 == 0:
        candidates.append(dicyclic_group(n // 4))
    for h in range(2, n):
        if n % h != 0:
            continue
        k = n // h
        for hg in small_groups(h):
            aut = automorphisms(hg)
            for kg in small_groups(k):
                for action in homomorphisms(kg, aut):
                    candidates.append(semidirect_group(hg, kg, action))
    kept: list[FiniteGroup] = []
    for cand in candidates:
        if not any(group_isomorphic(cand, have) for have in kept):
            kept.append(cand)
    kept.sort(key=lambda g: g.key())
    if len(kept) != _CLASSICAL_GROUP_COUNTS[n]:
        raise InternalInvariantError(
            f"group catalog for order {n}: built {len(kept)}, "
            f"expected {_CLASSICAL_GROUP_COUNTS[n]}"
        )
    return tuple(kept)


def _require_skew_brace_order(m: int) -> None:
    r = math.isqrt(m)
    if not (m == 1 or is_prime(m) or (r * r == m and is_prime(r) and r % 2 == 1)):
        raise ParameterError(f"no skew brace catalog for order {m}")


def skew_braces(m: int) -> list[SemiBrace]:
    """All skew left braces of order m up to isomorphism, for m equal to 1,
    a prime, or an odd prime square."""
    _require_skew_brace_order(m)
    if m == 1 or is_prime(m):
        return [trivial_skewbrace(cyclic_group(m))]
    return [brace_p2(which, math.isqrt(m)) for which in ("G1", "G2", "G3", "G4")]


# ---------------------------------------------------------------------------
# census entries and merging


class CensusEntry(NamedTuple):
    semibrace: SemiBrace
    provenance: str

    def to_json(self) -> dict:
        return {"semibrace": self.semibrace.to_json(), "provenance": self.provenance}


def census_to_json(entries: Sequence[CensusEntry]) -> list:
    return [entry.to_json() for entry in entries]


def census_from_json(obj) -> list[CensusEntry]:
    """Rebuild a census from JSON; every entry's tables are re-verified from
    scratch."""
    if not isinstance(obj, list):
        raise MalformedTableError("census JSON must be a list")
    out = []
    for item in obj:
        if not isinstance(item, dict) or not {"semibrace", "provenance"} <= set(item):
            raise MalformedTableError("census entry needs semibrace and provenance")
        b = semibrace_from_json(item["semibrace"])
        out.append(CensusEntry(semibrace=b, provenance=str(item["provenance"])))
    return out


def _merge_classes(candidates: Iterable[tuple[SemiBrace, str]]) -> list[CensusEntry]:
    """Merge (semi-brace, provenance) candidates of one order into
    isomorphism classes, each candidate compared by `isomorphic` with the
    classes found so far.  A class keeps the candidate of least `key()`,
    the first seen on ties; as the add tables have one length, that is the
    least (add, circ) pair.  The classes come sorted by |E|, then key."""
    classes: list[CensusEntry] = []
    for b, provenance in candidates:
        for i, cls in enumerate(classes):
            if isomorphic(b, cls.semibrace) is not None:
                if b.key() < cls.semibrace.key():
                    classes[i] = CensusEntry(semibrace=b, provenance=provenance)
                break
        else:
            classes.append(CensusEntry(semibrace=b, provenance=provenance))
    classes.sort(key=lambda e: (len(e.semibrace.e_elements), e.semibrace.key()))
    return classes


# ---------------------------------------------------------------------------
# filters


def _sylow_sizes(n: int) -> frozenset[int]:
    """The largest power of each prime p dividing n: gcd(n, p^b) for any b
    at least the exponent, such as n.bit_length()."""
    return frozenset(math.gcd(n, p ** n.bit_length()) for p in range(2, n + 1)
                     if n % p == 0 and is_prime(p))


# ---------------------------------------------------------------------------
# permutation pools for the generic enumerator


def _arrangements(values: np.ndarray, r: int) -> np.ndarray:
    """All ordered r-tuples of distinct entries of `values`, shape (count, r)."""
    out = np.zeros((1, 0), dtype=values.dtype)
    for _ in range(r):
        used = (out[:, :, None] == values[None, None, :]).any(axis=1)
        row, col = np.nonzero(~used)
        out = np.hstack([out[row], values[col][:, None]])
    return out


@lru_cache(maxsize=None)
def _order_divides_pool(n: int, k: int) -> np.ndarray:
    """The permutations of range(n) whose order divides k, that is, whose
    cycle lengths all divide k; lexicographic, shape (count, n), int8,
    read-only.

    Each is built once, by cycle type: the cycle of 0 has some length m
    dividing k, and its other m - 1 elements, in cycle order, are an
    arrangement c of 1..n-1; the remaining elements R (sorted) carry a
    smaller such permutation tau through R[i] -> R[tau[i]]."""
    if n == 0:
        return np.zeros((1, 0), dtype=np.int8)
    blocks = []
    for length in (m for m in range(1, n + 1) if k % m == 0):
        cyc = _arrangements(np.arange(1, n, dtype=np.int8), length - 1)
        rest = _order_divides_pool(n - length, k)
        t, u = cyc.shape[0], rest.shape[0]
        out = np.empty((t, u, n), dtype=np.int8)
        ring = np.hstack([np.zeros((t, 1), dtype=np.int8), cyc])  # 0 -> c0 -> c1 ...
        out[np.arange(t)[:, None], :, ring] = np.roll(ring, -1, axis=1)[:, :, None]
        free = np.ones((t, n), dtype=bool)
        free[np.arange(t)[:, None], ring] = False
        others = np.nonzero(free)[1].reshape(t, n - length).astype(np.int8)
        images = others[np.arange(t)[:, None, None], rest[None, :, :]]  # R[tau[i]]
        np.put_along_axis(out, np.broadcast_to(others[:, None, :], images.shape), images, axis=2)
        blocks.append(out.reshape(t * u, n))
    pool = np.vstack(blocks)
    pool = np.ascontiguousarray(pool[np.lexsort(pool.T[::-1])])
    pool.setflags(write=False)
    return pool


def _cycle_type_representatives(k: int, order: int) -> np.ndarray:
    """One permutation of range(k) for each pair (length of the cycle
    through 0, cycle type of the rest) with every length dividing `order`:
    the cycle through 0 is 0 -> 1 -> ..., and the other cycles follow on
    consecutive points by non-increasing length; shape (count, k), int8."""
    lengths = [m for m in range(1, k + 1) if order % m == 0]

    def partitions(total: int, largest: int) -> Iterator[tuple[int, ...]]:
        if total == 0:
            yield ()
        for m in lengths:
            if m <= min(total, largest):
                yield from ((m, *rest) for rest in partitions(total - m, m))

    rows = []
    for first in lengths:
        for rest in partitions(k - first, k):
            row: list[int] = []
            for m in (first, *rest):
                row += [len(row) + (i + 1) % m for i in range(m)]
            rows.append(row)
    return np.array(rows, dtype=np.int8)


@lru_cache(maxsize=None)
def _holomorph_representatives(m: int) -> dict[bytes, np.ndarray]:
    """By G.key(), for each G in `small_groups(m)`: the least index
    t * |Aut(G)| + a of each Aut(G)-conjugacy class of the holomorph
    elements h -> t alpha_a(h), alpha_a the a-th row of
    `automorphisms(G)`.  beta (t alpha) beta^-1 = beta(t) (beta alpha
    beta^-1), so the class of x is the column x of `image`, and x is least
    in it when the column's minimum is x.  An automorphism is known by its
    images of a generating sequence, which index it in `position`."""
    out = {}
    for group in small_groups(m):
        gens = group.generating_sequence()
        auts = automorphisms(group)
        count = auts.shape[0]
        weights = m ** np.arange(len(gens))
        position = np.zeros(m ** len(gens), dtype=np.int64)
        position[auts[:, gens] @ weights] = np.arange(count)
        beta, alpha = np.arange(count)[:, None, None], np.arange(count)[None, :, None]
        inverse = np.argsort(auts, axis=1)[:, gens][:, None, :]
        conj = position[auts[beta, auts[alpha, inverse]] @ weights]  # beta alpha beta^-1
        image = (auts[:, :, None] * count + conj[:, None, :]).reshape(count, -1)
        out[group.key()] = np.flatnonzero(image.min(axis=0) == np.arange(image.shape[1]))
    return out


def _regular_tables(
    circ: FiniteGroup, gens: list[int], orders: list[int], group: FiniteGroup, k: int
) -> Iterator[np.ndarray]:
    """Blocks (rows, n, n) of int8 addition tables: the right group G x E,
    (h, e) labelled h * k + e, pulled back along psi(c) = rho(c)(0) for each
    homomorphism rho: (B, o) -> Hol(G) x Sym(E) that makes psi a bijection;
    (t o alpha, pi) acts as (h, e) -> (t alpha(h), pi(e)).  The first
    generator's image is drawn from one element per class of the stabiliser
    of 0, the later ones from all of Hol(G) x {pi : ord pi | ord c}, with
    orders[j] the order of gens[j].  See `_survivor_tables`."""
    n, m = circ.n, group.n
    auts = automorphisms(group)
    affine = group.table[np.arange(m)[:, None, None], auts[None]].reshape(m * auts.shape[0], m)
    pools = []
    for j, order in enumerate(orders):
        if j == 0:
            hol = affine[_holomorph_representatives(m)[group.key()]]
            pi = _cycle_type_representatives(k, order)
        else:
            hol, pi = affine, _order_divides_pool(k, order)
        pool = (hol[:, None, :, None] * k + pi[None, :, None, :]).astype(np.int8)
        pool = pool.reshape(hol.shape[0] * pi.shape[0], n)
        pools.append(pool[(orbit_lengths(pool) == order).all(axis=1)])
    x = np.arange(n)
    right_group = group.table[x[:, None] // k, x[None, :] // k] * k + x % k
    for rho in _search_morphisms(circ, gens, pools, _compose_rows):
        psi = rho[:, :, 0].astype(np.intp)
        psi = psi[(np.sort(psi, axis=1) == x).all(axis=1)]
        rows = np.arange(psi.shape[0])[:, None, None]
        pulled = np.argsort(psi, axis=1)[rows, right_group[psi[:, :, None], psi[:, None, :]]]
        yield pulled.astype(np.int8)


def _survivor_tables(circ: FiniteGroup, emin: int, esylow: bool) -> list[np.ndarray]:
    """Addition tables of every semi-brace (B, +, o) whose circle table is
    `circ` and whose idempotent count |E| passes the filter, built from
    regular embeddings and returned sorted by their bytes, on these facts:

    - Right group.  A finite left cancellative (B, +) has a + B = B.  An
      idempotent e is a left identity (e + e + x = e + x, cancel e), so E,
      the idempotents, is right zero, G = B + 0 is a group, each b is
      (b + 0) + e for exactly one e in E, and b -> (b + 0, e) is an
      isomorphism onto G x E with (g, e) + (g', e') = (g g', e')
      (Clifford-Preston, The Algebraic Theory of Semigroups I, 1.11).  So
      |E| = k divides n and |G| = n / k.
    - Aut(G x E) = Aut(G) x Sym(E).  An automorphism phi permutes E by some
      pi, and phi(g, e) = phi((g, e_0) + (1, e)) = (alpha(g), pi(e)), with
      alpha(g) the G coordinate of phi(g, e_0), an automorphism of G since
      that coordinate is a homomorphism.  Each such pair is an automorphism.
    - Regular embedding.  a o x = a o lam_{a^-} lam_a(x) = a + lam_a(x).  In
      coordinates a + _ is a translation t of G and lam_a = (alpha, pi), so
      c -> (x -> c o x) is a homomorphism rho into Hol(G) x Sym(E) with
      rho(c)(0) = c.  Every cycle of rho(c) has length ord(c), as x, c o x,
      ... repeat only at c^ord(c), so the pools hold only such (t o alpha,
      pi), with pi of order dividing ord(c).
    - Converse.  If rho: (B, o) -> Hol(G) x Sym(E) is a homomorphism and
      psi(c) = rho(c)(0) a bijection, pull + back along psi, and let lam_c
      be the Aut(G) x Sym(E) part of rho(c), pulled back too: a homomorphism,
      as the translations are normal.  psi(a o x) = rho(a)(psi(x)) = psi(a)
      + psi(lam_a(x)), so a + b = a o lam_{a^-}(b), and as each lam_c is an
      automorphism of +, the lemma in `core.verify`'s docstring makes the
      tables a semi-brace with |E| = k.  Every semi-brace arises, from psi
      its coordinate map composed with a pi that sends 0 to (1, e_0).
    - k = n.  Then a + b = b, which every psi keeps: one table, no search.
    - Duplicates.  Let phi lie in Stab(0), the stabiliser of 0 = (1, e_0)
      in Aut(G x E).  Then phi rho phi^-1 is a homomorphism with orbit map
      phi psi, a bijection, and it pulls back the same table, as phi keeps
      +.  Stab(0) = Aut(G) x Sym(E - e_0) acts on Hol(G) x Sym(E) one
      factor at a time: beta (t alpha) beta^-1 = beta(t) (beta alpha
      beta^-1), and the Sym(E - e_0)-class of pi is its cycle type with the
      length of the cycle through e_0 marked.  Conjugation keeps cycle
      lengths, so each Stab(0)-orbit of the first generator's semiregular
      images holds exactly one pair (an `_holomorph_representatives` row,
      a `_cycle_type_representatives` row), and drawing the first image
      from those pairs loses no table.  The later generators still range
      over their full pools, so a table can come from several rho, and the
      tables are deduplicated."""
    n = circ.n
    sylow = _sylow_sizes(n)
    allowed = np.array([e >= emin and (e in sylow or not esylow) for e in range(n + 1)])
    if n == 1:
        return [np.zeros((1, 1), dtype=np.int64)] if allowed[1] else []
    gens = circ.generating_sequence()
    if len(_bfs_tree(circ, gens)) + 1 != n:
        raise InternalInvariantError("generating sequence fails to generate")
    orders = circ.element_orders()[gens].tolist()
    found: set[bytes] = set()
    for k in range(1, n + 1):
        if n % k or not allowed[k]:
            continue
        if k == n:
            found.add(np.arange(n, dtype=np.int8).tobytes() * n)
            continue
        for group in small_groups(n // k):
            for block in _regular_tables(circ, gens, orders, group, k):
                found.update(table.tobytes() for table in block)
    return [np.frombuffer(key, np.int8).reshape(n, n).astype(np.int64) for key in sorted(found)]


def _orbit_representatives(circ: FiniteGroup, tables: list[np.ndarray]) -> list[SemiBrace]:
    """The verified least table, in byte order, of each Aut(C)-orbit of the
    int64 addition tables over the catalogue group C = `circ`.  An
    isomorphism of two semi-braces with circle table C is an f in Aut(C)
    with f(T)[f x, f y] = f[T[x, y]], so the orbits are the classes whether
    or not `tables` is closed under Aut(C).

    Only tables not yet in `seen` are verified.  This is safe: a table in
    `seen` is f(T) for a verified T and some f in Aut(C), so it is valid by
    transport of structure.  An invalid table is never in `seen`, so it is
    still verified, and the scan raises at the same table as when every
    table was verified."""
    auts = automorphisms(circ)
    rows = np.arange(auts.shape[0])[:, None, None]
    orbit = np.empty((auts.shape[0], circ.n, circ.n), dtype=np.int64)
    seen: set[bytes] = set()
    out = []
    for table in sorted(tables, key=lambda t: t.tobytes()):
        if table.tobytes() not in seen:
            out.append(verify(table, circ))
            orbit[rows, auts[:, :, None], auts[:, None, :]] = auts[rows, table[None]]
            seen.update(f.tobytes() for f in orbit)
    return out


def enumerate_generic(
    n: int,
    emin: int = 1,
    esylow: bool = False,
    cache_dir: Optional[Union[str, Path]] = None,
) -> list[CensusEntry]:
    """Complete census of semi-braces of order n (up to isomorphism) whose
    idempotent count passes the filter: the `_orbit_representatives` of the
    tables `_survivor_tables` lists over each group of order n, as tables
    over different groups are never isomorphic."""
    if n < 1 or emin < 1:
        raise ParameterError("n and emin must be positive")
    if n > GENERIC_BOUND:
        raise ParameterError(f"generic enumeration is bounded at n <= {GENERIC_BOUND}")
    params = dict(enumerator="generic", n=n, emin=emin, esylow=esylow)
    cached = _cache_load(cache_dir, params)
    if cached is not None:
        return cached
    entries = []
    for gi, group in enumerate(small_groups(n)):
        for b in _orbit_representatives(group, _survivor_tables(group, emin, esylow)):
            entries.append(CensusEntry(semibrace=b, provenance=f"generic:n={n}:group{gi}"))
    entries.sort(key=lambda e: (len(e.semibrace.e_elements), e.semibrace.key()))
    _cache_store(cache_dir, params, entries)
    return entries


# ---------------------------------------------------------------------------
# structural enumerator


def _pq_shape(n: int) -> Optional[tuple[int, int]]:
    for q in range(2, n):
        if n % q == 0 and is_prime(q):
            p = n // q
            if p >= q and is_prime(p):
                return (p, q)
    return None


def _2p2_shape(n: int) -> Optional[int]:
    if n % 2 != 0:
        return None
    m = n // 2
    r = math.isqrt(m)
    if r * r == m and is_prime(r) and r % 2 == 1:
        return r
    return None


def _structural_e_sizes(n: int, emin: int, esylow: bool) -> list[int]:
    """The |E| values `enumerate_structural` covers, after checking the
    shape of n and that every catalogue it will read has the order it
    needs, so that an unsupported order fails before any work."""
    if esylow:
        if _2p2_shape(n) is None:
            raise ParameterError(
                "the Sylow filter needs n = 2p^2 with p an odd prime"
            )
        e_sizes = sorted(s for s in _sylow_sizes(n) if s >= max(emin, 2))
    else:
        if _pq_shape(n) is None:
            raise ParameterError("structural enumeration needs n = pq with p, q prime")
        if emin < 2:
            raise ParameterError("structural enumeration covers |E| > 1 only")
        e_sizes = sorted(d for d in range(2, n + 1) if n % d == 0 and d >= emin)
    for e in e_sizes:
        if e < n:
            _require_skew_brace_order(n // e)
        _require_group_order(e)
    return e_sizes


def _circle_rows(act: np.ndarray, circ2: np.ndarray) -> bytes:
    """The first |B2| rows of the circ table of B1 x|_act B2, as bytes: row
    (0, x2) holds act[x2, y1] * |B2| + circ2[x2, y2] at column (y1, y2)."""
    return (act[:, :, None] * len(circ2) + circ2[:, None, :]).tobytes()


def _orbit_leaders(
    b1: SemiBrace, b2: SemiBrace, acts: np.ndarray, phi: np.ndarray, psi: np.ndarray
) -> list[int]:
    """For each orbit of phi x psi, the automorphism groups of B1 and B2,
    on the actions `acts` (count, |B2|, |B1|) of B2 on B1, in the order of
    the orbits' first members: the member whose product has the least (add,
    circ) key, the earliest on ties.  (phi, psi) sends alpha to
    alpha'[psi(c), phi(y)] = phi(alpha[c, y]); see `enumerate_structural`.
    The moved actions are built at most `tables.SLAB` entries at a time.

    No product is built to find that member.  The + table of B1 x|_alpha B2
    is the same for every alpha in the list, so the circ tables decide the
    key.  Row 0 of B1's circ table is the identity, so the product's circ
    rows (0, x2), which are its first |B2| rows, are `_circle_rows`: they
    hold alpha[x2, y1] * |B2| + circ2[x2, y2] at column (y1, y2).  These
    rows determine alpha, so two distinct actions of the list first differ
    inside them, and their bytes order the members as the whole key does."""
    index = {a.tobytes(): i for i, a in enumerate(acts)}
    phi_inv = np.argsort(phi, axis=1)
    psi_inv = np.argsort(psi, axis=1)[None, :, :, None]
    circ2 = b2.circ.table
    leaders, done = [], np.zeros(len(acts), dtype=bool)
    for first in range(len(acts)):
        if done[first]:
            continue
        members = set()
        for rows in slab_chunks(np.arange(len(phi)), psi_inv.size * b1.n):
            moved = phi[rows[:, None, None, None], acts[first][psi_inv, phi_inv[rows, None, None]]]
            members.update(index.get(m.tobytes()) for m in moved.reshape(-1, acts[0].size))
        if None in members:
            raise InternalInvariantError("an orbit of actions leaves the homomorphism list")
        done[list(members)] = True
        leaders.append(min(members, key=lambda i: (_circle_rows(acts[i], circ2), i)))
    return leaders


def enumerate_structural(
    n: int,
    emin: int = 2,
    esylow: bool = False,
    cache_dir: Optional[Union[str, Path]] = None,
) -> list[CensusEntry]:
    """Census by structure: full-trivial semi-braces plus semidirect products
    B1 x| B2 of a skew brace part and a trivial part, in both directions,
    over the action homomorphisms alpha: (B2, o) -> Aut(B1).  Supported
    shapes are n = pq with |E| > 1 and n = 2p^2 (odd prime p) with |E| a
    Sylow size; those are the shapes where every semi-brace decomposes this
    way.

    One product is built per orbit of Aut(B1) x Aut(B2) on the actions, by
    `_orbit_leaders`.  Here Aut of the skew brace G is its brace automorphism
    group and Aut of the trivial part E its group automorphisms, which keep
    a + b = b; in E x| G the + of the product is G's, so psi must keep it.
    (phi, psi) sends alpha to alpha'(c) = phi alpha(psi^-1 c) phi^-1, again a
    homomorphism into Aut(B1), and f(x1, x2) = (phi x1, psi x2) is an
    isomorphism B1 x|_alpha B2 -> B1 x|_alpha' B2: it keeps + factor by
    factor, and phi(x1 o alpha(x2)(y1)) = phi x1 o alpha'(psi x2)(phi y1).
    So an orbit lies in one isomorphism class, and building only the member
    of least (add, circ) key, with the earliest index on ties, keeps the
    classes and the representatives `_merge_classes` keeps given every
    product: distinct actions in one list give distinct circ tables, and
    the lists run in the same order.  `tests/full_scans.structural_census`
    builds every product and is the reference."""
    e_sizes = _structural_e_sizes(n, emin, esylow)
    params = dict(enumerator="structural", n=n, emin=emin, esylow=esylow)
    cached = _cache_load(cache_dir, params)
    if cached is not None:
        return cached
    entries = _merge_classes(_structural_products(n, e_sizes))
    _cache_store(cache_dir, params, entries)
    return entries


def _structural_products(n: int, e_sizes: list[int]) -> Iterator[tuple[SemiBrace, str]]:
    """The candidates of `enumerate_structural` with their provenance: the
    trivial semi-braces of order n when n is an |E| size, and for each
    other |E| = e the `_orbit_leaders` products in both directions."""
    for e in e_sizes:
        if e == n:
            for k, egroup in enumerate(small_groups(n)):
                yield trivial_semibrace(egroup), f"structural:n={n}:trivial:group{k}"
            continue
        for bi, gbrace in enumerate(skew_braces(n // e)):
            gaut = brace_automorphism_group(gbrace)
            for ei, egroup in enumerate(small_groups(e)):
                etriv = trivial_semibrace(egroup)
                eaut = automorphisms(egroup)
                for b1, b2, aut1, aut2, homs, name in (
                    (gbrace, etriv, gaut, eaut, homomorphisms(egroup, gaut), f"G{bi}xE{ei}"),
                    (etriv, gbrace, eaut, gaut, homomorphisms(gbrace.circ, eaut), f"E{ei}xG{bi}"),
                ):
                    for hi in _orbit_leaders(b1, b2, homs, aut1, aut2):
                        prov = f"structural:n={n}:e{e}:{name}:hom{hi}"
                        yield semidirect(b1, b2, homs[hi]), prov


# ---------------------------------------------------------------------------
# classification verification


def _g_is_cyclic(b: SemiBrace) -> bool:
    """Whether G is cyclic; G is a subgroup of (B, o), so this is whether
    some element of G has circle order |G|."""
    return int(b.circ.element_orders()[list(b.g_elements)].max()) == len(b.g_elements)


class ClassificationReport(NamedTuple):
    theorem: str
    p: int
    q: Optional[int]
    n: int
    family_labels: list[str]
    census_count: int
    generic_checked: bool
    matching: list[tuple[str, int]]
    problems: list[str]

    @property
    def ok(self) -> bool:
        return not self.problems

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "p": self.p,
            "q": self.q,
            "n": self.n,
            "family_labels": list(self.family_labels),
            "family_count": len(self.family_labels),
            "census_count": self.census_count,
            "generic_checked": self.generic_checked,
            "matching": [[label, idx] for label, idx in self.matching],
            "problems": list(self.problems),
            "ok": self.ok,
        }


def _match_census(
    fams: list[tuple[str, SemiBrace]],
    census: list[CensusEntry],
    label: str,
    problems: list[str],
) -> list[tuple[str, int]]:
    """Require a bijection families <-> census classes via isomorphic."""
    matching = []
    hit_by: dict[int, str] = {}
    for name, b in fams:
        hits = [k for k, entry in enumerate(census) if isomorphic(b, entry.semibrace) is not None]
        if len(hits) != 1:
            problems.append(f"{name} matches {len(hits)} classes in the {label} census")
            continue
        k = hits[0]
        if k in hit_by:
            problems.append(
                f"{label} census class {k} matched by both {hit_by[k]} and {name}"
            )
        hit_by[k] = name
        matching.append((name, k))
    if len(hit_by) != len(census):
        problems.append(
            f"{label} census has {len(census)} classes, families matched {len(hit_by)}"
        )
    return matching


def verify_classification(
    theorem: str,
    p: int,
    q: Optional[int] = None,
    cache_dir: Optional[Union[str, Path]] = None,
) -> ClassificationReport:
    """Build the families for a classification statement, check pairwise
    non-isomorphism and the stated idempotent sizes, and require a bijection
    with the structural census (and the generic one when n is small)."""
    tags = TWO_P2_THEOREMS if theorem == "2p2" else (theorem,)
    fids = [fid for tag in tags
            for fid in applicable_items(tag, p, q if tag in PQ_THEOREMS else None)]
    n = fids[0].n
    _structural_e_sizes(n, 2, theorem not in PQ_THEOREMS)

    fams = []
    problems: list[str] = []
    for fid in fids:
        b = family(fid)
        name = f"{fid.theorem}[{fid.item}]"
        if len(b.e_elements) * len(b.g_elements) != n:
            problems.append(f"{name} breaks |B| = |G| * |E|")
        fams.append((name, b))
    for i, (name_i, b_i) in enumerate(fams):
        for name_j, b_j in fams[i + 1:]:
            if isomorphic(b_i, b_j) is not None:
                problems.append(f"{name_i} and {name_j} are isomorphic")

    if theorem in PQ_THEOREMS:
        census = enumerate_structural(n, emin=2, cache_dir=cache_dir)
    else:
        census = enumerate_structural(n, esylow=True, cache_dir=cache_dir)
        if theorem in ("2p2-E2-cyclic", "2p2-E2-noncyclic"):
            cyclic = theorem == "2p2-E2-cyclic"
            census = [
                e
                for e in census
                if len(e.semibrace.e_elements) == 2 and _g_is_cyclic(e.semibrace) == cyclic
            ]
        elif theorem == "2p2-Ep2":
            census = [e for e in census if len(e.semibrace.e_elements) == p * p]
    matching = _match_census(fams, census, "structural", problems)

    generic_checked = False
    if theorem in PQ_THEOREMS and n <= GENERIC_BOUND:
        gen = enumerate_generic(n, emin=2, cache_dir=cache_dir)
        _match_census(fams, gen, "generic", problems)
        generic_checked = True

    return ClassificationReport(
        theorem=theorem,
        p=p,
        q=q,
        n=n,
        family_labels=[name for name, _ in fams],
        census_count=len(census),
        generic_checked=generic_checked,
        matching=matching,
        problems=problems,
    )


# ---------------------------------------------------------------------------
# census cache


@lru_cache(maxsize=1)
def _code_version() -> str:
    """The CRC-32 of the package sources' names and bytes, as 8 hex digits;
    a stale key is harmless, as every entry is verified again on load."""
    crc = 0
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        crc = zlib.crc32(path.read_bytes(), zlib.crc32(path.name.encode(), crc))
    return f"{crc:08x}"


def _cache_key(params: dict) -> str:
    """The file name of the census built with `params` (enumerator, n, emin
    and esylow, which the file records too)."""
    parts = [params["enumerator"], *(f"{k}{int(params[k])}" for k in ("n", "emin", "esylow"))]
    return "-".join([*parts, _code_version()]) + ".json"


def _cache_load(cache_dir, params: dict) -> Optional[list[CensusEntry]]:
    """The census built with `params` stored under `_cache_key(params)`, or
    None on a miss.  A file is `{"params": ..., "entries": ...}`; one that
    does not parse, records other parameters or holds an entry of another
    order is unreadable, logged and a miss."""
    if cache_dir is None:
        return None
    path = Path(cache_dir) / _cache_key(params)
    if not path.is_file():
        return None
    try:
        stored = json.loads(path.read_text())
        found = stored.get("params") if isinstance(stored, dict) else None
        if found != params:
            raise MalformedTableError(f"census built with {found}, not {params}")
        entries = census_from_json(stored["entries"])
        orders = {entry.semibrace.n for entry in entries} - {params["n"]}
        if orders:
            raise MalformedTableError(f"census entries of order {min(orders)}, not {params['n']}")
        return entries
    except (ValueError, KeyError, TypeError, OSError, RecursionError) as err:
        import logging  # only this path logs; a readable cache never loads it

        logging.getLogger(__name__).warning(
            "ignoring unreadable census cache file %s: %s", path, err
        )
        return None


def _cache_store(cache_dir, params: dict, entries: list[CensusEntry]) -> None:
    if cache_dir is None:
        return
    key = _cache_key(params)
    root = Path(cache_dir)
    root.mkdir(parents=True, exist_ok=True)
    tmp = root / (key + ".tmp")
    stored = {"params": params, "entries": census_to_json(entries)}
    tmp.write_text(json.dumps(stored, sort_keys=True))
    tmp.replace(root / key)

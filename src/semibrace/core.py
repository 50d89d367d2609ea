"""Left cancellative left semi-braces and their structure maps.

A semi-brace here is a pair of tables on 0..n-1: a left cancellative
semigroup `add` and a group `circ` (identity 0) satisfying the
compatibility law

    a o (b + c) = a o b + a o (a' + c)

with a' the circle inverse of a. Derived objects: the lambda action
lambda_a(b) = a o (a' + b), the idempotent part E = {e : e + e = e}, and
the skew brace part G = B + 0.  `isomorphic` decides whether two
semi-braces are isomorphic and gives a witness.

`SemiBrace` is a frozen dataclass for its `cached_property` signatures; the
other records are NamedTuples, which generate no code at import.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .tables import (
    CayleyTable,
    FiniteGroup,
    MalformedTableError,
    _bijections,
    _freeze,
    automorphisms,
    check_group,
    checked_action,
    conjugates,
    first_nonassociative,
    identity_swap,
    is_morphism,
    is_normal_subset,
    orbit_lengths,
    parse_subset,
    semidirect_table,
    slab_chunks,
)


class SemiBraceAxiomError(ValueError):
    """A table pair failed verification; carries a machine-readable diagnostic."""

    def __init__(self, axiom: str, witness: tuple = ()):
        self.axiom = axiom
        self.witness = tuple(int(x) for x in witness)
        super().__init__(f"{axiom} at {self.witness}")

    def diagnostic(self) -> dict:
        return {"axiom": self.axiom, "witness": list(self.witness)}


class ParameterError(ValueError):
    """A constructor parameter violates a stated primality or congruence constraint."""


class InternalInvariantError(RuntimeError):
    """A proven consequence of the axioms failed; verify() let something bad through."""


@dataclass(frozen=True)
class SemiBrace:
    """A verified left cancellative left semi-brace."""

    add: CayleyTable
    circ: FiniteGroup
    lam: np.ndarray  # lam[a] = image array of lambda_a
    e_elements: tuple[int, ...]
    g_elements: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.add.n

    def key(self) -> bytes:
        return self.add.key() + self.circ.op.key()

    @cached_property
    def signatures(self) -> tuple[tuple, ...]:
        """Per-element invariants preserved by any semi-brace isomorphism:
        the circle order of x, whether x is idempotent, whether lam_x(0) =
        0, and the sorted cycle lengths of the points under lam_x
        (equivalent to the cycle type of lam_x)."""
        orders = self.circ.orders.tolist()
        idempotent = (np.diagonal(self.add.table) == np.arange(self.n)).tolist()
        fixes_zero = (self.lam[:, 0] == 0).tolist()
        cycles = np.sort(orbit_lengths(self.lam), axis=1).tolist()
        return tuple(
            (orders[x], idempotent[x], fixes_zero[x], tuple(cycles[x])) for x in range(self.n)
        )

    @cached_property
    def signature_key(self) -> tuple:
        """The multiset of element signatures, sorted: equal for isomorphic
        semi-braces, so unequal keys rule an isomorphism out."""
        return tuple(sorted(self.signatures))

    def relabel(self, perm) -> "SemiBrace":
        add = self.add.relabel(perm)  # rejects a non-permutation first
        if perm[0] != 0:
            raise MalformedTableError("relabeling must keep the identity at 0")
        return verify(add.table, self.circ.op.relabel(perm).table)

    def to_json(self) -> dict:
        return {"n": self.n, "add": self.add.table.tolist(), "circ": self.circ.table.tolist()}


def _first_incompatible(add: np.ndarray, tab: np.ndarray, lam: np.ndarray):
    """The lexicographically first (a, b, c) with a o (b + c) != a o b +
    lambda_a(c), by a full scan chunked over a; None if there is none."""
    n = add.shape[0]
    for a in slab_chunks(np.arange(n), n * n):
        lhs = tab[a][:, add]  # lhs[i, b, c] = a_i o (b + c)
        rhs = add[tab[a][:, :, None], lam[a][:, None, :]]
        diff = lhs != rhs
        if diff.any():
            i, b, c = (int(v) for v in np.argwhere(diff)[0])
            return int(a[i]), b, c
    return None


def _first_failure(add: np.ndarray, tab: np.ndarray, lam: np.ndarray) -> SemiBraceAxiomError:
    """The first axiom a pair that fails `verify`'s test violates, in the
    order associativity, left cancellation, compatibility, 0 + 0 = 0, with
    its witness from chunked full scans."""
    triple = first_nonassociative(add)
    if triple is not None:
        return SemiBraceAxiomError("add-not-associative", triple)
    bad = np.flatnonzero((np.diff(np.sort(add, axis=1), axis=1) == 0).any(axis=1))
    if bad.size:
        a = int(bad[0])
        order = np.argsort(add[a], kind="stable")
        dup = int(np.flatnonzero(np.diff(add[a][order]) == 0)[0])
        return SemiBraceAxiomError("add-not-left-cancellative", (a, *sorted(order[dup:dup + 2])))
    witness = _first_incompatible(add, tab, lam)
    if witness is not None:
        return SemiBraceAxiomError("compatibility", witness)
    if add[0, 0] != 0:
        return SemiBraceAxiomError("zero-not-idempotent", (0,))
    raise InternalInvariantError("the lambda test fails on a valid semi-brace")


def verify(add_rows, circ) -> SemiBrace:
    """Check the axioms and return the verified structure.

    Raises SemiBraceAxiomError with a distinct axiom tag and a minimal witness
    otherwise. `circ` is the circle table's rows, or a FiniteGroup, taken as
    verified. If the circle identity is not at index 0, both tables are
    relabeled by the transposition moving it there before anything else.

    Once the circle table is a group, validity is decided at every n on the
    recorded `FiniteGroup.generators` S (the lemma below holds for any
    generating set), by gathers in O(n**2 |S|) time and memory: lambda_0
    = id, lambda_(x o g) = lambda_x . lambda_g for every x and g in S, and
    lambda_g an endomorphism of + for every g in S (`is_morphism`).

    Lemma: let lam: (B, o) -> Sym(B) be a homomorphism, a + b :=
    a o lam_{a^-}(b), and S generate (B, o).  Then compatibility holds,
        a o b + lam_a(c) = a o b o lam_{b^- o a^-} lam_a(c) = a o (b + c),
    and + is associative iff lam_s is an endomorphism of + for every s in S.
    (<=) Bijective endomorphisms form a group, so every lam_a is one; with
    u = lam_{a^-}(b) and v = lam_{a^-}(c),
        a + (b + c) = a o (u + v) = a o u o lam_{u^-}(v) = (a o u) + c.
    (=>) lam_a(b + c) = a o ((a^- + b) + c) = lam_a(b) + lam_a(c).
    Any table pair has a + b = a o lam_{a^-}(b) for lam_a(b) := a o (a^- + b).
    If lam_0 = id and lam_(x o g) = lam_x . lam_g for all x and g in S, lam
    is a homomorphism, so + is left cancellative and 0 + b = b.  The lambda
    map of a semi-brace has these properties, so these tests on S hold
    exactly for semi-braces.  A failing pair gets its axiom tag and witness
    from `_first_failure`.
    """
    given = isinstance(circ, FiniteGroup)
    try:
        add_t = CayleyTable.of(add_rows)
        circ_t = circ.op if given else CayleyTable.of(circ)
    except MalformedTableError as exc:
        raise SemiBraceAxiomError("malformed-table") from exc
    if add_t.n != circ_t.n:
        raise SemiBraceAxiomError("malformed-table", (add_t.n, circ_t.n))

    if not given:
        report = check_group(circ_t)
        if not report.is_group:
            raise SemiBraceAxiomError("circle-not-a-group", report.failure[1])
        if report.identity != 0:
            add_t = add_t.relabel(identity_swap(add_t.n, report.identity))
        circ = FiniteGroup.from_report(circ_t, report)

    n, add, tab, gens = add_t.n, add_t.table, circ.table, circ.generators
    lam = tab[np.arange(n)[:, None], add[circ.inverse]]  # lam[a,b] = a o (a' + b)
    if not (
        np.array_equal(lam[0], np.arange(n))
        and np.array_equal(lam[tab[:, gens]], lam[:, lam[gens]])
        and is_morphism(lam[gens], add, add).all()
    ):
        raise _first_failure(add, tab, lam)

    e_elements = tuple(int(i) for i in np.flatnonzero(np.diagonal(add) == np.arange(n)))
    g_elements = tuple(int(i) for i in np.flatnonzero(np.bincount(add[:, 0], minlength=n)))
    return SemiBrace(
        add=add_t, circ=circ, lam=_freeze(lam), e_elements=e_elements, g_elements=g_elements
    )


def semibrace_from_json(obj) -> SemiBrace:
    """Verify a `to_json` object; an `n` that is not a JSON integer is malformed."""
    if not isinstance(obj, dict) or not {"n", "add", "circ"} <= set(obj):
        raise SemiBraceAxiomError("malformed-table")
    b = verify(obj["add"], obj["circ"])
    if type(obj["n"]) is not int:
        raise SemiBraceAxiomError("malformed-table")
    if b.n != obj["n"]:
        raise SemiBraceAxiomError("malformed-table", (obj["n"], b.n))
    return b


# ---------------------------------------------------------------------------
# isomorphism testing


def _keeps_plus(maps: np.ndarray, b1: SemiBrace, b2: SemiBrace) -> np.ndarray:
    """Whether each row f of `maps`, a circle isomorphism b1 -> b2, keeps +,
    in SLAB chunks of rows.  As a + b = a o lambda_a'(b), f keeps + iff
    f . lambda_x = lambda'_f(x) . f for every x.  Such x are closed under o
    (lambda, lambda' and f are homomorphisms), so b1's circle generators suffice."""
    gens = b1.circ.generators
    keep = np.empty(len(maps), dtype=bool)
    for rows in slab_chunks(np.arange(len(maps)), b1.n * max(1, gens.size)):
        f = maps[rows]
        moved = b2.lam[f[:, gens][:, :, None], f[:, None, :]]  # lambda'_f(g)(f(x))
        keep[rows] = (f[:, b1.lam[gens]] == moved).all(axis=(1, 2))
    return keep


def isomorphic(b1: SemiBrace, b2: SemiBrace) -> Optional[np.ndarray]:
    """A bijection f with f(x + y) = f(x) + f(y) and f(x o y) = f(x) o f(y),
    as a read-only int64 image array, or None.  Equal tables short-circuit
    to the identity witness, and unequal signature multisets rule an
    isomorphism out.  Otherwise the witness is the first circle isomorphism,
    in generator-image order, with each generator's images drawn from the
    elements of its signature (equal multisets make every pool non-empty),
    that keeps + by `_keeps_plus`, tested row by row to stop at the first."""
    if b1.n != b2.n:
        return None
    if b1.key() == b2.key():
        return _freeze(np.arange(b1.n))
    if b1.signature_key != b2.signature_key:
        return None
    for block in _bijections(b1.circ, b2.circ, b1.signatures, b2.signatures):
        for f in block:
            if _keeps_plus(f[None], b1, b2)[0]:
                return _freeze(f)
    return None


# ---------------------------------------------------------------------------
# parts


def _induced_table(table: np.ndarray, elements: Sequence[int]) -> np.ndarray:
    """Restrict a global table to a subset, relabeled to 0..k-1.

    The subset must be closed; raises InternalInvariantError otherwise."""
    elements = np.asarray(elements, dtype=np.int64)
    pos = np.full(table.shape[0], -1, dtype=np.int64)
    pos[elements] = np.arange(elements.size)
    out = pos[table[np.ix_(elements, elements)]]
    if (out < 0).any():
        raise InternalInvariantError("subset not closed under the operation")
    return out


class EPart(NamedTuple):
    """The additive idempotents with their circle group structure."""

    elements: tuple[int, ...]
    group: FiniteGroup  # (E, o) relabeled to 0..|E|-1 following `elements`


class GPart(NamedTuple):
    """The skew brace part G = B + 0 with its induced tables."""

    elements: tuple[int, ...]
    semibrace: SemiBrace  # induced (+, o) on G, relabeled following `elements`


def idempotents(b: SemiBrace) -> EPart:
    """E = {e : e + e = e}; asserts that (E, +) is right-zero, e + f = f,
    and that E is a circle subgroup.  `_induced_table` asserts closure under
    o, and closure under the inverse follows: in a finite group, a non-empty
    subset closed under the product holds the powers of each of its
    elements s, and s^-1 is one of them."""
    e = np.array(b.e_elements)
    if not (b.add.table[np.ix_(e, e)] == e).all():
        raise InternalInvariantError("idempotents are not right-zero under +")
    group = FiniteGroup.from_table(CayleyTable.of(_induced_table(b.circ.table, e)))
    return EPart(elements=b.e_elements, group=group)


def skew_part(b: SemiBrace) -> GPart:
    """G = B + 0; asserts (G, +) is a group, the skew brace law holds on G,
    and |B| = |G| * |E|."""
    elems = b.g_elements
    add_g = _induced_table(b.add.table, elems)
    circ_g = _induced_table(b.circ.table, elems)
    rep = check_group(CayleyTable.of(add_g))
    if not rep.is_group or rep.identity != 0:
        raise InternalInvariantError("(G, +) is not a group with identity 0")
    # On a group (G, +), compatibility with b = 0 gives lambda_a(c) = -a + a o c,
    # so verify's compatibility check is the skew brace law
    # a o (b + c) = a o b - a + a o c.
    try:
        semibrace = verify(add_g, circ_g)
    except SemiBraceAxiomError as err:
        raise InternalInvariantError("skew brace law fails on G") from err
    if len(elems) * len(b.e_elements) != b.n:
        raise InternalInvariantError("|B| != |G| * |E|")
    return GPart(elements=elems, semibrace=semibrace)


def lambda_map(b: SemiBrace) -> np.ndarray:
    """lambda_a(x) = a o (a' + x), as `b.lam`, after checking that it is an
    action of (B, o) by automorphisms of (B, +) that keeps E and fixes 0
    exactly on G."""
    checked_action(b.lam, b.circ, b.add.table, InternalInvariantError)
    e = np.array(b.e_elements)
    if not (np.sort(b.lam[:, e], axis=1) == e).all():
        raise InternalInvariantError("lambda_a does not preserve E")
    if not np.array_equal(b.lam[:, 0] == 0, np.isin(np.arange(b.n), b.g_elements)):
        raise InternalInvariantError("lambda_a fixes 0 exactly on G")
    return b.lam


def _pair_positions(pair: np.ndarray, first, second, what: str) -> np.ndarray:
    """The one pair inversion: f[x] = i1 * |second| + i2 for the unique
    (i1, i2) with x = pair[first[i1], second[i2]].  Raises
    InternalInvariantError, naming `what`, unless every x in range(n) is
    hit exactly once."""
    hits = pair[np.ix_(first, second)].ravel()  # hits[i1 * |second| + i2]
    if not (np.bincount(hits, minlength=pair.shape[0]) == 1).all():
        raise InternalInvariantError(f"x = pair[x1, x2] is not unique in the {what}")
    f = np.empty(hits.size, dtype=np.int64)
    f[hits] = np.arange(hits.size)
    return f


def _g_e_pair(b: SemiBrace, pair: np.ndarray, x: int, what: str) -> tuple[int, int]:
    """The unique (g, e) in G x E with x = pair[g, e], by `_pair_positions`."""
    if not 0 <= x < b.n:
        raise IndexError(f"element {x} not in range({b.n})")
    g, e = b.g_elements, b.e_elements
    i1, i2 = divmod(int(_pair_positions(pair, g, e, what)[x]), len(e))
    return g[i1], e[i2]


def factorize(b: SemiBrace, x: int) -> tuple[int, int]:
    """The unique pair (g, e) in G x E with x = g o e."""
    return _g_e_pair(b, b.circ.table, x, "multiplicative factorization")


def additive_decomposition(b: SemiBrace, x: int) -> tuple[int, int]:
    """The unique pair (g, e) in G x E with x = g + e."""
    return _g_e_pair(b, b.add.table, x, "additive decomposition")


# ---------------------------------------------------------------------------
# ideals


class IdealReport(NamedTuple):
    elements: tuple[int, ...]
    normal_in_circ: bool
    intersection_normal_in_g: bool
    rho_closed: bool
    lambda_closed: bool
    witness: Optional[tuple]

    @property
    def is_ideal(self) -> bool:
        return (
            self.normal_in_circ
            and self.intersection_normal_in_g
            and self.rho_closed
            and self.lambda_closed
        )


def is_ideal(b: SemiBrace, elements) -> IdealReport:
    """The four ideal conditions, each reported separately with a witness for
    the first failure:

    1. I is a normal subgroup of (B, o);
    2. I n G is a normal subgroup of (G, +);
    3. (n' + x)' o x lies in I for every x in B, n in I n G;
    4. lambda_g(e) lies in I for every g in G, e in I n E.

    Each condition is one mask over its pairs, and its witness is the first
    failing pair in row-major order.  Raises MalformedTableError unless
    every element is an integer in range(n).
    """
    ideal, inside = parse_subset(b.n, elements)
    tab, inverse = b.circ.table, b.circ.inverse
    normal1 = bool(
        inside[0]
        and inside[tab[np.ix_(ideal, ideal)]].all()
        and inside[inverse[ideal]].all()
        and inside[conjugates(tab, inverse, np.arange(b.n), ideal)].all()
    )
    witnesses = [None if normal1 else ("normal-in-circ",)]

    g, e = np.array(b.g_elements), np.array(b.e_elements)
    gadd = _induced_table(b.add.table, g)
    zero = gadd == 0  # 0 = g[0] is the identity of the group (G, +)
    if not (zero.sum(axis=1) == 1).all():
        raise InternalInvariantError("(G, +) is not a group")
    in_ig = inside[g]  # I n G in the local labels of G
    igl = np.flatnonzero(in_ig)
    if not (in_ig[0] and in_ig[gadd[np.ix_(igl, igl)]].all()):
        witnesses.append(("intersection-normal-in-g",))
    else:
        conj = conjugates(gadd, zero.argmax(axis=1), np.arange(g.size), igl)
        witnesses.append(_first_failure_at("intersection-normal-in-g", ~in_ig[conj], g, g[igl]))

    ig, ie = g[in_ig], e[inside[e]]
    rho = tab[inverse[b.add.table[inverse[ig]]], np.arange(b.n)]  # (n' + x)' o x
    witnesses.append(_first_failure_at("rho-closed", ~inside[rho], ig, np.arange(b.n)))
    witnesses.append(_first_failure_at("lambda-closed", ~inside[b.lam[np.ix_(g, ie)]], g, ie))

    first = next((w for w in witnesses if w is not None), None)
    return IdealReport(tuple(ideal.tolist()), *(w is None for w in witnesses), first)


def _first_failure_at(tag: str, bad: np.ndarray, rows, cols) -> Optional[tuple]:
    """(tag, rows[i], cols[j]) for the first True entry (i, j) of the mask
    `bad` in row-major order, or None when there is none."""
    hits = np.argwhere(bad)
    return (tag, int(rows[hits[0, 0]]), int(cols[hits[0, 1]])) if hits.size else None


def kernel_lambda_on_E(b: SemiBrace) -> tuple[int, ...]:
    """{x : lambda_x fixes E pointwise}; always a subset of G (asserted)."""
    e = np.array(b.e_elements)
    elems = tuple(int(x) for x in np.flatnonzero((b.lam[:, e] == e).all(axis=1)))
    if not set(elems) <= set(b.g_elements):
        raise InternalInvariantError("kernel of lambda on E escapes G")
    return elems


# ---------------------------------------------------------------------------
# semidirect products and decompositions


def semidirect(b1: SemiBrace, b2: SemiBrace, alpha) -> SemiBrace:
    """Semidirect product B1 x| B2, with B2 acting on B1 through alpha.

    alpha is a (|B2|, |B1|) array: alpha[c], the image array of the map
    attached to c, must be an automorphism of B1 (preserving both tables)
    for every c in B2, and c -> alpha[c] a homomorphism from (B2, o);
    `checked_action` raises ParameterError otherwise.  Pair (x1, x2)
    receives index x1 * |B2| + x2, and `tables.semidirect_table` gives both
    operations: + with the identity action, o with alpha.

        (x1, x2) + (y1, y2) = (x1 + y1, x2 + y2)
        (x1, x2) o (y1, y2) = (x1 o alpha[x2](y1), x2 o y2)
    """
    kept = np.stack((b1.add.table, b1.circ.table))
    acted = checked_action(alpha, b2.circ, kept, ParameterError)
    identity = np.broadcast_to(np.arange(b1.n), acted.shape)
    return verify(
        semidirect_table(b1.add.table, b2.add.table, identity),
        semidirect_table(b1.circ.table, b2.circ.table, acted),
    )


class SemidirectData(NamedTuple):
    """A semidirect product presentation of a semi-brace.

    direction "skew-by-trivial": product = G x| E, alpha: (E, o) -> Aut(G)
    by brace automorphisms (conjugation by idempotents).
    direction "trivial-by-skew": product = E x| G, alpha: (G, o) -> Aut(E, o)
    (conjugation by skew part elements; available when E is an ideal).

    `alpha` is the action as a read-only array: row c is the image array
    of the automorphism of the acted-on factor attached to element c of the
    acting factor, both in their local labels.
    """

    direction: str
    brace: SemiBrace  # the skew brace factor G, relabeled
    trivial_group: FiniteGroup  # the circle group of the trivial factor E
    alpha: np.ndarray
    witness: np.ndarray  # read-only image array of an isomorphism from B onto `product`
    product: SemiBrace


def brace_automorphism_group(b: SemiBrace) -> np.ndarray:
    """Bijections preserving both operations: the rows of
    `automorphisms(b.circ)` that keep + (`_keeps_plus`), identity first."""
    auts = automorphisms(b.circ)
    return auts[_keeps_plus(auts, b, b)]


def _check_witness(f: np.ndarray, b: SemiBrace, product: SemiBrace) -> None:
    if not (
        np.array_equal(np.sort(f), np.arange(b.n))
        and is_morphism(f[None], b.add.table, product.add.table)[0]
        and is_morphism(f[None], b.circ.table, product.circ.table)[0]
    ):
        raise InternalInvariantError("semidirect witness is not an isomorphism")


def _decomposition(b: SemiBrace, direction: str, order: str, pair: np.ndarray) -> SemidirectData:
    """B as B1 x| B2, with (B1, B2) its parts G and E taken in `order`, "GE"
    or "EG".  B2 acts on B1 by conjugation, alpha[c](y) = c o y o c', and
    the witness sends x to the unique pair (x1, x2) in B1 x B2 with
    x = pair[x1, x2].  Raises InternalInvariantError if a conjugate leaves
    B1, if some x is not hit exactly once, or if the witness is not an
    isomorphism onto the product."""
    gp, ep = skew_part(b), idempotents(b)
    m = len(ep.elements)
    etriv = verify(np.tile(np.arange(m), (m, 1)), ep.group)  # a + b = b
    parts = {"G": (np.array(gp.elements), gp.semibrace), "E": (np.array(ep.elements), etriv)}
    (y, b1), (c, b2) = (parts[k] for k in order)
    tab, pos = b.circ.table, np.full(b.n, -1, dtype=np.int64)
    pos[y] = np.arange(y.size)
    alpha = pos[conjugates(tab, b.circ.inverse, c, y)]
    if (alpha < 0).any():
        raise InternalInvariantError("conjugation escapes the acted-on factor")
    f = _pair_positions(pair, y, c, f"{order} decomposition")
    try:
        product = semidirect(b1, b2, alpha)
    except ParameterError as err:
        raise InternalInvariantError(f"conjugation: {err}") from err
    _check_witness(f, b, product)
    return SemidirectData(direction, gp.semibrace, ep.group, _freeze(alpha), _freeze(f), product)


def decompose(b: SemiBrace) -> Optional[SemidirectData]:
    """Present B as (skew brace G) x| (trivial E) when G is the kernel of the
    lambda action on E; returns None otherwise.

    The action is alpha_e(g) = e o g o e', a brace automorphism of G; the
    witness maps x = g + e to the pair (g, e).
    """
    if set(kernel_lambda_on_E(b)) != set(b.g_elements):
        return None
    return _decomposition(b, "skew-by-trivial", "GE", b.add.table)


def decompose_E_ideal(b: SemiBrace) -> Optional[SemidirectData]:
    """Present B as (trivial E) x| (skew brace G) when E is an ideal, i.e.
    normal in (B, o); returns None otherwise.

    The action is alpha_g(e) = g o e o g'; the witness maps x = e o g to
    the pair (e, g).
    """
    if not is_normal_subset(b.circ, b.e_elements):
        return None
    return _decomposition(b, "trivial-by-skew", "EG", b.circ.table)

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
    _compose_rows,
    _first_morphisms,
    _freeze,
    _homomorphic_rows,
    automorphisms,
    check_group,
    checked_action,
    first_nonassociative,
    identity_swap,
    is_morphism,
    is_normal_subset,
    left_nested_generators,
    orbit_lengths,
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

    def add_of(self, a: int, b: int) -> int:
        return int(self.add.table[a, b])

    def circ_of(self, a: int, b: int) -> int:
        return int(self.circ.table[a, b])

    def inv(self, a: int) -> int:
        return self.circ.inv(a)

    def lam_of(self, a: int, b: int) -> int:
        return int(self.lam[a, b])

    def key(self) -> bytes:
        return self.add.key() + self.circ.op.key()

    @cached_property
    def signatures(self) -> tuple[tuple, ...]:
        """Per-element invariants preserved by any semi-brace isomorphism:
        the circle order of x, whether x is idempotent, whether lam_x(0) =
        0, and the sorted cycle lengths of the points under lam_x
        (equivalent to the cycle type of lam_x)."""
        orders = self.circ.element_orders().tolist()
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


def endomorphic_rows(lam: np.ndarray, add: np.ndarray, gens) -> np.ndarray:
    """Rows r in which lam[r, g] is an endomorphism of + = add[r] for every
    g in `gens`; lam and add are (rows, n, n), at O(rows n**2 |gens|) cost.

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
    map of a semi-brace has these properties, so `verify` decides validity
    by them and this test on S."""
    rows, n, _ = add.shape
    flat = add.reshape(rows, n * n)
    ok = np.ones(rows, dtype=bool)
    for g in gens:
        lg = lam[:, g].astype(np.intp)
        lhs = np.take_along_axis(lg, flat, axis=1)  # lam_g(b + c)
        rhs = np.take_along_axis(flat, (lg[:, :, None] * n + lg[:, None, :]).reshape(rows, n * n), axis=1)
        ok &= (lhs == rhs).all(axis=1)
    return ok


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


def verify(add_rows, circ_rows) -> SemiBrace:
    """Check the axioms and return the verified structure.

    Raises SemiBraceAxiomError with a distinct axiom tag and a minimal witness
    otherwise. If the circle identity is not at index 0, both tables are
    relabeled by the transposition moving it there before anything else.

    Once the circle table is a group, validity is decided at every n on its
    generators S (`left_nested_generators`) in O(n**2 |S|) time and memory:
    lambda_0 = id, lambda_(x o g) = lambda_x . lambda_g for every x and g in
    S, and `endomorphic_rows`, whose lemma shows that these hold exactly for
    semi-braces.  A failing pair gets its axiom tag and witness from
    `_first_failure`.
    """
    try:
        add_t = CayleyTable.of(add_rows)
        circ_t = CayleyTable.of(circ_rows)
    except MalformedTableError as exc:
        raise SemiBraceAxiomError("malformed-table") from exc
    if add_t.n != circ_t.n:
        raise SemiBraceAxiomError("malformed-table", (add_t.n, circ_t.n))

    report = check_group(circ_t)
    if not report.is_group:
        raise SemiBraceAxiomError("circle-not-a-group", report.failure[1])
    if report.identity != 0:
        add_t = add_t.relabel(identity_swap(add_t.n, report.identity))
    circ = FiniteGroup.from_report(circ_t, report)

    n, add, tab = add_t.n, add_t.table, circ.table
    lam = tab[np.arange(n)[:, None], add[circ.inverse]]  # lam[a,b] = a o (a' + b)
    gens = np.array(left_nested_generators(tab)[1:], dtype=np.int64)  # [0] is the identity
    if not (
        np.array_equal(lam[0], np.arange(n))
        and _homomorphic_rows(lam[None], tab, gens, [], _compose_rows)[0]
        and endomorphic_rows(lam[None], add[None], gens)[0]
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


def isomorphic(b1: SemiBrace, b2: SemiBrace) -> Optional[np.ndarray]:
    """A bijection f with f(x + y) = f(x) + f(y) and f(x o y) = f(x) o f(y),
    as a read-only int64 image array, or None.  Equal tables short-circuit
    to the identity witness, and unequal signature multisets rule an
    isomorphism out.  Otherwise the witness is the first circle-group
    isomorphism, in generator-image order, that also preserves +, with each
    generator's images drawn from the elements of its signature; equal
    multisets make every pool non-empty."""
    if b1.n != b2.n:
        return None
    if b1.key() == b2.key():
        return _freeze(np.arange(b1.n))
    if b1.signature_key != b2.signature_key:
        return None
    gens = b1.circ.generating_sequence()
    sigs1, sigs2 = b1.signatures, b2.signatures
    pools = [[y for y in range(b2.n) if sigs2[y] == sigs1[g]] for g in gens]

    def keeps_add(f: np.ndarray) -> bool:
        return is_morphism(f[None], b1.add.table, b2.add.table)[0]

    found = _first_morphisms(
        b1.circ, b2.circ, pools, gens, bijective=True, limit=1, extra_check=keeps_add
    )
    return _freeze(found[0]) if len(found) else None


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
    """E = {e : e + e = e}; asserts E is a circle subgroup and (E, +) is right-zero."""
    elems = b.e_elements
    eset = set(elems)
    for e in elems:
        for f in elems:
            if b.circ_of(e, f) not in eset or b.add_of(e, f) != f:
                raise InternalInvariantError("idempotents are not a right-zero circle subgroup")
        if b.inv(e) not in eset:
            raise InternalInvariantError("idempotents not closed under circle inverse")
    group = FiniteGroup.from_table(CayleyTable.of(_induced_table(b.circ.table, elems)))
    return EPart(elements=elems, group=group)


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
    checked_action(b.lam, b.circ.table, b.add.table, InternalInvariantError)
    e = np.array(b.e_elements)
    if not (np.sort(b.lam[:, e], axis=1) == e).all():
        raise InternalInvariantError("lambda_a does not preserve E")
    if not np.array_equal(b.lam[:, 0] == 0, np.isin(np.arange(b.n), b.g_elements)):
        raise InternalInvariantError("lambda_a fixes 0 exactly on G")
    return b.lam


def factorize(b: SemiBrace, x: int) -> tuple[int, int]:
    """The unique pair (g, e) in G x E with x = g o e."""
    g, e_add = additive_decomposition(b, x)
    e = b.lam_of(b.inv(g), e_add)
    if b.circ_of(g, e) != x:
        raise InternalInvariantError("multiplicative factorization failed")
    return g, e


def additive_decomposition(b: SemiBrace, x: int) -> tuple[int, int]:
    """The unique pair (g, e) in G x E with x = g + e."""
    g = b.add_of(x, 0)
    cands = [e for e in b.e_elements if b.add_of(g, e) == x]
    if len(cands) != 1:
        raise InternalInvariantError("additive decomposition not unique")
    return g, cands[0]


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
    """
    ideal = tuple(sorted(int(x) for x in elements))
    iset = set(ideal)
    witness = None

    sub_ok = 0 in iset and all(
        b.circ_of(x, y) in iset and b.inv(x) in iset for x in iset for y in iset
    )
    normal1 = sub_ok and is_normal_subset(b.circ, iset)
    if not normal1 and witness is None:
        witness = ("normal-in-circ",)

    gset = set(b.g_elements)
    ig = sorted(iset & gset)
    gadd = _induced_table(b.add.table, b.g_elements)
    gpos = {e: i for i, e in enumerate(b.g_elements)}
    grep = check_group(CayleyTable.of(gadd))
    if not grep.is_group:
        raise InternalInvariantError("(G, +) is not a group")
    neg = grep.inverses  # additive inverses inside G, local labels
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
            t = b.add_of(b.inv(nn), x)
            if b.circ_of(b.inv(t), x) not in iset:
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
            if b.lam_of(g, e) not in iset:
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


def kernel_lambda_on_E(b: SemiBrace) -> tuple[int, ...]:
    """{x : lambda_x fixes E pointwise}; always a subset of G (asserted)."""
    elems = tuple(
        x for x in range(b.n) if all(b.lam_of(x, e) == e for e in b.e_elements)
    )
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
    acted = checked_action(alpha, b2.circ.table, kept, ParameterError)
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
    `automorphisms(b.circ)` that preserve +, so sorted with the identity
    first."""
    auts, add = automorphisms(b.circ), b.add.table
    return auts[is_morphism(auts, add, add)]


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
    etriv = verify(np.tile(np.arange(m), (m, 1)), ep.group.table)  # a + b = b
    parts = {"G": (np.array(gp.elements), gp.semibrace), "E": (np.array(ep.elements), etriv)}
    (y, b1), (c, b2) = (parts[k] for k in order)
    tab, pos = b.circ.table, np.full(b.n, -1, dtype=np.int64)
    pos[y] = np.arange(y.size)
    alpha = pos[tab[tab[np.ix_(c, y)], b.circ.inverse[c][:, None]]]  # c o y o c'
    if (alpha < 0).any():
        raise InternalInvariantError("conjugation escapes the acted-on factor")
    hits = pair[np.ix_(y, c)].ravel()  # hits[i1 * |B2| + i2] = pair[y[i1], c[i2]]
    if not (np.bincount(hits, minlength=b.n) == 1).all():
        raise InternalInvariantError(f"x = pair[x1, x2] is not unique in the {order} decomposition")
    f = np.empty(b.n, dtype=np.int64)
    f[hits] = np.arange(b.n)
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

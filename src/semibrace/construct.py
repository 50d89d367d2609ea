"""Named constructions: trivial structures, direct products (through
`core.semidirect`, which this module re-exports), size-p^2 skew braces,
Rump cyclic braces, and the classification families at orders pq and 2p^2
with E a Sylow subgroup.

Every constructor routes its tables through core.verify; nothing is trusted.
Family tables are written as coordinate formulas, so they stay an
independent route from the semidirect-product composition used elsewhere.
Each family is one of two coordinate laws: `_cyclic_pair`, Z/a x| Z/b, or
`_p_p_2`, Z/p x Z/p (plain or Heisenberg) x| Z/2, with + right zero or the
group law on some factors.  Two items stay literal: pq-noncongruent 1, the
trivial semi-brace on Z/pq, and 2p2-E2-cyclic 3, the Rump law on Z/p^2.
`applicable_items` alone decides which items apply at given parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import InternalInvariantError, ParameterError, SemiBrace, semidirect, verify
from .tables import FiniteGroup, cyclic_group, direct_product, is_normal_subset


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def smallest_unit_of_order(modulus: int, order: int) -> int:
    """Smallest u with multiplicative order exactly `order` modulo `modulus`."""
    for u in range(2, modulus):
        if pow(u, order, modulus) != 1:
            continue
        if all(pow(u, k, modulus) != 1 for k in range(1, order)):
            return u
    raise ParameterError(f"no unit of order {order} modulo {modulus}")


# ---------------------------------------------------------------------------
# basic constructions


def trivial_semibrace(g: FiniteGroup) -> SemiBrace:
    """a + b := b alongside the group's multiplication; E is everything."""
    add = np.tile(np.arange(g.n), (g.n, 1))
    return verify(add, g)


def trivial_skewbrace(g: FiniteGroup) -> SemiBrace:
    """a + b := a o b; a skew brace with E = {0}."""
    return verify(g.table, g)


def direct_product_semibrace(b1: SemiBrace, b2: SemiBrace) -> SemiBrace:
    ident = np.tile(np.arange(b1.n), (b2.n, 1))
    return semidirect(b1, b2, ident)


def rump_brace(m: int, d: int) -> SemiBrace:
    """Carrier Z/m with a o b := a + b + d*a*b; valid only when o is a group,
    which verify decides (SemiBraceAxiomError "circle-not-a-group" otherwise)."""
    if m < 1:
        raise ParameterError("modulus must be at least 1")
    a = np.arange(m)
    add = (a[:, None] + a[None, :]) % m
    circ = (a[:, None] + a[None, :] + d * a[:, None] * a[None, :]) % m
    return verify(add, circ)


def brace_p2(which: str, p: int) -> SemiBrace:
    """The four skew braces of size p^2: G1/G2 on Z/p^2 (cyclic multiplicative
    group), G3/G4 on Z/p x Z/p (non-cyclic). G2 and G4 need p odd."""
    if not is_prime(p):
        raise ParameterError(f"p={p} is not prime")
    if which in ("G2", "G4") and p == 2:
        raise ParameterError(f"{which} requires an odd prime")
    if which == "G1":
        return trivial_skewbrace(cyclic_group(p * p))
    if which == "G2":
        return rump_brace(p * p, p)
    if which == "G3":
        return trivial_skewbrace(direct_product(cyclic_group(p), cyclic_group(p)))
    if which == "G4":
        return verify(*_tables_from_coords(
            (p, p), (0, 1), lambda x, y: ((x[0] + y[0] + x[1] * y[1]) % p, (x[1] + y[1]) % p)
        ))
    raise ParameterError(f"unknown size-p^2 brace {which!r}")


def left_nilpotent_example(p: int) -> SemiBrace:
    """Size p^3: the Rump brace on Z/p^2 extended by Z/p acting as
    alpha_e(g) = (1 + p*e) * g. Left nilpotent, with an idempotent part that
    is neither central nor normal in the circle group (asserted)."""
    if not is_prime(p) or p == 2:
        raise ParameterError("p must be an odd prime")
    g = rump_brace(p * p, p)
    e = trivial_semibrace(cyclic_group(p))
    alpha = np.zeros((p, p * p), dtype=np.int64)
    for ee in range(p):
        alpha[ee] = (1 + p * ee) * np.arange(p * p) % (p * p)
    b = semidirect(g, e, alpha)
    if is_normal_subset(b.circ, b.e_elements):
        raise InternalInvariantError("idempotents unexpectedly normal")
    tab, e, g = b.circ.table, b.e_elements, b.g_elements
    if np.array_equal(tab[np.ix_(e, g)], tab[np.ix_(g, e)].T):
        raise InternalInvariantError("idempotents unexpectedly centralize G")
    return b


# ---------------------------------------------------------------------------
# classification families


PQ_THEOREMS = ("pq-noncongruent", "pq-congruent")
TWO_P2_THEOREMS = ("2p2-E2-cyclic", "2p2-E2-noncyclic", "2p2-Ep2")


@dataclass(frozen=True)
class FamilyId:
    theorem: str
    item: int
    p: int
    q: Optional[int] = None

    def __post_init__(self):
        if self.theorem not in _BUILDERS:
            raise ParameterError(f"unknown theorem tag {self.theorem!r}")
        if not 1 <= self.item <= len(_BUILDERS[self.theorem]):
            raise ParameterError(
                f"{self.theorem} has items 1..{len(_BUILDERS[self.theorem])}, got {self.item}"
            )
        if self.theorem in PQ_THEOREMS and self.q is None:
            raise ParameterError(f"{self.theorem} needs both p and q")
        if self.theorem in TWO_P2_THEOREMS and self.q is not None:
            raise ParameterError(f"{self.theorem} takes only p")

    @property
    def n(self) -> int:
        return self.p * self.q if self.q is not None else 2 * self.p * self.p

    def to_json(self) -> dict:
        return {"theorem": self.theorem, "item": self.item, "p": self.p, "q": self.q}


def _tables_from_coords(sizes, add, circ_fn):
    """Build tables over mixed-radix coordinates, most significant first.

    + is the group law of Z/sizes[i] on each coordinate i in `add` and
    right zero (x + y = y) on the others.  circ_fn gets x and y as tuples
    of coordinate arrays, x's as a column and y's as a row, and returns the
    coordinates of x o y as arrays that broadcast to the n x n table."""
    coords = np.unravel_index(np.arange(int(np.prod(sizes))), sizes)
    x = tuple(c[:, None] for c in coords)
    y = tuple(c[None, :] for c in coords)
    n = coords[0].size

    def table(parts):
        return np.ravel_multi_index(tuple(np.broadcast_to(v, (n, n)) for v in parts), sizes)

    plus = tuple((x[i] + y[i]) % m if i in add else y[i] for i, m in enumerate(sizes))
    return table(plus), table(circ_fn(x, y))


def _cyclic_pair(a: int, b: int, add: tuple, u: int = 1) -> SemiBrace:
    """Z/a x Z/b, (x0, x1) at index x0 b + x1, with
    x o y = (x0 + u^x1 y0 mod a, x1 + y1 mod b), the direct product when
    u = 1, and + the group law on the factors in `add`, right zero on the
    others."""
    upow = np.array([pow(u, k, a) for k in range(b)])  # upow[k] = u^k mod a
    return verify(*_tables_from_coords(
        (a, b), add, lambda x, y: ((x[0] + upow[x[1]] * y[0]) % a, (x[1] + y[1]) % b)
    ))


def _p_p_2(p: int, add: tuple, u0: int, u1: int, h: int) -> SemiBrace:
    """Z/p x Z/p x Z/2 with x o y = (x0 + u0^x2 y0 + h u1^x2 x1 y1 mod p,
    x1 + u1^x2 y1 mod p, x2 + y2 mod 2), for u0, u1 in {1, p - 1} and h = 1
    for the Heisenberg law, and + the group law on the factors in `add`,
    right zero on the others."""
    s0, s1 = np.array([1, u0]), np.array([1, u1])  # s[x2] = u^x2
    return verify(*_tables_from_coords((p, p, 2), add, lambda x, y: (
        (x[0] + s0[x[2]] * y[0] + h * s1[x[2]] * x[1] * y[1]) % p,
        (x[1] + s1[x[2]] * y[1]) % p,
        (x[2] + y[2]) % 2,
    )))


# The items of each theorem in order, each a builder of (p, q).  The
# negation of Z/p^2 is the unit p^2 - 1.
_BUILDERS = {
    "pq-noncongruent": (
        lambda p, q: trivial_semibrace(cyclic_group(p * q)),
        lambda p, q: _cyclic_pair(p, q, ()),
        lambda p, q: _cyclic_pair(p, q, ()),
        lambda p, q: _cyclic_pair(p, q, (0,)),
        lambda p, q: _cyclic_pair(q, p, (0,)),
        lambda p, q: _cyclic_pair(p, q, (0,)),
    ),
    "pq-congruent": (
        lambda p, q: _cyclic_pair(p, q, (), smallest_unit_of_order(p, q)),
        lambda p, q: _cyclic_pair(p, q, ()),
        lambda p, q: _cyclic_pair(p, q, (0,), smallest_unit_of_order(p, q)),
        lambda p, q: _cyclic_pair(p, q, (1,), smallest_unit_of_order(p, q)),
        lambda p, q: _cyclic_pair(p, q, (0,)),
        lambda p, q: _cyclic_pair(q, p, (0,)),
    ),
    "2p2-E2-cyclic": (
        lambda p, q: _cyclic_pair(p * p, 2, (0,), p * p - 1),
        lambda p, q: _cyclic_pair(p * p, 2, (0,)),
        lambda p, q: verify(*_tables_from_coords((p * p, 2), (0,), lambda x, y: (  # Rump
            (x[0] + y[0] + p * x[0] * y[0]) % (p * p), (x[1] + y[1]) % 2
        ))),
    ),
    "2p2-E2-noncyclic": (
        lambda p, q: _p_p_2(p, (0, 1), 1, 1, 0),
        lambda p, q: _p_p_2(p, (0, 1), p - 1, p - 1, 0),
        lambda p, q: _p_p_2(p, (0, 1), 1, p - 1, 0),
        lambda p, q: _p_p_2(p, (0, 1), 1, 1, 1),
        lambda p, q: _p_p_2(p, (0, 1), 1, p - 1, 1),
    ),
    "2p2-Ep2": (
        lambda p, q: _p_p_2(p, (2,), 1, 1, 0),
        lambda p, q: _cyclic_pair(p * p, 2, (1,)),
        lambda p, q: _p_p_2(p, (2,), p - 1, p - 1, 0),
        lambda p, q: _p_p_2(p, (2,), p - 1, 1, 0),
        lambda p, q: _cyclic_pair(p * p, 2, (1,), p * p - 1),
    ),
}


EXPECTED_E_SIZE = {
    "pq-noncongruent": lambda item, p, q: {1: p * q, 2: p * q, 3: p * q, 4: q, 5: p, 6: p}[item],
    "pq-congruent": lambda item, p, q: {1: p * q, 2: p * q, 3: q, 4: p, 5: q, 6: p}[item],
    "2p2-E2-cyclic": lambda item, p, q: 2,
    "2p2-E2-noncyclic": lambda item, p, q: 2,
    "2p2-Ep2": lambda item, p, q: p * p,
}


def family(fid: FamilyId) -> SemiBrace:
    """The literal construction of one classification item, verified, with
    the stated idempotent-part size asserted.  Raises ParameterError unless
    `applicable_items` lists the item."""
    if fid not in applicable_items(fid.theorem, fid.p, fid.q):
        raise ParameterError(f"{fid.theorem} item {fid.item} does not apply at p={fid.p}, q={fid.q}")
    built = _BUILDERS[fid.theorem][fid.item - 1](fid.p, fid.q)
    want = EXPECTED_E_SIZE[fid.theorem](fid.item, fid.p, fid.q)
    if len(built.e_elements) != want:
        raise InternalInvariantError(
            f"{fid.theorem} item {fid.item}: |E|={len(built.e_elements)}, stated {want}"
        )
    return built


def applicable_items(theorem: str, p: int, q: Optional[int] = None) -> list[FamilyId]:
    """The FamilyIds of the theorem's items at these parameters, the one
    place that decides which items apply: a pq theorem applies where
    `theorems_for_order_pq` names it, and pq-noncongruent has items 1, 2 and
    6 when p = q, else 3, 4 and 5; a 2p^2 theorem needs p an odd prime.
    Raises ParameterError where the theorem does not apply."""
    FamilyId(theorem, 1, p, q)  # the tag, and whether it takes q
    if theorem in PQ_THEOREMS:
        if theorems_for_order_pq(p, q) != theorem:
            raise ParameterError(f"{theorem} does not apply at p={p}, q={q}")
    elif p == 2 or not is_prime(p):
        raise ParameterError(f"{theorem} requires an odd prime p")
    items = range(1, len(_BUILDERS[theorem]) + 1)
    if theorem == "pq-noncongruent":
        items = (1, 2, 6) if p == q else (3, 4, 5)
    return [FamilyId(theorem, i, p, q) for i in items]


def theorems_for_order_pq(p: int, q: int) -> str:
    """Which pq theorem applies at (p, q); parameters must be primes, q <= p."""
    if not (is_prime(p) and is_prime(q)):
        raise ParameterError("p and q must be prime")
    if q > p:
        raise ParameterError("parameters are ordered q <= p")
    return "pq-congruent" if (p != q and p % q == 1) else "pq-noncongruent"

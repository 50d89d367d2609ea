"""Named constructions: trivial structures, direct products (through
`core.semidirect`, which this module re-exports), size-p^2 skew braces,
Rump cyclic braces, and the classification families at orders pq and 2p^2
with E a Sylow subgroup.

Every constructor routes its tables through core.verify; nothing is trusted.
Family tables are written as literal coordinate formulas so they stay an
independent route from the semidirect-product composition used elsewhere.
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
    return verify(add, g.table)


def trivial_skewbrace(g: FiniteGroup) -> SemiBrace:
    """a + b := a o b; a skew brace with E = {0}."""
    return verify(g.table, g.table)


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
        add, circ = _tables_from_coords(
            (p, p),
            lambda x, y: ((x[0] + y[0]) % p, (x[1] + y[1]) % p),
            lambda x, y: ((x[0] + y[0] + x[1] * y[1]) % p, (x[1] + y[1]) % p),
        )
        return verify(add, circ)
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


THEOREM_ITEMS = {
    "pq-noncongruent": 6,
    "pq-congruent": 6,
    "2p2-E2-cyclic": 3,
    "2p2-E2-noncyclic": 5,
    "2p2-Ep2": 5,
}

PQ_THEOREMS = ("pq-noncongruent", "pq-congruent")
TWO_P2_THEOREMS = ("2p2-E2-cyclic", "2p2-E2-noncyclic", "2p2-Ep2")


@dataclass(frozen=True)
class FamilyId:
    theorem: str
    item: int
    p: int
    q: Optional[int] = None

    def __post_init__(self):
        if self.theorem not in THEOREM_ITEMS:
            raise ParameterError(f"unknown theorem tag {self.theorem!r}")
        if not 1 <= self.item <= THEOREM_ITEMS[self.theorem]:
            raise ParameterError(
                f"{self.theorem} has items 1..{THEOREM_ITEMS[self.theorem]}, got {self.item}"
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


def _tables_from_coords(sizes, add_fn, circ_fn):
    """Build tables over mixed-radix coordinates, most significant first.

    add_fn and circ_fn get x and y as tuples of coordinate arrays, x's as a
    column and y's as a row, and return the result's coordinates as arrays
    that broadcast to the n x n table."""
    coords = np.unravel_index(np.arange(int(np.prod(sizes))), sizes)
    x = tuple(c[:, None] for c in coords)
    y = tuple(c[None, :] for c in coords)
    n = coords[0].size

    def table(fn):
        parts = tuple(np.broadcast_to(v, (n, n)) for v in fn(x, y))
        return np.ravel_multi_index(parts, sizes)

    return table(add_fn), table(circ_fn)


def _family_pq_noncongruent(item: int, p: int, q: int) -> SemiBrace:
    if p % q == 1:
        raise ParameterError("pq-noncongruent requires p not congruent to 1 mod q")
    if item in (1, 2, 6) and p != q:
        raise ParameterError(f"item {item} needs p = q")
    if item in (3, 4, 5) and p == q:
        raise ParameterError(f"item {item} needs p != q")
    if item == 1:
        return trivial_semibrace(cyclic_group(p * q))
    if item == 2:
        add, circ = _tables_from_coords(
            (p, p),
            lambda x, y: y,
            lambda x, y: ((x[0] + y[0]) % p, (x[1] + y[1]) % p),
        )
        return verify(add, circ)
    if item == 3:
        add, circ = _tables_from_coords(
            (p, q),
            lambda x, y: y,
            lambda x, y: ((x[0] + y[0]) % p, (x[1] + y[1]) % q),
        )
        return verify(add, circ)
    if item == 4:
        add, circ = _tables_from_coords(
            (p, q),
            lambda x, y: ((x[0] + y[0]) % p, y[1]),
            lambda x, y: ((x[0] + y[0]) % p, (x[1] + y[1]) % q),
        )
        return verify(add, circ)
    if item == 5:
        add, circ = _tables_from_coords(
            (q, p),
            lambda x, y: ((x[0] + y[0]) % q, y[1]),
            lambda x, y: ((x[0] + y[0]) % q, (x[1] + y[1]) % p),
        )
        return verify(add, circ)
    add, circ = _tables_from_coords(
        (p, p),
        lambda x, y: ((x[0] + y[0]) % p, y[1]),
        lambda x, y: ((x[0] + y[0]) % p, (x[1] + y[1]) % p),
    )
    return verify(add, circ)


def _family_pq_congruent(item: int, p: int, q: int) -> SemiBrace:
    if p == q or p % q != 1:
        raise ParameterError("pq-congruent requires p congruent to 1 mod q with p != q")
    u = smallest_unit_of_order(p, q)
    upow = np.array([pow(u, k, p) for k in range(q)])  # upow[k] = u^k mod p
    if item == 1:
        add, circ = _tables_from_coords(
            (p, q),
            lambda x, y: y,
            lambda x, y: ((x[0] + upow[x[1]] * y[0]) % p, (x[1] + y[1]) % q),
        )
        return verify(add, circ)
    if item == 2:
        add, circ = _tables_from_coords(
            (p, q),
            lambda x, y: y,
            lambda x, y: ((x[0] + y[0]) % p, (x[1] + y[1]) % q),
        )
        return verify(add, circ)
    if item == 3:
        add, circ = _tables_from_coords(
            (p, q),
            lambda x, y: ((x[0] + y[0]) % p, y[1]),
            lambda x, y: ((x[0] + upow[x[1]] * y[0]) % p, (x[1] + y[1]) % q),
        )
        return verify(add, circ)
    if item == 4:
        add, circ = _tables_from_coords(
            (p, q),
            lambda x, y: (y[0], (x[1] + y[1]) % q),
            lambda x, y: ((x[0] + upow[x[1]] * y[0]) % p, (x[1] + y[1]) % q),
        )
        return verify(add, circ)
    if item == 5:
        add, circ = _tables_from_coords(
            (p, q),
            lambda x, y: ((x[0] + y[0]) % p, y[1]),
            lambda x, y: ((x[0] + y[0]) % p, (x[1] + y[1]) % q),
        )
        return verify(add, circ)
    add, circ = _tables_from_coords(
        (q, p),
        lambda x, y: ((x[0] + y[0]) % q, y[1]),
        lambda x, y: ((x[0] + y[0]) % q, (x[1] + y[1]) % p),
    )
    return verify(add, circ)


def _family_2p2_e2_cyclic(item: int, p: int) -> SemiBrace:
    p2 = p * p
    sign = np.array([1, p2 - 1])  # the order-2 automorphism of Z/p^2 is negation
    if item == 1:
        add, circ = _tables_from_coords(
            (p2, 2),
            lambda x, y: ((x[0] + y[0]) % p2, y[1]),
            lambda x, y: ((x[0] + sign[x[1]] * y[0]) % p2, (x[1] + y[1]) % 2),
        )
    elif item == 2:
        add, circ = _tables_from_coords(
            (p2, 2),
            lambda x, y: ((x[0] + y[0]) % p2, y[1]),
            lambda x, y: ((x[0] + y[0]) % p2, (x[1] + y[1]) % 2),
        )
    else:
        add, circ = _tables_from_coords(
            (p2, 2),
            lambda x, y: ((x[0] + y[0]) % p2, y[1]),
            lambda x, y: ((x[0] + y[0] + p * x[0] * y[0]) % p2, (x[1] + y[1]) % 2),
        )
    return verify(add, circ)


def _family_2p2_e2_noncyclic(item: int, p: int) -> SemiBrace:
    def add_fn(x, y):
        return ((x[0] + y[0]) % p, (x[1] + y[1]) % p, y[2])

    sgn = np.array([1, p - 1])
    if item == 1:
        circ_fn = lambda x, y: ((x[0] + y[0]) % p, (x[1] + y[1]) % p, (x[2] + y[2]) % 2)
    elif item == 2:
        circ_fn = lambda x, y: (
            (x[0] + sgn[x[2]] * y[0]) % p,
            (x[1] + sgn[x[2]] * y[1]) % p,
            (x[2] + y[2]) % 2,
        )
    elif item == 3:
        circ_fn = lambda x, y: (
            (x[0] + y[0]) % p,
            (x[1] + sgn[x[2]] * y[1]) % p,
            (x[2] + y[2]) % 2,
        )
    elif item == 4:
        circ_fn = lambda x, y: (
            (x[0] + y[0] + x[1] * y[1]) % p,
            (x[1] + y[1]) % p,
            (x[2] + y[2]) % 2,
        )
    else:
        circ_fn = lambda x, y: (
            (x[0] + y[0] + sgn[x[2]] * x[1] * y[1]) % p,
            (x[1] + sgn[x[2]] * y[1]) % p,
            (x[2] + y[2]) % 2,
        )
    add, circ = _tables_from_coords((p, p, 2), add_fn, circ_fn)
    return verify(add, circ)


def _family_2p2_ep2(item: int, p: int) -> SemiBrace:
    p2 = p * p
    sgn2 = np.array([1, p2 - 1])
    sgn = np.array([1, p - 1])
    if item in (1, 3, 4):
        def add_fn(x, y):
            return (y[0], y[1], (x[2] + y[2]) % 2)

        if item == 1:
            circ_fn = lambda x, y: ((x[0] + y[0]) % p, (x[1] + y[1]) % p, (x[2] + y[2]) % 2)
        elif item == 3:
            circ_fn = lambda x, y: (
                (x[0] + sgn[x[2]] * y[0]) % p,
                (x[1] + sgn[x[2]] * y[1]) % p,
                (x[2] + y[2]) % 2,
            )
        else:
            circ_fn = lambda x, y: (
                (x[0] + sgn[x[2]] * y[0]) % p,
                (x[1] + y[1]) % p,
                (x[2] + y[2]) % 2,
            )
        add, circ = _tables_from_coords((p, p, 2), add_fn, circ_fn)
    else:
        def add_fn(x, y):
            return (y[0], (x[1] + y[1]) % 2)

        if item == 2:
            circ_fn = lambda x, y: ((x[0] + y[0]) % p2, (x[1] + y[1]) % 2)
        else:
            circ_fn = lambda x, y: ((x[0] + sgn2[x[1]] * y[0]) % p2, (x[1] + y[1]) % 2)
        add, circ = _tables_from_coords((p2, 2), add_fn, circ_fn)
    return verify(add, circ)


EXPECTED_E_SIZE = {
    "pq-noncongruent": lambda item, p, q: {1: p * q, 2: p * q, 3: p * q, 4: q, 5: p, 6: p}[item],
    "pq-congruent": lambda item, p, q: {1: p * q, 2: p * q, 3: q, 4: p, 5: q, 6: p}[item],
    "2p2-E2-cyclic": lambda item, p, q: 2,
    "2p2-E2-noncyclic": lambda item, p, q: 2,
    "2p2-Ep2": lambda item, p, q: p * p,
}


def family(fid: FamilyId) -> SemiBrace:
    """The literal construction of one classification item, verified, with
    the stated idempotent-part size asserted."""
    p, q = fid.p, fid.q
    if not is_prime(p):
        raise ParameterError(f"p={p} is not prime")
    if fid.theorem in PQ_THEOREMS:
        if not is_prime(q):
            raise ParameterError(f"q={q} is not prime")
        if q > p:
            raise ParameterError("parameters are ordered q <= p")
        built = (
            _family_pq_noncongruent(fid.item, p, q)
            if fid.theorem == "pq-noncongruent"
            else _family_pq_congruent(fid.item, p, q)
        )
    else:
        if p == 2:
            raise ParameterError(f"{fid.theorem} requires an odd prime p")
        built = {
            "2p2-E2-cyclic": _family_2p2_e2_cyclic,
            "2p2-E2-noncyclic": _family_2p2_e2_noncyclic,
            "2p2-Ep2": _family_2p2_ep2,
        }[fid.theorem](fid.item, p)
    want = EXPECTED_E_SIZE[fid.theorem](fid.item, p, q)
    if len(built.e_elements) != want:
        raise InternalInvariantError(
            f"{fid.theorem} item {fid.item}: |E|={len(built.e_elements)}, stated {want}"
        )
    return built


def applicable_items(theorem: str, p: int, q: Optional[int] = None) -> list[FamilyId]:
    """The FamilyIds of the theorem's items valid at these parameters."""
    if theorem not in THEOREM_ITEMS:
        raise ParameterError(f"unknown theorem tag {theorem!r}")
    if theorem == "pq-noncongruent":
        items = (1, 2, 6) if p == q else (3, 4, 5)
    else:
        items = tuple(range(1, THEOREM_ITEMS[theorem] + 1))
    return [FamilyId(theorem, i, p, q) for i in items]


def theorems_for_order_pq(p: int, q: int) -> str:
    """Which pq theorem applies at (p, q); parameters must be primes, q <= p."""
    if not (is_prime(p) and is_prime(q)):
        raise ParameterError("p and q must be prime")
    if q > p:
        raise ParameterError("parameters are ordered q <= p")
    return "pq-congruent" if (p != q and p % q == 1) else "pq-noncongruent"

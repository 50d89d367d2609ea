"""The dot product a.b = lambda_a(a') + a o b + lambda_b(b'), the derived
chains, per-element nil orbits, and the socle of a skew brace.

Right chain: B(1) = B, B(n+1) = B(n).B + E.
Left chain:  B1 = B,   B{n+1} = B.Bn + E.
A semi-brace is right (left) nilpotent when some chain member equals E.
Chains are driven to the first repeat; the successor map is deterministic,
so a repeat proves the chain cycles without reaching E.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

import numpy as np

from .core import InternalInvariantError, SemiBrace, decompose
from .tables import _reach


class NotASkewBraceError(ValueError):
    """The socle is only defined here for skew braces (|E| = 1)."""


class SeriesReport(NamedTuple):
    kind: str  # "right" or "left"
    chain: tuple[tuple[int, ...], ...]
    verdict: str
    nil_orders: tuple[Optional[int], ...]

    @property
    def nilpotent(self) -> bool:
        return self.verdict.startswith("nilpotent")

    @property
    def nilpotency_index(self) -> Optional[int]:
        return int(self.verdict.rsplit(" ", 1)[1]) if self.nilpotent else None

    @property
    def is_nil(self) -> bool:
        return all(o is not None for o in self.nil_orders)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "chain": [list(c) for c in self.chain],
            "verdict": self.verdict,
            "nil_orders": list(self.nil_orders),
        }


def dot_table(b: SemiBrace) -> np.ndarray:
    """All dot products at once; asserts the image lies in G."""
    n = b.n
    add = b.add.table
    t1 = b.lam[np.arange(n), b.circ.inverse]  # t1[x] = lambda_x(x')
    d = add[add[t1[:, None], b.circ.table], t1[None, :]]
    in_g = np.zeros(n, dtype=bool)
    in_g[list(b.g_elements)] = True
    if not in_g[d].all():
        raise InternalInvariantError("dot product escaped G")
    return d


def set_dot_plus_E(b: SemiBrace, xs: Iterable[int], ys: Iterable[int]) -> tuple[int, ...]:
    """(X.Y) + E: the additive subgroup of (G,+) generated by the dots,
    summed elementwise with the idempotents.  The dots lie in the finite
    group (G,+) with identity 0, so the subgroup is the monoid they
    generate: the sums reached from 0 by adding dots on the right."""
    return _dot_plus_E(b, dot_table(b), xs, ys)


def _dot_plus_E(
    b: SemiBrace, d: np.ndarray, xs: Iterable[int], ys: Iterable[int]
) -> tuple[int, ...]:
    """`set_dot_plus_E` with the dot table d of b given."""
    dots = d[np.ix_(sorted(set(xs)), sorted(set(ys)))].ravel()
    dots = np.flatnonzero(np.bincount(dots, minlength=b.n))
    add = b.add.table
    members: set[int] = set()
    _reach(add.T[dots].tolist(), [0], members)
    sums = add[np.ix_(sorted(members), b.e_elements)].ravel()
    return tuple(np.flatnonzero(np.bincount(sums, minlength=b.n)).tolist())


def _nil_orders(d: np.ndarray, side: str) -> tuple[Optional[int], ...]:
    """Per element x, the least k with x^(k) = 0, where x^(1) = x and
    x^(k+1) = x^(k).x (right) or x.x^(k) (left) in the dot table d; None if
    the sequence repeats first.  x^(k+1) depends on x^(k) alone, so once a
    term repeats the sequence cycles through terms already seen: a first 0
    comes before the first repeat, at k <= n.  So n vector steps x^(k+1) =
    step[x, x^(k)] over every x at once decide it, with step = d.T (right)
    or d (left); they stop early once every x has reached 0."""
    n = d.shape[0]
    step = d.T if side == "right" else d
    orders = np.zeros(n, dtype=np.int64)
    cur, xs = np.arange(n), np.arange(n)
    for k in range(1, n + 1):
        orders[(cur == 0) & (orders == 0)] = k
        if orders.all():
            break
        cur = step[xs, cur]
    return tuple(int(k) if k else None for k in orders.tolist())


def _series(b: SemiBrace, side: str) -> SeriesReport:
    d = dot_table(b)
    e_set = tuple(sorted(b.e_elements))
    whole = tuple(range(b.n))
    chain = [whole]
    seen = {whole}
    verdict = "cycles without reaching E"
    while True:
        current = chain[-1]
        nxt = (
            _dot_plus_E(b, d, current, whole)
            if side == "right"
            else _dot_plus_E(b, d, whole, current)
        )
        if nxt == e_set:
            chain.append(nxt)
            verdict = f"nilpotent at {len(chain)}"
            break
        if nxt in seen:
            break
        chain.append(nxt)
        seen.add(nxt)
    return SeriesReport(
        kind=side, chain=tuple(chain), verdict=verdict, nil_orders=_nil_orders(d, side)
    )


def right_series(b: SemiBrace) -> SeriesReport:
    return _series(b, "right")


def left_series(b: SemiBrace) -> SeriesReport:
    return _series(b, "left")


def is_right_nil(b: SemiBrace) -> tuple[bool, tuple[Optional[int], ...]]:
    orders = _nil_orders(dot_table(b), "right")
    return all(o is not None for o in orders), orders


def is_left_nil(b: SemiBrace) -> tuple[bool, tuple[Optional[int], ...]]:
    orders = _nil_orders(dot_table(b), "left")
    return all(o is not None for o in orders), orders


def socle(b: SemiBrace) -> tuple[tuple[int, ...], int]:
    """{a : lambda_a = id and a + x = x + a for all x} with its index in B.

    Only for skew braces; for abelian addition this is the kernel of lambda."""
    if len(b.e_elements) != 1:
        raise NotASkewBraceError("socle requires a skew brace (a single idempotent)")
    n = b.n
    ident = np.arange(n)
    add = b.add.table
    elems = tuple(
        a for a in range(n)
        if np.array_equal(b.lam[a], ident) and np.array_equal(add[a], add[:, a])
    )
    if n % len(elems) != 0:
        raise InternalInvariantError("socle size does not divide the order")
    return elems, n // len(elems)


class Rnilp1Report(NamedTuple):
    """Both sides of the right-nilpotency criterion for decomposable semi-braces,
    computed independently: the chain verdict versus (alpha trivial and the
    skew brace part right nilpotent)."""

    series_side: bool
    structural_side: bool

    @property
    def agree(self) -> bool:
        return self.series_side == self.structural_side


def check_rnilp1(b: SemiBrace) -> Rnilp1Report:
    data = decompose(b)
    if data is None:
        raise ValueError("not decomposable: the skew part is not the kernel of lambda on E")
    series_side = right_series(b).nilpotent
    alpha_trivial = bool((data.alpha == np.arange(data.alpha.shape[1])).all())
    structural_side = alpha_trivial and right_series(data.brace).nilpotent
    return Rnilp1Report(series_side=series_side, structural_side=structural_side)

"""The set-theoretic Yang-Baxter map r(x, y) = (lambda_x(y), rho_y(x))
induced by a semi-brace, with braid-relation and property checks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import SemiBrace
from .tables import MalformedTableError


@dataclass(frozen=True)
class SolutionMap:
    """A total map r on pairs: r[x, y] = (r[x, y, 0], r[x, y, 1])."""

    n: int
    r: np.ndarray  # shape (n, n, 2)

    @classmethod
    def of(cls, r) -> "SolutionMap":
        arr = np.asarray(r, dtype=np.int64)
        if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] != 2:
            raise MalformedTableError("solution map must have shape (n, n, 2)")
        n = arr.shape[0]
        if n == 0 or arr.min() < 0 or arr.max() >= n:
            raise MalformedTableError("solution entries out of range")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        return cls(n=n, r=arr)

    def apply(self, x: int, y: int) -> tuple[int, int]:
        return int(self.r[x, y, 0]), int(self.r[x, y, 1])

    def to_json(self) -> dict:
        return {"n": self.n, "r": self.r.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "SolutionMap":
        if not isinstance(obj, dict) or not {"n", "r"} <= set(obj):
            raise MalformedTableError("solution JSON needs keys n and r")
        s = cls.of(obj["r"])
        if s.n != obj["n"]:
            raise MalformedTableError("solution size mismatch")
        return s


def solution_from(b: SemiBrace) -> SolutionMap:
    """r(x, y) = (lambda_x(y), rho_y(x)) from the verified tables."""
    n = b.n
    lam = b.lam
    inv = b.circ.inverse
    t = b.add.table[inv]  # t[x, y] = x' + y
    rho = b.circ.table[inv[t], np.arange(n)[None, :]]  # (x' + y)' o y
    return SolutionMap.of(np.stack([lam, rho], axis=-1))


# Triples (x, y, z) per block of consecutive x.  Up to n = 256 a block's
# int64 arrays are at most 0.5 MB each and its working memory stays under
# 4 MB (3.4 MB by tracemalloc at n = 242), so a block stays in cache; above
# that a block is one x and grows with n^2.
BRAID_SLAB = 1 << 16


def check_braid(s: SolutionMap) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """(r x id)(id x r)(r x id) = (id x r)(r x id)(id x r) on all triples;
    returns the first failing (x, y, z) lexicographically, if any.

    The triples are scanned in blocks of consecutive x, each at most
    BRAID_SLAB triples (one x at least).  With v = b(x, y), the rows a(v, .)
    and b(v, .) are whole-row copies; the other lookups are flat `take`s
    through three index arrays, each read for both components."""
    n = s.n
    a, bb = s.r[:, :, 0].ravel(), s.r[:, :, 1].ravel()  # a[x * n + y] = a(x, y)
    a2, b2 = a.reshape(n, n), bb.reshape(n, n)
    rows = max(1, BRAID_SLAB // (n * n))
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


@dataclass(frozen=True)
class SolutionProperties:
    left_nondegenerate: bool
    nondegenerate: bool
    bijective: bool
    involutive: bool

    def to_json(self) -> dict:
        return {
            "left_nondegenerate": self.left_nondegenerate,
            "nondegenerate": self.nondegenerate,
            "bijective": self.bijective,
            "involutive": self.involutive,
        }


def _injective(table: np.ndarray, axis: int) -> bool:
    """Whether every row (axis=1) or column (axis=0) has distinct entries."""
    ordered = np.sort(table, axis=axis)
    return not np.any(np.diff(ordered, axis=axis) == 0)


def check_properties(s: SolutionMap) -> SolutionProperties:
    n = s.n
    a = s.r[:, :, 0]
    bb = s.r[:, :, 1]
    left = _injective(a, axis=1)
    right = _injective(bb, axis=0)
    pairs = a.astype(np.int64) * n + bb
    bij = bool(np.bincount(pairs.ravel(), minlength=n * n).all())
    inv = bool(
        np.array_equal(a[a, bb], np.arange(n)[:, None].repeat(n, axis=1))
        and np.array_equal(bb[a, bb], np.tile(np.arange(n), (n, 1)))
    )
    return SolutionProperties(
        left_nondegenerate=left, nondegenerate=left and right, bijective=bij, involutive=inv
    )

"""The set-theoretic Yang-Baxter map r(x, y) = (lambda_x(y), rho_y(x))
induced by a semi-brace, with braid-relation and property checks."""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .core import SemiBrace
from .tables import MalformedTableError, _freeze


class SolutionMap(NamedTuple):
    """A total map r on pairs: r[x, y] = (r[x, y, 0], r[x, y, 1])."""

    n: int
    r: np.ndarray  # shape (n, n, 2)

    @classmethod
    def of(cls, r) -> "SolutionMap":
        try:
            arr = np.asarray(r)
        except ValueError as err:  # ragged input: numpy's inhomogeneous shape
            raise MalformedTableError(f"solution map is ragged ({err})") from err
        if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] != 2:
            raise MalformedTableError("solution map must have shape (n, n, 2)")
        if not np.issubdtype(arr.dtype, np.integer):
            raise MalformedTableError("solution entries must be integers")
        n = arr.shape[0]
        if n == 0 or arr.min() < 0 or arr.max() >= n:
            raise MalformedTableError("solution entries out of range")
        return cls(n=n, r=_freeze(arr.copy()))

    def to_json(self) -> dict:
        return {"n": self.n, "r": self.r.tolist()}


def solution_from(b: SemiBrace) -> SolutionMap:
    """r(x, y) = (lambda_x(y), rho_y(x)) from the verified tables."""
    n = b.n
    lam = b.lam
    inv = b.circ.inverse
    t = b.add.table[inv]  # t[x, y] = x' + y
    rho = b.circ.table[inv[t], np.arange(n)[None, :]]  # (x' + y)' o y
    return SolutionMap.of(np.stack([lam, rho], axis=-1))


# Triples (x, y, z) per block of consecutive x.  check_braid allocates the
# block's work arrays once per call: four word arrays and two intp arrays
# of at most BRAID_SLAB entries each, 1.5 MB in all with the 16-bit words of
# n <= 256, so up to n = 256 a block stays in cache; above that a block is
# one x and its arrays grow with n^2.
BRAID_SLAB = 1 << 16


def check_braid(s: SolutionMap) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """(r x id)(id x r)(r x id) = (id x r)(r x id)(id x r) on all triples;
    returns the first failing (x, y, z) lexicographically, if any.

    r is packed into one table of words p(x, y) = a(x, y) | b(x, y) << h:
    16-bit words with h = 8 when n <= 256, else 32-bit words with h = 16,
    which is exact for n < 2^16 (above that r alone would take 64 GB, so a
    MemoryError is raised).  The triples are scanned in blocks of
    consecutive x, each at most BRAID_SLAB triples (one x at least).  With
    u, v = r(x, y), a block gathers both sides' last steps as whole words:
    p(u, a(v, z)), at u n + a(v, z) with a(v, z) from the rows a(v, .),
    and p(b(x, a(y, z)), b(y, z)), from the copied rows p(b(x, w), .) at
    the index a(y, z) n + b(y, z), which is the same for every x.  The
    braid relation holds at (x, y, z) exactly when the low half of the
    first word is a(x, a(y, z)), gathered from x's row a(x, .), and its
    high half with b(v, z) << h, from the rows of b << h, makes the second.

    The block's arrays are allocated once and refilled in place, since
    fresh ones would page-fault on every block.  The gathers use
    mode="clip", which writes into `out` without numpy's buffered copy;
    it never moves an index, because SolutionMap.of keeps every entry in
    range(n) and so every index in range(rows * n * n)."""
    n = s.n
    if n >= 1 << 16:
        raise MemoryError(f"braid check: n = {n} is at least 2^16")
    word, h = (np.uint16, 8) if n <= 256 else (np.uint32, 16)
    a = s.r[:, :, 0].astype(np.intp)
    b = s.r[:, :, 1]
    a_w, b_h = a.astype(word), b.astype(word) << h
    p = a_w | b_h
    a_n = a * n  # a(x, y) n, the row offset of p(a(x, y), .)
    rows = min(n, max(1, BRAID_SLAB // (n * n)))
    # index of p(b(x, a(y, z)), b(y, z)) in the rows copied for block row x
    ab = (a_n + b) + np.arange(0, rows * n * n, n * n)[:, None, None]
    buffers = [np.empty((rows, n, n), dtype=t) for t in (word,) * 4 + (np.intp,)]
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        # arrays indexed [x - start, y, z], copied rows [x - start, w, t]
        left, right, first, copy, i = (buf[: stop - start] for buf in buffers)
        v = b[start:stop]
        np.take(a, v, axis=0, out=i, mode="clip")  # a(v, z)
        i += a_n[start:stop, :, None]
        np.take(p, i, out=left, mode="clip")  # p(u, a(v, z))
        np.take(p, v, axis=0, out=copy, mode="clip")  # p(b(x, w), t)
        np.take(copy, ab[: stop - start], out=right, mode="clip")  # p(b(x, a(y, z)), b(y, z))
        np.take(a_w[start:stop], a, axis=1, out=first, mode="clip")  # a(x, a(y, z))
        np.take(b_h, v, axis=0, out=copy, mode="clip")  # b(v, z) << h
        first ^= left
        first <<= h  # nonzero where the first components differ
        left >>= h
        left |= copy  # b(u, a(v, z)) | b(v, z) << h
        left ^= right
        left |= first
        if left.any():
            x, y, z = (int(t) for t in np.argwhere(left)[0])
            return False, (start + x, y, z)
    return True, None


class SolutionProperties(NamedTuple):
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

"""Print, as one JSON object, hashes of the outputs that a change to the
checking, search or deduplication code must leave unchanged.

Each hash is the first 16 hex digits of the sha256 of
`json.dumps(value, sort_keys=True)`:

* censuses: value `[[entry.semibrace.to_json(), entry.provenance], ...]`;
* `verify_classification` reports for the benchmark's six classify cases:
  value `report.to_json()`;
* the `isomorphic` witness between the benchmark's two seeded relabellings
  (seed 1) of `2p2-E2-cyclic`[3] at p = 7, n = 98: value the image list;
* iso_witnesses, over the benchmark's six classify cases in turn: value
  the `isomorphic` witness (image list) from each family of the case onto
  its copy relabelled by `workloads.relabel_perm` with seed 1, followed by
  `isomorphic` (None) on each pair of distinct families of the case;
* nilpotency, over every class of `enumerate_generic(8)` and then every 2p^2
  family at p = 5: value `[[right.to_json(), left.to_json(), [nil,
  orders]], ...]` with the right and left series and `is_right_nil`;
* decompositions, over the same structures: value, for `decompose` and
  then `decompose_E_ideal` of each, `[direction, alpha, witness, product
  add, product circ]` as lists, or None where the decomposition does not
  exist;
* decompositions_pq, over every family of every pq theorem at the
  PQ_ORDERS parameters (54 families): the same value as decompositions;
* structure, over the decompositions structures and then the
  decompositions_pq families (131 structures): value, for each b,
  `[kernel_lambda_on_E(b), is_normal_subset(b.circ, E), the table of
  idempotents(b).group, [is_ideal(b, s) for s in S], [[*additive_decomposition(b, x),
  *factorize(b, x)] for x in range(n)]]` as lists, with S the subsets
  (0,), range(n), E, G and the kernel, and then, when n <= 12, the
  elements of every subgroup in `subgroups(b.circ)`;
* braid, over every family at p = 5 (pq-congruent at q = 2, pq-noncongruent
  at q = 3 and 5, every 2p^2 theorem) and then every class of
  `enumerate_generic(8)`: value the `[holds, witness]` of `check_braid` on
  each solution, followed by the same for one seeded single-cell
  corruption of each (entry (x, y, k) moved by a nonzero shift mod n);
  then the whole list again with `ybe.BRAID_SLAB = 1`, so that each x is
  a block of its own and the witnesses (x = 0, 1, 2 and 4, from all three
  components of the braid relation) come from several blocks;
* braid_large, over the benchmark's five large structures (n = 155 to
  242) relabelled as by `workloads.relabel_perm` with seed 1: value the
  `[holds, witness]` of `check_braid` on each solution, followed by the
  same for one seeded single-cell corruption of each;
* group reports: value `[[is_group, identity, failure, inverses], ...]` of
  `check_group` on every catalogue group of order at most 10 followed by
  every single-cell corruption of it (entry (i, j) moved by each nonzero
  shift mod n), then on the circle tables of `2p2-E2-noncyclic`[5] at
  p = 5 and 7 (n = 50 and 98) with every GROUP_STRIDE-th cell k = i n + j
  moved by 1 + k mod (n - 1);
* brace_automorphisms, over the catalogue skew braces of every order from 1
  to 49 that `skew_braces` takes, then the G parts (`skew_part`) of every
  2p^2 family at p = 3, 5 and 7: value the sorted rows of
  `brace_automorphism_group` of each.

The `small_groups` hash is taken over the concatenated `key()` bytes of the
catalogue groups of the orders in SMALL_GROUP_ORDERS instead, and the
`small_groups n=49` hash over those of order 49, the `families` hash over
the add bytes and then the circ bytes, as int64, of every family of
`applicable_items(theorems_for_order_pq(p, q), p, q)` over PQ_ORDERS and
then, for p = 3, 5 and 7 in turn, of every 2p^2 theorem (93 families), and
the `survivors` hash over the concatenated bytes of the `_survivor_tables` of
every catalogue group of order 1 to 15, under (emin, esylow) = (1, off) and then (2, on).
It reaches orders 11 to 15, which `enumerate_generic` does not.  The order-8 funnel
gives the counts of the generic sweep: survivor tables, summed over the
five circle groups, and census classes.  The structural funnel gives, at
n = 18 and 50 with the Sylow filter, the counts of the structural census:
action homomorphisms listed, products built, and census classes.

Run from the repository root; it takes about 5 s:

    PYTHONPATH=src python3 scripts/output_hashes.py
"""

import hashlib
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402  (the benchmark's cases and relabellings)

from semibrace import classify, ybe  # noqa: E402
from semibrace.classify import (  # noqa: E402
    SUPPORTED_GROUP_ORDERS,
    _structural_e_sizes,
    _survivor_tables,
    enumerate_generic,
    enumerate_structural,
    isomorphic,
    skew_braces,
    small_groups,
    verify_classification,
)
from semibrace.construct import (  # noqa: E402
    TWO_P2_THEOREMS,
    FamilyId,
    applicable_items,
    family,
    theorems_for_order_pq,
)
from semibrace.core import (  # noqa: E402
    ParameterError,
    additive_decomposition,
    brace_automorphism_group,
    decompose,
    decompose_E_ideal,
    factorize,
    idempotents,
    is_ideal,
    kernel_lambda_on_E,
    semibrace_from_json,
    skew_part,
)
from semibrace.nilpotency import is_right_nil, left_series, right_series  # noqa: E402
from semibrace.tables import CayleyTable, check_group, is_normal_subset, subgroups  # noqa: E402
from semibrace.ybe import SolutionMap, check_braid, solution_from  # noqa: E402


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def json_hash(value) -> str:
    return digest(json.dumps(value, sort_keys=True).encode())


def census_hash(entries) -> str:
    return json_hash([[e.semibrace.to_json(), e.provenance] for e in entries])


def iso_witness_hash(seed: int = 1) -> str:
    files = []
    for name in ("iso98a.json", "iso98b.json"):
        theorem, item, p = workloads.CLI_FILES[name]
        tables = family(FamilyId(theorem, item, p)).to_json()
        perm = workloads.relabel_perm(seed, name, tables["n"])
        files.append(semibrace_from_json(workloads.relabel_tables(tables, perm)))
    return json_hash(isomorphic(*files).tolist())


def iso_witnesses_hash(seed: int = 1) -> str:
    value = []
    for theorem, p, q, _ in workloads.CLASSIFY_CASES:
        tags = TWO_P2_THEOREMS if theorem == "2p2" else (theorem,)
        fids = [fid for tag in tags for fid in applicable_items(tag, p, q)]
        fams = [family(fid) for fid in fids]
        for fid, b in zip(fids, fams):
            copy = b.relabel(workloads.relabel_perm(seed, f"{fid.theorem}[{fid.item}] p={p} q={q}", b.n))
            value.append(isomorphic(b, copy).tolist())
        for i, b in enumerate(fams):
            value += [isomorphic(b, other) for other in fams[i + 1:]]
    return json_hash(value)


def _series_structures() -> list:
    """Every class of `enumerate_generic(8)`, then every 2p^2 family at p = 5."""
    structures = [e.semibrace for e in enumerate_generic(8)]
    return structures + [family(fid) for t in TWO_P2_THEOREMS for fid in applicable_items(t, 5)]


def nilpotency_hash() -> str:
    return json_hash([
        [right_series(b).to_json(), left_series(b).to_json(), is_right_nil(b)]
        for b in _series_structures()
    ])


PQ_ORDERS = ((2, 2), (3, 2), (3, 3), (5, 2), (5, 3), (5, 5), (7, 2), (7, 3), (7, 5), (7, 7),
             (11, 2), (13, 3))


def _pq_structures() -> list:
    """Every family of `applicable_items(theorems_for_order_pq(p, q), p, q)`
    over PQ_ORDERS."""
    return [family(fid) for p, q in PQ_ORDERS
            for fid in applicable_items(theorems_for_order_pq(p, q), p, q)]


def families_hash() -> str:
    structures = _pq_structures() + [family(fid) for p in (3, 5, 7) for t in TWO_P2_THEOREMS
                                     for fid in applicable_items(t, p)]
    return digest(b"".join(table.astype("int64").tobytes()
                           for b in structures for table in (b.add.table, b.circ.table)))


def decompositions_hash(structures: list) -> str:
    def value(data):
        if data is None:
            return None
        return [data.direction, data.alpha.tolist(), data.witness.tolist(),
                data.product.add.table.tolist(), data.product.circ.table.tolist()]

    return json_hash([
        value(split(b)) for b in structures for split in (decompose, decompose_E_ideal)
    ])


def structure_hash(structures: list) -> str:
    def value(b):
        kernel = kernel_lambda_on_E(b)
        subsets = [(0,), range(b.n), b.e_elements, b.g_elements, kernel]
        if b.n <= 12:
            subsets += [s.elements for s in subgroups(b.circ)]
        return [list(kernel), is_normal_subset(b.circ, b.e_elements),
                idempotents(b).group.table.tolist(),
                [list(is_ideal(b, s)) for s in subsets],
                [[*additive_decomposition(b, x), *factorize(b, x)] for x in range(b.n)]]

    return json_hash([value(b) for b in structures])


def _with_corruptions(solutions: list, seed: int) -> list:
    """The solutions, then one seeded single-cell corruption of each:
    entry (x, y, k) moved by a nonzero shift mod n."""
    rng = random.Random(seed)
    out = list(solutions)
    for s in solutions:
        n = s.n
        r = s.r.copy()
        x, y, k = rng.randrange(n), rng.randrange(n), rng.randrange(2)
        r[x, y, k] = (r[x, y, k] + rng.randrange(1, n)) % n
        out.append(SolutionMap.of(r))
    return out


def braid_hash(seed: int = 1) -> str:
    params = [("pq-congruent", 5, 2), ("pq-noncongruent", 5, 3), ("pq-noncongruent", 5, 5)]
    params += [(t, 5, None) for t in TWO_P2_THEOREMS]
    structures = [family(fid) for t, p, q in params for fid in applicable_items(t, p, q)]
    structures += [e.semibrace for e in enumerate_generic(8)]
    solutions = _with_corruptions([solution_from(b) for b in structures], seed)
    value = [check_braid(s) for s in solutions]
    slab, ybe.BRAID_SLAB = ybe.BRAID_SLAB, 1
    try:
        value += [check_braid(s) for s in solutions]
    finally:
        ybe.BRAID_SLAB = slab
    return json_hash(value)


def braid_large_hash(seed: int = 1) -> str:
    solutions = []
    for args, _ in workloads.LARGE_ITEMS:
        tables = family(FamilyId(*args)).to_json()
        perm = workloads.relabel_perm(seed, str(args), tables["n"])
        solutions.append(solution_from(semibrace_from_json(workloads.relabel_tables(tables, perm))))
    return json_hash([check_braid(s) for s in _with_corruptions(solutions, seed)])


def brace_automorphisms_hash() -> str:
    braces = []
    for m in range(1, 50):
        try:
            braces += skew_braces(m)
        except ParameterError:  # no catalogue at this order
            pass
    braces += [skew_part(family(fid)).semibrace for p in (3, 5, 7) for t in TWO_P2_THEOREMS
               for fid in applicable_items(t, p)]
    return json_hash([sorted(brace_automorphism_group(b).tolist()) for b in braces])


GROUP_STRIDE = 53


def _moved(table, i: int, j: int, shift: int) -> CayleyTable:
    out = table.copy()
    out[i, j] = (out[i, j] + shift) % table.shape[0]
    return CayleyTable.of(out)


def group_reports_hash() -> str:
    tables = []
    for g in [g for n in sorted(SUPPORTED_GROUP_ORDERS) if n <= 10 for g in small_groups(n)]:
        n = g.n
        tables.append(g.op)
        tables += [_moved(g.table, i, j, shift)
                   for i in range(n) for j in range(n) for shift in range(1, n)]
    for p in (5, 7):
        circ = family(FamilyId("2p2-E2-noncyclic", 5, p)).circ.table
        n = circ.shape[0]
        tables += [_moved(circ, *divmod(k, n), 1 + k % (n - 1))
                   for k in range(0, n * n, GROUP_STRIDE)]
    reports = [check_group(t) for t in tables]
    return json_hash([
        [r.is_group, r.identity, r.failure, None if r.inverses is None else r.inverses.tolist()]
        for r in reports
    ])


def survivors_hash() -> str:
    return digest(b"".join(
        table.tobytes()
        for n in range(1, 16) for circ in small_groups(n)
        for emin, esylow in ((1, False), (2, True))
        for table in _survivor_tables(circ, emin, esylow)
    ))


def funnel(n: int = 8) -> list[int]:
    survivors = sum(len(_survivor_tables(circ, 1, False)) for circ in small_groups(n))
    return [survivors, len(enumerate_generic(n))]


def structural_funnel(n: int) -> list[int]:
    """[action homomorphisms, products built, classes] of
    `enumerate_structural(n, esylow=True)`, counted by wrapping the names
    `classify` calls; the group catalogue is built first, so that only the
    census's own `homomorphisms` calls are counted."""
    for e in _structural_e_sizes(n, 2, True):
        small_groups(e)
    homs, built = [], []
    listing, building = classify.homomorphisms, classify.semidirect
    classify.homomorphisms = lambda *args: homs.append(listing(*args)) or homs[-1]
    classify.semidirect = lambda *args: built.append(building(*args)) or built[-1]
    try:
        classes = len(enumerate_structural(n, esylow=True))
    finally:
        classify.homomorphisms, classify.semidirect = listing, building
    return [sum(map(len, homs)), len(built), classes]


# The catalogue orders of the `small_groups` key, fixed so that a new order
# gets a key of its own and leaves this one as it was.
SMALL_GROUP_ORDERS = (*range(1, 21), 25, 27, 50)


def main() -> int:
    out = {
        "enumerate_generic": {
            **{f"n={n}": census_hash(enumerate_generic(n)) for n in (4, 6, 8, 9, 10)},
            **{f"n={n} emin=2": census_hash(enumerate_generic(n, emin=2)) for n in (9, 10)},
        },
        "enumerate_structural": {
            **{f"n={n}": census_hash(enumerate_structural(n)) for n in (4, 6, 14, 15)},
            **{f"n={n} esylow": census_hash(enumerate_structural(n, esylow=True))
               for n in (18, 50)},
        },
        "structural_funnel": {f"n={n} esylow": structural_funnel(n) for n in (18, 50)},
        "verify_classification": {
            f"{t} p={p} q={q}": json_hash(verify_classification(t, p, q=q).to_json())
            for t, p, q, _ in workloads.CLASSIFY_CASES
        },
        "small_groups": digest(b"".join(
            g.key() for n in SMALL_GROUP_ORDERS for g in small_groups(n))),
        "small_groups n=49": digest(b"".join(g.key() for g in small_groups(49))),
        "iso_witness_n98_seed1": iso_witness_hash(),
        "iso_witnesses": iso_witnesses_hash(),
        "funnel_n8": funnel(),
        "survivors": survivors_hash(),
        "nilpotency": nilpotency_hash(),
        "families": families_hash(),
        "decompositions": decompositions_hash(_series_structures()),
        "decompositions_pq": decompositions_hash(_pq_structures()),
        "structure": structure_hash(_series_structures() + _pq_structures()),
        "braid": braid_hash(),
        "braid_large": braid_large_hash(),
        "group_reports": group_reports_hash(),
        "brace_automorphisms": brace_automorphisms_hash(),
    }
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())

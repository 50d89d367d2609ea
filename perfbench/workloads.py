"""Workload definitions and reference checks for the semibrace benchmark.

Every reference value below is an isomorphism invariant (class counts, |E|
histograms, |E| and |G|, braid and series verdicts, report flags), never a
representative table, so a change that picks other class representatives
still passes.  The seed only draws the relabellings (fixing 0) of the
structure files; the census and classification parameters are fixed.
"""

from __future__ import annotations

import json
import random
import time
import traceback
from collections import Counter
from pathlib import Path

WORKLOADS = ("generic-census", "classify", "large-structures", "cli-warm")

# --- generic-census -------------------------------------------------------

GENERIC_N = 8
GENERIC_CLASSES = 64
GENERIC_E_HIST = {1: 47, 2: 8, 4: 4, 8: 5}

# --- classify ---------------------------------------------------------------

# (theorem, p, q, census count).  reproduce_classifications.py --fast also
# runs n = 9, which is 5 s of generic sweep; it is left out so that this
# workload stays on the structural route.
CLASSIFY_CASES = (
    ("pq-noncongruent", 2, 2, 3),
    ("pq-congruent", 3, 2, 6),
    ("pq-congruent", 7, 2, 6),
    ("pq-noncongruent", 5, 3, 3),
    ("2p2", 3, None, 13),
    ("2p2", 5, None, 13),
)

# --- large-structures -------------------------------------------------------

_LEFT_ONLY = {
    "left_nondegenerate": True,
    "nondegenerate": False,
    "bijective": False,
    "involutive": False,
}
_CYCLES = "cycles without reaching E"

# (theorem, item, p, q) -> (n, |E|, |G|, right verdict, left verdict, right nil)
LARGE_ITEMS = (
    (("pq-congruent", 3, 31, 5), (155, 5, 31, _CYCLES, _CYCLES, True)),
    (("pq-noncongruent", 2, 13, 13), (169, 169, 1, "nilpotent at 2", "nilpotent at 2", True)),
    (("2p2-E2-cyclic", 3, 11, None), (242, 2, 121, "nilpotent at 3", "nilpotent at 3", True)),
    (("2p2-E2-noncyclic", 5, 11, None), (242, 2, 121, _CYCLES, _CYCLES, True)),
    (("2p2-Ep2", 5, 11, None), (242, 121, 2, "nilpotent at 2", "nilpotent at 2", True)),
)

# --- cli-warm -------------------------------------------------------------

# Structure files: name -> (theorem, item, p).  The two iso files are two
# independent seeded relabellings of one family.
CLI_FILES = {
    "verify98.json": ("2p2-E2-noncyclic", 5, 7),
    "solution50.json": ("2p2-Ep2", 5, 5),
    "iso98a.json": ("2p2-E2-cyclic", 3, 7),
    "iso98b.json": ("2p2-E2-cyclic", 3, 7),
}


def _check_classify(want_census, want_families):
    def check(payload, files):
        got = (payload.get("ok"), payload.get("census_count"), payload.get("family_count"))
        return got == (True, want_census, want_families), f"(ok, census, families) = {got}"
    return check


def _check_enumerate(payload, files):
    hist = dict(Counter(_e_size(e["semibrace"]["add"]) for e in payload))
    got = (len(payload), hist)
    return got == (GENERIC_CLASSES, GENERIC_E_HIST), f"(classes, |E| histogram) = {got}"


def _check_nilpotency(payload, files):
    got = (payload["right"]["verdict"], payload["left"]["verdict"], payload["right_nil"])
    return got == (_CYCLES, _CYCLES, True), f"(right, left, right_nil) = {got}"


def _check_verify(payload, files):
    got = (payload.get("valid"), payload.get("n"), payload.get("e_size"), payload.get("g_size"))
    return got == (True, 98, 2, 49), f"(valid, n, |E|, |G|) = {got}"


def _check_solution(payload, files):
    got = (payload.get("n"), payload.get("braid_holds"), payload.get("properties"))
    return got == (50, True, _LEFT_ONLY), f"(n, braid, properties) = {got}"


def _check_iso(payload, files):
    if payload.get("isomorphic") is not True:
        return False, f"isomorphic = {payload.get('isomorphic')}"
    f = payload["witness"]
    a, b = files["iso98a.json"], files["iso98b.json"]
    for op in ("add", "circ"):
        ta, tb = a[op], b[op]
        n = len(ta)
        if any(f[ta[x][y]] != tb[f[x]][f[y]] for x in range(n) for y in range(n)):
            return False, f"witness does not preserve {op}"
    return True, "witness preserves add and circ"


# (label, arguments, uses the census cache, check).  Labels name the per
# command process-time metrics.
CLI_COMMANDS = (
    ("classify-2p2-p5", ["classify", "--theorem", "2p2", "--p", "5"], True, _check_classify(13, 13)),
    ("classify-2p2-p3", ["classify", "--theorem", "2p2", "--p", "3"], True, _check_classify(13, 13)),
    ("classify-pq-7-2", ["classify", "--theorem", "pq-congruent", "--p", "7", "--q", "2"],
     True, _check_classify(6, 6)),
    ("enumerate-n8", ["enumerate", "--n", "8"], True, _check_enumerate),
    ("nilpotency-family", ["nilpotency", "--theorem", "2p2-E2-noncyclic", "--item", "5", "--p", "5"],
     False, _check_nilpotency),
    ("verify-n98", ["verify", "{files}/verify98.json"], False, _check_verify),
    ("solution-n50", ["solution", "{files}/solution50.json", "--check-braid", "--properties"],
     False, _check_solution),
    ("iso-n98", ["iso", "{files}/iso98a.json", "{files}/iso98b.json"], False, _check_iso),
)

CLI_LABELS = tuple(label for label, *_ in CLI_COMMANDS)


# --- inputs -----------------------------------------------------------------


def relabel_perm(seed: int, label: str, n: int) -> list[int]:
    """A seeded permutation of range(n) that fixes 0."""
    rest = list(range(1, n))
    random.Random(f"{seed}:{label}").shuffle(rest)
    return [0] + rest


def relabel_tables(tables: dict, perm: list[int]) -> dict:
    """Transport both operations along x -> perm[x]: new[p[x]][p[y]] = p[old[x][y]]."""
    n = len(perm)
    out = {"n": n}
    for op in ("add", "circ"):
        old = tables[op]
        new = [[0] * n for _ in range(n)]
        for x in range(n):
            row, px = old[x], new[perm[x]]
            for y in range(n):
                px[perm[y]] = perm[row[y]]
        out[op] = new
    return out


def _e_size(add) -> int:
    return sum(1 for x, row in enumerate(add) if row[x] == x)


# --- in-process passes (run inside a fresh child interpreter) ---------------


def _run_ops(ops):
    """Run (name, thunk) pairs; a thunk returns (ok, detail, summary).  An
    exception fails that operation only.  Start and end are on the monotonic
    clock, which the parent shares."""
    results = []
    for name, thunk in ops:
        start = time.monotonic()
        try:
            ok, detail, summary = thunk()
        except Exception as err:  # one failed operation must not end the run
            traceback.print_exc()
            ok, detail, summary = False, f"raised {type(err).__name__}: {err}", None
        results.append({
            "name": name,
            "ok": bool(ok),
            "detail": detail,
            "summary": summary,
            "start": start,
            "end": time.monotonic(),
        })
    return results


def _generic_ops(sb, seed):
    def census():
        entries = sb.classify.enumerate_generic(GENERIC_N, emin=1)
        hist = dict(Counter(len(e.semibrace.e_elements) for e in entries))
        got = [len(entries), {str(k): v for k, v in sorted(hist.items())}]
        want = [GENERIC_CLASSES, {str(k): v for k, v in sorted(GENERIC_E_HIST.items())}]
        return got == want, f"(classes, |E| histogram) = {got}", got
    return [(f"enumerate_generic(n={GENERIC_N})", census)]


def _classify_ops(sb, seed):
    def case(theorem, p, q, want):
        def run():
            report = sb.classify.verify_classification(theorem, p, q=q)
            got = [report.ok, report.census_count]
            return got == [True, want], f"(ok, census) = {got}, problems {report.problems}", got
        return run
    return [(f"{t} p={p} q={q}", case(t, p, q, want)) for t, p, q, want in CLASSIFY_CASES]


def _large_ops(sb, seed):
    import numpy as np

    def structure(fid_args, want):
        def run():
            fid = sb.construct.FamilyId(*fid_args)
            b = sb.construct.family(fid)
            perm = np.array(relabel_perm(seed, str(fid_args), b.n))
            inv = np.empty_like(perm)
            inv[perm] = np.arange(b.n)
            tables = {
                op: perm[t[np.ix_(inv, inv)]].tolist()
                for op, t in (("add", b.add.table), ("circ", b.circ.table))
            }
            text = json.dumps({"n": b.n, **tables})
            b2 = sb.core.semibrace_from_json(json.loads(text))
            s = sb.ybe.solution_from(b2)
            braid, _ = sb.ybe.check_braid(s)
            props = sb.ybe.check_properties(s).to_json()
            right = sb.nilpotency.right_series(b2)
            left = sb.nilpotency.left_series(b2)
            nil, _ = sb.nilpotency.is_right_nil(b2)
            got = [b2.n, len(b2.e_elements), len(b2.g_elements), right.verdict, left.verdict,
                   bool(nil), bool(braid), props]
            ok = got == [*want, True, _LEFT_ONLY]
            return ok, f"(n, |E|, |G|, right, left, right nil, braid, properties) = {got}", got
        return run
    return [(f"{a[0]}[{a[1]}] p={a[2]} q={a[3]}", structure(a, want)) for a, want in LARGE_ITEMS]


IN_PROCESS = {
    "generic-census": _generic_ops,
    "classify": _classify_ops,
    "large-structures": _large_ops,
}


def run_pass(workload: str, seed: int, sb) -> tuple[float, float, list]:
    """One timed pass over the workload's item list; return its monotonic
    start and end times and the results.  `sb` is a namespace of the
    imported program modules, looked up at call time so that wrappers
    installed by the tracer are seen."""
    ops = IN_PROCESS[workload](sb, seed)
    start = time.monotonic()
    results = _run_ops(ops)
    return start, time.monotonic(), results


def load_json(path: Path):
    return json.loads(Path(path).read_text())

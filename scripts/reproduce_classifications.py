"""Reproduce the complete isomorphism classifications for orders pq and 2p^2.

For each supported parameter set this script builds the explicit family
representatives, enumerates every left cancellative left semi-brace of the
matching order as semidirect products over every action homomorphism (and,
up to order 10, also from the regular embeddings of every group of that
order into the holomorphs of its possible additive right groups), reduces
the survivors to isomorphism classes, and checks that the lists match one
to one.

Run from the repository root (or drop PYTHONPATH after installing the
package):

    PYTHONPATH=src python3 scripts/reproduce_classifications.py
    PYTHONPATH=src python3 scripts/reproduce_classifications.py --cache .cache

Exit status is 0 when every classification verifies.
"""

import argparse
import sys
import time

from semibrace.classify import verify_classification

# (theorem tag, p, q).  q is None for the order 2p^2 classification.
DEFAULT_CASES = [
    ("pq-noncongruent", 2, 2),
    ("pq-congruent", 3, 2),
    ("pq-noncongruent", 3, 3),
    ("pq-congruent", 5, 2),
    ("pq-noncongruent", 5, 3),
    ("2p2", 3, None),
    ("2p2", 5, None),
    ("2p2", 7, None),
]


def run_case(theorem, p, q, cache_dir):
    label = f"{theorem} p={p}" + (f" q={q}" if q is not None else "")
    start = time.time()
    try:
        report = verify_classification(theorem, p, q=q, cache_dir=cache_dir)
    except Exception as err:
        print(f"{label:30s} ERROR {err}")
        return False
    elapsed = time.time() - start
    status = "ok" if report.ok else "FAILED"
    extra = " generic" if report.generic_checked else ""
    print(
        f"{label:30s} {status:6s} n={report.n:3d}"
        f" families={len(report.family_labels):2d}"
        f" census={report.census_count:2d}{extra}  {elapsed:6.1f}s"
    )
    for problem in report.problems:
        print(f"    problem: {problem}")
    return report.ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache", default=None, help="directory for cached census files")
    args = parser.parse_args(argv)

    print(f"verifying {len(DEFAULT_CASES)} classification cases")
    results = [run_case(t, p, q, args.cache) for t, p, q in DEFAULT_CASES]
    failed = results.count(False)
    if failed:
        print(f"{failed} case(s) FAILED")
        return 1
    print("all classifications verified")
    return 0


if __name__ == "__main__":
    sys.exit(main())

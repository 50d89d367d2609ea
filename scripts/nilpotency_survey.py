"""Survey nilpotency behaviour across small semi-brace censuses.

Walks the isomorphism classes of left cancellative left semi-braces for a
range of small orders and reports, for every class, the verdicts of the left
and right ideal series together with the element-wise nil data.  The summary
at the end counts the classes that are right nil without being right
nilpotent, the combination that separates the two notions.

Run from the repository root:

    PYTHONPATH=src python3 scripts/nilpotency_survey.py
    PYTHONPATH=src python3 scripts/nilpotency_survey.py --orders 4 6 9 15 --emin 3

The structural census covers |E| > 1 only, so --emin is at least 2.
"""

import argparse
import sys

from semibrace.classify import enumerate_structural
from semibrace.construct import ParameterError
from semibrace.core import decompose
from semibrace.nilpotency import (
    check_rnilp1,
    is_right_nil,
    left_series,
    right_series,
)

DEFAULT_ORDERS = [4, 6, 9, 10, 15, 18]


def describe(report):
    if report.nilpotent:
        return f"nilpotent@{report.nilpotency_index}"
    return report.verdict


def survey_order(n, emin, esylow):
    entries = enumerate_structural(n, emin=emin, esylow=esylow)
    rows = []
    for entry in entries:
        b = entry.semibrace
        right = right_series(b)
        left = left_series(b)
        nil, orders = is_right_nil(b)
        max_order = max((k for k in orders if k is not None), default=None)
        agree = None
        if decompose(b) is not None:
            agree = check_rnilp1(b).agree
        rows.append(
            {
                "provenance": entry.provenance,
                "e_size": len(b.e_elements),
                "right": describe(right),
                "left": describe(left),
                "right_nil": nil,
                "max_nil_order": max_order,
                "rnilp1_agree": agree,
            }
        )
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--orders", type=int, nargs="+", default=DEFAULT_ORDERS)
    parser.add_argument("--emin", type=int, default=2, help="minimum idempotent count")
    args = parser.parse_args(argv)
    if args.emin < 2:
        parser.error("--emin must be at least 2: the structural census covers |E| > 1 only")

    total = 0
    gap_examples = 0
    disagreements = 0
    for n in args.orders:
        # Order 18 only fits the structural route when E has Sylow size.
        esylow = n == 18 and args.emin <= 9
        try:
            rows = survey_order(n, args.emin, esylow)
        except ParameterError as err:
            print(f"order {n}: skipped ({err})")
            continue
        print(f"order {n}: {len(rows)} classes")
        for row in rows:
            total += 1
            gap = row["right_nil"] and not row["right"].startswith("nilpotent")
            gap_examples += gap
            if row["rnilp1_agree"] is False:
                disagreements += 1
            mark = " *" if gap else ""
            print(
                f"  |E|={row['e_size']:2d}"
                f"  right={row['right']:22s}"
                f"  left={row['left']:22s}"
                f"  nil={str(row['right_nil']):5s}"
                f"  max_order={row['max_nil_order']}"
                f"  {row['provenance']}{mark}"
            )
    print(f"\n{total} classes surveyed")
    print(f"{gap_examples} right nil but not right nilpotent (marked *)")
    print(f"{disagreements} disagreements between series and structural nilpotency tests")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())

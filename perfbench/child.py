"""Child entry points; each runs in a fresh interpreter with the program's
`src` directory on PYTHONPATH.

    child.py pass <workload> <seed> <trace 0|1> <result.json>
        import the program, run one pass of an in-process workload, and
        write import time, pass start and end (monotonic clock, which the
        parent shares), per-operation results and, when
        traced, the spans.

    child.py cli <spans.json> <semibrace arguments...>
        install the span wrappers, call semibrace.cli.main with the given
        arguments, write the spans and exit with main's return code.
"""

from __future__ import annotations

import json
import sys
import time
import types
from pathlib import Path


def _import_program() -> float:
    start = time.perf_counter()
    import semibrace.cli  # noqa: F401  (imports every module of the package)
    return time.perf_counter() - start


def _program():
    import semibrace.classify
    import semibrace.construct
    import semibrace.core
    import semibrace.nilpotency
    import semibrace.ybe

    return types.SimpleNamespace(
        classify=semibrace.classify,
        construct=semibrace.construct,
        core=semibrace.core,
        nilpotency=semibrace.nilpotency,
        ybe=semibrace.ybe,
    )


def main_pass(workload: str, seed: int, trace: bool, out: Path) -> int:
    import workloads
    import spans

    import_s = _import_program()
    tracer = None
    if trace:
        tracer = spans.Tracer(f"{workload}:{seed}")
        tracer.install()
    start, end, ops = workloads.run_pass(workload, seed, _program())
    result = {"import_s": import_s, "start": start, "end": end, "ops": ops}
    if tracer is not None:
        result["trace"] = tracer.dump()
    out.write_text(json.dumps(result))
    return 0


def main_cli(spans_out: Path, argv: list[str]) -> int:
    import spans

    import_s = _import_program()
    import semibrace.cli

    tracer = spans.Tracer(" ".join(argv))
    tracer.install()
    try:
        return semibrace.cli.main(argv)
    finally:
        dump = tracer.dump()
        dump["import_s"] = import_s
        spans_out.write_text(json.dumps(dump))


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "pass":
        sys.exit(main_pass(sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1", Path(sys.argv[5])))
    if mode == "cli":
        sys.exit(main_cli(Path(sys.argv[2]), sys.argv[3:]))
    sys.exit(f"unknown mode {mode!r}")

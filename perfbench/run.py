"""The semibrace benchmark: one workload per invocation, run from the root
of a source checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Set-up time is measured by spawning fresh interpreters that import
semibrace.cli, half of them before the timed passes and half after.  Timed
passes repeat, each in a fresh interpreter (or, for cli-warm, as fresh
`python -m semibrace.cli` processes), while another pass of the last one's
length still fits in --seconds; there is always at least one.  Untraced
passes are timed at a reference machine speed sampled while they run
(speed.py).  Every operation is checked against its reference; a failed
check counts in `failed` and never ends the run.  --trace 1 adds one
traced pass and reports per-layer metrics instead of end-to-end ones.  The
last line of standard output is the result as one JSON object.  See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import spans
import speed
import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 11


# --- processes ------------------------------------------------------------------


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    # SEMIBRACE_CACHE silently overrides --cache and would turn cold
    # workloads warm.
    env.pop("SEMIBRACE_CACHE", None)
    env["PYTHONPATH"] = str(root / "src")
    # With numpy's hugepage advice, peak RSS counts whole 2 MB pages
    # wherever large arrays happen to fall, and moved by 10-18% with where
    # the checkout sits and how the process was pinned; without it, it is
    # the same to 0.5 MB.
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    return env


class Run(NamedTuple):
    code: int
    start: float  # monotonic spawn time
    end: float  # monotonic exit time
    rss_mb: float  # peak resident memory of that child alone
    cpu_s: float
    # (begin, end, reference seconds or None) of each stretch the child ran
    segments: list

    def times(self, lo=None, hi=None) -> tuple[float, float]:
        """Running time in [lo, hi] (default: spawn to exit), raw and at
        reference speed."""
        return speed.clipped(self.segments, self.start if lo is None else lo,
                             self.end if hi is None else hi)


def spawn(argv, env, cwd, stdout_path: Path, stderr_path: Path, sampled: bool = False) -> Run:
    """Run a child to completion; with `sampled`, sample the machine's speed
    around and during it (speed.py)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        first = speed.sample(reuse=True) if sampled else None
        start = time.monotonic()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=err)
        try:
            if sampled:
                status, usage, end, segments = speed.run_sampled(proc, start, first)
            else:
                _, status, usage = os.wait4(proc.pid, 0)
                end = time.monotonic()
                segments = [(start, end, None)]
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(proc.returncode, start, end, usage.ru_maxrss / 1024.0,
               usage.ru_utime + usage.ru_stime, segments)


def stderr_tail(path: Path, lines: int = 15) -> str:
    try:
        return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


def setup_probes(env, root: Path, work: Path, count: int):
    """Spawn-to-import-done times of fresh interpreters, raw and at reference
    speed, and the in-process import time of semibrace.cli."""
    code = ("import time; t = time.perf_counter(); import semibrace.cli, numpy; "
            "print(time.monotonic(), time.perf_counter() - t, numpy.__version__)")
    raw, scaled, imports, numpy_version = [], [], [], None
    for _ in range(count):
        run = spawn([sys.executable, "-c", code], env, root, work / "probe.out",
                    work / "probe.err", sampled=True)
        if run.code != 0:
            raise RuntimeError(f"importing semibrace.cli failed:\n{stderr_tail(work / 'probe.err')}")
        done, import_s, numpy_version = (work / "probe.out").read_text().split()
        setup_raw, setup_scaled = run.times(hi=float(done))
        raw.append(setup_raw)
        scaled.append(setup_scaled)
        imports.append(float(import_s))
    return raw, scaled, imports, numpy_version


# --- in-process workloads -------------------------------------------------------


def in_process_pass(workload, seed, trace, env, root, work: Path, index: int):
    """One pass in a fresh interpreter; an untraced pass is speed-sampled."""
    out = work / f"pass-{index}.json"
    out.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "child.py"), "pass", workload, str(seed),
            "1" if trace else "0", str(out)]
    run = spawn(argv, env, root, work / "child.out", work / "child.err", sampled=not trace)
    if run.code != 0 or not out.is_file():
        print(f"pass child exited {run.code}:\n{stderr_tail(work / 'child.err')}", file=sys.stderr)
        names = [name for name, _ in workloads.IN_PROCESS[workload](None, seed)]
        ops = [{"name": n, "ok": False, "detail": f"child exited {run.code}", "summary": None}
               for n in names]
        result = {"ops": ops, "trace": None}
        lo = hi = None
    else:
        result = json.loads(out.read_text())
        lo, hi = result["start"], result["end"]
        for op in result["ops"]:
            op["s"], op["norm_s"] = run.times(op.pop("start"), op.pop("end"))
    result["wall_s"], result["norm_s"] = run.times(lo, hi)
    result["rss_mb"] = run.rss_mb
    result["cpu_s"] = run.cpu_s
    result["ref_s"] = [ref for *_, ref in run.segments if ref is not None]
    return result


# --- cli-warm -----------------------------------------------------------------


def cache_snapshot(cache: Path) -> dict:
    if not cache.is_dir():
        return {}
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns) for p in sorted(cache.iterdir())}


def cli_prepare(seed, env, root, work: Path, cache: Path):
    """Write the seeded structure files and fill the census cache with the
    same commands the passes time.  The cache persists in the work directory
    across invocations; its file names carry the program's source hash, so
    a changed program fills a fresh set."""
    files = work / "files"
    files.mkdir(parents=True, exist_ok=True)
    loaded = {}
    for name, (theorem, item, p) in workloads.CLI_FILES.items():
        argv = [sys.executable, "-m", "semibrace.cli", "families", "--theorem", theorem,
                "--item", str(item), "--p", str(p), "--format", "json"]
        code = spawn(argv, env, root, work / "cli.out", work / "cli.err").code
        if code != 0:
            # the commands that read this file fail and are counted
            print(f"families {theorem} exited {code}:\n{stderr_tail(work / 'cli.err')}",
                  file=sys.stderr)
            continue
        tables = workloads.load_json(work / "cli.out")[0]["semibrace"]
        relabelled = workloads.relabel_tables(
            tables, workloads.relabel_perm(seed, name, tables["n"]))
        (files / name).write_text(json.dumps(relabelled))
        loaded[name] = relabelled
    for label, args, uses_cache, _ in workloads.CLI_COMMANDS:
        if uses_cache:
            argv = [sys.executable, "-m", "semibrace.cli", *args, "--cache", str(cache)]
            code = spawn(argv, env, root, work / "cli.out", work / "cli.err").code
            if code != 0:
                print(f"cache fill {label} exited {code}:\n{stderr_tail(work / 'cli.err')}",
                      file=sys.stderr)
    return files, loaded


def cli_pass(trace, env, root, work: Path, cache: Path, files: Path, loaded: dict, index: int):
    ops, dumps, refs, wall, norm, rss, cpu = [], [], [], 0.0, 0.0, 0.0, 0.0
    for k, (label, args, uses_cache, check) in enumerate(workloads.CLI_COMMANDS):
        cli_args = [a.format(files=files) for a in args] + ["--format", "json"]
        if uses_cache:
            cli_args += ["--cache", str(cache)]
        spans_out = work / f"spans-{index}-{k}.json"
        spans_out.unlink(missing_ok=True)
        if trace:
            argv = [sys.executable, str(HERE / "child.py"), "cli", str(spans_out), *cli_args]
        else:
            argv = [sys.executable, "-m", "semibrace.cli", *cli_args]
        before = cache_snapshot(cache)
        run = spawn(argv, env, root, work / "cli.out", work / "cli.err", sampled=not trace)
        after = cache_snapshot(cache)
        code = run.code
        elapsed, at_ref = run.times()
        wall += elapsed
        norm = None if at_ref is None or norm is None else norm + at_ref
        refs += [ref for *_, ref in run.segments if ref is not None]
        cpu += run.cpu_s
        rss = max(rss, run.rss_mb)
        op = {"name": label, "s": elapsed, "norm_s": at_ref, "ok": False, "summary": None}
        if code != 0:
            op["detail"] = f"exit {code}: {stderr_tail(work / 'cli.err', 5)}"
        elif after != before:
            op["detail"] = "census cache changed: a miss was timed as a warm run"
        else:
            try:
                payload = workloads.load_json(work / "cli.out")
                op["ok"], op["detail"] = check(payload, loaded)
            except (ValueError, KeyError, TypeError, IndexError) as err:
                op["detail"] = f"bad JSON output: {type(err).__name__}: {err}"
            op["summary"] = op["detail"]
        ops.append(op)
        if trace and spans_out.is_file():
            dumps.append(workloads.load_json(spans_out))
    return {"wall_s": wall, "norm_s": norm, "ref_s": refs, "rss_mb": rss, "cpu_s": cpu,
            "ops": ops, "dumps": dumps}


# --- metrics ------------------------------------------------------------------


def scaled_wall(passes) -> float:
    """A pass's time at reference speed: the sum over operations of the
    median, over passes, of each operation's time.  Per operation, so one
    slow stretch in one pass moves one term."""
    times = {}
    for p in passes:
        for op in p["ops"]:
            times.setdefault(op["name"], []).append(op.get("norm_s") or 0.0)
    return sum(statistics.median(t) for t in times.values())


# Counters the span wrappers add to, reported as they are summed.
COUNTERS = (
    "tables.homomorphisms.found",
    "classify.generator_images.candidates",
    "classify.sweep.survivors",
    *(f"classify.funnel.{group}.{k}" for group in spans.FUNNEL_GROUPS.values()
      for k in ("candidates", "survivors", "classes")),
    "classify.census.classes",
    "classify.cache.hits",
    "classify.cache.misses",
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    out = []
    for name in spans.SPAN_NAMES:
        out += [(f"{name}.self_s", "s"), (f"{name}.calls", "count")]
    out += [(key, "count") for key in COUNTERS]
    out += [
        ("classify.sweep.survival_ratio", "ratio"),
        ("classify.dedup.ratio", "ratio"),
        ("classify.cache.load_s", "s"),
        ("classify.cache.store_s", "s"),
        ("cli.import_s", "s"),
        ("cli.process_s", "s"),
    ]
    out += [(f"cli.process_s.{label}", "s") for label in workloads.CLI_LABELS]
    out += [
        ("other.self_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.ref_kernel_s", "s"),
        ("trace.counter_errors", "count"),
    ]
    return out


def layer_values(agg: dict, traced_wall: float, untraced_wall: float, imports, passes) -> dict:
    c = agg["counters"]
    values = {}
    for name in spans.SPAN_NAMES:
        values[f"{name}.self_s"] = agg["self_s"].get(name, 0.0)
        values[f"{name}.calls"] = agg["calls"].get(name, 0)
    for key in COUNTERS:
        values[key] = c.get(key, 0)
    candidates = c.get("classify.generator_images.candidates", 0)
    values["classify.sweep.survival_ratio"] = (
        c.get("classify.sweep.survivors", 0) / candidates if candidates else 0.0)
    # classes built by deduplication, not loaded from the cache, per candidate offered
    built = c.get("classify.census.classes", 0) - c.get("classify.cache.hit_classes", 0)
    offered = agg["calls"].get("classify.dedup", 0)
    values["classify.dedup.ratio"] = built / offered if offered else 0.0
    values["classify.cache.load_s"] = agg["incl_s"].get("classify.cache.load", 0.0)
    values["classify.cache.store_s"] = agg["incl_s"].get("classify.cache.store", 0.0)
    values["cli.import_s"] = statistics.median(imports)
    per_command = {label: [] for label in workloads.CLI_LABELS}
    for p in passes:
        for op in p["ops"]:
            if op["name"] in per_command:
                per_command[op["name"]].append(op["s"])
    for label, times in per_command.items():
        values[f"cli.process_s.{label}"] = statistics.median(times) if times else 0.0
    values["cli.process_s"] = sum(values[f"cli.process_s.{label}"] for label in per_command)
    values["other.self_s"] = traced_wall - agg["top_s"]
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.ref_kernel_s"] = statistics.median(r for p in passes for r in p["ref_s"])
    values["trace.counter_errors"] = agg["counter_errors"]
    return values


# Span names each workload must call (calls > 0) when traced; a zero means
# a binding was left unwrapped.
USES = {
    "generic-census": ("classify.census", "classify.generator_images", "classify.sweep",
                       "classify.small_groups", "core.verify", "tables.check_group",
                       "tables.check_left_cancellative_semigroup"),
    "classify": ("classify.verify_classification", "classify.census", "classify.small_groups",
                 "classify.isomorphic", "classify.generator_images", "classify.sweep",
                 "construct.family", "construct.semidirect", "core.verify",
                 "core.brace_automorphism_group", "tables.homomorphisms",
                 "tables.isomorphisms", "tables.check_group"),
    "large-structures": ("construct.family", "core.verify", "tables.check_group",
                         "tables.check_left_cancellative_semigroup", "ybe.solution_from",
                         "ybe.check_braid", "ybe.check_properties", "nilpotency.series"),
    "cli-warm": ("cli.main", "classify.verify_classification", "classify.census",
                 "classify.cache.load", "classify.isomorphic", "construct.family",
                 "core.verify", "ybe.solution_from", "ybe.check_braid", "nilpotency.series"),
}


def src_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def trace_checks(workload, agg, untraced_passes, traced_pass, work: Path, digest: str) -> list:
    """Problems with the traced run: outputs that differ from the untraced
    run, wrapped functions never called, or funnel counts that do not repeat."""
    problems = []
    reference = [(op["name"], op["summary"]) for op in untraced_passes[0]["ops"]]
    traced = [(op["name"], op["summary"]) for op in traced_pass["ops"]]
    if traced != reference:
        problems.append("traced outputs differ from the untraced run")
    defined = {name for m, a, name, _ in spans.TARGETS if f"{m}.{a}" not in agg["missing"]}
    for name in USES[workload]:
        if name in defined and not agg["calls"].get(name):
            problems.append(f"{name} reports no calls: a binding was left unwrapped")
    if workload == "generic-census":
        funnel = {k: v for k, v in sorted(agg["counters"].items())
                  if k.startswith(("classify.funnel.", "classify.generator_images.",
                                   "classify.sweep.", "classify.census."))}
        record = work / f"funnel-{digest}.json"
        if record.is_file():
            if json.loads(record.read_text()) != funnel:
                problems.append(f"funnel counts differ from the earlier run in {record.name}")
        else:
            record.write_text(json.dumps(funnel, sort_keys=True))
    return problems


# --- main -----------------------------------------------------------------------


def context(root: Path, numpy_version: str, digest: str) -> dict:
    commit = None
    if shutil.which("git") and (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": digest,
    }


def run(args) -> dict:
    root = Path.cwd()
    work = root / ".bench_build" / "perfbench" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    env = child_env(root)
    digest = src_digest(root)
    # One CPU for this process and every child, so that a speed sample is
    # taken on the CPU the stopped child was running on, which is busy,
    # not on an idle one waking up.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    # Machine speed drifts over seconds on a shared host, so the set-up
    # samples are split around the passes.
    setup, setup_scaled, imports, numpy_version = setup_probes(env, root, work, SETUP_PROBES // 2)

    if args.workload == "cli-warm":
        cache = root / ".bench_build" / "perfbench" / "census-cache"
        files, loaded = cli_prepare(args.seed, env, root, work, cache)

        def one_pass(trace, index):
            return cli_pass(trace, env, root, work, cache, files, loaded, index)
    else:
        def one_pass(trace, index):
            return in_process_pass(args.workload, args.seed, trace, env, root, work, index)

    passes = [one_pass(False, 0)]
    while sum(p["wall_s"] for p in passes) + passes[-1]["wall_s"] <= args.seconds:
        passes.append(one_pass(False, len(passes)))
    more = setup_probes(env, root, work, SETUP_PROBES - SETUP_PROBES // 2)
    setup, setup_scaled, imports = setup + more[0], setup_scaled + more[1], imports + more[2]
    ctx = context(root, numpy_version, digest)

    all_ops = [op for p in passes for op in p["ops"]]
    untraced_wall = statistics.median(p["wall_s"] for p in passes)
    problems = []
    if args.trace:
        traced = one_pass(True, len(passes))
        all_ops += traced["ops"]
        dumps = traced["dumps"] if args.workload == "cli-warm" else [traced["trace"]]
        agg = spans.aggregate([d for d in dumps if d])
        problems = trace_checks(args.workload, agg, passes, traced, work, digest)
        values = layer_values(agg, traced["wall_s"], untraced_wall, imports, passes)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in per_layer_names()}
    else:
        failed = sum(1 for op in all_ops if not op["ok"])
        metrics = {
            "norm_wall_s": {"value": scaled_wall(passes), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["rss_mb"] for p in passes), "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "ok_share": {"value": (len(all_ops) - failed) / len(all_ops), "unit": "share"},
        }

    failed_ops = [op for op in all_ops if not op["ok"]]
    for op in failed_ops:
        print(f"FAILED {op['name']}: {op.get('detail')}", file=sys.stderr)
    for problem in problems:
        print(f"TRACE CHECK: {problem}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "context": ctx,
        "ref_s": speed.REF_S,
        "passes": [{"wall_s": p["wall_s"], "norm_s": p["norm_s"], "ref_s": p["ref_s"],
                    "rss_mb": p["rss_mb"], "cpu_s": p["cpu_s"],
                    "ops": [{k: op.get(k) for k in ("name", "ok", "s", "norm_s", "detail")}
                            for op in p["ops"]]} for p in passes],
        "setup_s": setup,
        "setup_scaled_s": setup_scaled,
        "import_s": imports,
        "trace_problems": problems,
        "metrics": metrics,
    }
    results = root / ".bench_build" / "perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print("context " + json.dumps(ctx, sort_keys=True))
    return {
        "correct": not failed_ops and not problems,
        "attempted": len(all_ops),
        "failed": len(failed_ops),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "semibrace" / "cli.py").is_file():
        print(f"no program to measure: {root}/src/semibrace is missing; "
              "run from the root of a semibrace checkout", file=sys.stderr)
        return 2
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end tests for the command-line interface and its exit codes."""

import gc
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from semibrace import classify, construct, core, ybe
from semibrace.classify import enumerate_generic
from semibrace.cli import main
from semibrace.construct import trivial_semibrace
from semibrace.nilpotency import is_right_nil
from semibrace.tables import cyclic_group


@pytest.fixture
def triv2(tmp_path):
    path = tmp_path / "triv2.json"
    path.write_text(json.dumps(trivial_semibrace(cyclic_group(2)).to_json()))
    return path


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# verify


def test_verify_valid_trivial(triv2, capsys):
    rc, out, _ = run(capsys, ["verify", str(triv2)])
    assert rc == 0
    assert "valid" in out


def test_verify_json_format(triv2, capsys):
    rc, out, _ = run(capsys, ["verify", str(triv2), "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload == {"valid": True, "n": 2, "e_size": 2, "g_size": 1}


def test_verify_axiom_failure_exits_1(tmp_path, capsys):
    bad = {"n": 2, "add": [[0, 1], [1, 0]], "circ": [[0, 0], [0, 0]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    rc, out, _ = run(capsys, ["verify", str(path), "--format", "json"])
    assert rc == 1
    assert json.loads(out)["valid"] is False


def test_verify_malformed_inputs_exit_3(tmp_path, capsys):
    not_json = tmp_path / "a.json"
    not_json.write_text("{nope")
    assert run(capsys, ["verify", str(not_json)])[0] == 3
    wrong_shape = tmp_path / "b.json"
    wrong_shape.write_text(json.dumps({"n": 2, "add": [[0, 9], [1, 0]],
                                       "circ": [[0, 1], [1, 0]]}))
    assert run(capsys, ["verify", str(wrong_shape)])[0] == 3
    not_object = tmp_path / "c.json"
    not_object.write_text("[1, 2, 3]")
    assert run(capsys, ["verify", str(not_object)])[0] == 3
    ragged = tmp_path / "d.json"
    ragged.write_text(json.dumps({"n": 2, "add": [[0, 1], [1]], "circ": [[0, 1], [1, 0]]}))
    not_utf8 = tmp_path / "e.json"
    not_utf8.write_bytes(b'{"n": 1, "add": [[0]], "circ": [[0]], "\xff": 0}')
    too_deep = tmp_path / "f.json"
    too_deep.write_text("[" * 100_000 + "]" * 100_000)
    for path in (ragged, not_utf8, too_deep):
        for argv in (["verify", str(path)], ["iso", str(path), str(path)],
                     ["solution", str(path)], ["nilpotency", str(path)]):
            rc, _, err = run(capsys, argv)
            assert rc == 3 and "malformed input" in err, (argv, err)


@pytest.mark.parametrize("n", ['"abc"', "null", "[1]", '{"a": 1}', "1e400", "1.5", "true"])
def test_verify_non_integer_order_exits_3(tmp_path, capsys, n):
    path = tmp_path / "n.json"
    path.write_text(f'{{"n": {n}, "add": [[0]], "circ": [[0]]}}')
    rc, out, err = run(capsys, ["verify", str(path)])
    assert (rc, out) == (3, "")
    assert err == "malformed input: malformed-table at ()\n"


def test_missing_file_exits_4(tmp_path, capsys):
    rc, _, err = run(capsys, ["verify", str(tmp_path / "absent.json")])
    assert rc == 4
    assert "i/o error" in err


# ---------------------------------------------------------------------------
# families


def test_families_inferred_theorem(capsys, tmp_path):
    out_dir = tmp_path / "artifacts"
    rc, out, _ = run(capsys, ["families", "--p", "3", "--q", "2",
                              "--out", str(out_dir)])
    assert rc == 0
    assert out.count("pq-congruent") == 6
    artifact = json.loads((out_dir / "families.json").read_text())
    assert len(artifact) == 6
    assert all({"family", "semibrace"} <= set(item) for item in artifact)


def test_families_single_item(capsys):
    rc, out, _ = run(capsys, ["families", "--theorem", "2p2-Ep2", "--p", "3",
                              "--item", "2", "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert len(payload) == 1
    assert payload[0]["family"]["item"] == 2


def test_families_parameter_violations_exit_2(capsys):
    assert run(capsys, ["families", "--p", "3"])[0] == 2
    assert run(capsys, ["families", "--theorem", "pq-congruent",
                        "--p", "4", "--q", "2"])[0] == 2
    assert run(capsys, ["families", "--theorem", "pq-noncongruent",
                        "--p", "3", "--q", "3", "--item", "3"])[0] == 2
    assert run(capsys, ["families", "--theorem", "pq-congruent",
                        "--p", "5", "--q", "3"])[0] == 2
    assert run(capsys, ["nilpotency", "--theorem", "pq-noncongruent",
                        "--item", "1", "--p", "5", "--q", "3"])[0] == 2


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_is_deterministic(capsys):
    rc1, out1, _ = run(capsys, ["enumerate", "--n", "4", "--format", "json"])
    rc2, out2, _ = run(capsys, ["enumerate", "--n", "4", "--format", "json"])
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert len(json.loads(out1)) == 7


def test_enumerate_emin_filter(capsys):
    rc, out, _ = run(capsys, ["enumerate", "--n", "4", "--emin", "2",
                              "--format", "json"])
    assert rc == 0
    assert len(json.loads(out)) == 3


def test_enumerate_bound_exits_2(capsys):
    assert run(capsys, ["enumerate", "--n", "11"])[0] == 2


def test_enumerate_cache_flag_ignores_the_old_env_variable(tmp_path, monkeypatch, capsys):
    # --cache is the one way to name the cache directory; an environment
    # variable of the old name is not read
    env_dir = tmp_path / "envcache"
    flag_dir = tmp_path / "flagcache"
    monkeypatch.setenv("SEMIBRACE_CACHE", str(env_dir))
    rc, _, _ = run(capsys, ["enumerate", "--n", "4", "--cache", str(flag_dir)])
    assert rc == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["flagcache"]
    assert list(flag_dir.glob("generic-*.json"))


# ---------------------------------------------------------------------------
# classify


def test_classify_2p2_matches(capsys):
    rc, out, _ = run(capsys, ["classify", "--theorem", "2p2", "--p", "3"])
    assert rc == 0
    assert "13 classes, census match" in out


def test_classify_2p2_at_seven_matches(capsys, tmp_path):
    # order 49 is in the group catalogue, so the census of order 98 runs
    # and matches the 13 families
    rc, out, _ = run(capsys, ["classify", "--theorem", "2p2", "--p", "7", "--out", str(tmp_path)])
    assert rc == 0
    assert "13 classes, census match" in out
    report = json.loads((tmp_path / "classify.json").read_text())
    assert report["ok"] and report["family_count"] == report["census_count"] == 13
    encoded = json.dumps(report, sort_keys=True).encode()
    assert hashlib.sha256(encoded).hexdigest()[:16] == "527a836f601f5844"


def test_classify_pq_congruent(capsys, tmp_path):
    out_dir = tmp_path / "art"
    rc, out, _ = run(capsys, ["classify", "--theorem", "pq-congruent",
                              "--p", "3", "--q", "2", "--out", str(out_dir)])
    assert rc == 0
    assert "6 classes, census match" in out
    report = json.loads((out_dir / "classify.json").read_text())
    assert report["ok"] and report["family_count"] == 6


def test_classify_2p2_ignores_q(capsys):
    # q belongs to the pq theorems only; the 2p^2 check runs without it
    assert run(capsys, ["classify", "--theorem", "2p2", "--p", "3", "--q", "2"])[0] == 0


def test_classify_needs_parameters(capsys):
    assert run(capsys, ["classify", "--p", "3"])[0] == 2
    assert run(capsys, ["classify", "--theorem", "pq-congruent", "--p", "3"])[0] == 2


# ---------------------------------------------------------------------------
# nilpotency


def test_nilpotency_of_family(capsys):
    rc, out, _ = run(capsys, ["nilpotency", "--theorem", "pq-congruent",
                              "--item", "3", "--p", "3", "--q", "2"])
    assert rc == 0
    assert "right_nil=true" in out
    assert "right_nilpotent=false" in out


def test_nilpotency_json_payload(triv2, capsys):
    rc, out, _ = run(capsys, ["nilpotency", str(triv2), "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["right"]["kind"] == "right"
    assert payload["left"]["kind"] == "left"
    assert payload["right_nil"] is True


def test_nilpotency_json_payload_of_a_class_that_is_not_right_nil(tmp_path, capsys):
    (b,) = [e.semibrace for e in enumerate_generic(6) if not is_right_nil(e.semibrace)[0]]
    path = tmp_path / "notnil6.json"
    path.write_text(json.dumps(b.to_json()))
    rc, out, _ = run(capsys, ["nilpotency", str(path), "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["right_nil"] is False
    assert payload["nil_orders"] == list(is_right_nil(b)[1])
    assert None in payload["nil_orders"]


def test_nilpotency_rejects_mixed_input(triv2, capsys):
    rc, _, err = run(capsys, ["nilpotency", str(triv2), "--theorem",
                              "pq-congruent", "--item", "3", "--p", "3",
                              "--q", "2"])
    assert rc == 2
    assert "not both" in err


# ---------------------------------------------------------------------------
# solution


def test_solution_with_flags(triv2, capsys, tmp_path):
    out_dir = tmp_path / "sol"
    rc, out, _ = run(capsys, ["solution", str(triv2), "--check-braid",
                              "--properties", "--out", str(out_dir),
                              "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["braid_holds"] is True
    assert payload["properties"]["left_nondegenerate"] is True
    assert (out_dir / "solution.json").read_text().strip() == out.strip()


# ---------------------------------------------------------------------------
# iso


def test_iso_self_and_distinct(triv2, tmp_path, capsys):
    other = tmp_path / "triv3.json"
    other.write_text(json.dumps(trivial_semibrace(cyclic_group(3)).to_json()))
    rc, out, _ = run(capsys, ["iso", str(triv2), str(triv2), "--format", "json"])
    assert rc == 0
    assert json.loads(out)["witness"] == [0, 1]
    rc, out, _ = run(capsys, ["iso", str(triv2), str(other)])
    assert rc == 1
    assert "not isomorphic" in out


# ---------------------------------------------------------------------------
# installed entry point


def test_out_of_memory_exits_5(triv2, tmp_path, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(core, "verify", exhausted)
    rc, _, err = run(capsys, ["verify", str(triv2)])
    assert rc == 5
    assert err.strip() == "out of memory: verify at order n = 2"
    monkeypatch.setattr(construct, "family", exhausted)
    rc, _, err = run(capsys, ["families", "--theorem", "2p2-Ep2", "--p", "3"])
    assert rc == 5
    assert err.strip() == "out of memory: families at order n = 18"
    rc, _, err = run(capsys, ["iso", str(triv2), str(triv2)])
    assert (rc, err.strip()) == (5, "out of memory: iso at order n = 2")
    monkeypatch.setattr(classify, "enumerate_generic", exhausted)
    rc, _, err = run(capsys, ["enumerate", "--n", "6"])
    assert (rc, err.strip()) == (5, "out of memory: enumerate at order n = 6")
    # an order the file does not declare as an integer is left out
    undeclared = tmp_path / "undeclared.json"
    undeclared.write_text(json.dumps({**json.loads(triv2.read_text()), "n": "two"}))
    rc, _, err = run(capsys, ["verify", str(undeclared)])
    assert (rc, err.strip()) == (5, "out of memory: verify")


def test_braid_order_bound_exits_5_naming_the_stage(triv2, monkeypatch, capsys):
    # the braid check is handed a zero-stride map of order 2^16, past the
    # bound of its packed table, in place of the solution of triv2
    n = 1 << 16
    big = ybe.SolutionMap(n=n, r=np.broadcast_to(np.zeros(1, dtype=np.int64), (n, n, 2)))
    check_braid = ybe.check_braid
    monkeypatch.setattr(ybe, "check_braid", lambda s: check_braid(big))
    rc, _, err = run(capsys, ["solution", str(triv2), "--check-braid"])
    assert rc == 5
    assert err.strip() == (
        "out of memory: solution at order n = 2 (braid check: n = 65536 is at least 2^16)")


# Run in a fresh interpreter: import semibrace.cli, then main on each
# argument list in turn, and print the semibrace modules loaded after each.
_LOADED_MODULES = """
import contextlib, io, json, sys

def loaded():
    return sorted(name for name in sys.modules if name.partition(".")[0] == "semibrace")

import semibrace.cli
seen = [[None, loaded()]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        seen.append([semibrace.cli.main(argv), loaded()])
print(json.dumps(seen))
"""


def _package_env():
    return {**os.environ, "PYTHONPATH": str(Path(core.__file__).resolve().parents[1])}


def _modules_loaded_by(*argvs):
    proc = subprocess.run([sys.executable, "-c", _LOADED_MODULES, json.dumps(argvs)],
                          env=_package_env(), capture_output=True, text=True, check=True)
    return [tuple(step) for step in json.loads(proc.stdout)]


def test_each_subcommand_imports_only_the_modules_it_runs(triv2):
    # A process that writes no bytecode compiles every module it imports,
    # so the single-structure commands leave the census layers unloaded.
    base = ["semibrace", "semibrace.cli", "semibrace.core", "semibrace.tables"]
    with_ybe = sorted(base + ["semibrace.ybe"])
    assert _modules_loaded_by(
        ["verify", str(triv2)],
        ["iso", str(triv2), str(triv2)],
        ["solution", str(triv2), "--check-braid", "--properties"],
        ["nilpotency", str(triv2)],
    ) == [(None, base), (0, base), (0, base), (0, with_ybe),
          (0, sorted(with_ybe + ["semibrace.nilpotency"]))]
    (_, imported), (rc, loaded) = _modules_loaded_by(
        ["nilpotency", "--theorem", "2p2-E2-noncyclic", "--item", "5", "--p", "5"])
    assert imported == base
    assert rc == 0
    assert loaded == sorted(base + ["semibrace.construct", "semibrace.nilpotency"])


def test_console_script_is_wired(triv2):
    exe = shutil.which("semibrace")
    assert exe is not None
    proc = subprocess.run([exe, "verify", str(triv2)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "valid" in proc.stdout


# ---------------------------------------------------------------------------
# the process entry: `python -m semibrace.cli`, which runs `run`


def _cli_process(*argv):
    return subprocess.run([sys.executable, "-m", "semibrace.cli", *argv],
                          env=_package_env(), capture_output=True)


def test_process_output_equals_in_process_main(triv2, capsys):
    argv = ["verify", str(triv2), "--format", "json"]
    rc, out, err = run(capsys, argv)
    proc = _cli_process(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (rc, out.encode(), err.encode())
    assert rc == 0


def test_process_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "add": [[0, 1], [1, 0]], "circ": [[0, 0], [0, 0]]}))
    proc = _cli_process("verify", str(bad))
    assert proc.returncode == 1
    assert proc.stdout.startswith(b"invalid: ")
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{nope")
    proc = _cli_process("verify", str(malformed))
    assert (proc.returncode, proc.stdout) == (3, b"")
    assert proc.stderr.startswith(b"malformed input: ")


def test_process_writes_a_complete_artifact(triv2, tmp_path):
    out = tmp_path / "out"
    proc = _cli_process("verify", str(triv2), "--out", str(out))
    assert proc.returncode == 0
    payload = {"e_size": 2, "g_size": 1, "n": 2, "valid": True}
    assert (out / "verify.json").read_text() == json.dumps(payload, sort_keys=True) + "\n"


def test_process_entry_freezes_the_heap_after_main(triv2):
    # run() returns main's exit code after gc.freeze(); atexit handlers
    # still run and stdout is still flushed
    code = ("import atexit, gc\n"
            "from semibrace.cli import run\n"
            "atexit.register(lambda: print('atexit ran'))\n"
            "rc = run()\n"
            "print(rc, gc.get_freeze_count() > 0)\n")
    proc = subprocess.run([sys.executable, "-c", code, "verify", str(triv2)],
                          env=_package_env(), capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1:] == ["0 True", "atexit ran"]


def test_main_in_process_freezes_nothing(triv2, capsys):
    before = gc.get_freeze_count()
    assert run(capsys, ["verify", str(triv2)])[0] == 0
    assert gc.get_freeze_count() == before


def test_console_script_names_the_process_entry():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert '\n[project.scripts]\nsemibrace = "semibrace.cli:run"\n' in pyproject

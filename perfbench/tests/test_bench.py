"""Reduced-size smoke runs of each workload, the tampered-trace case, span
recording, and the benchmark command's output and exit codes."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import lrc7
import lrc7.cli
import spans
import workloads
from checks import CheckFailed

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent

SMALL = {
    "certify": workloads.Certify(workloads.CertifyPlan(lex_q=(4, 5, 7), seeded_q=(4,), oracle_q=(4, 5))),
    "build-large": workloads.BuildLarge(workloads.BuildPlan(runs=((4, ("lex", "seeded")), (5, ("lex",))))),
    "simulate": workloads.Simulate(
        workloads.SimulatePlan(models=(("single-uniform", 40), ("multi-uniform(6)", 40), ("group-burst", 20)), seeded_q=7, seeded_L=6)
    ),
}
# operations per pass of each reduced plan
OPS = {"certify": 2 * 4 + 2 + 1 + 2 * 2, "build-large": 2 + 3 * 4, "simulate": 6}


def _one_pass(wl, tmp_path, seed=0):
    wl.prepare(tmp_path, seed)
    tally = workloads.Tally()
    wl.run_pass(wl.setup(tmp_path), seed, 0, tally)
    return tally


@pytest.mark.parametrize("name", sorted(SMALL))
def test_smoke_pass(name, tmp_path):
    tally = _one_pass(SMALL[name], tmp_path)
    assert tally.errors == []
    assert (tally.attempted, tally.failed) == (OPS[name], 0)
    assert tally.lrc7_s > 0


def test_tampered_trace_fails_the_replay_check(tmp_path, monkeypatch):
    load = lrc7.construct.ConstructionTrace.load_json

    def tampered(path):
        data = json.loads(Path(path).read_text())
        for rd in data["rounds"]:
            if rd["removals"]:
                pts = next(iter(rd["removals"].values()))
                pts[0] = pts[0][::-1]
                break
        Path(path).write_text(json.dumps(data))
        return load(path)

    monkeypatch.setattr(workloads.ConstructionTrace, "load_json", staticmethod(tampered))
    wl = workloads.BuildLarge(workloads.BuildPlan(runs=((5, ("lex",)),)))
    tally = _one_pass(wl, tmp_path)
    assert (tally.failed, tally.wrong) == (1, 1)
    assert "trace replay" in tally.errors[0]


def test_op_counts_crashes_as_failed_but_not_wrong():
    tally = workloads.Tally()
    with tally.op("crash"):
        raise ZeroDivisionError("boom")
    with tally.op("wrong"):
        raise CheckFailed("bad output")
    with tally.op("fine"):
        pass
    assert (tally.attempted, tally.failed, tally.wrong) == (3, 2, 1)


def test_traced_rebinds_and_restores():
    orig = lrc7.cli.min_distance
    rec = spans.Recorder()
    H, _ = lrc7.load_fixture("h1")
    with spans.traced(rec):
        assert lrc7.cli.min_distance is not orig
        code = lrc7.code_from_parity_check(H)
        assert lrc7.min_distance(code) == 7
    assert lrc7.cli.min_distance is orig
    assert lrc7.fields.FieldSpec.__init__.__name__ == "__init__"
    st = rec.self_times()
    assert st["codec.min_distance"][0] == 1
    assert st["codec.code_build"][0] == 1 and st["linalg.rank"][0] == 1
    # the kernel and rank calls are children of the code build
    names = [rec.names[i] for i in rec.name_id]
    parents = [names[p] if p >= 0 else None for p in rec.parent]
    assert parents[names.index("linalg.kernel_basis")] == "codec.code_build"


def test_self_time_subtracts_children():
    rec = spans.Recorder()
    inner = rec.wrap("inner", lambda: sum(range(20000)))
    outer = rec.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    st = rec.self_times()
    total_outer = rec.end[0] - rec.start[0]
    assert st["inner"][0] == 3 and st["outer"][0] == 1
    assert abs(st["outer"][1] + st["inner"][1] - total_outer) < 1e-9


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_the_result_line(trace):
    proc = _bench(ROOT, "--workload", "simulate", "--seed", "4", "--seconds", "0.01", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 6
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in bench["end_to_end" if trace == "0" else "per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_command_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path, "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "no lrc7 sources" in proc.stderr

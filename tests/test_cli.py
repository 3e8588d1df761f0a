import csv
import io
import json

import pytest

from lrc7 import cli, codec
from lrc7.cli import main
from lrc7.codec import fixture_path
from lrc7.construct import (
    ConstructionTrace,
    PairSpanTable,
    VectorSequence,
    replay_trace,
    run_algorithm1,
    verify_conditions,
)
from lrc7.fields import field_create
from lrc7.linalg import load_matrix_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def test_construct_q4_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    code, stdout, _ = run_cli(capsys, "construct", "--q", "4", "--out", str(out))
    assert code == 0
    assert "attains dimension bound: yes" in stdout
    for name in ("sequence.json", "trace.json", "matrix.json", "bounds.json"):
        assert (out / name).exists()
    mat = json.loads((out / "matrix.json").read_text())
    assert mat["config"]["command"] == "construct"
    assert mat["params"]["d"] in (7, 8)
    bounds = json.loads((out / "bounds.json").read_text())
    assert bounds["classification"] == "almost-optimal"


def test_construct_trace_under_an_awkward_out_path(tmp_path, capsys):
    """config.out is user text: quotes, backslashes, non-ASCII and a newline,
    plus text shaped like the trace's own lines, are written as the stdlib
    writes them, and the trace still replays to the sequence."""
    out = tmp_path / 'q"4\\\u00e9\u4e2d}\n    },\n      "removals": {}\n  "rounds": ['
    code, _, _ = run_cli(capsys, "construct", "--q", "4", "--out", str(out))
    assert code == 0
    raw = (out / "trace.json").read_bytes()
    data = json.loads(raw)
    assert data["config"]["out"] == str(out)
    assert raw == (json.dumps(data, indent=2, sort_keys=True) + "\n").encode()
    assert replay_trace(ConstructionTrace.load_json(out / "trace.json")) == VectorSequence.load_json(out / "sequence.json")


def test_construct_verify_roundtrip(tmp_path, capsys):
    for q in ("4", "5", "7"):
        out = tmp_path / f"run{q}"
        code, _, _ = run_cli(capsys, "construct", "--q", q, "--out", str(out), "--seed", "1", "--policy", "seeded")
        assert code == 0
        code, stdout, _ = run_cli(capsys, "verify", str(out / "matrix.json"))
        assert code == 0
        assert "declared parameters match: yes" in stdout


def test_construct_json_format(capsys):
    code, stdout, _ = run_cli(capsys, "construct", "--q", "4", "--format", "json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["q"] == 4
    assert payload["d"] == 7
    assert payload["attains_dim_bound"] is True
    assert payload["config"]["policy"] == "lex"


def test_construct_small_q_warns_and_exits_zero(tmp_path, capsys):
    # q = 3 carries no guarantee; the run terminates with a warning, exits 0,
    # and still records the (short) sequence and trace
    out = tmp_path / "q3"
    code, stdout, stderr = run_cli(capsys, "construct", "--q", "3", "--out", str(out))
    assert code == 0
    assert "warning" in stderr and "q >= 4" in stderr
    assert "no code assembled" in stdout
    assert (out / "sequence.json").exists() and (out / "trace.json").exists()
    assert not (out / "matrix.json").exists()


def test_construct_small_q_json_format_prints_one_json_object(capsys):
    code, stdout, _ = run_cli(capsys, "construct", "--q", "3", "--format", "json")
    assert code == 0
    payload = json.loads(stdout)
    assert (payload["q"], payload["L"]) == (3, 2)
    assert payload["config"]["format"] == "json"
    assert payload["message"] == "construction stopped after L = 2 < 3 rounds; no code assembled"


def test_construct_rejects_non_prime_power(capsys):
    code, _, stderr = run_cli(capsys, "construct", "--q", "6")
    assert code == 2
    assert "prime power" in stderr


def test_construct_explicit_modulus(capsys):
    for q, modulus in [("4", "1,1,1"), ("7", "0,1")]:
        code, stdout, _ = run_cli(capsys, "construct", "--q", q, "--modulus", modulus, "--format", "json")
        assert code == 0
        assert json.loads(stdout)["d"] == 7


@pytest.mark.parametrize("q,modulus,used", [("7", "3,1", "[0, 1]"), ("4", "5,1,1", "[1, 1, 1]")])
def test_construct_modulus_the_run_does_not_use_is_a_usage_error(q, modulus, used, tmp_path, capsys):
    # a prime field drops its modulus and GF(p^e) reduces it mod p: the
    # files' config.modulus would contradict their field headers
    out = tmp_path / "run"
    code, stdout, stderr = run_cli(capsys, "construct", "--q", q, "--modulus", modulus, "--out", str(out))
    assert code == 2 and stdout == ""
    assert stderr == f"error: --modulus must be the modulus the run uses, {used} for GF({q})\n"
    assert not out.exists()


def test_construct_deterministic_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    argv = ("construct", "--q", "7", "--policy", "seeded", "--seed", "42", "--out", str(out))
    assert run_cli(capsys, *argv)[0] == 0
    first = {name: (out / name).read_text() for name in ("sequence.json", "trace.json", "matrix.json", "bounds.json")}
    assert run_cli(capsys, *argv)[0] == 0
    second = {name: (out / name).read_text() for name in first}
    assert first == second


def _c3_failing_run(*args, **kwargs):
    """The seeded q = 5 output with u1(0) replaced by u1(1) + u2(2): c1 and
    c2 still hold, c3 fails, and the block code has d = 6."""
    field = field_create(5, 1)
    seq, trace = run_algorithm1(field, "seeded", 1)
    pairs = [list(p) for p in seq.pairs]
    pairs[0][0] = tuple(field.add(a, b) for a, b in zip(pairs[1][0], pairs[2][1]))
    return VectorSequence(field, pairs), trace


@pytest.mark.parametrize("cap", [[], ["--distance-cap", "5"]], ids=["default-cap", "cap-5"])
def test_construct_reports_failed_sequence_conditions(cap, tmp_path, capsys, monkeypatch):
    # at cap 5 the search finds no dependency (d = 6 > 5); the conditions still fail the run
    bad, _ = _c3_failing_run()
    rep = verify_conditions(bad)
    assert (rep.c1_ok, rep.c2_ok, rep.c3_ok) == (True, True, False)
    monkeypatch.setattr(cli, "run_algorithm1", _c3_failing_run)
    out = tmp_path / "run"
    code, stdout, stderr = run_cli(capsys, "construct", "--q", "5", "--out", str(out), *cap)
    assert code == 1
    assert stdout == ""
    assert stderr == f"verification failed: sequence conditions do not hold: {rep}\n"
    assert not out.exists()


def _d8_run(*args, **kwargs):
    """The seeded q = 9 output (seed 6) cut to 3 pairs: c1-c3 hold and its
    table has no weight-7 codeword, so the block code has d = 8."""
    field = field_create(3, 2)
    seq, trace = run_algorithm1(field, "seeded", 6)
    return VectorSequence(field, seq.pairs[:3]), trace


@pytest.mark.parametrize(
    "argv, exit_code, shown",
    [
        (["--q", "7"], 0, "(18, 8, 7, 2)_7"),
        (["--q", "7", "--distance-cap", "5"], 0, "(18, 8, >=6, 2)_7"),
        (["--q", "7", "--distance-cap", "6"], 0, "(18, 8, >=7, 2)_7"),
        (["--q", "5", "c3-fails"], 1, ""),
        (["--q", "9", "d8"], 0, "(9, 2, 8, 2)_9"),
    ],
    ids=["default-cap", "cap-5", "cap-6", "c3-fails", "d8"],
)
def test_construct_builds_one_pair_span_table(argv, exit_code, shown, capsys, monkeypatch):
    # the sequence's one table gives the conditions, worked out once, and d
    # (7 or 8): no code is built and no groups are detected
    tables, reports, builds, detections, kernels = [], [], [], [], []
    build, report, make = PairSpanTable.of, PairSpanTable.conditions, cli.code_from_parity_check
    detect, kernel = codec._detect_groups, codec.kernel_basis
    monkeypatch.setattr(PairSpanTable, "of", staticmethod(lambda seq: tables.append(seq.L) or build(seq)))
    monkeypatch.setattr(PairSpanTable, "conditions", lambda tab: reports.append(tab.seq.L) or report(tab))
    monkeypatch.setattr(cli, "code_from_parity_check", lambda H: builds.append(H.rows) or make(H))
    monkeypatch.setattr(codec, "_detect_groups", lambda H: detections.append(H.rows) or detect(H))
    monkeypatch.setattr(codec, "kernel_basis", lambda H: kernels.append(H.rows) or kernel(H))
    run = {"c3-fails": _c3_failing_run, "d8": _d8_run}.get(argv[-1])
    if run is not None:
        argv = argv[:-1]
        monkeypatch.setattr(cli, "run_algorithm1", run)
    code, stdout, _ = run_cli(capsys, "construct", *argv)
    assert code == exit_code
    assert stdout.startswith(shown)
    counts = [len(tables), len(reports), len(builds), len(detections), len(kernels)]
    assert counts == [1, 1, 0, 0, 0]


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "h1", "--trials", "5", "--failure-model", "single-uniform", "--out", "{missing}/s.json"],
        ["simulate", "h1", "--trials", "5", "--failure-model", "single-uniform", "--jsonl", "{missing}/t.jsonl"],
        ["bounds", "--q", "4..5", "--d", "7", "--r", "2", "--out", "{missing}/b.csv"],
        ["construct", "--q", "4", "--out", "{file}"],
        ["construct", "--q", "4", "--out", "{file}/run"],
    ],
    ids=["simulate-out", "simulate-jsonl", "bounds-out", "construct-out-is-a-file", "construct-out-under-a-file"],
)
def test_unwritable_output_is_a_usage_error(argv, tmp_path, capsys, monkeypatch):
    existing = tmp_path / "file"
    existing.write_text("")
    constructed = []
    monkeypatch.setattr(cli, "run_algorithm1", lambda *a, **kw: constructed.append(a))
    argv = [a.format(missing=tmp_path / "missing", file=existing) for a in argv]
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: [Errno ")
    assert stderr.count("\n") == 1
    assert "Traceback" not in stderr
    assert constructed == []  # the target is checked before the constructor runs


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--q", "4", "--out", ""],
        ["bounds", "--q", "4", "--out", ""],
        ["simulate", "h1", "--trials", "5", "--failure-model", "single-uniform", "--out", ""],
        ["simulate", "h1", "--trials", "5", "--failure-model", "single-uniform", "--jsonl", ""],
    ],
    ids=["construct-out", "bounds-out", "simulate-out", "simulate-jsonl"],
)
def test_empty_output_path_is_refused_at_parsing(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {argv[-2]}: must not be empty" in captured.err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_h1_fixture(capsys):
    code, stdout, _ = run_cli(capsys, "verify", "h1", "--format", "json")
    assert code == 0
    payload = json.loads(stdout)
    assert (payload["n"], payload["k"], payload["d"], payload["r"]) == (9, 2, 7, 2)
    assert payload["q"] == 4
    assert payload["classification"] == "almost-optimal"
    assert payload["six_column_independence"] is True


def test_verify_h2_fixture(capsys):
    code, stdout, _ = run_cli(capsys, "verify", "h2", "--format", "json")
    assert code == 0
    payload = json.loads(stdout)
    assert (payload["n"], payload["k"], payload["d"], payload["r"]) == (18, 8, 7, 2)
    assert payload["q"] == 7
    assert payload["classification"] == "almost-optimal"


def test_verify_corrupted_matrix_fails(tmp_path, capsys):
    data = json.loads(fixture_path("h1").read_text())
    # duplicate column 0 into column 1: a dependent pair drops the distance
    for row in data["entries"]:
        row[1] = row[0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, stdout, stderr = run_cli(capsys, "verify", str(bad), "--format", "json")
    assert code == 1
    payload = json.loads(stdout)
    assert payload["d"] <= 6
    assert payload["six_column_independence"] is False
    assert "do not match" in stderr


def test_verify_missing_file(capsys):
    code, _, stderr = run_cli(capsys, "verify", "/nonexistent/matrix.json")
    assert code == 1
    assert "cannot load" in stderr


def test_verify_rejects_non_integer_entries(tmp_path, capsys):
    # a float entry was once truncated and a string parsed, so the file verified
    data = json.loads(fixture_path("h1").read_text())
    data["entries"][0][0] = 1.9
    data["entries"][1][3] = "1"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, stdout, stderr = run_cli(capsys, "verify", str(bad))
    assert code == 1 and stdout == ""
    assert stderr.startswith("error: cannot load matrix: ") and "Traceback" not in stderr


def test_verify_rejects_bool_entry(tmp_path, capsys):
    # numpy reads a bool among integers as 0 or 1: a JSON true once loaded as 1
    data = json.loads(fixture_path("h1").read_text())
    data["entries"][0][0] = True
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, stdout, stderr = run_cli(capsys, "verify", str(bad))
    assert code == 1 and stdout == ""
    assert stderr == "error: cannot load matrix: codes must be integers, got a bool entry\n"


@pytest.mark.parametrize("key,value", [("rows", 7.9), ("cols", "9"), ("p", 2.0), ("e", True), ("modulus", [1, 1, 1.0]), ("modulus", 3)])
def test_verify_rejects_non_integer_header(key, value, tmp_path, capsys):
    # "rows": 7.9 once loaded through int(); a modulus of 3 once raised TypeError
    data = json.loads(fixture_path("h1").read_text())
    data[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, stdout, stderr = run_cli(capsys, "verify", str(bad))
    assert code == 1 and stdout == ""
    assert stderr.startswith("error: cannot load matrix: ") and "Traceback" not in stderr


@pytest.mark.parametrize("top", [[1, 2], "h1", 7, None])
def test_verify_rejects_a_file_that_is_no_object(top, tmp_path, capsys):
    # a top-level list once raised TypeError through the header lookup
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(top))
    code, stdout, stderr = run_cli(capsys, "verify", str(bad))
    assert code == 1 and stdout == ""
    assert stderr.startswith("error: cannot load matrix: matrix JSON must be an object")


_H1_PARAMS = {"n": 9, "k": 2, "d": 7, "r": 2}


def _h1_declaring(tmp_path, params):
    """An h1 copy whose declared params are replaced."""
    data = json.loads(fixture_path("h1").read_text())
    data["params"] = params
    path = tmp_path / "h1.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("key,value", [("n", 12), ("k", 3), ("d", 8), ("r", 3)])
def test_verify_reports_a_declared_parameter_that_differs(key, value, tmp_path, capsys):
    path = _h1_declaring(tmp_path, dict(_H1_PARAMS, **{key: value}))
    code, stdout, stderr = run_cli(capsys, "verify", path)
    assert code == 1
    assert stdout.splitlines()[-1] == "declared parameters match: no"
    assert stderr == "verification failed: declared parameters do not match\n"
    code, stdout, _ = run_cli(capsys, "verify", path, "--format", "json")
    assert code == 1
    assert json.loads(stdout)["mismatches"] == {key: [value, _H1_PARAMS[key]]}


@pytest.mark.parametrize("d,match", [(2, False), (3, False), (4, True), (7, True)])
def test_verify_under_a_cap_needs_a_declared_d_above_it(d, match, tmp_path, capsys):
    # --distance-cap 3 only establishes d >= 4: a declared d <= 3 contradicts it
    path = _h1_declaring(tmp_path, dict(_H1_PARAMS, d=d))
    code, stdout, stderr = run_cli(capsys, "verify", path, "--distance-cap", "3")
    assert code == (0 if match else 1)
    assert stdout.splitlines()[-1] == f"declared parameters match: {'yes' if match else 'no'}"
    assert ("do not match" in stderr) is not match
    code, stdout, _ = run_cli(capsys, "verify", path, "--distance-cap", "3", "--format", "json")
    assert json.loads(stdout).get("mismatches") == (None if match else {"d": [d, ">=4"]})


@pytest.mark.parametrize(
    "params",
    [dict(_H1_PARAMS, d="7"), dict(_H1_PARAMS, d=[7]), dict(_H1_PARAMS, d=True), dict(_H1_PARAMS, d=7.0),
     dict(_H1_PARAMS, n=9.0), [1, 2], "n=9", 7],
    ids=repr,
)
@pytest.mark.parametrize("cap", [[], ["--distance-cap", "3"]], ids=["uncapped", "cap3"])
def test_verify_refuses_declared_params_that_are_no_json_integers(params, cap, tmp_path, capsys):
    # a string d once raised TypeError under a cap, and a list of params verified
    code, stdout, stderr = run_cli(capsys, "verify", _h1_declaring(tmp_path, params), *cap)
    assert code == 1 and stdout == ""
    assert stderr == "error: cannot load matrix: declared params must be an object whose n, k, d and r are JSON integers\n"


def test_construct_low_distance_cap_is_inconclusive(tmp_path, capsys):
    # cap 5 only establishes d >= 6: reported, not failed, and d is left
    # out of the declared parameters, so the matrix still verifies
    out = tmp_path / "run"
    code, stdout, _ = run_cli(capsys, "construct", "--q", "4", "--distance-cap", "5", "--out", str(out))
    assert code == 0
    assert stdout.startswith("(12, 4, >=6, 2)_4")
    params = json.loads((out / "matrix.json").read_text())["params"]
    assert params == {"n": 12, "k": 4, "r": 2}
    code, stdout, _ = run_cli(capsys, "construct", "--q", "4", "--distance-cap", "5", "--format", "json")
    assert code == 0
    assert json.loads(stdout)["d"] == ">=6"
    code, _, _ = run_cli(capsys, "verify", str(out / "matrix.json"))
    assert code == 0


def test_verify_with_low_distance_cap_is_inconclusive_not_wrong(capsys):
    # cap 3 only establishes d >= 4: no independence claim, declared d = 7
    # is consistent with the evidence, exit 0
    code, stdout, _ = run_cli(capsys, "verify", "h1", "--format", "json", "--distance-cap", "3")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["d"] == ">=4"
    assert payload["six_column_independence"] is None
    # cap 6 establishes d >= 7, which does pin six-column independence
    code, stdout, _ = run_cli(capsys, "verify", "h1", "--format", "json", "--distance-cap", "6")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["d"] == ">=7"
    assert payload["six_column_independence"] is True


def test_verify_text_reports_inconclusive_independence_as_unknown(capsys):
    code, stdout, _ = run_cli(capsys, "verify", "h1", "--distance-cap", "3")
    assert code == 0
    assert stdout.splitlines()[:2] == ["(9, 2, >=4, 2)_4  groups=3", "six-column independence: unknown"]
    code, stdout, _ = run_cli(capsys, "verify", "h1", "--distance-cap", "6")
    assert "six-column independence: yes" in stdout.splitlines()


@pytest.mark.parametrize(
    "argv",
    [["construct", "--q", "4", "--distance-cap", "5"], ["verify", "h1", "--distance-cap", "3"]],
    ids=["construct", "verify"],
)
def test_text_output_shows_missing_classification_as_dash(argv, capsys):
    # without d the bounds report has no classification; JSON gives null
    code, stdout, _ = run_cli(capsys, *argv)
    assert code == 0
    assert "classification: -" in stdout.splitlines()
    assert "None" not in stdout
    code, stdout, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(stdout)["classification"] is None


@pytest.mark.parametrize("argv", [["construct", "--q", "4"], ["verify", "h1"]], ids=["construct", "verify"])
@pytest.mark.parametrize("cap", ["0", "-3"])
def test_distance_cap_below_one_is_rejected_at_parsing(argv, cap, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a usage error must stop before any construction or loading")

    monkeypatch.setattr(cli, "run_algorithm1", no_work)
    monkeypatch.setattr(cli, "load_matrix_json", no_work)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--distance-cap", cap])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --distance-cap: must be at least 1, got {cap}" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_bounds_single_point(capsys):
    code, stdout, _ = run_cli(capsys, "bounds", "--q", "4", "--n", "9", "--r", "2", "--format", "json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["eq3_k_max"] == 2
    assert payload["eq5_n_max"] == 23


def test_bounds_full_point_text(capsys):
    code, stdout, _ = run_cli(capsys, "bounds", "--q", "4", "--n", "9", "--k", "2", "--d", "7", "--r", "2")
    assert code == 0
    assert "almost-optimal" in stdout


def test_bounds_grid_csv(capsys):
    code, stdout, _ = run_cli(capsys, "bounds", "--q", "4..9", "--d", "7", "--r", "2")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(stdout)))
    qs = [int(row["q"]) for row in rows]
    assert qs == [4, 5, 6, 7, 8, 9]
    for row in rows:
        q = int(row["q"])
        assert int(row["eq5_n_max"]) == q * q + q + 3
        if row["chen_n_max"]:
            assert float(row["eq5_n_max"]) < float(row["chen_n_max"]) < float(row["guruswami_n_max"])


def test_bounds_grid_to_file(tmp_path, capsys):
    """Under every format, --out writes the bytes the same command prints
    without it, and prints nothing (the text table was once printed, with
    no file written)."""
    point = ("--q", "4", "--n", "9", "--k", "2", "--d", "7", "--r", "2")
    cases = {
        "grid": ("--q", "4,7", "--d", "7", "--r", "2"),
        "text": point,
        "json": (*point, "--format", "json"),
        "csv": (*point, "--format", "csv"),
    }
    for name, args in cases.items():
        dest = tmp_path / f"{name}.out"
        code, stdout, _ = run_cli(capsys, "bounds", *args)
        assert code == 0
        code, printed, _ = run_cli(capsys, "bounds", *args, "--out", str(dest))
        assert code == 0 and printed == "", name
        assert dest.read_bytes() == stdout.encode(), name
    rows = list(csv.DictReader((tmp_path / "grid.out").open()))
    assert [row["q"] for row in rows] == ["4", "7"]


def test_bounds_requires_some_parameter(capsys):
    code, _, stderr = run_cli(capsys, "bounds")
    assert code == 2
    assert "provide at least" in stderr


def test_bounds_invalid_combination(capsys):
    """One parameter rule: q = 6 is no field order, but bounds refuses only
    n < 1, q < 2 and k, d or r out of range, with or without k."""
    point = ("--n", "9", "--d", "7", "--r", "2", "--q", "6")
    code, stdout, stderr = run_cli(capsys, "bounds", *point, "--k", "2")
    assert code == 0 and stderr == ""
    rows = dict(line.split(None, 1) for line in stdout.splitlines())
    assert rows.pop("k") == "2"
    assert rows.pop("classification") == "almost-optimal"
    assert rows.pop("singleton_d_max") == "8"
    assert rows.pop("eq2_holds") == "True"
    code, stdout, _ = run_cli(capsys, "bounds", *point)
    assert code == 0
    without_k = dict(line.split(None, 1) for line in stdout.splitlines())
    assert len(rows) == 11 and rows == {key: without_k[key] for key in rows}


@pytest.mark.parametrize("n", ["0", "-2"])
def test_bounds_rejects_n_below_one(n, capsys):
    code, _, stderr = run_cli(capsys, "bounds", "--n", n, "--r", "2", "--q", "4")
    assert code == 2
    assert stderr == f"error: need n >= 1, got n={n}\n"


@pytest.mark.parametrize("q", ["0", "1"])
def test_bounds_rejects_q_below_two(q, capsys):
    for argv in (["--q", q, "--d", "7", "--r", "2"], ["--q", q]):
        code, stdout, stderr = run_cli(capsys, "bounds", *argv)
        assert code == 2
        assert stdout == ""
        assert stderr == f"error: need q >= 2, got q={q}\n"


def test_bounds_rejects_k_above_n(capsys):
    code, _, stderr = run_cli(capsys, "bounds", "--n", "9", "--k", "20", "--r", "2")
    assert code == 2
    assert stderr == "error: need 1 <= k <= n, got k=20, n=9\n"


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_single_uniform(tmp_path, capsys):
    summary_path = tmp_path / "summary.json"
    jsonl_path = tmp_path / "trials.jsonl"
    code, stdout, _ = run_cli(
        capsys,
        "simulate", "h1",
        "--trials", "200",
        "--failure-model", "single-uniform",
        "--seed", "5",
        "--out", str(summary_path),
        "--jsonl", str(jsonl_path),
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["config"]["stream"] == 2  # the seeded stream's version, recorded with the run
    assert payload["success_rate"] == 1.0
    assert payload["mean_helpers_per_symbol"] == 2.0
    assert json.loads(summary_path.read_text()) == payload
    lines = [json.loads(line) for line in jsonl_path.read_text().splitlines()]
    assert len(lines) == 200
    assert all(line["mode"] == "local" and line["helpers"] == 2 for line in lines)


def test_simulate_multi_uniform_h2(capsys):
    code, stdout, _ = run_cli(
        capsys, "simulate", "h2", "--trials", "150", "--failure-model", "multi-uniform(6)", "--seed", "8"
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["success_rate"] == 1.0


@pytest.mark.parametrize("model", ["meteor", "multi-uniform(x)"])
def test_simulate_bad_model(model, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "h1", "--trials", "10", "--failure-model", model])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --failure-model: unknown failure model" in err
    assert "Traceback" not in err


def test_simulate_erasing_more_than_n_is_a_usage_error(capsys):
    # the count is checked once the matrix is loaded (h1 has n = 9)
    code, stdout, stderr = run_cli(capsys, "simulate", "h1", "--trials", "10", "--failure-model", "multi-uniform(99)")
    assert code == 2
    assert stdout == ""
    assert "error: cannot erase 99 of 9 symbols" in stderr
    assert "Traceback" not in stderr


def test_simulate_negative_seed_is_a_usage_error(capsys):
    # numpy's own error ("expected non-negative integer") named no seed
    code, stdout, stderr = run_cli(capsys, "simulate", "h2", "--trials", "10", "--failure-model", "group-burst", "--seed", "-1")
    assert code == 2
    assert stdout == ""
    assert stderr == "error: seed must be a non-negative int, got -1\n"


def test_construct_negative_seed_is_a_usage_error(tmp_path, capsys):
    # random.Random would seed with abs(-5): seed 5's code under another config
    out = tmp_path / "run"
    code, stdout, stderr = run_cli(capsys, "construct", "--q", "7", "--policy", "seeded", "--seed", "-5", "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert stderr == "error: seed must be a non-negative int or None, got -5\n"
    assert not out.exists()


def test_construct_seed_under_lex_is_a_usage_error(tmp_path, capsys):
    # the lex run ignores the seed, so the artifacts' config would name a
    # seed that the trace header (seed null) does not
    out = tmp_path / "run"
    code, stdout, stderr = run_cli(capsys, "construct", "--q", "4", "--seed", "3", "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert stderr == "error: --seed applies only to --policy seeded\n"
    assert not out.exists()


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_simulate_rejects_fewer_than_one_trial(trials, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "h1", "--trials", trials, "--failure-model", "single-uniform"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --trials: must be at least 1, got {trials}" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# argparse behaviour
# ---------------------------------------------------------------------------


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["construct"])  # missing required --q
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["bounds", "--n", "x"], "--n"),
        (["bounds", "--q", "4..x"], "--q"),
        (["construct", "--q", "4", "--modulus", "1,x,1"], "--modulus"),
    ],
    ids=["bounds-n", "bounds-q-range", "construct-modulus"],
)
def test_malformed_int_list_is_rejected_at_parsing(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: invalid int list: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["construct", "--q", "9", "--modulus", "5..4"], "--modulus"),
        (["construct", "--q", "9", "--modulus", ","], "--modulus"),
        (["bounds", "--q", ",", "--d", "7"], "--q"),
        (["bounds", "--q", "4..3"], "--q"),
    ],
    ids=["construct-modulus-range", "construct-modulus-comma", "bounds-q-comma", "bounds-q-range"],
)
def test_empty_int_list_is_rejected_at_parsing(argv, flag, capsys):
    # each was once read as no list: the default modulus, --q ignored, or "provide at least one"
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert f"argument {flag}: empty int list: " in err
    assert "Traceback" not in err and out == ""


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of main(argv), argparse's exits included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_CACHED_PARSER_CALLS = [
    ["construct", "--q", "4", "--format", "json"],
    ["bounds", "--q", "4..3"],
    ["bounds", "--q", "4..9", "--d", "7", "--r", "2"],
    ["bounds", "--n", "9", "--k", "2", "--d", "7", "--r", "2", "--q", "4"],
    ["verify", "h1"],
    ["simulate", "h2", "--trials", "50", "--failure-model", "group-burst", "--seed", "1"],
    ["--help"],
]


def test_cached_parser_keeps_calls_independent(capsys):
    """main builds its parser once per process: each call through the shared
    parser gives the outcome of the same call through a freshly built one.
    The list flags of one bounds call do not leak into the next."""
    cli._build_parser.cache_clear()
    shared = [_outcome(capsys, argv) for argv in _CACHED_PARSER_CALLS]
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, _, _ in shared] == [0, 2, 0, 0, 0, 0, 0]
    for argv, got in zip(_CACHED_PARSER_CALLS, shared):
        cli._build_parser.cache_clear()
        assert got == _outcome(capsys, argv), argv
    # the parser binds the cmd_* functions at its first build, so nothing
    # may patch them; everything else they call is read at call time
    parser = cli._build_parser()
    for argv, run in (
        (["construct", "--q", "4"], cli.cmd_construct),
        (["verify", "h1"], cli.cmd_verify),
        (["bounds"], cli.cmd_bounds),
        (["simulate", "h1", "--trials", "1", "--failure-model", "group-burst"], cli.cmd_simulate),
    ):
        assert parser.parse_args(argv).run is run


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2

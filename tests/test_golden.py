"""Golden-output net: CLI stdout and every written file, byte for byte.

Each case runs `lrc7.cli.main` in process inside an empty directory, with
relative output paths (the `config` block of each artifact embeds `out`),
and compares the exit code and the sha256 of stdout and of every file left
behind with `tests/golden.json`.  A refactor that changes any byte fails
here.  The `algorithm1-*` cases do the same for `run_algorithm1` at q = 16
and 27, beyond the CLI cases: the sha256 of the sequence and trace JSON.
`PYTHONPATH=src python tests/test_golden.py` records the hashes anew; do
that only for a change that is meant to alter the output.
"""

import hashlib
import json
import os
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from lrc7.cli import main
from lrc7.construct import run_algorithm1
from lrc7.fields import field_create

GOLDEN = Path(__file__).with_name("golden.json")

CASES = {
    **{f"construct-lex-q{q}": ["construct", "--q", str(q), "--out", "run"] for q in (4, 7, 9)},
    **{
        f"construct-seeded-q{q}-s{s}": [
            "construct", "--q", str(q), "--policy", "seeded", "--seed", str(s), "--out", "run",
        ]
        for q in (4, 7)
        for s in (0, 1, 2)
    },
    "construct-json-q4": ["construct", "--q", "4", "--format", "json"],
    "construct-short-q3": ["construct", "--q", "3", "--out", "run"],
    **{f"verify-{m}-{fmt}": ["verify", m, "--format", fmt] for m in ("h1", "h2") for fmt in ("text", "json")},
    **{
        f"simulate-h2-{model}": [
            "simulate", "h2", "--trials", "300", "--seed", "1", "--failure-model", model,
            "--out", "s.json", "--jsonl", "t.jsonl",
        ]
        for model in ("single-uniform", "multi-uniform(6)", "group-burst")
    },
    "bounds-grid": ["bounds", "--q", "4..9", "--d", "7", "--r", "2"],
    "bounds-point-text": ["bounds", "--q", "4", "--n", "9", "--k", "2", "--d", "7", "--r", "2"],
    "bounds-point-json": ["bounds", "--q", "4", "--n", "9", "--k", "2", "--d", "7", "--r", "2", "--format", "json"],
    "bounds-point-json-out": ["bounds", "--q", "4", "--n", "9", "--r", "2", "--format", "json", "--out", "b.json"],
}


# case -> (p, e, policy, seed) of a direct run_algorithm1 call
ALGORITHM1 = {
    "algorithm1-lex-q16": (2, 4, "lex", None),
    **{f"algorithm1-seeded-q16-s{s}": (2, 4, "seeded", s) for s in (0, 1, 2)},
    "algorithm1-lex-q27": (3, 3, "lex", None),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digest(workdir: Path, rc: int, stdout: str) -> dict:
    files = {
        p.relative_to(workdir).as_posix(): _sha(p.read_bytes())
        for p in sorted(workdir.rglob("*"))
        if p.is_file()
    }
    return {"exit": rc, "stdout": _sha(stdout.encode()), "files": files}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(CASES[case])
    got = _digest(tmp_path, rc, capsys.readouterr().out)
    assert got == json.loads(GOLDEN.read_text())[case]


def _algorithm1_digest(p: int, e: int, policy: str, seed) -> dict:
    seq, trace = run_algorithm1(field_create(p, e), policy, seed)
    return {
        name: _sha(json.dumps(obj.to_json_dict(), sort_keys=True).encode())
        for name, obj in (("sequence", seq), ("trace", trace))
    }


@pytest.mark.parametrize("case", sorted(ALGORITHM1))
def test_golden_algorithm1(case):
    assert _algorithm1_digest(*ALGORITHM1[case]) == json.loads(GOLDEN.read_text())[case]


def _record() -> None:
    golden = {}
    cwd = os.getcwd()
    for case, argv in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                buf = StringIO()
                with redirect_stdout(buf):
                    rc = main(argv)
                golden[case] = _digest(Path(tmp), rc, buf.getvalue())
            finally:
                os.chdir(cwd)
    for case, args in ALGORITHM1.items():
        golden[case] = _algorithm1_digest(*args)
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    _record()

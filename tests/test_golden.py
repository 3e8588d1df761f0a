"""Golden-output net: CLI stdout and every written file, byte for byte.

Each case runs `lrc7.cli.main` in process inside an empty directory, with
relative output paths (the `config` block of each artifact embeds `out`),
and compares the exit code and the sha256 of stdout and of every file left
behind with `tests/golden.json`.  A refactor that changes any byte fails
here.  `PYTHONPATH=src python tests/test_golden.py` records the hashes
anew; do that only for a change that is meant to alter the output.
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
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    _record()

"""The three benchmark workloads, driven through lrc7's public API and CLI.

Each workload has three steps:

* ``prepare(work, seed)`` makes the seeded inputs before any timing;
* ``setup(work)`` does what a user pays before the first operation
  (field creation, fixture and code loading); `probe.py` times it in a
  fresh process;
* ``run_pass(state, seed, index, tally)`` runs one pass: a fixed list of
  operations, each timed around the lrc7 call only and then checked by
  `checks`.

lrc7 is always reached through attribute lookups at call time
(``lrc7.cli.main``, ``lrc7.run_algorithm1``) so that the traced mode's
rebinding sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import lrc7
import lrc7.cli
from lrc7.construct import ConstructionTrace

import checks
import speed


def derive(seed: int, *keys) -> int:
    """A 31-bit seed determined by the workload seed and the keys."""
    digest = hashlib.sha256(repr((seed, *keys)).encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def factor(q: int) -> tuple[int, int]:
    for p in range(2, q + 1):
        if q % p == 0:
            e = 0
            while q % p == 0:
                q //= p
                e += 1
            return p, e
    raise ValueError(q)


@dataclass
class Tally:
    """Operations attempted and failed, and lrc7 time per phase, in one pass."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # failed operations whose output failed a check
    errors: list = field(default_factory=list)
    phase_s: dict = field(default_factory=lambda: defaultdict(float))  # reference seconds
    wall_s: float = 0.0
    rounds: int = 0  # constructor rounds L, summed over runs of the constructor
    trace_bytes: int = 0
    speed_exponent: float = 1.0

    def call(self, phase: str, fn, *args, **kwargs):
        result, wall, ref = speed.timed(self.speed_exponent, fn, *args, **kwargs)
        self.phase_s[phase] += ref
        self.wall_s += wall
        return result

    @contextlib.contextmanager
    def op(self, label: str):
        """One operation: any exception, a failed check included, fails it."""
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # the run goes on; the failure is counted and reported
            self.failed += 1
            self.wrong += isinstance(exc, checks.CheckFailed)
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")

    @property
    def lrc7_s(self) -> float:
        return sum(self.phase_s.values())


def run_cli(tally: Tally, phase: str, argv: list[str]) -> str:
    """`lrc7 <argv>` in process; returns stdout, fails on a nonzero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = tally.call(phase, lambda: lrc7.cli.main(argv))
    checks.require(rc == 0, f"lrc7 {' '.join(argv)} exited {rc}: {err.getvalue().strip()[:200]}")
    return out.getvalue()


def fixture_data(name: str) -> dict:
    return json.loads(lrc7.codec.fixture_path(name).read_text())


# -- certify: construct + verify through the CLI -----------------------------------


@dataclass(frozen=True)
class CertifyPlan:
    lex_q: tuple = (4, 5, 7, 8, 9, 11)
    # the distance search time of a seeded code varies up to 3x with the seed
    # at q >= 7 (construct at q = 7: 0.14 to 0.44 s), so seeded runs are at
    # q = 4 and 5, where it stays below 0.05 s
    seeded_q: tuple = (4, 5)
    oracle_q: tuple = (4, 5)  # lex codes small enough for min_weight_oracle


class Certify:
    name = "certify"
    # `lrc7 construct --q 9` in 12 processes: slope 0.70 (0.62 in a second set)
    SPEED_EXPONENT = 0.7

    def __init__(self, plan: CertifyPlan = CertifyPlan()):
        self.plan = plan

    def prepare(self, work: Path, seed: int) -> None:
        pass

    def setup(self, work: Path) -> dict:
        return {"work": work, "h1": lrc7.code_from_parity_check(lrc7.load_fixture("h1")[0])}

    def _certify(self, tally: Tally, q: int, outdir: Path, extra: list[str]) -> None:
        label = f"construct q={q} {' '.join(extra) or 'lex'}"
        with tally.op(label):
            text = run_cli(tally, "construct", ["construct", "--q", str(q), "--out", str(outdir), *extra])
            made = checks.parse_construct(text)
            checks.require(made["q"] == q, f"{label}: reported q={made['q']}")
            checks.check_code_params(q, made["L"], made["n"], made["k"], made["d"])
            tally.rounds += made["L"]
            tally.trace_bytes += (outdir / "trace.json").stat().st_size
            matrix = json.loads((outdir / "matrix.json").read_text())
            checks.check_parity_matrix(matrix, made["k"])
        with tally.op(f"verify of {label}"):
            text = run_cli(tally, "verify", ["verify", str(outdir / "matrix.json")])
            got = checks.parse_verify(text)
            checks.require(got == made, f"verify reports {got}, construct reported {made}")

    def run_pass(self, state: dict, seed: int, index: int, tally: Tally) -> None:
        work = state["work"]
        for q in self.plan.lex_q:
            self._certify(tally, q, work / f"lex-{q}", [])
        for j, q in enumerate(self.plan.seeded_q):
            s = derive(seed, "certify", index, j)
            self._certify(tally, q, work / f"seeded-{j}", ["--policy", "seeded", "--seed", str(s)])
        for name in ("h1", "h2"):
            with tally.op(f"verify {name}"):
                got = checks.parse_verify(run_cli(tally, "verify", ["verify", name]))
                data = fixture_data(name)
                want = data["params"]
                checks.require(
                    (got["n"], got["k"], got["d"]) == (want["n"], want["k"], want["d"]),
                    f"verify {name} reports {got}, the fixture declares {want}",
                )
                checks.check_code_params(data["p"] ** data["e"], got["L"], got["n"], got["k"], got["d"], constructed=False)
        self._oracle(tally, "h1", state["h1"])
        for q in self.plan.oracle_q:
            with tally.op(f"load lex q={q}"):
                H, _ = tally.call("oracle", lrc7.load_matrix_json, work / f"lex-{q}" / "matrix.json")
                code = tally.call("oracle", lrc7.code_from_parity_check, H)
            self._oracle(tally, f"lex q={q}", code)

    @staticmethod
    def _oracle(tally: Tally, label: str, code) -> None:
        with tally.op(f"distance cross-check {label}"):
            d = tally.call("oracle", lrc7.min_distance, code)
            w = tally.call("oracle", lrc7.min_weight_oracle, code)
            checks.require(d == w, f"{label}: min_distance {d} != min_weight_oracle {w}")


# -- build-large: spread, constructor, conditions, assembly, trace replay -----------


@dataclass(frozen=True)
class BuildPlan:
    # (q, policies).  q = 25 and 32 are left out to keep a pass short enough
    # for two or more per run: verify_spread alone takes 3 s at q = 25 and
    # 6 to 9 s at q = 32.
    runs: tuple = ((16, ("lex", "seeded")), (27, ("lex",)))


class BuildLarge:
    name = "build-large"
    SPEED_EXPONENT = 1.0

    def __init__(self, plan: BuildPlan = BuildPlan()):
        self.plan = plan

    def prepare(self, work: Path, seed: int) -> None:
        pass

    def setup(self, work: Path) -> dict:
        fields = {q: lrc7.field_create(*factor(q)) for q, _ in self.plan.runs}
        return {"work": work, "fields": fields}

    def run_pass(self, state: dict, seed: int, index: int, tally: Tally) -> None:
        work = state["work"]
        for q, policies in self.plan.runs:
            F = state["fields"][q]
            ref = checks.Field(F.p, F.e, F.modulus)
            with tally.op(f"spread q={q}"):
                spread = tally.call("build", lrc7.build_2_spread, F)
                checks.require(tally.call("check", lrc7.verify_spread, spread), f"verify_spread rejects the q={q} spread")
                checks.check_spread_points(ref, [pl.basis for pl in spread.planes])
            for policy in policies:
                s = derive(seed, "build-large", index, q) if policy == "seeded" else None
                self._build(tally, F, ref, policy, s, work / f"trace-{q}-{policy}.json")

    @staticmethod
    def _build(tally: Tally, F, ref, policy: str, s, trace_path: Path) -> None:
        label = f"q={F.q} {policy}" + (f" seed={s}" if s is not None else "")
        with tally.op(f"construct {label}"):
            seq, trace = tally.call("build", lrc7.run_algorithm1, F, policy, s)
            checks.require(seq.L == trace.L, f"{label}: sequence L={seq.L}, trace L={trace.L}")
            checks.require(seq.L >= checks.round_bound(F.q), f"{label}: L={seq.L} below the round bound")
            tally.rounds += seq.L
        with tally.op(f"conditions {label}"):
            report = tally.call("check", lrc7.verify_conditions, seq)
            checks.require(report.ok, f"{label}: conditions fail: {report}")
        with tally.op(f"assemble {label}"):
            H = tally.call("build", lrc7.assemble_parity_check, seq, False)
            code = tally.call("build", lrc7.code_from_parity_check, H)
            checks.check_code_params(F.q, seq.L, code.n, code.k, None)
            checks.check_assembled(ref, seq.pairs, H.array.tolist())
        with tally.op(f"trace replay {label}"):
            tally.call("replay", trace.save_json, trace_path)
            tally.trace_bytes += trace_path.stat().st_size
            loaded = tally.call("replay", ConstructionTrace.load_json, trace_path)
            checks.require(loaded == trace, f"{label}: reloaded trace differs from the recorded one")
            again = tally.call("replay", lrc7.replay_trace, loaded)
            checks.require(again == seq, f"{label}: replay gives a different sequence")


# -- simulate: encoding and local/global repair ---------------------------------------


@dataclass(frozen=True)
class SimulatePlan:
    models: tuple = (("single-uniform", 2000), ("multi-uniform(6)", 600), ("group-burst", 600))
    seeded_q: int = 11
    seeded_L: int = 10


class Simulate:
    name = "simulate"
    # simulate_repairs on h2 in 12 processes: slope 1.04 (0.94 in a second set)
    SPEED_EXPONENT = 1.0

    def __init__(self, plan: SimulatePlan = SimulatePlan()):
        self.plan = plan

    def prepare(self, work: Path, seed: int) -> None:
        """Write the seeded q = 11 parity-check matrix the passes repair on.

        Seeded runs at q = 11 end with L = 10 or 11; the first derived seed
        giving L = 10 is used, so every seed repairs on a code of length 30.
        """
        F = lrc7.field_create(*factor(self.plan.seeded_q))
        for attempt in range(100):
            seq, _ = lrc7.run_algorithm1(F, "seeded", derive(seed, "simulate", "code", attempt))
            if seq.L == self.plan.seeded_L:
                lrc7.save_matrix_json(work / "code.json", lrc7.assemble_parity_check(seq))
                return
        raise RuntimeError(f"no seeded q={F.q} run of length L={self.plan.seeded_L} in 100 attempts")

    def setup(self, work: Path) -> dict:
        codes = {}
        for name, loaded in (("h2", lrc7.load_fixture("h2")), ("seeded", lrc7.load_matrix_json(work / "code.json"))):
            H = loaded[0]
            codes[name] = (lrc7.code_from_parity_check(H), checks.groups_of(H.array.tolist()))
        return {"codes": codes}

    def run_pass(self, state: dict, seed: int, index: int, tally: Tally) -> None:
        for name, (code, groups) in state["codes"].items():
            for model, trials in self.plan.models:
                s = derive(seed, "simulate", index, name, model)
                with tally.op(f"simulate {name} {model} seed={s}"):
                    stats = tally.call("simulate", lrc7.simulate_repairs, code, trials, model, s)
                    records = [
                        {"trial": r.trial, "erased": list(r.erased), "mode": r.mode, "success": r.success, "helpers": r.helpers}
                        for r in stats.records
                    ]
                    checks.check_simulation(stats.summary_dict(), records, groups, model, trials)


WORKLOADS = {w.name: w for w in (Certify, BuildLarge, Simulate)}

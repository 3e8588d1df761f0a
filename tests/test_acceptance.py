"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The constructed-code
corpus shared by criteria 3-6 is one lex run plus 20 seeded runs for every
field order in QS (105 runs total).
"""

import itertools
import json
import time
from fractions import Fraction

import numpy as np
import pytest

from lrc7.bounds import dim_bound_eq3, length_bound_eq5, prior_length_bounds, wang_bound
from lrc7.cli import main as cli_main
from lrc7.codec import (
    _repair_local_info,
    code_from_parity_check,
    encode,
    load_fixture,
    min_distance,
    min_weight_oracle,
    repair_global,
)
from lrc7.construct import assemble_parity_check, run_algorithm1, verify_conditions
from lrc7.fields import field_create
from lrc7.linalg import MatrixF, rank
from lrc7.spread import build_2_spread, verify_spread

QS = {4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2)}
SEEDS = range(20)


@pytest.fixture(scope="module")
def corpus():
    """(q, policy label, VectorSequence) for every constructed run."""
    out = []
    for q, (p, e) in QS.items():
        field = field_create(p, e)
        out.append((q, "lex", run_algorithm1(field, "lex")[0]))
        for seed in SEEDS:
            out.append((q, f"seeded:{seed}", run_algorithm1(field, "seeded", seed)[0]))
    return out


def _cli_json(capsys, *argv):
    code = cli_main(list(argv))
    payload = json.loads(capsys.readouterr().out)
    return code, payload


def test_criterion_1_fixture_reproduction(capsys):
    """Bundled fixtures verify to (9,2,7,2)_4 and (18,8,7,2)_7, both
    almost-optimal, in under 5 seconds each."""
    expected = {
        "h1": {"n": 9, "k": 2, "d": 7, "r": 2, "q": 4},
        "h2": {"n": 18, "k": 8, "d": 7, "r": 2, "q": 7},
    }
    for name, want in expected.items():
        t0 = time.monotonic()
        status, payload = _cli_json(capsys, "verify", name, "--format", "json")
        elapsed = time.monotonic() - t0
        assert status == 0
        for key, val in want.items():
            assert payload[key] == val, (name, key, payload[key])
        assert payload["classification"] == "almost-optimal"
        assert elapsed < 5.0, f"{name} verification took {elapsed:.2f}s"
    print("CRITERION 1: PASS - fixture parameters and classification reproduced exactly")


def test_criterion_2_spread_correctness():
    """For q in {2,3,4,5,7,8,9}: q^2+1 planes, pairwise trivial intersection,
    full coverage, all verified exhaustively in under 10 s total."""
    t0 = time.monotonic()
    for q, (p, e) in {2: (2, 1), 3: (3, 1), **QS}.items():
        field = field_create(p, e)
        s = build_2_spread(field)
        assert len(s.planes) == q * q + 1, q
        assert verify_spread(s), q  # exhaustive path: q <= 16
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"spread checks took {elapsed:.2f}s"
    print(f"CRITERION 2: PASS - spreads verified exhaustively in {elapsed:.2f}s")


def test_criterion_3_construction_guarantee(corpus):
    """Every run reaches the guaranteed number of rounds, satisfies the
    sequence conditions, and respects the length cap; under 2 minutes."""
    t0 = time.monotonic()
    # thresholds recomputed from scratch: smallest m with 9 m^2 >= 2 q^2
    thresholds = {}
    for q in QS:
        m = 1
        while 9 * m * m < 2 * q * q:
            m += 1
        thresholds[q] = max(m, 3)
    assert thresholds == {4: 3, 5: 3, 7: 4, 8: 4, 9: 5}
    for q, label, seq in corpus:
        assert seq.L >= thresholds[q], (q, label, seq.L)
        assert verify_conditions(seq).ok, (q, label)
        assert 3 * seq.L <= length_bound_eq5(q), (q, label, seq.L)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"criterion 3 took {elapsed:.2f}s"
    print(
        f"CRITERION 3: PASS - {len(corpus)} runs meet L >= {thresholds}, "
        f"conditions and length cap ({elapsed:.1f}s)"
    )


def test_criterion_4_dimension_attains_bound(corpus):
    """k = 2L - 4 equals the dimension cap for every constructed code."""
    for q, label, seq in corpus:
        n, k = 3 * seq.L, 2 * seq.L - 4
        assert k == dim_bound_eq3(n, 2, q), (q, label, seq.L)
    print(f"CRITERION 4: PASS - dimension attains the cap on all {len(corpus)} runs")


def test_criterion_5_distance_law(corpus):
    """Every constructed code has d in {7, 8}, and d = 7 whenever n > q + 4,
    via min_distance with cap 8: d = 7 or 8 read from the pair-span table."""
    t0 = time.monotonic()
    observed = {7: 0, 8: 0}
    for q, label, seq in corpus:
        H = assemble_parity_check(seq, check=False)
        code = code_from_parity_check(H)
        d = min_distance(code, cap=8)
        assert d in (7, 8), (q, label, d)
        if 3 * seq.L > q + 4:
            assert d == 7, (q, label, d)
        observed[d] += 1
    elapsed = time.monotonic() - t0
    print(
        f"CRITERION 5: PASS - distance law holds on {len(corpus)} codes by the pair-span table "
        f"(d=7: {observed[7]}, d=8: {observed[8]}; {elapsed:.1f}s)"
    )


def test_criterion_6_oracle_equivalence(corpus):
    """The distance search equals the codeword-enumeration minimum weight on
    the bundled small code and every constructed q = 4 code (pair-span
    table, else group-set search), and on 100 random codes over GF(2)/GF(3) (column-subset DFS,
    as plain matrices have no groups); under 1 minute."""
    t0 = time.monotonic()
    h1, _ = load_fixture("h1")
    code1 = code_from_parity_check(h1)
    assert min_distance(code1) == min_weight_oracle(code1) == 7

    checked = 0
    for q, label, seq in corpus:
        if q != 4:
            continue
        code = code_from_parity_check(assemble_parity_check(seq, check=False))
        assert min_distance(code, cap=code.n) == min_weight_oracle(code, budget=2**21), label
        checked += 1
    assert checked >= 20

    rng = np.random.default_rng(20260808)
    fields = [field_create(2), field_create(3)]
    done = 0
    while done < 100:
        f = fields[int(rng.integers(0, 2))]
        n = int(rng.integers(4, 15))
        m = int(rng.integers(max(1, n - 8), n))
        H = MatrixF(f, rng.integers(0, f.q, size=(m, n)))
        k = n - rank(H)
        if not 1 <= k <= 8:
            continue
        assert min_distance(H, cap=n) == min_weight_oracle(H, budget=2**21)
        done += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"criterion 6 took {elapsed:.2f}s"
    print(
        f"CRITERION 6: PASS - oracle equivalence on the fixture and {checked} constructed "
        f"q=4 codes (pair-span table or group-set search) and 100 random codes (column-subset DFS) ({elapsed:.1f}s)"
    )


def test_criterion_7_repair_correctness():
    """Global repair is exact on every pattern of up to 6 erasures for the
    small fixture (465 patterns x 50 codewords, exhaustive) and on 10^4
    sampled patterns for the large one; single erasures repair locally
    reading exactly 2 helpers."""
    h1, _ = load_fixture("h1")
    code1 = code_from_parity_check(h1)
    f4 = code1.field
    rng = np.random.default_rng(77)

    patterns = [
        pattern
        for w in range(1, 7)
        for pattern in itertools.combinations(range(code1.n), w)
    ]
    assert len(patterns) == 465
    for _ in range(50):
        msg = [int(x) for x in rng.integers(0, 4, size=2)]
        cw = encode(code1, msg)
        for pattern in patterns:
            word: list = list(cw)
            for j in pattern:
                word[j] = None
            assert repair_global(code1, word) == cw
        for pos in range(code1.n):
            word = list(cw)
            word[pos] = None
            value, helpers = _repair_local_info(code1, word, pos)
            assert helpers == 2
            assert value == cw[pos]

    h2, _ = load_fixture("h2")
    code2 = code_from_parity_check(h2)
    for _ in range(10_000):
        msg = [int(x) for x in rng.integers(0, 7, size=8)]
        cw = encode(code2, msg)
        w = int(rng.integers(1, 7))
        pattern = rng.choice(code2.n, size=w, replace=False)
        word = list(cw)
        for j in pattern:
            word[j] = None
        assert repair_global(code2, word) == cw
    print("CRITERION 7: PASS - exhaustive small-code repair and 10^4 sampled large-code repairs exact")


def test_criterion_8_bound_comparisons():
    """Length-cap chain at d=7, r=2 for ten field orders, and the dimension
    cap never exceeding the floor of the real-valued cap on a 200-length grid."""
    for q in (4, 5, 7, 8, 9, 11, 13, 16, 25, 32):
        eq5 = length_bound_eq5(q)
        guru, chen = prior_length_bounds(7, 2, q)
        # independent recomputation of the two prior caps
        assert chen == Fraction(q**4 - 1, q - 1)
        assert guru == Fraction(3 * q**4, 2 * (q - 1))
        assert eq5 < chen < guru, q
    for r in (2, 3):
        for q in (4, 8, 16):
            for n in range(r + 1, 201, r + 1):
                assert dim_bound_eq3(n, r, q) <= wang_bound(n, r, q)[1], (n, r, q)
    print("CRITERION 8: PASS - length-cap chain and dimension-cap comparison hold")

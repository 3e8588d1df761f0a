import dataclasses
import functools
import io
import itertools
import json
import random
import re

import numpy as np
import pytest

from lrc7 import codec
from lrc7.cli import main
from lrc7.bounds import classify
from lrc7.codec import (
    EnumerationBudgetError,
    GroupDetectionError,
    LocalRepairError,
    LrcCode,
    RepairStats,
    TrialRecord,
    UnrecoverableErasureError,
    _STREAM_TRIALS,
    _block_table,
    _group_set_distance,
    _trial_draws,
    block_distance,
    code_from_parity_check,
    encode,
    load_fixture,
    min_distance,
    min_weight_oracle,
    parse_failure_model,
    repair_global,
    repair_local,
    simulate_repairs,
    wilson_interval,
)
from lrc7.construct import PairSpanTable, VectorSequence, assemble_parity_check, run_algorithm1
from lrc7.fields import field_create
from lrc7.linalg import MatrixF, kernel_basis, matmul, rank, solve_columns


@pytest.fixture(scope="module")
def h1_code():
    H, _ = load_fixture("h1")
    return code_from_parity_check(H)


@pytest.fixture(scope="module")
def h2_code():
    H, _ = load_fixture("h2")
    return code_from_parity_check(H)


# ---------------------------------------------------------------------------
# code construction
# ---------------------------------------------------------------------------


def test_h1_parameters(h1_code):
    assert (h1_code.n, h1_code.k) == (9, 2)
    assert h1_code.field.q == 4
    assert h1_code.groups == ((0, 1, 2), (3, 4, 5), (6, 7, 8))
    assert rank(h1_code.H) == 7
    assert not matmul(h1_code.G, h1_code.H.transpose()).array.any()


def test_h2_parameters(h2_code):
    assert (h2_code.n, h2_code.k) == (18, 8)
    assert h2_code.field.q == 7
    assert len(h2_code.groups) == 6
    assert len(kernel_basis(h2_code.H)) == 8


def test_declared_fixture_params_match():
    for name, expect in (("h1", (9, 2, 7, 2)), ("h2", (18, 8, 7, 2))):
        H, extras = load_fixture(name)
        declared = extras["params"]
        assert (declared["n"], declared["k"], declared["d"], declared["r"]) == expect


def test_full_rank_matrix_rejected():
    f = field_create(7)
    with pytest.raises(ValueError, match="full column rank"):
        code_from_parity_check(MatrixF(f, np.eye(4, dtype=np.int32)))


def test_one_dimensional_code_rejected(tmp_path, capsys):
    # locality 2 needs k >= 2: a (3, 1) code is refused by the API, and by
    # verify and simulate with exit 1
    H = MatrixF(field_create(5), [[1, 1, 1], [0, 1, 2]])
    with pytest.raises(ValueError, match=re.escape("need 1 <= r <= k, got r=2, k=1")):
        code_from_parity_check(H)
    path = tmp_path / "k1.json"
    path.write_text(json.dumps({"p": 5, "e": 1, "modulus": [0, 1], "rows": 2, "cols": 3, "entries": H.array.tolist()}))
    for argv in (["verify", str(path)], ["simulate", str(path), "--trials", "5", "--failure-model", "single-uniform"]):
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: need 1 <= r <= k, got r=2, k=1\n"


def test_group_detection_failure():
    f = field_create(7)
    M = MatrixF(f, [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0]])  # weight-2 rows
    with pytest.raises(GroupDetectionError):
        code_from_parity_check(M)


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------


def test_h1_distance_and_oracle(h1_code):
    assert min_distance(h1_code) == 7
    assert min_weight_oracle(h1_code) == 7  # all 16 codewords enumerated


def test_h2_distance(h2_code):
    assert min_distance(h2_code) == 7


def test_distance_cap_reporting(h1_code):
    assert min_distance(h1_code, cap=6) is None
    with pytest.raises(ValueError):
        min_distance(h1_code, cap=0)


def test_classification_of_fixtures(h1_code, h2_code):
    for code in (h1_code, h2_code):
        d = min_distance(code)
        assert classify(code.n, code.k, d, 2) == "almost-optimal"


def test_weight7_support_columns_are_dependent(h1_code):
    """The 7 columns supporting a minimum-weight codeword are dependent,
    while every 6-column subset is independent (found by enumerating all
    16 codewords)."""

    def dependent(subset):
        return rank(MatrixF(h1_code.field, h1_code.H.array[:, list(subset)])) < len(subset)

    supports = []
    for a in range(4):
        for b in range(4):
            if a == b == 0:
                continue
            cw = encode(h1_code, [a, b])
            if sum(1 for x in cw if x) == 7:
                supports.append(tuple(j for j, x in enumerate(cw) if x))
    assert supports
    for support in supports:
        assert dependent(support)
    for subset in itertools.combinations(range(9), 6):
        assert not dependent(subset)


def test_distance_respects_singleton_cap(h1_code, h2_code):
    from lrc7.bounds import singleton_like

    for code in (h1_code, h2_code):
        d = min_distance(code)
        assert d <= singleton_like(code.n, code.k, 2)


def test_min_distance_accepts_plain_matrix():
    f = field_create(2)
    H = MatrixF(f, [[1, 0, 1, 1], [0, 1, 1, 0]])
    assert min_distance(H) == min_weight_oracle(H)


def test_oracle_on_random_small_codes():
    rng = np.random.default_rng(2024)
    fields = [field_create(2), field_create(3)]
    done = 0
    while done < 25:
        f = rng.choice(fields)
        n = int(rng.integers(4, 13))
        m = int(rng.integers(1, n))
        H = MatrixF(f, rng.integers(0, f.q, size=(m, n)))
        if H.cols - rank(H) == 0:
            continue
        d_subset = min_distance(H, cap=n)
        d_oracle = min_weight_oracle(H)
        assert d_subset == d_oracle
        done += 1


@pytest.mark.parametrize("q, dim", [(2, 1), (3, 3), (4, 4), (16, 5)])
def test_projective_points_are_one_per_point(q, dim):
    from lrc7.codec import _projective_points

    blocks = list(_projective_points(q, dim))
    assert max(len(b) for b in blocks) <= 1 << 15  # q = 16, dim = 5 needs two blocks
    rows = np.concatenate(blocks)
    assert len(rows) == (q**dim - 1) // (q - 1)
    assert len({tuple(r) for r in rows}) == len(rows)
    leads = rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)]
    assert (leads == 1).all()  # normalised, so distinct rows are distinct points


# The group-set search (`_group_set_distance`) and min_distance on an LrcCode
# against the column-subset DFS (min_distance on its H), which shares no code
# with either.  Corpus: the seeded constructor output at each q truncated to
# 3..6 pairs, each with one copy whose random pair vector is replaced by a
# random vector; and codes whose H is the group indicators over 6 random rows,
# which reach d = 8 and 9 with 5 groups, so the search runs past the 3-group
# sets (after the m-group sets it settles any d <= 2m + 2).
_CROSS_CHECK_FIELDS = {4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2)}
_CROSS_CHECK_SEED = 6  # at q = 9, its first 3 pairs give d = 8
# q = 7, seed 5: d = 8, yet every codeword inside 3 groups has weight 9
_RANDOM_ROW_SEEDS = {5: (7, 8, 9), 7: (5, 7, 8, 9)}


@functools.lru_cache(maxsize=None)
def _cross_check_codes(q):
    field = field_create(*_CROSS_CHECK_FIELDS[q])
    seq, _ = run_algorithm1(field, "seeded", _CROSS_CHECK_SEED)
    rng = random.Random(_CROSS_CHECK_SEED)
    codes = []
    for L in range(3, min(6, seq.L) + 1):
        pairs = [list(p) for p in seq.pairs[:L]]
        codes.append(code_from_parity_check(assemble_parity_check(VectorSequence(field, pairs), check=False)))
        pairs[rng.randrange(L)][rng.randrange(2)] = tuple(rng.randrange(q) for _ in range(4))
        codes.append(code_from_parity_check(assemble_parity_check(VectorSequence(field, pairs), check=False)))
    for row_seed in _RANDOM_ROW_SEEDS.get(q, ()):
        rows = np.random.default_rng(row_seed).integers(0, q, size=(6, 15))
        H = np.concatenate([np.kron(np.eye(5, dtype=np.int32), np.ones((1, 3), dtype=np.int32)), rows])
        codes.append(code_from_parity_check(MatrixF(field, H)))
    return codes


@pytest.mark.parametrize("q", sorted(_CROSS_CHECK_FIELDS))
def test_group_set_distance_matches_dfs(q):
    for code in _cross_check_codes(q):
        for cap in [*range(1, 10), code.n]:
            assert min_distance(code, cap) == _group_set_distance(code, cap) == min_distance(code.H, cap), (code, cap)


def test_group_set_cross_check_corpus_reaches_every_exit():
    found = [(_group_set_distance(code, code.n), len(code.groups)) for q in _CROSS_CHECK_FIELDS for code in _cross_check_codes(q)]
    assert any(d <= 6 for d, _ in found)  # settled by the 2-group sets or earlier
    assert (8, 3) in found  # settled by the whole code
    assert any(d >= 9 and L >= 5 for d, L in found)  # settled by the 4-group sets or later


# The pair-span table (min_distance's rule, `block_distance`) against the
# group-set search and the DFS, on block codes of pair sequences: the lex and
# seeded 0 / 1 outputs at q = 4, 5, 7, 8 and 9, their 3..6-pair truncations
# and one mutated copy of each (a random pair vector replaced by a random
# vector), plus h1, h2 and d = 8 block codes: seeded outputs cut to 3 pairs,
# seed 6 at q = 9 and seeds 22 and 34 at q = 13.
_TABLE_RUNS = (("lex", None), ("seeded", 0), ("seeded", 1))
_TABLE_MUTATION_SEED = 3
_TABLE_FIELDS = {**_CROSS_CHECK_FIELDS, 13: (13, 1)}
_D8_SEEDS = {9: (_CROSS_CHECK_SEED,), 13: (22, 34)}


@functools.lru_cache(maxsize=None)
def _table_corpus(q):
    field = field_create(*_TABLE_FIELDS[q])
    rng = random.Random(_TABLE_MUTATION_SEED)
    seqs = []
    for policy, seed in _TABLE_RUNS if q in _CROSS_CHECK_FIELDS else ():
        seq, _ = run_algorithm1(field, policy, seed)
        seqs.append(seq)
        for L in range(3, min(6, seq.L) + 1):
            pairs = [list(p) for p in seq.pairs[:L]]
            seqs.append(VectorSequence(field, pairs))
            pairs[rng.randrange(L)][rng.randrange(2)] = tuple(rng.randrange(q) for _ in range(4))
            seqs.append(VectorSequence(field, pairs))
    for seed in _D8_SEEDS.get(q, ()):
        seq, _ = run_algorithm1(field, "seeded", seed)
        seqs.append(VectorSequence(field, seq.pairs[:3]))
    codes = [(s, code_from_parity_check(assemble_parity_check(s, check=False))) for s in seqs]
    fixtures = {4: "h1", 7: "h2"}
    if q in fixtures:
        codes.append((None, code_from_parity_check(load_fixture(fixtures[q])[0])))
    return [(s, code, min_distance(code.H, 8)) for s, code in codes]  # the DFS: d when d <= 8


def _weight7_witness(code):
    """The weight-7 codeword that `weight7_parts` reads from the block code's
    pair-span table; None when H is not a block code, a condition fails or
    the table has no weight-7 point."""
    table = _block_table(code)
    parts = table.weight7_parts() if table is not None and table.conditions().ok else None
    if parts is None:
        return None
    field, word = code.field, np.zeros(code.n, dtype=np.int32)
    for g, (a, b) in parts.items():
        word[list(code.groups[g])] = (a, b, field.neg(field.add(a, b)))
    return word


def _weight8_word(seq):
    """The weight-8 codeword of `block_distance`'s proof on groups 0, 1, 2:
    u0(0) = x + y with x = A_1*u1(1) + B_1*u2(1) and y = A_2*u1(2) +
    B_2*u2(2), from one solve."""
    field, V = seq.field, seq.triples()
    A1, B1, A2, B2 = solve_columns(field, np.concatenate([V[1, 1:], V[2, 1:]]).T, V[0, 0]).tolist()
    word = np.zeros(3 * seq.L, dtype=np.int32)
    word[:3] = (1, field.neg(1), 0)
    for g, (a, b) in ((1, (A1, B1)), (2, (A2, B2))):
        word[3 * g : 3 * g + 3] = (field.neg(a), field.neg(b), field.add(a, b))
    return word


@pytest.mark.parametrize("q", sorted(_TABLE_FIELDS))
def test_table_distance_matches_group_sets_and_dfs(q):
    from lrc7.construct import verify_conditions
    from lrc7.linalg import _matmul_codes

    for seq, code, d in _table_corpus(q):
        for cap in (6, 7, 8):
            want = d if d is not None and d <= cap else None
            assert min_distance(code, cap) == _group_set_distance(code, cap) == want, (seq, cap)
        w = _weight7_witness(code)
        assert (w is not None) == (d == 7), seq
        if w is not None:
            assert np.count_nonzero(w) == 7
            assert not _matmul_codes(code.field, w[None, :], code.H.array.T).any()
        if seq is not None:
            assert verify_conditions(seq).ok == (d is None or d >= 7), seq
            assert block_distance(PairSpanTable.of(seq))[1] == (d if d is None or d >= 7 else None), seq
        if d == 8:
            w = _weight8_word(seq)
            assert np.count_nonzero(w) == 8
            assert not _matmul_codes(code.field, w[None, :], code.H.array.T).any()


@pytest.mark.parametrize("q", sorted(_TABLE_FIELDS))
def test_construct_certifies_as_the_built_code(q, capsys, monkeypatch):
    """`cli._certify` reads d from the sequence's own table; building the
    code and searching it, with the conditions read from the code's table,
    gives the same (n, k, d), or the same stderr line and exit code."""
    from lrc7 import cli

    for seq, code, _ in _table_corpus(q):
        if seq is None:
            continue
        monkeypatch.setattr(cli, "run_algorithm1", lambda *a, **kw: (seq, None))
        report = _block_table(code).conditions()
        for cap in (6, 7, 8):
            if report.ok:
                want, err = (code.n, code.k, _group_set_distance(code, cap)), ""
            else:
                want, err = None, f"verification failed: sequence conditions do not hold: {report}\n"
            assert cli._certify(seq, code.H, cap) == want, (seq, cap)
            assert capsys.readouterr().err == err
            assert main(["construct", "--q", str(q), "--distance-cap", str(cap)]) == (1 if want is None else 0)
            assert capsys.readouterr().err == err


_SPAN_ORDER_SEED = 15


@pytest.mark.parametrize("name", ["h2", "lex7", "lex8"])
def test_weight7_witness_does_not_depend_on_span_order(name, monkeypatch):
    """Every span row of the table permuted: the same weight-7 codeword."""
    from lrc7.linalg import _matmul_codes

    if name == "h2":
        H = load_fixture("h2")[0]
    else:
        H = assemble_parity_check(run_algorithm1(field_create(*{"lex7": (7, 1), "lex8": (2, 3)}[name]))[0])
    want = _weight7_witness(code_from_parity_check(H))
    build, permutations = PairSpanTable.of, []

    def permuted(seq):
        table = build(seq)
        spans = np.random.default_rng(_SPAN_ORDER_SEED).permuted(table.spans, axis=2)
        assert not (spans == table.spans).all()
        permutations.append(seq.L)
        return dataclasses.replace(table, spans=spans)

    monkeypatch.setattr(PairSpanTable, "of", staticmethod(permuted))
    code = code_from_parity_check(H)
    w = _weight7_witness(code)
    assert len(permutations) == 1
    assert np.count_nonzero(w) == 7
    assert not _matmul_codes(code.field, w[None, :], code.H.array.T).any()
    assert (w == want).all()


def test_block_table_is_built_once_per_code():
    code = code_from_parity_check(load_fixture("h2")[0])
    table = _block_table(code)
    assert table.seq.L == len(code.groups)
    assert table.conditions().ok
    assert _block_table(_sim_code("h2-two-checks")) is None  # L + 5 rows: no block code


def test_block_distance_needs_three_pairs():
    # one or two pairs meeting c1-c3 have no third group for the rule's words
    field = field_create(7)
    seq, _ = run_algorithm1(field)
    for L in (1, 2):
        report, d = block_distance(PairSpanTable.of(VectorSequence(field, seq.pairs[:L])))
        assert report.ok and d is None


def test_table_corpus_reaches_every_branch():
    found = [(seq is None, d) for q in _TABLE_FIELDS for seq, _, d in _table_corpus(q)]
    assert (True, 7) in found  # h1, h2
    assert any(d is not None and d <= 6 for _, d in found)  # a condition fails
    assert (False, 7) in found  # a weight-7 hit on the table
    assert (False, 8) in found  # the conditions hold, no weight-7 hit
    assert {q for q in _TABLE_FIELDS for _, _, d in _table_corpus(q) if d == 8} == {9, 13}


def test_oracle_budget():
    f = field_create(3)
    H = MatrixF(f, np.zeros((1, 14), dtype=np.int32) + np.eye(1, 14, dtype=np.int32))
    with pytest.raises(EnumerationBudgetError):
        min_weight_oracle(H, budget=100)


def test_oracle_budget_argument():
    f = field_create(2)
    H = MatrixF(f, [[1, 1, 0], [0, 1, 1]])
    with pytest.raises(EnumerationBudgetError):
        min_weight_oracle(H, budget=1)
    assert min_weight_oracle(H, budget=10) == 3


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def test_zero_message_encodes_to_zero(h1_code):
    assert encode(h1_code, [0, 0]) == (0,) * 9


def test_group_checks_sum_to_zero(h2_code):
    f = h2_code.field
    rng = np.random.default_rng(5)
    for _ in range(25):
        msg = [int(x) for x in rng.integers(0, 7, size=8)]
        cw = encode(h2_code, msg)
        for g in h2_code.groups:
            acc = 0
            for j in g:
                acc = f.add(acc, cw[j])
            assert acc == 0


def test_all_encodings_distinct(h1_code):
    words = {encode(h1_code, [a, b]) for a in range(4) for b in range(4)}
    assert len(words) == 16


def test_encode_length_check(h1_code):
    with pytest.raises(ValueError):
        encode(h1_code, [0, 0, 0])


@pytest.mark.parametrize("bad", [1.5, 2.0, np.float64(1.0), True, np.bool_(False), 4, -1, "1"])
def test_symbols_must_be_integer_codes(h1_code, bad):
    # GF(4): a float was once truncated (1.5 read as 1), a bool read as 0 or 1
    match = "bool" if isinstance(bad, (bool, np.bool_)) else None
    with pytest.raises(ValueError, match=match):
        encode(h1_code, [1, bad])
    word: list = list(encode(h1_code, [1, 2]))
    word[0], word[4] = None, bad
    with pytest.raises(ValueError, match=match):
        repair_local(h1_code, word, 0)
    with pytest.raises(ValueError, match=match):
        repair_global(h1_code, word)


def test_symbols_accept_numpy_integers(h1_code):
    cw = encode(h1_code, [np.int64(1), np.uint8(2)])
    assert cw == encode(h1_code, np.array([1, 2], dtype=np.int32))
    assert all(type(c) is int for c in cw)
    word = [None, *(np.int32(c) for c in cw[1:])]
    value = repair_local(h1_code, word, 0)
    assert value == cw[0] and type(value) is int
    assert repair_global(h1_code, word) == cw


# ---------------------------------------------------------------------------
# repair
# ---------------------------------------------------------------------------


def test_local_repair_single_erasure(h1_code):
    f = h1_code.field
    cw = encode(h1_code, [2, 1])
    word = list(cw)
    word[2] = None
    got = repair_local(h1_code, word, 2)
    # the group check row is all ones: the sum of the partners (char 2)
    assert got == f.add(cw[0], cw[1]) == cw[2]


def test_local_repair_every_position_roundtrip(h2_code):
    rng = np.random.default_rng(11)
    for _ in range(40):
        msg = [int(x) for x in rng.integers(0, 7, size=8)]
        cw = encode(h2_code, msg)
        pos = int(rng.integers(0, 18))
        word = list(cw)
        word[pos] = None
        assert repair_local(h2_code, word, pos) == cw[pos]


def test_local_repair_fails_on_partner_loss(h1_code):
    cw = encode(h1_code, [1, 2])
    word = list(cw)
    word[0] = None
    word[1] = None
    with pytest.raises(LocalRepairError):
        repair_local(h1_code, word, 0)


def test_local_repair_requires_erased_position(h1_code):
    cw = encode(h1_code, [1, 2])
    with pytest.raises(ValueError, match="not erased"):
        repair_local(h1_code, list(cw), 0)


@pytest.mark.parametrize("pos", [-1, 18, True, 1.0, "17"])
def test_local_repair_rejects_a_bad_position(h2_code, pos):
    # last symbol erased: -1 once read it and blamed an erased partner,
    # 18 raised IndexError and True was read as position 1
    word: list = list(encode(h2_code, [1] * 8))
    word[17] = None
    with pytest.raises(ValueError, match=r"^position must be an int in \[0, 18\), got "):
        repair_local(h2_code, word, pos)
    assert repair_local(h2_code, word, np.int64(17)) == repair_local(h2_code, word, 17)


def test_global_repair_no_erasures_is_identity(h1_code):
    cw = encode(h1_code, [3, 1])
    assert repair_global(h1_code, list(cw)) == cw


def test_global_repair_six_erasures(h1_code):
    rng = np.random.default_rng(3)
    for _ in range(20):
        msg = [int(x) for x in rng.integers(0, 4, size=2)]
        cw = encode(h1_code, msg)
        erased = rng.choice(9, size=6, replace=False)
        word: list = list(cw)
        for j in erased:
            word[j] = None
        assert repair_global(h1_code, word) == cw


def test_weight7_support_unrecoverable(h1_code):
    # find a minimum-weight codeword by enumeration and erase its support
    f = h1_code.field
    best = None
    for a in range(4):
        for b in range(4):
            if a == b == 0:
                continue
            cw = encode(h1_code, [a, b])
            w = sum(1 for x in cw if x)
            if best is None or w < best[0]:
                best = (w, cw)
    weight, cw = best
    assert weight == 7
    support = [j for j, x in enumerate(cw) if x]
    word: list = list(encode(h1_code, [1, 3]))
    for j in support:
        word[j] = None
    with pytest.raises(UnrecoverableErasureError):
        repair_global(h1_code, word)


# ---------------------------------------------------------------------------
# simulator
# ---------------------------------------------------------------------------


def test_parse_failure_model():
    assert parse_failure_model("single-uniform") == ("single-uniform", None)
    assert parse_failure_model("multi-uniform(6)") == ("multi-uniform", 6)
    assert parse_failure_model("multi-uniform:4") == ("multi-uniform", 4)
    assert parse_failure_model("group-burst") == ("group-burst", None)
    with pytest.raises(ValueError):
        parse_failure_model("multi-uniform")
    with pytest.raises(ValueError):
        parse_failure_model("bursty")
    for spec in ("multi-uniform(x)", "multi-uniform:x", "multi-uniform()"):
        with pytest.raises(ValueError, match="unknown failure model"):
            parse_failure_model(spec)


def test_single_uniform_all_local(h1_code):
    summary = simulate_repairs(h1_code, trials=400, failure_model="single-uniform", seed=1).summary_dict()
    assert summary["success_rate"] == 1.0
    assert summary["local_symbol_fraction"] == 1.0
    assert summary["mean_helpers_per_symbol"] == 2.0
    assert summary["mean_helpers_per_trial"] == 2.0


def test_multi_uniform_six_always_recovers(h1_code):
    stats = simulate_repairs(h1_code, trials=300, failure_model="multi-uniform(6)", seed=2)
    assert stats.summary_dict()["success_rate"] == 1.0


def test_multi_uniform_seven_sometimes_fails(h1_code):
    summary = simulate_repairs(h1_code, trials=2000, failure_model="multi-uniform(7)", seed=3).summary_dict()
    assert summary["success_rate"] < 1.0
    lo, hi = summary["success_wilson_ci_95"]
    assert 0.0 <= lo <= summary["success_rate"] <= hi <= 1.0


def test_group_burst_recovers_globally(h2_code):
    stats = simulate_repairs(h2_code, trials=150, failure_model="group-burst", seed=4)
    summary = stats.summary_dict()
    assert summary["success_rate"] == 1.0
    assert summary["local_trials"] == 0
    assert all(rec.mode == "global" for rec in stats.records)
    assert all(rec.helpers == 15 for rec in stats.records)  # n - 3 read


def test_simulator_determinism(h1_code):
    a = simulate_repairs(h1_code, trials=100, failure_model="multi-uniform(3)", seed=9)
    b = simulate_repairs(h1_code, trials=100, failure_model="multi-uniform(3)", seed=9)
    assert a == b
    c = simulate_repairs(h1_code, trials=100, failure_model="multi-uniform(3)", seed=10)
    assert a != c


@pytest.mark.parametrize("trials", [0, -1])
def test_simulator_rejects_fewer_than_one_trial(h1_code, trials):
    with pytest.raises(ValueError, match="at least one trial"):
        simulate_repairs(h1_code, trials=trials, failure_model="single-uniform")


@pytest.mark.parametrize("seed", [None, True, False, -1, 1.5, "3", np.int64(3)], ids=repr)
def test_simulator_refuses_a_seed_that_is_no_non_negative_int(h1_code, seed, monkeypatch):
    # None would draw fresh OS entropy, True would run as 1, -1 failed inside numpy
    monkeypatch.setattr(codec, "_trial_draws", lambda *a: pytest.fail("drew before checking the seed"))
    with pytest.raises(ValueError, match=re.escape(f"seed must be a non-negative int, got {seed!r}")):
        simulate_repairs(h1_code, trials=5, failure_model="single-uniform", seed=seed)


def test_simulator_mixed_pattern_routing(h1_code):
    stats = simulate_repairs(h1_code, trials=300, failure_model="multi-uniform(2)", seed=6)
    assert stats.summary_dict()["success_rate"] == 1.0
    group_of = {j: gi for gi, g in enumerate(h1_code.groups) for j in g}
    for rec in stats.records:
        groups_touched = {group_of[j] for j in rec.erased}
        if len(groups_touched) == 2:
            assert rec.mode == "local" and rec.helpers == 4
        else:
            assert rec.mode == "global" and rec.helpers == 7


# simulate_repairs against a per-trial reference built only from the public
# encode, repair_local and repair_global, on stream 2 written out below.
# Corpus: h1 (characteristic 2), h2, a seeded q = 5 constructor output, and
# h2 with one more check, weight 2 inside group 0: its H has L + 5 rows, so
# it is no block code, and group 0 has a second check that local repair
# does not read.
_SIM_SEEDS = {"h1": 21, "h2": 22, "q5": 23, "h2-two-checks": 24}
_SIM_MODELS = ("single-uniform", "group-burst", "multi-uniform(2)", "multi-uniform(6)")


@functools.lru_cache(maxsize=None)
def _sim_code(name):
    if name == "q5":
        seq, _ = run_algorithm1(field_create(5), "seeded", _SIM_SEEDS[name])
        return code_from_parity_check(assemble_parity_check(seq))
    H, _ = load_fixture("h1" if name == "h1" else "h2")
    if name in ("h1", "h2"):
        return code_from_parity_check(H)
    extra = np.zeros((1, H.cols), dtype=np.int32)
    extra[0, :2] = (4, 1)
    return code_from_parity_check(MatrixF(H.field, np.vstack([H.array, extra])))


def _symbols_read(code, word, pos, value):
    """Group partners of pos whose value changes repair_local's result."""
    f = code.field
    count = 0
    for j in next(g for g in code.groups if pos in g):
        if word[j] is not None and j != pos:
            moved = list(word)
            moved[j] = f.add(word[j], 1)
            count += repair_local(code, moved, pos) != value
    return count


def _stream_v2_draws(seed, trials, q, k, failure_model, groups):
    """Stream 2 as numpy's spawn tree: unit u (trials 1024u to 1024u + 1023)
    is child u of SeedSequence(seed), and its children 0 and 1 draw the
    unit's messages and erasures."""
    kind, f = parse_failure_model(failure_model)
    n, units = groups.size, -(-trials // 1024)
    msgs, E = [], []
    for u, unit in enumerate(np.random.SeedSequence(seed).spawn(units)):
        B = min(1024, trials - 1024 * u)
        msg_rng, erasure_rng = (np.random.default_rng(child) for child in unit.spawn(2))
        msgs += msg_rng.integers(0, q, (B, k)).tolist()
        if kind == "single-uniform":
            E += erasure_rng.integers(0, n, (B, 1)).tolist()
        elif kind == "multi-uniform":
            E += np.sort(erasure_rng.permuted(np.tile(np.arange(n), (B, 1)), axis=1)[:, :f], axis=1).tolist()
        else:
            E += groups[erasure_rng.integers(0, len(groups), B)].tolist()
    return msgs, E


def _reference_simulation(code, trials, failure_model, seed):
    n = code.n
    group_of = {j: gi for gi, g in enumerate(code.groups) for j in g}
    records = []
    msgs, E = _stream_v2_draws(seed, trials, code.field.q, code.k, failure_model, np.array(code.groups))
    for t, (message, erased) in enumerate(zip(msgs, E)):
        codeword = encode(code, message)
        erased = tuple(erased)
        word = [None if j in erased else c for j, c in enumerate(codeword)]
        if len({group_of[j] for j in erased}) == len(erased):
            ok, helpers = True, 0
            for j in erased:
                value = repair_local(code, word, j)
                ok &= value == codeword[j]
                helpers += _symbols_read(code, word, j, value)
            records.append(TrialRecord(t, erased, "local", ok, helpers))
        else:
            try:
                ok = repair_global(code, word) == codeword
            except UnrecoverableErasureError:
                ok = False
            records.append(TrialRecord(t, erased, "global", ok, n - len(erased)))
    return RepairStats(
        erasures=np.array([r.erased for r in records], dtype=np.int32),
        local=np.array([r.mode == "local" for r in records]),
        ok=np.array([r.success for r in records]),
        helpers=np.array([r.helpers for r in records], dtype=np.int32),
    )


def _summary(records):
    """RepairStats.summary_dict(), counted from a list of TrialRecords."""
    trials, successes = len(records), sum(r.success for r in records)
    local = [r for r in records if r.mode == "local"]
    erased, local_erased = sum(len(r.erased) for r in records), sum(len(r.erased) for r in local)
    helpers = sum(r.helpers for r in records)
    return {
        "trials": trials,
        "successes": successes,
        "success_rate": successes / trials,
        "success_wilson_ci_95": list(wilson_interval(successes, trials)),
        "local_trials": len(local),
        "erased_symbols": erased,
        "locally_repaired_symbols": local_erased,
        "local_symbol_fraction": local_erased / erased,
        "mean_helpers_per_trial": helpers / trials,
        "mean_helpers_per_symbol": helpers / erased,
    }


_SIM_CASES = [(name, model) for name in _SIM_SEEDS for model in _SIM_MODELS]
_SIM_CASES += [("h2", "multi-uniform(7)"), ("h2", "multi-uniform(9)"), ("h1", "multi-uniform(9)")]


@functools.lru_cache(maxsize=None)
def _simulated(name, model):
    code = _sim_code(name)
    seed = _SIM_SEEDS[name]
    return simulate_repairs(code, 120, model, seed), _reference_simulation(code, 120, model, seed)


@pytest.mark.parametrize("name, model", _SIM_CASES)
def test_simulator_matches_per_trial_reference(name, model):
    fast, slow = _simulated(name, model)
    assert fast == slow
    assert fast.records == slow.records
    # all ten keys in order, the rates and the Wilson interval included
    assert list(fast.summary_dict().items()) == list(_summary(slow.records).items())


def test_simulator_reference_corpus_covers_every_path():
    stats = [_simulated(name, model)[0] for name, model in _SIM_CASES]
    assert any(d["successes"] < d["trials"] for d in map(RepairStats.summary_dict, stats))  # some pattern cannot be repaired
    records = [r for s in stats for r in s.records]
    assert all(r.helpers == 2 * len(r.erased) for r in records if r.mode == "local")  # the two partners
    assert _sim_code("h2-two-checks").H.rows == len(_sim_code("h2-two-checks").groups) + 5  # no block code
    assert any(r.mode == "local" and len(r.erased) > 1 for r in records)
    assert any(r.mode == "global" and r.success for r in records)


# `codec._trial_draws` against stream 2 as the spawn tree, element by
# element.  Seeds: 0, 1, 2^32 (two entropy words) and 2^128 + 7 (five
# words).  Shapes (q, k, L): h2's, a q = 11 code with k = 20, one group with
# k = 1, where group-burst draws integers(0, 1), and n = 10002;
# multi-uniform(n) erases every position.
_DRAW_SEEDS = (0, 1, 2**32, 2**128 + 7)
_DRAW_CASES = [
    (7, 8, 6, "single-uniform"),
    (7, 8, 6, "group-burst"),
    (7, 8, 6, "multi-uniform(6)"),
    (7, 8, 6, "multi-uniform(18)"),
    (11, 20, 10, "multi-uniform(7)"),
    (5, 1, 1, "group-burst"),
    (5, 1, 1, "multi-uniform(3)"),
    (4, 3, 3334, "multi-uniform(300)"),
]


def _run_draws(seed, trials, q, k, failure_model, groups):
    """The draws of trials 0, ..., trials - 1, joined from their stream units."""
    msgs, E = zip(*(
        _trial_draws(seed, u, min(_STREAM_TRIALS, trials - lo), q, k, *parse_failure_model(failure_model), groups)
        for u, lo in enumerate(range(0, trials, _STREAM_TRIALS))
    ))
    return np.concatenate(msgs), np.concatenate(E)


def _fast_draws(seed, trials, q, k, failure_model, groups):
    msgs, E = _run_draws(seed, trials, q, k, failure_model, groups)
    return msgs.tolist(), E.tolist()


@pytest.mark.parametrize("seed", _DRAW_SEEDS)
@pytest.mark.parametrize("q, k, L, model", _DRAW_CASES)
def test_trial_draws_match_numpy_generators(seed, q, k, L, model):
    groups = np.arange(3 * L).reshape(L, 3)
    assert _fast_draws(seed, 40, q, k, model, groups) == _stream_v2_draws(seed, 40, q, k, model, groups)


def test_trial_draws_from_an_offset_are_a_slice_of_the_run():
    # q = 3 * 2^30 + 1 makes numpy reject about a quarter of its 32-bit message draws
    groups = np.arange(18).reshape(6, 3)
    for q in (7, 3 * 2**30 + 1):
        for model in ("single-uniform", "multi-uniform(6)", "group-burst"):
            msgs, E = _run_draws(2**32, 3000, q, 8, model, groups)
            for u, B in ((1, 1024), (2, 52), (0, 1000)):
                part_msgs, part_E = _trial_draws(2**32, u, B, q, 8, *parse_failure_model(model), groups)
                lo = u * _STREAM_TRIALS
                assert (part_msgs == msgs[lo : lo + B]).all() and (part_E == E[lo : lo + B]).all()


@pytest.mark.parametrize("model", ("single-uniform", "group-burst", "multi-uniform(6)"))
def test_simulator_run_is_a_prefix_of_a_longer_run(model):
    # h2: 1,500 trials end inside the second stream unit of 1,024
    short, long = (simulate_repairs(_sim_code("h2"), trials, model, 4) for trials in (1500, 3000))
    assert short == RepairStats(*(a[:1500] for a in long._arrays()))


def test_simulator_blocks_give_the_one_block_result(monkeypatch):
    whole = {m: simulate_repairs(_sim_code("h2"), 2500, m, 3) for m in _SIM_MODELS}
    # h2: n + k = 26, so 2,047 trials' bytes round down to one stream unit, and 1 byte rounds up to one
    for block_bytes in (8 * 26 * 2047, 1):
        monkeypatch.setattr(codec, "_SIM_BLOCK_BYTES", block_bytes)
        for model, stats in whole.items():
            assert simulate_repairs(_sim_code("h2"), 2500, model, 3) == stats


def test_simulator_builds_records_only_when_read(monkeypatch, tmp_path):
    built = []
    monkeypatch.setattr(codec, "TrialRecord", lambda *a: built.append(a) or TrialRecord(*a))
    stats = simulate_repairs(_sim_code("h2"), 300, "multi-uniform(2)", 5)
    stats.summary_dict()
    assert stats.summary_dict()["successes"] == 300 and built == []
    for out in (["--out", str(tmp_path / "s.json")], ["--jsonl", str(tmp_path / "t.jsonl")]):
        assert main(["simulate", "h2", "--trials", "300", "--failure-model", "group-burst", *out]) == 0
    assert built == []
    assert len(stats.records) == 300 and len(built) == 300
    assert stats.records is stats.records and len(built) == 300  # built once


def test_jsonl_lines_are_json_dumps_of_the_records():
    # 70,000 trials cross write_jsonl's 65,536-trial blocks; multi-uniform(8) fails some trials
    for trials, model in ((70000, "single-uniform"), (500, "multi-uniform(2)"), (500, "multi-uniform(8)")):
        stats = simulate_repairs(_sim_code("h2"), trials, model, 11)
        fh = io.StringIO()
        stats.write_jsonl(fh)
        assert fh.getvalue() == "".join(json.dumps(dataclasses.asdict(r), sort_keys=True) + "\n" for r in stats.records)
    assert 0 < stats.summary_dict()["successes"] < 500


def test_trial_draws_cross_block_boundaries():
    # 2,500 trials span three stream units; each unit's generators start afresh
    groups = np.arange(18).reshape(6, 3)
    for model in ("single-uniform", "multi-uniform(6)", "group-burst"):
        assert _fast_draws(2**128 + 7, 2500, 7, 8, model, groups) == _stream_v2_draws(2**128 + 7, 2500, 7, 8, model, groups)


# chi-square tests of the erasure draws: 20,000 trials (20 stream units) on
# h2 and the seeded q = 5 corpus code, each statistic below df + 5 sqrt(2 df)
_CHI2_SEEDS = {"h2": 41, "q5": 42}


def _chi2_below_bound(counts):
    expected, df = counts.sum() / counts.size, counts.size - 1
    return ((counts - expected) ** 2 / expected).sum() < df + 5 * np.sqrt(2 * df)


@pytest.mark.parametrize("name", sorted(_CHI2_SEEDS))
def test_erasure_draws_are_uniform(name):
    code, trials = _sim_code(name), 20000
    groups = np.array(code.groups)
    n, L = code.n, len(groups)

    def erasures(model):
        return _run_draws(_CHI2_SEEDS[name], trials, code.field.q, code.k, model, groups)[1]

    single = erasures("single-uniform")
    assert single.shape == (trials, 1) and _chi2_below_bound(np.bincount(single[:, 0], minlength=n))
    multi = erasures("multi-uniform(6)")
    assert (np.diff(multi, axis=1) > 0).all()  # six distinct positions per trial, sorted
    assert _chi2_below_bound(np.bincount(multi.ravel(), minlength=n))  # each position's marginal
    burst = erasures("group-burst")
    index = code._group_of[burst[:, 0]]
    assert (burst == groups[index]).all() and _chi2_below_bound(np.bincount(index, minlength=L))


def test_one_group_code_matches_per_trial_reference():
    # n = 3, H = [[1, 1, 1]]: group-burst draws no group index, multi-uniform(3) erases all
    code = code_from_parity_check(MatrixF(field_create(5), [[1, 1, 1]]))
    for model in ("group-burst", "multi-uniform(3)", "single-uniform"):
        assert simulate_repairs(code, 30, model, 8) == _reference_simulation(code, 30, model, 8)


def test_wilson_interval_basics():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo, hi = wilson_interval(100, 100)
    assert hi == 1.0 and lo > 0.9

import dataclasses
import functools
import itertools
import random

import numpy as np
import pytest

from lrc7.bounds import classify
from lrc7.codec import (
    EnumerationBudgetError,
    GroupDetectionError,
    LocalRepairError,
    LrcCode,
    RepairStats,
    TrialRecord,
    UnrecoverableErasureError,
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
from lrc7.construct import VectorSequence, assemble_parity_check, run_algorithm1
from lrc7.fields import field_create
from lrc7.linalg import MatrixF, kernel_basis, matmul, rank


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
        code_from_parity_check(MatrixF.identity(f, 4))


def test_group_detection_failure():
    f = field_create(7)
    M = MatrixF(f, [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0]])  # weight-2 rows
    with pytest.raises(GroupDetectionError):
        code_from_parity_check(M)


def test_group_spec_path():
    # groups supplied explicitly: their checks come from G, not from H's rows
    H, _ = load_fixture("h1")
    code = code_from_parity_check(H, group_spec=[(0, 1, 2), (3, 4, 5), (6, 7, 8)])
    assert code.groups == ((0, 1, 2), (3, 4, 5), (6, 7, 8))
    word = list(encode(code, [2, 3]))
    original = word[4]
    word[4] = None
    assert repair_local(code, word, 4) == original
    with pytest.raises(GroupDetectionError):
        code_from_parity_check(H, group_spec=[(0, 1, 3), (2, 4, 5), (6, 7, 8)])


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------


def test_h1_distance_and_oracle(h1_code):
    assert min_distance(h1_code) == 7
    assert min_weight_oracle(h1_code) == 7  # all 16 codewords enumerated


def test_h2_distance(h2_code):
    assert min_distance(h2_code) == 7


def test_group_spec_code_distance_matches_dfs_and_oracle():
    H, _ = load_fixture("h1")
    code = code_from_parity_check(H, group_spec=[(6, 7, 8), (0, 1, 2), (3, 4, 5)])
    assert code.groups == ((6, 7, 8), (0, 1, 2), (3, 4, 5))
    for cap in (6, 7, 9):
        assert min_distance(code, cap) == min_distance(H, cap)
    assert min_distance(code) == min_weight_oracle(code) == 7


def test_distance_cap_reporting(h1_code):
    assert min_distance(h1_code, cap=6) is None
    with pytest.raises(ValueError):
        min_distance(h1_code, cap=0)


def test_classification_of_fixtures(h1_code, h2_code):
    for code in (h1_code, h2_code):
        d = min_distance(code)
        params = type(code.params)(n=code.n, k=code.k, d=d, r=2, q=code.field.q)
        assert classify(params) == "almost-optimal"


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


# The group-set search (min_distance on an LrcCode) against the column-subset
# DFS (min_distance on its H), which shares no code with it.  Corpus: the
# seeded constructor output at each q truncated to 3..6 pairs, each with one
# copy whose random pair vector is replaced by a random vector; and codes
# whose H is the group indicators over 6 random rows, which reach d = 8 and 9
# with 5 groups, so the search runs past the 3-group sets (after the m-group
# sets it settles any d <= 2m + 2).
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
            assert min_distance(code, cap) == min_distance(code.H, cap), (code, cap)


def test_group_set_cross_check_corpus_reaches_every_exit():
    found = [(min_distance(code, code.n), len(code.groups)) for q in _CROSS_CHECK_FIELDS for code in _cross_check_codes(q)]
    assert any(d <= 6 for d, _ in found)  # settled by the 2-group sets or earlier
    assert (8, 3) in found  # settled by the whole code
    assert any(d >= 9 and L >= 5 for d, L in found)  # settled by the 4-group sets or later


# The pair-span table (min_distance's d = 7 path) against the group-set search
# and the DFS, on block codes of pair sequences: the lex and seeded 0 / 1
# outputs at each q, their 3..6-pair truncations and one mutated copy of each
# (a random pair vector replaced by a random vector), plus h1, h2 and the
# d = 8 block code of the q = 9 seed-6 output cut to 3 pairs.
_TABLE_RUNS = (("lex", None), ("seeded", 0), ("seeded", 1))
_TABLE_MUTATION_SEED = 3


@functools.lru_cache(maxsize=None)
def _table_corpus(q):
    field = field_create(*_CROSS_CHECK_FIELDS[q])
    rng = random.Random(_TABLE_MUTATION_SEED)
    seqs = []
    for policy, seed in _TABLE_RUNS:
        seq, _ = run_algorithm1(field, policy, seed)
        seqs.append(seq)
        for L in range(3, min(6, seq.L) + 1):
            pairs = [list(p) for p in seq.pairs[:L]]
            seqs.append(VectorSequence(field, pairs))
            pairs[rng.randrange(L)][rng.randrange(2)] = tuple(rng.randrange(q) for _ in range(4))
            seqs.append(VectorSequence(field, pairs))
    if q == 9:
        seq, _ = run_algorithm1(field, "seeded", _CROSS_CHECK_SEED)
        seqs.append(VectorSequence(field, seq.pairs[:3]))
    codes = [(s, code_from_parity_check(assemble_parity_check(s, check=False))) for s in seqs]
    fixtures = {4: "h1", 7: "h2"}
    if q in fixtures:
        codes.append((None, code_from_parity_check(load_fixture(fixtures[q])[0])))
    return [(s, code, min_distance(code.H, 8)) for s, code in codes]  # the DFS: d when d <= 8


@pytest.mark.parametrize("q", sorted(_CROSS_CHECK_FIELDS))
def test_table_distance_matches_group_sets_and_dfs(q):
    from lrc7.codec import _group_set_distance, _weight7_witness
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


_SPAN_ORDER_SEED = 15


@pytest.mark.parametrize("name", ["h2", "lex7", "lex8"])
def test_weight7_witness_does_not_depend_on_span_order(name, monkeypatch):
    """Every span row of the table permuted: the same weight-7 codeword."""
    from lrc7.codec import _weight7_witness
    from lrc7.construct import PairSpanTable
    from lrc7.linalg import _matmul_codes

    if name == "h2":
        H = load_fixture("h2")[0]
    else:
        H = assemble_parity_check(run_algorithm1(field_create(*{"lex7": (7, 1), "lex8": (2, 3)}[name]))[0])
    code = code_from_parity_check(H)
    want = _weight7_witness(code)
    build = PairSpanTable.of

    def permuted(seq):
        table = build(seq)
        spans = np.random.default_rng(_SPAN_ORDER_SEED).permuted(table.spans, axis=2)
        assert not (spans == table.spans).all()
        return dataclasses.replace(table, spans=spans)

    monkeypatch.setattr(PairSpanTable, "of", staticmethod(permuted))
    w = _weight7_witness(code)
    assert np.count_nonzero(w) == 7
    assert not _matmul_codes(code.field, w[None, :], code.H.array.T).any()
    assert (w == want).all()


def test_table_corpus_reaches_every_branch():
    found = [(seq is None, d) for q in _CROSS_CHECK_FIELDS for seq, _, d in _table_corpus(q)]
    assert (True, 7) in found  # h1, h2
    assert any(d is not None and d <= 6 for _, d in found)  # a condition fails
    assert (False, 7) in found  # a weight-7 hit on the table
    assert (False, 8) in found  # the conditions hold, no weight-7 hit


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
    with pytest.raises(ValueError):
        encode(h1_code, [1, bad])
    word: list = list(encode(h1_code, [1, 2]))
    word[0], word[4] = None, bad
    with pytest.raises(ValueError):
        repair_local(h1_code, word, 0)
    with pytest.raises(ValueError):
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
    stats = simulate_repairs(h1_code, trials=400, failure_model="single-uniform", seed=1)
    assert stats.success_rate == 1.0
    assert stats.local_symbol_fraction == 1.0
    assert stats.mean_helpers_per_symbol == 2.0
    assert stats.mean_helpers_per_trial == 2.0


def test_multi_uniform_six_always_recovers(h1_code):
    stats = simulate_repairs(h1_code, trials=300, failure_model="multi-uniform(6)", seed=2)
    assert stats.success_rate == 1.0


def test_multi_uniform_seven_sometimes_fails(h1_code):
    stats = simulate_repairs(h1_code, trials=2000, failure_model="multi-uniform(7)", seed=3)
    assert stats.success_rate < 1.0
    lo, hi = stats.wilson_ci_95()
    assert 0.0 <= lo <= stats.success_rate <= hi <= 1.0


def test_group_burst_recovers_globally(h2_code):
    stats = simulate_repairs(h2_code, trials=150, failure_model="group-burst", seed=4)
    assert stats.success_rate == 1.0
    assert stats.local_trials == 0
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


def test_simulator_mixed_pattern_routing(h1_code):
    stats = simulate_repairs(h1_code, trials=300, failure_model="multi-uniform(2)", seed=6)
    assert stats.success_rate == 1.0
    for rec in stats.records:
        groups_touched = {h1_code.group_index_of(j) for j in rec.erased}
        if len(groups_touched) == 2:
            assert rec.mode == "local" and rec.helpers == 4
        else:
            assert rec.mode == "global" and rec.helpers == 7


# simulate_repairs against a per-trial reference built only from the public
# encode, repair_local and repair_global, on the same child streams.  Corpus:
# h1 with its groups given out of order, h2, a seeded q = 5 constructor output,
# and h2 with one more check, weight 2 inside group 0, so that group has two
# local checks (each reading one helper).
_SIM_SEEDS = {"h1-spec": 21, "h2": 22, "q5": 23, "h2-two-checks": 24}
_SIM_MODELS = ("single-uniform", "group-burst", "multi-uniform(2)", "multi-uniform(6)")


@functools.lru_cache(maxsize=None)
def _sim_code(name):
    if name == "q5":
        seq, _ = run_algorithm1(field_create(5), "seeded", _SIM_SEEDS[name])
        return code_from_parity_check(assemble_parity_check(seq))
    H, _ = load_fixture("h1" if name == "h1-spec" else "h2")
    if name == "h1-spec":
        return code_from_parity_check(H, group_spec=[(6, 7, 8), (0, 1, 2), (3, 4, 5)])
    if name == "h2":
        return code_from_parity_check(H)
    extra = np.zeros((1, H.cols), dtype=np.int32)
    extra[0, :2] = (4, 1)
    groups = [tuple(range(i, i + 3)) for i in range(0, H.cols, 3)]
    return code_from_parity_check(MatrixF(H.field, np.vstack([H.array, extra])), group_spec=groups)


def _symbols_read(code, word, pos, value):
    """Group partners of pos whose value changes repair_local's result."""
    f = code.field
    count = 0
    for j in code.groups[code.group_index_of(pos)]:
        if word[j] is not None and j != pos:
            moved = list(word)
            moved[j] = f.add(word[j], 1)
            count += repair_local(code, moved, pos) != value
    return count


def _reference_simulation(code, trials, failure_model, seed):
    kind, f = parse_failure_model(failure_model)
    n, k, q = code.n, code.k, code.field.q
    records = []
    for t, child in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        rng = np.random.default_rng(child)
        codeword = encode(code, [int(x) for x in rng.integers(0, q, size=k)])
        if kind == "single-uniform":
            erased = (int(rng.integers(0, n)),)
        elif kind == "multi-uniform":
            erased = tuple(sorted(int(x) for x in rng.choice(n, size=f, replace=False)))
        else:
            erased = tuple(code.groups[int(rng.integers(0, len(code.groups)))])
        word = [None if j in erased else c for j, c in enumerate(codeword)]
        if len({code.group_index_of(j) for j in erased}) == len(erased):
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
    local = [r for r in records if r.mode == "local"]
    return RepairStats(
        trials=trials,
        successes=sum(r.success for r in records),
        local_trials=len(local),
        erased_symbols=sum(len(r.erased) for r in records),
        locally_repaired_symbols=sum(len(r.erased) for r in local),
        helpers_total=sum(r.helpers for r in records),
        records=tuple(records),
    )


_SIM_CASES = [(name, model) for name in _SIM_SEEDS for model in _SIM_MODELS]
_SIM_CASES += [("h2", "multi-uniform(7)"), ("h2", "multi-uniform(9)"), ("h1-spec", "multi-uniform(9)")]


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


def test_simulator_reference_corpus_covers_every_path():
    stats = [_simulated(name, model)[0] for name, model in _SIM_CASES]
    assert any(s.successes < s.trials for s in stats)  # some pattern cannot be repaired
    records = [r for s in stats for r in s.records]
    assert any(r.mode == "local" and r.helpers < 2 * len(r.erased) for r in records)  # a weight-2 check
    assert any(r.mode == "local" and len(r.erased) > 1 for r in records)
    assert any(r.mode == "global" and r.success for r in records)


def test_wilson_interval_basics():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo, hi = wilson_interval(100, 100)
    assert hi == 1.0 and lo > 0.9

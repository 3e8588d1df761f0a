import dataclasses
import json
import random

import numpy as np
import pytest

from lrc7.codec import min_distance
from lrc7.construct import (
    ConstructionTrace,
    ReplayError,
    VectorSequence,
    assemble_parity_check,
    choose_triple,
    guaranteed_min_rounds,
    replay_trace,
    run_algorithm1,
    verify_conditions,
)
from lrc7.fields import field_create
from lrc7.linalg import MatrixF, rank, small_rank
from lrc7.spread import build_2_spread, canonical_rep, point_codes, span_point_index

GF4 = field_create(2, 2)
GF5 = field_create(5)
GF7 = field_create(7)
GF8 = field_create(2, 3)
GF9 = field_create(3, 2)


def plane_points(pl) -> list[tuple[int, ...]]:
    """The q + 1 canonical points of a spread plane, ascending."""
    idx = span_point_index(pl.field, [pl.basis[0]], [pl.basis[1]])[0]
    return [tuple(c) for c in point_codes(pl.field.q, np.sort(idx)).tolist()]


def dependent(H: MatrixF, subset) -> bool:
    return rank(MatrixF(H.field, H.array[:, list(subset)])) < len(subset)


# ---------------------------------------------------------------------------
# choose_triple
# ---------------------------------------------------------------------------


def test_choose_triple_char2():
    u0, u1, u2 = choose_triple(GF4, [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)], "lex")
    assert u1 == (1, 0, 0, 0)
    assert u2 == (0, 1, 0, 0)
    assert u0 == (1, 1, 0, 0)


def test_choose_triple_gf7_scaling():
    # <v3> = <(1,3)>: v3 = 1*v1 + 3*v2, so u2 = -3*v2 = 4*v2
    u0, u1, u2 = choose_triple(GF7, [(1, 0, 0, 0), (0, 1, 0, 0), (1, 3, 0, 0)], "lex")
    assert u1 == (1, 0, 0, 0)
    assert u2 == (0, 4, 0, 0)
    assert u0 == (1, 3, 0, 0)
    assert tuple(GF7.arr_sub(u1, u2).tolist()) == u0


def test_choose_triple_difference_identity_everywhere():
    spread = build_2_spread(GF7)
    for pl in spread.planes[:6]:
        u0, u1, u2 = choose_triple(GF7, plane_points(pl), "lex")
        assert tuple(GF7.arr_sub(u1, u2).tolist()) == u0
        assert small_rank(GF7, [u1, u2]) == 2
        assert all(small_rank(GF7, [*pl.basis, u]) == 2 for u in (u0, u1))  # both lie in the plane


def test_choose_triple_needs_three_points():
    with pytest.raises(ValueError, match="3 points"):
        choose_triple(GF4, [(1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0)], "lex")


def test_choose_triple_seeded_is_reproducible():
    pts = plane_points(build_2_spread(GF7).planes[3])
    a = choose_triple(GF7, pts, "seeded", random.Random(42))
    b = choose_triple(GF7, pts, "seeded", random.Random(42))
    assert a == b
    with pytest.raises(ValueError, match="rng"):
        choose_triple(GF7, pts, "seeded")


# ---------------------------------------------------------------------------
# trimming, recomputed from the trace
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "field,policy,seed",
    [(GF4, "lex", None), (GF5, "lex", None), (GF5, "seeded", 9)],
    ids=["lex-q4", "lex-q5", "seeded-q5"],
)
def test_trace_rounds_match_rank_oracle(field, policy, seed):
    """Recompute every round from the recorded triples: membership of each
    surviving point in every span(new rep, earlier rep) is an independent
    rank test.  Each such span meets the survivors in at most q - 1 points,
    exactly the planes left with fewer than three points are discarded, and
    the family ends empty."""
    q = field.q
    seq, trace = run_algorithm1(field, policy, seed)
    family = {pl.id: set(plane_points(pl)) for pl in build_2_spread(field)}
    for i, rd in enumerate(trace.rounds):
        reps = seq.triple(i)
        assert rd.points == tuple(sorted(canonical_rep(field, u) for u in reps))
        assert set(rd.points) <= family.pop(rd.plane_id)
        removed = {}
        for a in reps:
            for b in (u for j in range(i) for u in seq.triple(j)):
                on = [(pid, pt) for pid, pts in family.items() for pt in pts if small_rank(field, [a, b, pt]) == 2]
                assert len(on) <= q - 1
                for pid, pt in on:
                    removed.setdefault(pid, set()).add(pt)
        want = sorted((pid, sorted(pts)) for pid, pts in removed.items())
        assert rd.cut.dtype == np.int32
        assert rd.cut.tolist() == [[pid, len(pts)] for pid, pts in want]
        assert rd.removed.dtype == np.int32
        assert rd.removed.tolist() == [list(pt) for _, pts in want for pt in pts]
        for pid, pts in removed.items():
            family[pid] -= pts
        assert rd.discarded == tuple(sorted(pid for pid, pts in family.items() if len(pts) < 3))
        for pid in rd.discarded:
            del family[pid]
    assert family == {}
    assert trace.L == seq.L


# ---------------------------------------------------------------------------
# the full run
# ---------------------------------------------------------------------------


def test_guaranteed_min_rounds_values():
    assert [guaranteed_min_rounds(q) for q in (4, 5, 7, 8, 9)] == [3, 3, 4, 4, 5]


@pytest.mark.parametrize("field", [GF4, GF5, GF7])
def test_lex_run_meets_guarantee_and_conditions(field):
    seq, trace = run_algorithm1(field, "lex")
    assert seq.L >= guaranteed_min_rounds(field.q)
    assert seq.L <= field.q**2 + 1
    assert verify_conditions(seq).ok
    assert trace.L == seq.L


def test_determinism():
    for policy, seed in (("lex", None), ("seeded", 7)):
        s1, t1 = run_algorithm1(GF7, policy, seed)
        s2, t2 = run_algorithm1(GF7, policy, seed)
        assert s1 == s2
        assert t1 == t2


def test_seeds_differ():
    a, _ = run_algorithm1(GF7, "seeded", 1)
    b, _ = run_algorithm1(GF7, "seeded", 2)
    assert a != b  # astronomically unlikely to collide


def test_small_q_warns_and_terminates():
    f2 = field_create(2)
    with pytest.warns(UserWarning, match="q >= 4"):
        seq, _ = run_algorithm1(f2, "lex")
    assert 1 <= seq.L <= 5
    f3 = field_create(3)
    with pytest.warns(UserWarning):
        seq3, _ = run_algorithm1(f3, "lex")
    assert seq3.L <= 10


def test_unknown_policy_rejected():
    with pytest.raises(ValueError, match="policy"):
        run_algorithm1(GF4, "random")


# ---------------------------------------------------------------------------
# verify_conditions on mutated sequences
# ---------------------------------------------------------------------------


def test_repeated_plane_breaks_c2():
    seq, _ = run_algorithm1(GF4, "lex")
    mutated = VectorSequence(GF4, list(seq.pairs) + [seq.pairs[0]])
    rep = verify_conditions(mutated)
    assert not rep.c2_ok
    assert rep.c2_witness == (0, seq.L)


def test_engineered_dependence_breaks_c3():
    seq, _ = run_algorithm1(GF4, "lex")
    assert seq.L >= 3
    pairs = list(seq.pairs)
    u1_sum = tuple(GF4.add(a, b) for a, b in zip(pairs[0][0], pairs[1][0]))
    pairs[2] = (u1_sum, pairs[2][1])
    rep = verify_conditions(VectorSequence(GF4, pairs))
    assert not rep.c3_ok
    assert rep.c3_witness == (0, 1, 2, 1, 1, 1)


def test_dependent_pair_breaks_c1():
    pairs = [((1, 0, 0, 0), (2, 0, 0, 0)), ((0, 1, 0, 0), (0, 0, 1, 0))]
    rep = verify_conditions(VectorSequence(GF7, pairs))
    assert not rep.c1_ok
    assert rep.c1_witness == 0


def _conditions_by_rank(seq):
    """First c1/c2/c3 witnesses in verify_conditions' order, each set
    checked with the numpy elimination behind `rank`."""
    field, L = seq.field, seq.L

    def r(rows):
        return rank(MatrixF(field, rows))

    tr = [seq.triple(i) for i in range(L)]
    c1 = next((i for i in range(L) if r([seq.u1(i), seq.u2(i)]) != 2), None)
    c2 = next(
        ((i, j) for i in range(L) for j in range(i + 1, L) if r([seq.u1(i), seq.u2(i), seq.u1(j), seq.u2(j)]) != 4),
        None,
    )
    c3 = next(
        (
            (i, j, t, a, b, c)
            for i in range(L)
            for j in range(i + 1, L)
            for t in range(j + 1, L)
            for a in range(3)
            for b in range(3)
            for c in range(3)
            if r([tr[i][a], tr[j][b], tr[t][c]]) != 3
        ),
        None,
    )
    return c1, c2, c3


def _mutate(field, pairs, kind, rng):
    """Overwrite one vector of a random pair; each kind aims at a condition."""
    q, L = field.q, len(pairs)
    pairs = [list(p) for p in pairs]
    i, s = rng.randrange(L), rng.randrange(2)
    if kind == "random":  # may be zero or land anywhere
        vec = tuple(rng.randrange(q) for _ in range(4))
    elif kind == "scaled-partner":  # c1
        c = rng.randrange(q)
        vec = tuple(field.mul(c, x) for x in pairs[i][1 - s])
    elif kind == "copied":  # c2
        vec = pairs[rng.randrange(L)][rng.randrange(2)]
    elif kind == "zero":  # c1 through a zero representative
        vec = (0, 0, 0, 0)
    else:  # "combination" of vectors from two other pairs: c3
        j, t = rng.sample([x for x in range(L) if x != i], 2)
        c = rng.randrange(1, q)
        vec = tuple(field.add(x, field.mul(c, y)) for x, y in zip(pairs[j][rng.randrange(2)], pairs[t][rng.randrange(2)]))
    pairs[i][s] = vec
    return VectorSequence(field, pairs)


@pytest.mark.parametrize("field", [GF4, GF5, GF7, GF8, GF9], ids=lambda f: f"q{f.q}")
@pytest.mark.parametrize("seed", [0, 11, 2024])
def test_verify_conditions_matches_rank_reference_on_mutations(field, seed):
    seq, _ = run_algorithm1(field, "seeded", seed)
    rng = random.Random(seed)
    kinds = ("random", "scaled-partner", "copied", "combination")
    cases = [seq] + [_mutate(field, seq.pairs, kinds[m % 4], rng) for m in range(24)]
    # a zero vector in the sequence and in each kind of mutated copy, drawn
    # after the 24 copies above so that they stay as they were
    cases += [_mutate(field, (seq, *cases[1:5])[m % 5].pairs, "zero", rng) for m in range(10)]
    failed = set()
    for mutated in cases:
        rep = verify_conditions(mutated)
        c1, c2, c3 = _conditions_by_rank(mutated)
        assert (rep.c1_ok, rep.c2_ok, rep.c3_ok) == (c1 is None, c2 is None, c3 is None)
        assert (rep.c1_witness, rep.c2_witness, rep.c3_witness) == (c1, c2, c3)
        failed.update(name for name, w in (("c1", c1), ("c2", c2), ("c3", c3)) if w is not None)
    assert verify_conditions(seq).ok
    assert failed == {"c1", "c2", "c3"}


def test_verify_conditions_rejects_empty():
    with pytest.raises(ValueError):
        verify_conditions(VectorSequence(GF4, []))


PAIR = ((1, 0, 0, 0), (0, 1, 0, 0))


@pytest.mark.parametrize("bad", [((1, 0, 0, 9), (0, 1, 0, 0)), ((1, 0, 0, 4), (0, 1, 0, 0)), ((1, 0, 0, -1), (0, 1, 0, 0))])
def test_vector_sequence_rejects_out_of_range_codes(bad):
    # GF(4) holds codes 0..3: a 9 once reached verify_conditions and raised IndexError there
    with pytest.raises(ValueError, match="out of range"):
        VectorSequence(GF4, [PAIR, bad])


@pytest.mark.parametrize(
    "bad",
    [((1, 0, 0, 0.5), (0, 1, 0, 0)), ((1, 0, 0, "1"), (0, 1, 0, 0)), ((1, 0, 0), (0, 1, 0)), ((1, 0, 0, 0),)],
)
def test_vector_sequence_rejects_malformed_pairs(bad):
    # a component of 0.5 was once truncated to 0
    with pytest.raises(ValueError):
        VectorSequence(GF4, [PAIR, bad])


def test_vector_sequence_load_json_validates(tmp_path):
    path = tmp_path / "sequence.json"
    seq = VectorSequence(GF4, [PAIR, (np.array([0, 0, 1, 0]), (0, 0, 0, np.int64(1)))])
    assert seq.pairs[1] == ((0, 0, 1, 0), (0, 0, 0, 1)) and type(seq.pairs[1][1][3]) is int
    seq.save_json(path)
    assert VectorSequence.load_json(path) == seq
    for value in (9, 0.5, "1"):
        data = json.loads(path.read_text())
        data["pairs"][1][0][3] = value
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError):
            VectorSequence.load_json(path)


# ---------------------------------------------------------------------------
# parity-check assembly and the 6-column equivalence
# ---------------------------------------------------------------------------


def test_assembled_shape_and_blocks():
    seq, _ = run_algorithm1(GF7, "lex")
    H = assemble_parity_check(seq)
    L = seq.L
    assert (H.rows, H.cols) == (L + 4, 3 * L)
    for t in range(L):
        row = H.array[t]
        assert list(row[3 * t : 3 * t + 3]) == [1, 1, 1]
        assert row.sum() == 3  # weight exactly 3
        assert not H.array[L:, 3 * t + 2].any()  # zero bottom block
        assert tuple(H.array[L:, 3 * t]) == seq.u1(t)
        assert tuple(H.array[L:, 3 * t + 1]) == seq.u2(t)


def test_assemble_requires_three_pairs():
    seq, _ = run_algorithm1(GF4, "lex")
    with pytest.raises(ValueError, match="3 pairs"):
        assemble_parity_check(VectorSequence(GF4, seq.pairs[:2]))


def test_assemble_rejects_bad_sequence():
    seq, _ = run_algorithm1(GF4, "lex")
    pairs = list(seq.pairs) + [seq.pairs[0]]
    with pytest.raises(ValueError, match="conditions"):
        assemble_parity_check(VectorSequence(GF4, pairs))


def test_six_column_independence_iff_conditions_hold():
    """Both directions: a valid sequence yields a matrix with every
    6-column subset independent; breaking a condition creates a dependent
    6-subset or smaller."""
    import itertools

    seq, _ = run_algorithm1(GF4, "lex")
    short = VectorSequence(GF4, seq.pairs[:3])
    assert verify_conditions(short).ok
    H = assemble_parity_check(short)
    for subset in itertools.combinations(range(9), 6):
        assert not dependent(H, subset)

    pairs = list(short.pairs)
    u1_sum = tuple(GF4.add(a, b) for a, b in zip(pairs[0][0], pairs[1][0]))
    pairs[2] = (u1_sum, pairs[2][1])
    bad_seq = VectorSequence(GF4, pairs)
    assert not verify_conditions(bad_seq).ok
    H_bad = assemble_parity_check(bad_seq, check=False)
    assert any(
        dependent(H_bad, subset) for subset in itertools.combinations(range(9), 6)
    )
    assert min_distance(H_bad) <= 6
    assert min_distance(H) == 7


# ---------------------------------------------------------------------------
# traces and serialization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("policy,seed", [("lex", None), ("seeded", 3), ("seeded", 11)])
def test_replay_reproduces_sequence(policy, seed):
    seq, trace = run_algorithm1(GF7, policy, seed)
    assert replay_trace(trace) == seq


def test_replay_detects_tampering():
    seq, trace = run_algorithm1(GF4, "lex")
    rounds = list(trace.rounds)
    bad = rounds[1]
    rounds[1] = dataclasses.replace(bad, cut=np.empty((0, 2), np.int32), removed=np.empty((0, 4), np.int32))
    tampered = ConstructionTrace(
        trace.p, trace.e, trace.modulus, trace.q, trace.policy, trace.seed, tuple(rounds)
    )
    with pytest.raises(ReplayError):
        replay_trace(tampered)


def _bad_rounds(rounds, case):
    first, second = rounds[0], rounds[1]
    if case == "plane-minus-one":  # second.plane_id is the last plane, q^2
        return [first, dataclasses.replace(second, plane_id=-1), *rounds[2:]]
    if case == "plane-past-last":
        return [dataclasses.replace(first, plane_id=GF4.q**2 + 1), *rounds[1:]]
    if case == "plane-ruled-out":
        return [first, dataclasses.replace(second, plane_id=first.plane_id), *rounds[2:]]
    if case == "two-points":
        return [dataclasses.replace(first, points=first.points[:2]), *rounds[1:]]
    if case == "truncated":
        return rounds[:-1]
    return [*rounds, rounds[-1]]  # "extra-round"


@pytest.mark.parametrize(
    "case", ["plane-minus-one", "plane-past-last", "plane-ruled-out", "two-points", "truncated", "extra-round"]
)
def test_replay_rejects_bad_rounds(case):
    _, trace = run_algorithm1(GF4, "seeded", 3)
    assert trace.rounds[1].plane_id == GF4.q**2
    bad = dataclasses.replace(trace, rounds=tuple(_bad_rounds(list(trace.rounds), case)))
    with pytest.raises(ReplayError):
        replay_trace(bad)


def _round_with_removals():
    _, trace = run_algorithm1(GF5, "lex")
    return next(rd for rd in trace.rounds if len(rd.cut) >= 2 and rd.discarded)


def test_trace_round_equality_sees_one_changed_code():
    rd = _round_with_removals()
    removed = rd.removed.copy()
    removed[-1, -1] = (removed[-1, -1] + 1) % GF5.q
    assert dataclasses.replace(rd, removed=rd.removed.copy()) == rd
    assert dataclasses.replace(rd, removed=removed) != rd


def test_trace_round_equality_sees_a_moved_cut_boundary():
    rd = _round_with_removals()
    cut = rd.cut.copy()
    cut[0, 1] += 1
    cut[1, 1] -= 1
    moved = dataclasses.replace(rd, cut=cut)
    assert cut[:, 1].sum() == len(rd.removed)
    assert moved != rd


def test_trace_round_equality_sees_a_changed_discard():
    rd = _round_with_removals()
    assert dataclasses.replace(rd, discarded=rd.discarded[1:]) != rd
    assert dataclasses.replace(rd, discarded=(*rd.discarded, GF5.q**2)) != rd


def test_first_round_removes_an_empty_int32_block(tmp_path):
    _, trace = run_algorithm1(GF5, "lex")
    path = tmp_path / "trace.json"
    trace.save_json(path)
    for t in (trace, ConstructionTrace.load_json(path)):
        first = t.rounds[0]
        assert first.cut.shape == (0, 2)
        assert first.cut.dtype == np.int32
        assert first.removed.shape == (0, 4)
        assert first.removed.dtype == np.int32


@pytest.mark.parametrize(
    "point",
    [[0, 1, 1], "0111", [0, 1, "x", 1], [0, 1, 1.5, 1], [0, 1, 1, 2**40], None],
    ids=["three", "string", "str-code", "float", "huge", "all-three"],
)
def test_malformed_removal_names_its_round(point, tmp_path):
    _, trace = run_algorithm1(GF4, "lex")
    path = tmp_path / "trace.json"
    trace.save_json(path)
    data = json.loads(path.read_text())
    i, rd = next((i, rd) for i, rd in enumerate(data["rounds"], start=1) if rd["removals"])
    if point is None:  # every point of the round loses its last coordinate
        rd["removals"] = {pid: [pt[:3] for pt in pts] for pid, pts in rd["removals"].items()}
    else:
        next(iter(rd["removals"].values()))[-1] = point
    with pytest.raises(ValueError, match=rf"^round {i}: every removed point must be four int32 codes$"):
        ConstructionTrace.from_json_dict(data)


def test_plane_id_past_int32_names_its_round(tmp_path):
    _, trace = run_algorithm1(GF4, "lex")
    path = tmp_path / "trace.json"
    trace.save_json(path)
    data = json.loads(path.read_text())
    i, rd = next((i, rd) for i, rd in enumerate(data["rounds"], start=1) if rd["removals"])
    pid = next(iter(rd["removals"]))
    rd["removals"][str(2**40)] = rd["removals"].pop(pid)
    with pytest.raises(ValueError, match=rf"^round {i}: every plane id must be an int32$"):
        ConstructionTrace.from_json_dict(data)


def test_reversed_removal_loads_as_recorded(tmp_path):
    """A tampered point is loaded as it stands, not made canonical, so the
    reloaded trace differs and its replay fails."""
    _, trace = run_algorithm1(GF4, "lex")
    path = tmp_path / "trace.json"
    trace.save_json(path)
    data = json.loads(path.read_text())
    i, rd = next((i, rd) for i, rd in enumerate(data["rounds"]) if rd["removals"])
    pid, pts = min(rd["removals"].items(), key=lambda kv: int(kv[0]))
    pts[0] = pts[0][::-1]
    loaded = ConstructionTrace.from_json_dict(data)
    assert loaded.rounds[i].removed[0].tolist() == pts[0]
    assert loaded != trace
    with pytest.raises(ReplayError, match=f"round {i + 1}:"):
        replay_trace(loaded)


def test_trace_json_roundtrip(tmp_path):
    seq, trace = run_algorithm1(GF7, "seeded", 5)
    path = tmp_path / "trace.json"
    trace.save_json(path)
    loaded = ConstructionTrace.load_json(path)
    assert loaded == trace
    assert replay_trace(loaded) == seq


@pytest.mark.parametrize("F,policy,seed", [(GF4, "lex", None), (GF5, "lex", None), (GF5, "seeded", 9)])
def test_trace_file_is_the_stdlib_encoding(F, policy, seed, tmp_path):
    _, trace = run_algorithm1(F, policy, seed)
    path = tmp_path / "trace.json"
    trace.save_json(path)
    assert ConstructionTrace.load_json(path) == trace  # q = 4: plane ids 10..16 sort as strings first
    data = path.read_bytes()
    assert data == (json.dumps(json.loads(data), indent=2, sort_keys=True) + "\n").encode()


def test_sequence_json_roundtrip(tmp_path):
    seq, _ = run_algorithm1(GF4, "lex")
    path = tmp_path / "seq.json"
    seq.save_json(path)
    assert VectorSequence.load_json(path) == seq


# ---------------------------------------------------------------------------
# derived codes
# ---------------------------------------------------------------------------


def test_prefixes_of_valid_sequences_stay_valid():
    """The three conditions only quantify over pairs/triples of indices, so
    any prefix of a valid sequence is valid."""
    for field in (GF5, GF7):
        seq, _ = run_algorithm1(field, "seeded", 13)
        for cut in range(1, seq.L + 1):
            assert verify_conditions(VectorSequence(field, seq.pairs[:cut])).ok


def test_boundary_length_codes_at_n_equals_q_plus_4():
    """Truncating q = 5 runs to three pairs gives (9, 2, d)_5 codes at the
    n = q + 4 boundary, where both allowed distances may occur; the two
    independent distance computations must agree there."""
    from lrc7.codec import code_from_parity_check, min_weight_oracle

    for seed in range(10):
        seq, _ = run_algorithm1(GF5, "seeded", seed)
        sub = VectorSequence(GF5, seq.pairs[:3])
        code = code_from_parity_check(assemble_parity_check(sub))
        assert (code.n, code.k) == (9, 2)
        d = min_distance(code, cap=8)
        assert d in (7, 8)
        assert d == min_weight_oracle(code)


def test_q16_run_attains_bound():
    """Larger binary extension field: guarantee, conditions and dimension
    cap all hold at q = 16 too."""
    from lrc7.bounds import dim_bound_eq3, length_bound_eq5

    f16 = field_create(2, 4)
    seq, _ = run_algorithm1(f16, "lex")
    assert seq.L >= guaranteed_min_rounds(16) == 8
    assert verify_conditions(seq).ok
    assert 3 * seq.L <= length_bound_eq5(16)
    assert 2 * seq.L - 4 == dim_bound_eq3(3 * seq.L, 2, 16)


def test_constructed_codeword_satisfies_every_parity_check():
    from lrc7.codec import code_from_parity_check, encode

    seq, _ = run_algorithm1(GF7, "seeded", 21)
    code = code_from_parity_check(assemble_parity_check(seq))
    rng = np.random.default_rng(0)
    for _ in range(20):
        msg = [int(x) for x in rng.integers(0, 7, size=code.k)]
        cw = np.array(encode(code, msg), dtype=np.int32)
        syndrome = np.zeros(code.H.rows, dtype=np.int32)
        for j, c in enumerate(cw):
            syndrome = GF7.arr_add(syndrome, GF7.arr_mul(int(c), code.H.array[:, j]))
        assert not syndrome.any()

import dataclasses
import json
import random
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lrc7.codec import min_distance
from lrc7.construct import (
    ConstructionTrace,
    ReplayError,
    TraceRound,
    VectorSequence,
    assemble_parity_check,
    choose_triple,
    guaranteed_min_rounds,
    replay_trace,
    run_algorithm1,
    verify_conditions,
)
from lrc7.fields import factor_prime_power, field_create, json_text
from lrc7.linalg import MatrixF, matrix_from_json_dict, matrix_to_json_dict, rank, small_rank
from lrc7.spread import build_2_spread, point_codes, span_point_index

GF4 = field_create(2, 2)
GF5 = field_create(5)
GF7 = field_create(7)
GF8 = field_create(2, 3)
GF9 = field_create(3, 2)
GF512 = field_create(2, 9)  # modulus x^9 + x + 1


def canonical_rep(field, codes) -> tuple[int, ...]:
    """The oracle for `point_codes`/`point_index`: a nonzero vector scaled,
    one scalar field operation at a time, so its first nonzero coordinate
    is 1."""
    codes = tuple(int(x) for x in codes)
    lead = next((x for x in codes if x), None)
    if lead is None:
        raise ValueError("the zero vector spans no projective point")
    iv = field.inv(lead)
    return tuple(field.mul(iv, y) for y in codes)


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
    u0, u1, u2 = choose_triple(GF4, [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)])
    assert u1 == (1, 0, 0, 0)
    assert u2 == (0, 1, 0, 0)
    assert u0 == (1, 1, 0, 0)


def test_choose_triple_gf7_scaling():
    # <v3> = <(1,3)>: v3 = 1*v1 + 3*v2, so u2 = -3*v2 = 4*v2
    u0, u1, u2 = choose_triple(GF7, [(1, 0, 0, 0), (0, 1, 0, 0), (1, 3, 0, 0)])
    assert u1 == (1, 0, 0, 0)
    assert u2 == (0, 4, 0, 0)
    assert u0 == (1, 3, 0, 0)
    assert tuple(GF7.arr_sub(u1, u2).tolist()) == u0


def test_choose_triple_difference_identity_everywhere():
    spread = build_2_spread(GF7)
    for pl in spread.planes[:6]:
        u0, u1, u2 = choose_triple(GF7, plane_points(pl)[:3])
        assert tuple(GF7.arr_sub(u1, u2).tolist()) == u0
        assert small_rank(GF7, [u1, u2]) == 2
        assert all(small_rank(GF7, [*pl.basis, u]) == 2 for u in (u0, u1))  # both lie in the plane


def test_choose_triple_needs_three_points():
    with pytest.raises(ValueError, match="general position"):
        choose_triple(GF4, [(1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0)])


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
    family = {pl.id: set(plane_points(pl)) for pl in build_2_spread(field).planes}
    triples = seq.triples().tolist()
    for i, rd in enumerate(trace.rounds):
        reps = triples[i]
        assert rd.points == tuple(sorted(canonical_rep(field, u) for u in reps))
        assert set(rd.points) <= family.pop(rd.plane_id)
        removed = {}
        for a in reps:
            for b in (u for j in range(i) for u in triples[j]):
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


@pytest.mark.parametrize("policy", ["seeded", "lex"])
@pytest.mark.parametrize("seed", [True, False, 1.5, "7", np.int64(7), -5], ids=repr)
def test_seed_that_is_no_int_is_refused_before_any_work(policy, seed):
    # the trace could not carry it: load_json refuses a seed that is no non-negative JSON
    # integer; random.Random would seed -5 as 5
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # q = 3 warns only once the seed has passed
        with pytest.raises(ValueError, match=re.escape(f"seed must be a non-negative int or None, got {seed!r}")):
            run_algorithm1(field_create(3), policy, seed)


def test_seeded_run_without_a_seed_is_seed_zero():
    seq, trace = run_algorithm1(GF4, "seeded", None)
    assert trace.seed == 0
    assert (seq, trace) == run_algorithm1(GF4, "seeded", 0)


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

    tr, pairs = seq.triples().tolist(), seq.pairs
    c1 = next((i for i in range(L) if r(pairs[i]) != 2), None)
    c2 = next(
        ((i, j) for i in range(L) for j in range(i + 1, L) if r([*pairs[i], *pairs[j]]) != 4),
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
    [
        ((1, 0, 0, 0.5), (0, 1, 0, 0)),
        ((1, 0, 0, "1"), (0, 1, 0, 0)),
        ((1, 0, 0), (0, 1, 0)),
        ((1, 0, 0, 0),),
        ((1, 0, 0, True), (0, 1, 0, 0)),
    ],
)
def test_vector_sequence_rejects_malformed_pairs(bad):
    # a component of 0.5 was once truncated to 0, and a True read as 1
    with pytest.raises(ValueError):
        VectorSequence(GF4, [PAIR, bad])


def test_vector_sequence_load_json_validates(tmp_path):
    path = tmp_path / "sequence.json"
    seq = VectorSequence(GF4, [PAIR, (np.array([0, 0, 1, 0]), (0, 0, 0, np.int64(1)))])
    assert seq.pairs[1] == ((0, 0, 1, 0), (0, 0, 0, 1)) and type(seq.pairs[1][1][3]) is int
    seq.save_json(path)
    assert VectorSequence.load_json(path) == seq
    for value in (9, 0.5, "1", True):
        data = json.loads(path.read_text())
        data["pairs"][1][0][3] = value
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError):
            VectorSequence.load_json(path)


def _without(key):
    return lambda d: {k: v for k, v in d.items() if k != key}


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda d: [d], "sequence JSON must be an object, got list"),
        (_without("pairs"), "sequence JSON is missing key 'pairs'"),
        (_without("q"), "sequence JSON is missing key 'q'"),
        (_without("modulus"), "sequence JSON is missing key 'modulus'"),
        (lambda d: {**d, "q": 5}, r"sequence q must be the JSON integer p\*\*e = 4, got 5"),
        (lambda d: {**d, "q": 4.0}, r"sequence q must be the JSON integer p\*\*e = 4, got 4.0"),
        (lambda d: {**d, "q": True}, r"sequence q must be the JSON integer p\*\*e = 4, got True"),
        (lambda d: [d], "trace JSON must be an object, got list"),
        (_without("modulus"), "trace JSON is missing key 'modulus'"),
        (_without("rounds"), "trace JSON is missing key 'rounds'"),
        (lambda d: {**d, "q": 5}, r"trace q must be the JSON integer p\*\*e = 4, got 5"),
        (lambda d: {**d, "q": 4.0}, r"trace q must be the JSON integer p\*\*e = 4, got 4.0"),
        (lambda d: {**d, "q": True}, r"trace q must be the JSON integer p\*\*e = 4, got True"),
        (lambda d: [d], "matrix JSON must be an object, got list"),
        (_without("modulus"), "matrix JSON is missing key 'modulus'"),
        (_without("entries"), "matrix JSON is missing key 'entries'"),
    ],
)
def test_sequence_json_with_a_bad_header_is_refused(edit, message):
    """The sequence, trace and matrix formats share one header reader; the
    message's first word names the format each case edits."""
    written, read = {
        "sequence": (VectorSequence(GF4, [PAIR]).to_json_dict, VectorSequence.from_json_dict),
        "trace": (_q4_trace_json, ConstructionTrace.from_json_dict),
        "matrix": (lambda: matrix_to_json_dict(MatrixF(GF4, [[0, 1], [2, 3]])), matrix_from_json_dict),
    }[message.split()[0]]
    with pytest.raises(ValueError, match=message):
        read(edit(written()))


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
        assert tuple(H.array[L:, 3 * t]) == seq.pairs[t][0]
        assert tuple(H.array[L:, 3 * t + 1]) == seq.pairs[t][1]


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
    tampered = dataclasses.replace(trace, rounds=tuple(rounds))
    with pytest.raises(ReplayError):
        replay_trace(tampered)


@pytest.mark.parametrize("header", [{"seed": 4}, {"policy": "lex"}], ids=["seed", "policy"])
def test_replay_rejects_a_changed_header(header):
    """The header decides the run: a seeded trace whose seed or policy was
    changed does not replay, though each round on its own is well formed."""
    _, trace = run_algorithm1(GF7, "seeded", 3)
    with pytest.raises(ReplayError, match=r"^round \d+: "):
        replay_trace(dataclasses.replace(trace, **header))


@pytest.mark.parametrize("q", [2, 3])
def test_replay_of_a_small_field_trace_is_silent(q):
    with pytest.warns(UserWarning, match="q >= 4"):
        seq, trace = run_algorithm1(field_create(q), "seeded", 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert replay_trace(trace) == seq


def test_sequence_array_is_read_only():
    pairs = np.array([PAIR, PAIR], dtype=np.int32)
    seq = VectorSequence(GF4, pairs)
    assert seq.array.shape == (2, 2, 4) and seq.array.dtype == np.int32
    with pytest.raises(ValueError, match="read-only"):
        seq.array[0, 0, 0] = 2
    pairs[0, 0, 0] = 2  # the input stays writable and is not shared
    assert seq.pairs == (PAIR, PAIR)
    seq, _ = run_algorithm1(GF4, "lex")
    assert not seq.array.flags.writeable


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
    [[0, 1, 1], "0111", [0, 1, "x", 1], [0, 1, 1.5, 1], [0, 1, 1, 2**40], [0, 1, 1, 2**70], [0, True, 1, 1], 7, None],
    ids=["three", "string", "str-code", "float", "huge", "past-int64", "bool", "int", "all-three"],
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


@pytest.mark.parametrize("entry", [7, None], ids=["int", "null"])
def test_removals_entry_that_is_no_list_names_its_round(entry):
    _, trace = run_algorithm1(GF4, "lex")
    data = json.loads(json.dumps(trace.to_json_dict()))
    i, rd = next((i, rd) for i, rd in enumerate(data["rounds"], start=1) if rd["removals"])
    rd["removals"]["5"] = entry
    with pytest.raises(ValueError, match=rf"^round {i}: every plane's removed points must be a list$"):
        ConstructionTrace.from_json_dict(data)


def test_bool_removal_is_refused_not_read_as_1(tmp_path):
    # numpy upcasts a true among ints to 1: [0, true, 0, true] once loaded
    # equal to the recorded [0, 1, 0, 1], and replayed
    _, trace = run_algorithm1(GF4, "lex")
    data = trace.to_json_dict()
    i, rd = next((i, rd) for i, rd in enumerate(data["rounds"], start=1) if rd["removals"])
    pts = next(iter(rd["removals"].values()))
    j = next(j for j, pt in enumerate(pts) if 1 in pt)
    pts[j] = [True if x == 1 else x for x in pts[j]]
    with pytest.raises(ValueError, match=rf"^round {i}: every removed point must be four int32 codes$"):
        ConstructionTrace.from_json_dict(data)


@pytest.mark.parametrize(
    "key,value",
    [
        ("q", 4.9),
        ("q", 4.0),
        ("q", "4"),
        ("q", True),
        ("q", 16),
        ("p", 2.7),
        ("p", "2"),
        ("p", True),
        ("e", 2.0),
        ("e", "2"),
        ("modulus", [1, 1, 1.0]),
        ("modulus", [1, True, 1]),
        ("modulus", "111"),
        ("policy", 5),
        ("policy", "greedy"),
        ("seed", "x"),
        ("seed", 1.0),
        ("seed", False),
        ("seed", -5),
    ],
)
def test_malformed_trace_header_is_refused(key, value):
    """The header is taken as written, not coerced with int(): each of
    these once loaded a trace equal to the q = 4 original, or replayed."""
    _, trace = run_algorithm1(GF4, "lex")
    data = json.loads(json.dumps(trace.to_json_dict()))
    assert ConstructionTrace.from_json_dict(data) == trace
    data[key] = value
    with pytest.raises(ValueError):
        ConstructionTrace.from_json_dict(data)


def _q4_trace_json():
    _, trace = run_algorithm1(GF4, "lex")
    return json.loads(json.dumps(trace.to_json_dict()))


def test_trace_without_q_is_refused():
    data = _q4_trace_json()
    del data["q"]
    with pytest.raises(ValueError, match="^trace JSON is missing key 'q'$"):
        ConstructionTrace.from_json_dict(data)


def test_trace_with_null_rounds_is_refused():
    data = _q4_trace_json()
    data["rounds"] = None
    with pytest.raises(ValueError, match="^trace rounds must be a list, got NoneType$"):
        ConstructionTrace.from_json_dict(data)


def test_trace_round_that_is_a_list_is_refused():
    data = _q4_trace_json()
    data["rounds"][1] = [data["rounds"][1]["plane_id"]]
    with pytest.raises(ValueError, match="^round 2 must be an object with plane_id, points, discarded and removals$"):
        ConstructionTrace.from_json_dict(data)


def test_trace_that_is_no_object_is_refused():
    with pytest.raises(ValueError, match="^trace JSON must be an object, got list$"):
        ConstructionTrace.from_json_dict([_q4_trace_json()])


def test_trace_header_keeps_a_null_or_integer_seed():
    for policy, seed in (("lex", None), ("seeded", 0), ("seeded", 7)):
        _, trace = run_algorithm1(GF4, policy, seed)
        loaded = ConstructionTrace.from_json_dict(json.loads(json.dumps(trace.to_json_dict())))
        assert loaded == trace and loaded.seed == seed


@pytest.mark.parametrize(
    "field,value",
    [
        ("plane_id", 0.9),
        ("plane_id", 1.0),
        ("plane_id", "5"),
        ("plane_id", True),
        ("plane_id", None),
        ("points", [[0, 0, 1.0, 1]]),
        ("points", [[0, 0, "1", 1]]),
        ("points", [[0, 0, True, 1]]),
        ("points", [7]),
        ("points", 7),
        ("discarded", [1.5]),
        ("discarded", ["3"]),
        ("discarded", [False]),
        ("discarded", 3),
    ],
)
def test_malformed_round_field_names_its_round(field, value, tmp_path):
    """plane_id, points and discarded are refused unless they are JSON
    integers, not coerced with int()."""
    _, trace = run_algorithm1(GF4, "lex")
    path = tmp_path / "trace.json"
    trace.save_json(path)
    data = json.loads(path.read_text())
    data["rounds"][1][field] = value
    with pytest.raises(ValueError, match=r"^round 2: "):
        ConstructionTrace.from_json_dict(data)


_SHAPE = "the chosen points must be three points of four codes"
_INT32 = "plane_id, every chosen code and every discarded plane id must be an int32"


@pytest.mark.parametrize(
    "field,edit,message",
    [
        ("points", lambda pts: [[0, 1]], _SHAPE),
        ("points", lambda pts: [], _SHAPE),
        ("points", lambda pts: pts[:2], _SHAPE),
        ("points", lambda pts: [*pts, pts[0]], _SHAPE),
        ("points", lambda pts: [pts[0], pts[1], pts[2][:3]], _SHAPE),
        ("points", lambda pts: [pts[0], pts[1], [*pts[2], 0]], _SHAPE),
        ("points", lambda pts: [pts[0], pts[1], [*pts[2][:3], 2**40]], _INT32),
        ("points", lambda pts: [pts[0], pts[1], [*pts[2][:3], -(2**31) - 1]], _INT32),
        ("plane_id", lambda pid: 2**40, _INT32),
        ("plane_id", lambda pid: 2**31, _INT32),
        ("discarded", lambda ids: [*ids, 2**40], _INT32),
        ("discarded", lambda ids: [-(2**31) - 1], _INT32),
    ],
    ids=[
        "one-short-point", "no-points", "two-points", "four-points", "three-codes", "five-codes",
        "code-2^40", "code-below-int32", "plane-2^40", "plane-2^31", "discarded-2^40", "discarded-below-int32",
    ],
)
def test_round_that_no_run_could_record_names_its_round(field, edit, message):
    """Chosen points that are not three of four codes, and a plane id or
    code past int32, are refused by name, as in removals."""
    data = _q4_trace_json()
    data["rounds"][1][field] = edit(data["rounds"][1][field])
    with pytest.raises(ValueError, match=rf"^round 2: {message}$"):
        ConstructionTrace.from_json_dict(data)


@pytest.mark.parametrize("key", ["x", "", "-", "--5", "05", "+5", "-0", " 5", "1_0", "\u0665", "5.0"])
def test_malformed_plane_key_names_its_round(key, tmp_path):
    _, trace = run_algorithm1(GF4, "lex")
    path = tmp_path / "trace.json"
    trace.save_json(path)
    data = json.loads(path.read_text())
    i, rd = next((i, rd) for i, rd in enumerate(data["rounds"], start=1) if rd["removals"])
    rd["removals"][key] = rd["removals"].pop(next(iter(rd["removals"])))
    with pytest.raises(ValueError, match=rf"^round {i}: every plane id must be an int32$"):
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


def _slow_trace_bytes(trace) -> bytes:
    """The oracle for `save_json`: the payload through the C encoder."""
    return (json_text(trace.to_json_dict()) + "\n").encode()


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13, 16, 27])
@pytest.mark.parametrize("policy,seed", [("lex", None), ("seeded", 3), ("seeded", 11)])
def test_trace_writer_matches_the_payload(q, policy, seed, tmp_path):
    _, trace = run_algorithm1(field_create(*factor_prime_power(q)), policy, seed)
    path = tmp_path / "trace.json"
    trace.save_json(path)
    assert path.read_bytes() == _slow_trace_bytes(trace)


# plane ids on both sides of every digit-count boundary, and negative ones,
# whose "-" sorts first
_PLANE_IDS = sorted(
    {0, 1, 2, 9, 10, 11, 19, 20, 99, 100, 101, 2**31 - 1, -1, -10, -(2**31)}
    | {s * 10**k + d for k in range(2, 10) for s in (1, 2) for d in (-1, 0)}
)


def _hand_trace(rng, field) -> ConstructionTrace:
    """0 to 8 random rounds with no removals, one cut plane or several; some
    cut planes lost no point; codes of 1 to 3 digits, up to 511."""
    rounds = []
    for _ in range(rng.integers(0, 9)):
        h = int(rng.choice([0, 1, 1, 2, 5]))
        pids = np.sort(rng.choice(_PLANE_IDS, size=h, replace=False))
        counts = rng.choice([0, 1, 2, 3, 7], size=h, p=[0.1, 0.3, 0.3, 0.2, 0.1])
        digits = rng.integers(1, 4, size=(int(counts.sum()), 4))
        removed = np.minimum(rng.integers(10 ** (digits - 1) - (digits == 1), 10**digits), 511)
        rounds.append(
            TraceRound(
                plane_id=int(rng.choice(_PLANE_IDS)),
                points=tuple(tuple(rng.integers(0, 512, 4).tolist()) for _ in range(3)),
                cut=np.stack([pids, counts], axis=1).astype(np.int32).reshape(-1, 2),
                removed=removed.astype(np.int32).reshape(-1, 4),
                discarded=tuple(rng.choice(_PLANE_IDS, size=int(rng.integers(0, 3))).tolist()),
            )
        )
    return ConstructionTrace(field=field, policy="lex", seed=None, rounds=tuple(rounds))


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("q", [512, 7])  # q = 7: most codes lie past q, as in a tampered file
def test_trace_writer_on_hand_built_rounds(seed, q, tmp_path):
    trace = _hand_trace(np.random.default_rng(seed), GF512 if q == 512 else GF7)
    path = tmp_path / "trace.json"
    trace.save_json(path)
    assert path.read_bytes() == _slow_trace_bytes(trace)


_int32 = st.integers(-(2**31), 2**31 - 1)
_plane_id = st.sampled_from(_PLANE_IDS) | _int32


def _random_round(plane_id, removals, discarded) -> TraceRound:
    """A round cutting the planes of removals, in the order drawn."""
    cut = [(pid, len(pts)) for pid, pts in removals.items()]
    removed = [pt for pts in removals.values() for pt in pts]
    points = ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0))
    return TraceRound(plane_id, points, np.array(cut, dtype=np.int32).reshape(-1, 2), np.array(removed, dtype=np.int32).reshape(-1, 4), discarded)


_random_rounds = st.lists(
    st.builds(
        _random_round,
        _plane_id,
        st.dictionaries(_plane_id, st.lists(st.tuples(_int32, _int32, _int32, _int32), max_size=7), max_size=6),
        st.lists(_plane_id, max_size=3).map(tuple),
    ),
    max_size=5,
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rounds=_random_rounds)
def test_trace_writer_on_random_rounds(rounds, tmp_path):
    trace = ConstructionTrace(field=GF512, policy="lex", seed=None, rounds=tuple(rounds))
    path = tmp_path / "trace.json"
    trace.save_json(path)
    assert path.read_bytes() == _slow_trace_bytes(trace)


def test_trace_writer_with_no_rounds(tmp_path):
    trace = ConstructionTrace(field=GF5, policy="seeded", seed=2**70, rounds=())
    path = tmp_path / "trace.json"
    trace.save_json(path)
    assert path.read_bytes() == _slow_trace_bytes(trace)


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

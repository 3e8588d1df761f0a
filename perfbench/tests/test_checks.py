"""The independent checks: agreement with lrc7 on good outputs, and failure
on tampered ones."""

import json
import math

import pytest

import lrc7
import checks
import workloads
from checks import CheckFailed


@pytest.mark.parametrize("q", [4, 7, 8, 9, 16, 25, 27, 32])
def test_field_tables_match_lrc7(q):
    F = lrc7.field_create(*workloads.factor(q))
    ref = checks.Field(F.p, F.e, F.modulus)
    for a in range(q):
        for b in range(q):
            assert ref.mul[a][b] == F.mul(a, b)
            assert ref.add[a][b] == F.add(a, b)


def test_reducible_modulus_is_rejected():
    with pytest.raises(CheckFailed):
        checks.Field(2, 2, [1, 0, 1])  # x^2 + 1 = (x + 1)^2 over GF(2)


def test_round_bound():
    for q in range(2, 300):
        m = max(math.ceil(math.sqrt(2) * q / 3 - 1e-9), 3)
        assert checks.round_bound(q) == m == lrc7.guaranteed_min_rounds(q)
    assert checks.round_bound(32) == 16


def test_code_params():
    checks.check_code_params(7, 6, 18, 8, 7)
    with pytest.raises(CheckFailed):
        checks.check_code_params(7, 6, 18, 9, 7)  # k != 2L - 4
    with pytest.raises(CheckFailed):
        checks.check_code_params(7, 6, 18, 8, 8)  # n > q + 4 needs d = 7
    with pytest.raises(CheckFailed):
        checks.check_code_params(32, 15, 45, 26, None)  # below the round bound


def test_spread_points_and_a_tampered_plane():
    F = lrc7.field_create(2, 2)
    ref = checks.Field(F.p, F.e, F.modulus)
    planes = [pl.basis for pl in lrc7.build_2_spread(F).planes]
    checks.check_spread_points(ref, planes)
    with pytest.raises(CheckFailed):
        checks.check_spread_points(ref, planes[:-1] + [planes[0]])


def test_parity_matrix_rank_and_a_tampered_entry():
    data = workloads.fixture_data("h2")
    checks.check_parity_matrix(data, 8)
    bad = json.loads(json.dumps(data))
    bad["entries"][0][3] = 1  # group rows no longer partition the coordinates
    with pytest.raises(CheckFailed):
        checks.check_parity_matrix(bad, 8)


def test_verify_of_a_matrix_whose_distance_dropped(tmp_path):
    data = workloads.fixture_data("h2")
    L = data["cols"] // 3
    for r in range(L, data["rows"]):
        data["entries"][r][4] = data["entries"][r][3]  # columns 3 and 4 become equal: d = 2
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(data))
    tally = workloads.Tally()
    with tally.op("verify tampered"):
        checks.parse_verify(workloads.run_cli(tally, "verify", ["verify", str(path)]))
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 1)
    assert "exited 1" in tally.errors[0]


def test_cli_output_parsing():
    made = checks.parse_construct("(18, 8, 7, 2)_7  L=6  policy=lex\nclassification: x\nattains dimension bound: yes\n")
    assert made == {"n": 18, "k": 8, "d": 7, "q": 7, "L": 6}
    text = "(18, 8, 7, 2)_7  groups=6\nsix-column independence: yes\nclassification: x\ndeclared parameters match: {}\n"
    assert checks.parse_verify(text.format("yes")) == made
    with pytest.raises(CheckFailed):
        checks.parse_verify(text.format("no"))


def _simulation(model, trials=60):
    H, _ = lrc7.load_fixture("h2")
    code = lrc7.code_from_parity_check(H)
    stats = lrc7.simulate_repairs(code, trials, model, 3)
    records = [
        {"trial": r.trial, "erased": list(r.erased), "mode": r.mode, "success": r.success, "helpers": r.helpers}
        for r in stats.records
    ]
    return stats.summary_dict(), records, checks.groups_of(H.array.tolist())


@pytest.mark.parametrize("model", ["single-uniform", "multi-uniform(6)", "group-burst"])
def test_simulation_passes(model):
    summary, records, groups = _simulation(model)
    checks.check_simulation(summary, records, groups, model, 60)


def test_simulation_with_one_failed_trial():
    summary, records, groups = _simulation("multi-uniform(6)")
    records[5]["success"] = False
    summary["successes"] -= 1
    with pytest.raises(CheckFailed, match="failed"):
        checks.check_simulation(summary, records, groups, "multi-uniform(6)", 60)


def test_simulation_with_a_wrong_mode():
    summary, records, groups = _simulation("single-uniform")
    records[0]["mode"] = "global"
    with pytest.raises(CheckFailed, match="mode"):
        checks.check_simulation(summary, records, groups, "single-uniform", 60)


def test_local_rate_is_exact():
    assert checks.local_rate(6, 6) == 729 / math.comb(18, 6)
    assert checks.local_rate(10, 1) == 1.0


def test_simulation_local_count_outside_five_sigma():
    summary, records, groups = _simulation("multi-uniform(6)", trials=400)
    # relabel every trial local: far above the exact rate of about 4%
    group_of = {j: gi for gi, g in enumerate(groups) for j in g}
    for rec in records:
        rec["erased"] = [groups[g][0] for g in range(6)]
        rec["mode"], rec["helpers"] = "local", 12
    summary["local_trials"] = len(records)
    assert len({group_of[j] for j in records[0]["erased"]}) == 6
    with pytest.raises(CheckFailed, match="local trials"):
        checks.check_simulation(summary, records, groups, "multi-uniform(6)", 400)

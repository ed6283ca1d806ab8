import hashlib
import random
import sys
from collections import Counter

import pytest

from dispersim.engine import Configuration, EngineError, node_views, run
from dispersim.algorithms import make_algorithm
from dispersim.adversary import gen_random_with_property, make_adversary
from dispersim.graphs import Schedule, Snapshot
from dispersim.harness import (
    ScenarioError,
    build_placement,
    parse_scenario,
    run_scenario,
    sweep,
    verify_result,
    verify_trace,
)
from dispersim import cli, harness

import oracles


BASE = """\
n = 6
k = 4
schedule = random:t_path
algorithm = alg1_explicit
T = 2
max_rounds = 40
# comment line
seed = 3
"""


def test_parse_scenario_defaults():
    sc = parse_scenario(BASE)
    assert (sc.n, sc.k, sc.T, sc.seed) == (6, 4, 2, 3)
    assert sc.visibility == "one"
    assert sc.communication == "global"
    assert sc.placement == "colocated"
    assert sc.density == 0.3


def test_parse_scenario_errors_carry_line_numbers():
    with pytest.raises(ScenarioError, match="line 2: unknown key 'bogus'"):
        parse_scenario("n = 3\nbogus = 1\nk = 2\n")
    with pytest.raises(ScenarioError, match="line 2: duplicate key 'n'"):
        parse_scenario("n = 3\nn = 4\n")
    with pytest.raises(ScenarioError, match="missing required key 'schedule'"):
        parse_scenario("n = 3\nk = 2\nalgorithm = disp\nmax_rounds = 5\n")
    with pytest.raises(ScenarioError, match="line 1: n must be an integer"):
        parse_scenario("n = three\nk = 2\n")
    with pytest.raises(ScenarioError, match="expected key=value"):
        parse_scenario("n 3\n")


def test_parse_scenario_semantic_errors():
    def sc(**changes):
        lines = BASE.splitlines()
        for key, value in changes.items():
            line = f"{key} = {value}"
            hits = [i for i, l in enumerate(lines) if l.startswith(f"{key} ")]
            if hits:
                lines[hits[0]] = line
            else:
                lines.append(line)
        return "\n".join(lines) + "\n"

    with pytest.raises(ScenarioError, match="k must be <= n"):
        parse_scenario(sc(k=9))
    with pytest.raises(ScenarioError, match="unknown schedule kind"):
        parse_scenario(sc(schedule="mystery"))
    with pytest.raises(ScenarioError, match="unknown algorithm"):
        parse_scenario(sc(algorithm="alg9"))
    with pytest.raises(ScenarioError, match="visibility must be"):
        parse_scenario(sc(visibility="two"))
    with pytest.raises(ScenarioError, match="needs T"):
        parse_scenario(
            "n = 4\nk = 2\nschedule = tpath_demo\n"
            "algorithm = alg1_explicit\nmax_rounds = 9\n"
        )
    with pytest.raises(ScenarioError, match="dispersed_known"):
        parse_scenario(sc(algorithm="dispersed_one_round"))


def test_dispersed_one_round_scenario_needs_the_flag():
    text = (
        "n = 5\nk = 4\nschedule = random:t_interval\nT = 1\n"
        "algorithm = dispersed_one_round\nmax_rounds = 5\n"
        "placement = dispersed\ndispersed_known = true\n"
    )
    res = run_scenario(parse_scenario(text))
    assert res.all_terminated_at == 0
    assert verify_result(res).ok


def test_placements():
    sc = parse_scenario(BASE)
    assert build_placement(sc) == {1: 0, 2: 0, 3: 0, 4: 0}
    sc.placement = "colocated:2"
    assert build_placement(sc) == {1: 2, 2: 2, 3: 2, 4: 2}
    sc.placement = "dispersed"
    assert build_placement(sc) == {1: 0, 2: 1, 3: 2, 4: 3}
    sc.placement = "spread:3"
    assert build_placement(sc) == {1: 0, 2: 1, 3: 2, 4: 0}
    sc.placement = "explicit:0:1,4;5:2,3"
    assert build_placement(sc) == {1: 0, 4: 0, 2: 5, 3: 5}
    sc.placement = "random"
    first = build_placement(sc)
    assert build_placement(sc) == first
    assert all(0 <= node < sc.n for node in first.values())


def test_placement_errors():
    sc = parse_scenario(BASE)
    sc.placement = "colocated:6"
    with pytest.raises(ScenarioError, match="outside"):
        build_placement(sc)
    sc.placement = "colocated:x"
    with pytest.raises(ScenarioError, match="^bad colocated placement 'x'$"):
        build_placement(sc)
    sc.placement = "spread:x"
    with pytest.raises(ScenarioError, match="^bad spread placement 'x'$"):
        build_placement(sc)
    sc.placement = "explicit:0:1,2"
    with pytest.raises(ScenarioError, match="must cover agents"):
        build_placement(sc)
    sc.placement = "explicit:0:1,1;1:2,3"
    with pytest.raises(ScenarioError, match="placed twice"):
        build_placement(sc)


def test_run_scenario_random_schedule():
    res = run_scenario(parse_scenario(BASE))
    assert res.dispersed_at is not None
    assert res.all_terminated_at is not None
    report = verify_result(res)
    assert report.ok
    assert report.metrics.dispersed_at == res.dispersed_at
    assert report.metrics.holes_end == 2


def test_run_scenario_schedule_file(tmp_path):
    sched = gen_random_with_property(1, 5, "t_interval", 1, 0.4, 12)
    path = tmp_path / "demo.sched"
    path.write_text(sched.to_text())
    text = (
        f"n = 5\nk = 4\nschedule = file:{path}\nalgorithm = alg2\n"
        "max_rounds = 12\nplacement = dispersed\n"
    )
    res = run_scenario(parse_scenario(text))
    assert res.all_terminated_at is not None
    assert verify_result(res).ok


def test_run_scenario_rejects_n_mismatch(tmp_path):
    sched = gen_random_with_property(1, 5, "t_interval", 1, 0.4, 12)
    path = tmp_path / "demo.sched"
    path.write_text(sched.to_text())
    text = (
        f"n = 6\nk = 4\nschedule = file:{path}\nalgorithm = alg2\n"
        "max_rounds = 12\n"
    )
    with pytest.raises(ScenarioError, match="n=5"):
        run_scenario(parse_scenario(text))


def _clean_run():
    sched = gen_random_with_property(7, 5, "t_path", 2, 0.4, 60)
    return run(
        sched,
        {1: 0, 2: 0, 3: 0, 4: 0},
        make_algorithm("alg1_explicit", T=2),
        max_rounds=60,
        T=2,
    )


def test_verify_accepts_clean_trace():
    report = verify_trace(_clean_run().to_text())
    assert report.ok
    assert report.metrics.all_terminated_at is not None


def _tamper(text, old, new, count=1):
    assert old in text
    return text.replace(old, new, count)


def _rewrite_first(text, prefix, make_new):
    lines = text.splitlines()
    i = next(idx for idx, line in enumerate(lines) if line.startswith(prefix))
    lines[i] = make_new(lines[i])
    return "\n".join(lines) + "\n"


def test_verify_catches_teleport():
    text = _clean_run().to_text()
    lines = text.splitlines()
    i = next(idx for idx, line in enumerate(lines) if line.startswith("post: "))
    # move the first listed occupant group to a different node
    first = lines[i].split()[1]
    node, ids = first.split(":")
    other = "4" if node != "4" else "3"
    lines[i] = lines[i].replace(f"{node}:{ids}", f"{other}:{ids}", 1)
    report = verify_trace("\n".join(lines) + "\n")
    assert any("moves say" in v or "does not match previous post" in v
               for v in report.violations)


def test_verify_catches_bad_message_count():
    text = _rewrite_first(_clean_run().to_text(), "msgs: ", lambda _: "msgs: 999")
    report = verify_trace(text)
    assert any("msgs=999" in v for v in report.violations)


def test_verify_catches_bad_components():
    # groups listed out of least-member order can never match the checker
    text = _rewrite_first(
        _clean_run().to_text(), "comp: ", lambda _: "comp: 4|0,1,2,3"
    )
    report = verify_trace(text)
    assert any("component partition mismatch" in v for v in report.violations)


def test_verify_catches_trailer_lie():
    res = _clean_run()
    text = _tamper(
        res.to_text(),
        f"dispersed_at={res.dispersed_at}",
        "dispersed_at=0",
    )
    report = verify_trace(text)
    assert any("end line says dispersed_at=0" in v for v in report.violations)


def test_verify_catches_missing_actor():
    res = _clean_run()
    text = res.to_text()
    act_line = next(
        line for line in text.splitlines() if line.startswith("act: ")
    )
    broken = " ".join(act_line.split()[:-1])
    report = verify_trace(_tamper(text, act_line, broken))
    assert any("actors" in v for v in report.violations)


def test_verify_catches_idle_trace_labeled_cooperative():
    sched = gen_random_with_property(2, 5, "t_path", 2, 0.5, 10)
    res = run(sched, {1: 0, 2: 0, 3: 1}, make_algorithm("stay"),
              max_rounds=10, T=2)
    text = res.to_text().replace("algorithm=stay", "algorithm=alg1_implicit")
    report = verify_trace(text)
    assert any("holes went" in v for v in report.violations)


def test_verify_rejects_structural_damage():
    text = _clean_run().to_text()
    with pytest.raises(EngineError, match="bad trace header"):
        verify_trace("trace v=2 " + text.split(" ", 2)[2])
    with pytest.raises(EngineError, match="missing end line"):
        verify_trace(text[: text.rindex("end ")])
    with pytest.raises(EngineError, match="bad edge token"):
        verify_trace(text.replace("0-1:", "0~1:", 1))


@pytest.mark.parametrize("field, bad", [
    ("edges: ", "edges: 0-1:0,x"),
    ("edges: ", "edges: 0-0:0,1"),
    ("pos: ", "pos: 0:1,,2"),
    ("act: ", "act: 1:m"),
    ("post: ", "post: x"),
    ("comp: ", "comp: a,b"),
    ("msgs: ", "msgs: x"),
    ("pos: ", "pos: 9:1,2,3,4"),
    ("post: ", "post: 0:1,2 7:3,4"),
    ("pos: ", "pos: 5:1 0:1,2,3"),
    ("act: ", "act: 1:m9 1:m0 2:s 3:s"),
])
def test_malformed_trace_fields_name_their_line(tmp_path, capsys, field, bad):
    text = _clean_run().to_text()
    lines = text.splitlines()
    lineno = next(i for i, line in enumerate(lines, 1) if line.startswith(field))
    broken = _rewrite_first(text, field, lambda _: bad)
    with pytest.raises(EngineError, match=f"^line {lineno}: "):
        verify_trace(broken)
    path = tmp_path / "broken.trace"
    path.write_text(broken)
    assert cli.main(["verify", str(path)], out=lambda *_: None) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: line {lineno}: ")


@pytest.mark.parametrize("field, bad", [
    ("pos: ", "pos: 5:1 0:1,2,3"),
    ("pos: ", "pos: 0:1,2,3,4,1"),
    ("post: ", "post: 0:2 1:1 2:3 3:4 4:1"),
    ("act: ", "act: 1:m9 1:m0 2:s 3:s"),
    ("act: ", "act: 1:s 2:s 3:s 4:s 01:s"),
])
def test_agent_listed_twice_in_a_field_names_its_line(field, bad):
    text = _clean_run().to_text()
    lineno = _field_lines(text, field)[0][0]
    broken = _rewrite_first(text, field, lambda _: bad)
    with pytest.raises(EngineError, match=f"^line {lineno}: agent 1 listed twice$"):
        verify_trace(broken)


def _field_lines(text, field):
    """(line number, line) of every line of one field, in trace order."""
    return [(i, line) for i, line in enumerate(text.splitlines(), 1)
            if line.startswith(field)]


def test_trace_node_out_of_range_names_its_line_and_agent():
    text = _clean_run().to_text()
    lineno = _field_lines(text, "post: ")[0][0]
    broken = _rewrite_first(text, "post: ", lambda _: "post: 0:2 7:3,1 1:4")
    with pytest.raises(
        EngineError, match=f"^line {lineno}: agent 1 placed on node 7, n=5$"
    ):
        verify_trace(broken)


def _repeating_trace():
    """A trace whose adversary keeps returning to the same few graphs."""
    return run(make_adversary("ct_dispersion", 4, k=3, T=2),
               {1: 0, 2: 0, 3: 0}, make_algorithm("alg1_implicit"),
               max_rounds=12, T=2).to_text()


def test_parse_trace_shares_each_distinct_field_value():
    text = _repeating_trace()
    _, rounds, _ = harness.parse_trace(text)
    edges = [line for _, line in _field_lines(text, "edges:")]
    assert len(set(edges)) < len(edges)
    for r, tr in enumerate(rounds):
        assert tr.snapshot is rounds[edges.index(edges[r])].snapshot
    assert len({id(tr.snapshot) for tr in rounds}) == len(set(edges))
    for prev, tr in zip(rounds, rounds[1:]):
        assert tr.pos is prev.post
    assert oracles.parse_trace_reference(text) == harness.parse_trace(text)


def test_repeated_malformed_line_is_reported_at_its_first_line():
    text = _repeating_trace()
    lines = _field_lines(text, "edges:")
    counts = Counter(line for _, line in lines)
    first, repeated = next((i, l) for i, l in lines if counts[l] > 1)
    broken = text.replace(repeated + "\n", repeated + " 9-9:0,0\n")
    with pytest.raises(EngineError, match=f"^line {first}: edge 9-9 out of range"):
        verify_trace(broken)


def test_pos_differing_from_previous_post_is_still_reported():
    text = _clean_run().to_text()
    lines = text.splitlines()
    i = lines.index("round r=1")
    assert lines[i + 2] == lines[i - 3].replace("post:", "pos:", 1)
    lines[i + 2] = "pos: 0:2 1:3 2:4 3:1"
    assert lines[i + 2] != lines[i - 3].replace("post:", "pos:", 1)
    report = verify_trace("\n".join(lines) + "\n")
    assert "round 1: pos does not match previous post" in report.violations


@pytest.mark.parametrize("old, new", [
    ("algorithm=alg1_explicit", "algorithm=alg9"),
    (" T=2 ", " T=- "),
])
def test_unreplayable_trace_header_names_line_1(tmp_path, capsys, old, new):
    broken = _tamper(_clean_run().to_text(), old, new)
    with pytest.raises(EngineError, match="^line 1: "):
        verify_trace(broken)
    path = tmp_path / "broken.trace"
    path.write_text(broken)
    assert cli.main(["verify", str(path)], out=lambda *_: None) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: line 1: ")


def test_verify_reports_pos_agent_outside_1_to_k():
    text = _rewrite_first(_clean_run().to_text(), "pos: ", lambda l: l + " 4:9")
    report = verify_trace(text)
    assert "round 0: pos does not cover agents 1..4" in report.violations


def _forge_action(text, r, agent, code):
    """Change one agent's action in round r, moving it in post to match."""
    tr = harness.parse_trace(text)[1][r]
    port = harness.Action.from_code(code).port
    post = dict(tr.post)
    post[agent] = tr.pos[agent] if port is None else tr.snapshot.neighbor(
        tr.pos[agent], port)
    groups: dict[int, list[int]] = {}
    for a in sorted(post):
        groups.setdefault(post[a], []).append(a)
    lines = text.splitlines()
    i = lines.index(f"round r={r}")
    lines[i + 3] = "act: " + " ".join(
        f"{a}:{code if a == agent else tr.actions[a].code()}"
        for a in sorted(tr.actions)
    )
    lines[i + 4] = "post: " + " ".join(
        f"{node}:{','.join(map(str, ids))}" for node, ids in sorted(groups.items())
    )
    return "\n".join(lines) + "\n"


def test_verify_catches_forged_legal_action():
    sc = parse_scenario(
        "n = 8\nk = 7\nschedule = random:t_path\nT = 2\n"
        "algorithm = alg3\nseed = 5\nmax_rounds = 30\n"
    )
    text = run_scenario(sc).to_text()
    assert harness.parse_trace(text)[1][29].actions[4].code() == "m0"
    assert verify_trace(text).ok
    report = verify_trace(_forge_action(text, 29, 4, "s"))
    assert any(v.startswith("round 29: agent 4 ") for v in report.violations)


def test_forged_action_on_a_repeated_round_is_reported(monkeypatch):
    # alg3 keeps no state, so a round whose graph and positions repeat an
    # earlier round's is a memo hit in the replay
    text = run(make_adversary("ct_dispersion", 6, k=4, T=3),
               {a: 0 for a in range(1, 5)}, make_algorithm("alg3"),
               max_rounds=30, T=3).to_text()
    rounds = harness.parse_trace(text)[1]
    r = max(i for i, tr in enumerate(rounds) if any(
        prev.snapshot is tr.snapshot and prev.pos == tr.pos
        for prev in rounds[:i]
    ) and any(act.port is not None for act in tr.actions.values()))
    agent, act = next((a, act) for a, act in sorted(rounds[r].actions.items())
                      if act.port is not None)
    hits = []
    original = harness.round_step

    def recording(*args):
        size = len(args[6])
        step = original(*args)
        hits.append(len(args[6]) == size)
        return step

    monkeypatch.setattr(harness, "round_step", recording)
    assert verify_trace(text).ok
    assert hits[r]
    hits.clear()
    report = verify_trace(_forge_action(text, r, agent, "s"))
    assert hits[r]
    assert (f"round {r}: agent {agent} recorded s, alg3 computes"
            f" {act.code()}") in report.violations


@pytest.mark.parametrize("field, bad", [
    ("pos: ", "pos: " + "1" * 5000 + ":1,2,3,4"),
    ("act: ", "act: 1:m" + "1" * 5000 + " 2:s 3:s 4:s"),
    ("comp: ", "comp: " + "1" * 5000),
    ("msgs: ", "msgs: " + "1" * 5000),
    ("round ", "round r=" + "1" * 5000),
], ids=["pos", "act", "comp", "msgs", "round"])
def test_overlong_trace_numbers_name_their_line(tmp_path, capsys, field, bad):
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python converts integers of any length")
    text = _clean_run().to_text()
    lineno = _field_lines(text, field)[0][0]
    broken = _rewrite_first(text, field, lambda _: bad)
    with pytest.raises(EngineError, match=f"^line {lineno}: .*5000 digits"):
        verify_trace(broken)
    path = tmp_path / "broken.trace"
    path.write_text(broken)
    assert cli.main(["verify", str(path)], out=lambda *_: None) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: line {lineno}: ")


def test_zero_hop_view_is_projection_of_one_hop():
    rng = random.Random("projection")
    for _ in range(40):
        n = rng.randrange(2, 7)
        pair_pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        pairs = [p for p in pair_pool if rng.random() < 0.5]
        snap = Snapshot.from_pairs(n, pairs)
        k = rng.randrange(1, n + 1)
        config = Configuration(
            n, {a: rng.randrange(n) for a in range(1, k + 1)}
        )
        zero = node_views(snap, config, "zero")
        one = node_views(snap, config, "one")
        assert set(zero) == set(one)
        for node, view in zero.items():
            assert view.per_port is None
            assert view.degree == one[node].degree
            assert view.colocated == one[node].colocated


def test_demo_passes_and_prints_rows():
    lines = []
    assert harness.demo("kt_lower", out=lines.append)
    assert lines[-1] == "demo kt_lower: PASS"
    assert sum("PASS" in line for line in lines) >= 6
    lines.clear()
    assert harness.demo("dispersed_block", out=lines.append)
    assert lines[-1] == "demo dispersed_block: PASS"


# SHA-256 of the standard output of ``dispersim demo all``
DEMO_ALL_SHA256 = (
    "8a5bfc79edeb870655c45eb08638480ad7160d588c6e0a2ea65aaee150e5e5a2"
)


@pytest.fixture(scope="module")
def demo_all():
    lines = []
    code = cli.main(["demo", "all"], out=lines.append)
    return code, "\n".join(lines) + "\n"


def test_cli_demo_all_passes(demo_all):
    code, text = demo_all
    assert code == 0
    assert "FAIL" not in text
    assert text.count(": PASS\n") == len(harness.CLAIMS)


def test_cli_demo_all_matches_golden_hash(demo_all):
    assert hashlib.sha256(demo_all[1].encode()).hexdigest() == DEMO_ALL_SHA256


def test_demo_unknown_id():
    with pytest.raises(ScenarioError, match="unknown demo"):
        harness.demo("nope", out=lambda *_: None)


def test_sweep_aggregates_and_verifies():
    lines = []
    metrics, violations = sweep(BASE, range(5), out=lines.append)
    assert len(metrics) == 5
    assert violations == []
    assert all(m.dispersed_at is not None for m in metrics)
    assert lines[0] == "runs: 5"
    assert any(line.startswith("violations: 0") for line in lines)


def test_cli_run_verify_roundtrip(tmp_path):
    scenario = tmp_path / "case.scn"
    scenario.write_text(BASE)
    trace = tmp_path / "case.trace"
    lines = []
    code = cli.main(
        ["run", str(scenario), "--trace-out", str(trace)], out=lines.append
    )
    assert code == 0
    assert trace.exists()
    assert cli.main(["verify", str(trace)], out=lines.append) == 0

    tampered = tmp_path / "bad.trace"
    tampered.write_text(
        _rewrite_first(trace.read_text(), "msgs: ", lambda _: "msgs: 999")
    )
    assert cli.main(["verify", str(tampered)], out=lines.append) == 1


def test_cli_classify(tmp_path):
    sched = gen_random_with_property(4, 5, "t_path", 3, 0.3, 12)
    path = tmp_path / "x.sched"
    path.write_text(sched.to_text())
    lines = []
    assert cli.main(
        ["classify", str(path), "--property", "t_path", "--T", "3"],
        out=lines.append,
    ) == 0
    assert cli.main(["classify", str(path)], out=lines.append) == 0
    assert any("minimal T" in line for line in lines)
    # T=1 t_interval on a sparse random trace: essentially never holds
    code = cli.main(
        ["classify", str(path), "--property", "t_interval", "--T", "1"],
        out=lines.append,
    )
    assert code in (0, 1)


def test_cli_demo_and_sweep(tmp_path):
    lines = []
    assert cli.main(["demo", "time_1int"], out=lines.append) == 0
    template = tmp_path / "tmpl.scn"
    template.write_text(BASE)
    assert cli.main(
        ["sweep", str(template), "--seeds", "0..3"], out=lines.append
    ) == 0
    assert cli.main(
        ["sweep", str(template), "--seeds", "5,8"], out=lines.append
    ) == 0


@pytest.mark.parametrize("line, message", [
    ("placement = colocated:x", "bad colocated placement 'x'"),
    ("placement = spread:x", "bad spread placement 'x'"),
    ("schedule = file:{missing}", "cannot read {missing}: "),
])
def test_cli_run_rejects_bad_placement_and_missing_schedule(
    tmp_path, capsys, line, message
):
    missing = tmp_path / "missing.sched"
    key = line.split(" = ")[0]
    kept = [kv for kv in BASE.splitlines() if not kv.startswith(key + " ")]
    scenario = tmp_path / "case.scn"
    scenario.write_text("\n".join(kept + [line.format(missing=missing)]) + "\n")
    assert cli.main(["run", str(scenario)], out=lambda *_: None) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: " + message.format(missing=missing))


def test_cli_classify_missing_schedule(tmp_path, capsys):
    missing = tmp_path / "missing.sched"
    assert cli.main(["classify", str(missing)], out=lambda *_: None) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot read {missing}: ")


def test_cli_usage_errors(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text("n = 3\nwat = 1\n")
    assert cli.main(["run", str(bad)], out=lambda *_: None) == 2
    assert cli.main(["run", str(tmp_path / "missing.scn")],
                    out=lambda *_: None) == 2
    garbled = tmp_path / "garbled.trace"
    garbled.write_text("not a trace\n")
    assert cli.main(["verify", str(garbled)], out=lambda *_: None) == 2

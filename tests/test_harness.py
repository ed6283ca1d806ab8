import hashlib
import random
import re
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from dispersim.engine import Action, Configuration, EngineError, node_views, run
from dispersim.adversary import (
    ADVERSARIES,
    ADVERSARY_KINDS,
    DEMOS,
    SORTED_PATH_VARIANTS,
    RandomRounds,
    gen_random_with_property,
    make_adversary,
)
from dispersim.algorithms import ALGORITHM_NAMES, make_algorithm
from dispersim.graphs import Schedule, Snapshot
from dispersim.harness import ScenarioError, verify_trace
from dispersim.scenario import (
    PLACEMENTS,
    build_placement,
    build_source,
    parse_scenario,
    run_scenario,
    sweep,
)
from dispersim import claims, cli, engine, harness

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
    # integers are decimal digits, a seed after an optional minus; int()
    # alone would also take a sign, an underscore or inner spaces
    for key, value in (("n", "1_0"), ("k", "+4"), ("max_rounds", "+9"),
                       ("T", "0_3"), ("seed", "+3"), ("seed", "- 3"),
                       ("seed", "1_0"), ("n", "6 0")):
        lines = [line for line in BASE.splitlines()
                 if not line.startswith(f"{key} ")]
        lines.insert(1, f"{key} ={value}")
        with pytest.raises(ScenarioError, match="^" + re.escape(
                f"line 2: {key} must be an integer, got {value!r}") + "$"):
            parse_scenario("\n".join(lines) + "\n")
    assert parse_scenario(BASE.replace("seed = 3", "seed = -3")).seed == -3
    # a negative count reads as an integer, and its range check names it
    for key in ("n", "k", "max_rounds", "T"):
        lines = [line for line in BASE.splitlines()
                 if not line.startswith(f"{key} ")]
        lines.insert(1, f"{key} = -3")
        with pytest.raises(ScenarioError, match="^" + re.escape(
                f"line 2: {key} must be >= 1, got -3") + "$"):
            parse_scenario("\n".join(lines) + "\n")


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
    # a schedule argument is checked where the scenario names it
    for schedule, message in (
        ("kt_lower:junk", "schedule kt_lower takes no argument, got 'junk'"),
        ("tpath_demo:zzz", "schedule tpath_demo takes no argument, got 'zzz'"),
        ("random:bogus", "schedule random takes a property in"
                         " ('t_interval', 't_path', 'connectivity_time'),"
                         " got 'bogus'"),
        ("random", "schedule random takes a property in"),
        ("sorted_path", "schedule sorted_path takes a variant in"
                        " ('comm', 'visibility', 'dispersed'), got ''"),
        ("sorted_path:bogus", "schedule sorted_path takes a variant in"),
        ("file:", "schedule file takes a path, got ''"),
    ):
        with pytest.raises(ScenarioError, match=f"^line 3: {re.escape(message)}"):
            parse_scenario(sc(schedule=schedule))
    # density is checked whatever the schedule
    for schedule in ("random:t_path", "tpath_demo"):
        for density in ("5", "-0.1", "nan"):
            with pytest.raises(ScenarioError, match="^line 9: density must be"
                                                    r" in \[0, 1\], got"):
                parse_scenario(sc(schedule=schedule, density=density))


def test_dispersed_one_round_scenario_needs_the_flag():
    text = (
        "n = 5\nk = 4\nschedule = random:t_interval\nT = 1\n"
        "algorithm = dispersed_one_round\nmax_rounds = 5\n"
        "placement = dispersed\ndispersed_known = true\n"
    )
    res = run_scenario(parse_scenario(text))
    assert res.all_terminated_at == 0
    assert verify_trace(res.to_text()).ok


@pytest.mark.parametrize("kind", ADVERSARY_KINDS)
def test_every_adversary_kind_is_reachable_from_a_scenario(kind):
    params = ADVERSARIES[kind][1]
    arg = f":{SORTED_PATH_VARIANTS[0]}" if "variant" in params else ""
    text = (f"n = 8\nk = 3\nschedule = {kind}{arg}\nalgorithm = disp\n"
            "max_rounds = 5\n")
    assert build_source(parse_scenario(text + "T = 3\n")).kind == kind
    if "T" in params:
        with pytest.raises(ScenarioError, match="^line 3: .* needs T$"):
            parse_scenario(text)
    else:
        assert parse_scenario(text).T is None


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_every_algorithm_name_builds_that_algorithm(name):
    assert make_algorithm(name, T=2).name == name


def test_random_schedule_is_drawn_only_as_far_as_the_run_reads_it():
    # alg1_explicit terminates within a few rounds; the schedule's stream
    # is seeded with max_rounds, so they are the full schedule's first rounds
    text = (
        "n = 4\nk = 2\nschedule = random:t_path\nT = 2\n"
        "algorithm = alg1_explicit\nmax_rounds = 100000\n"
    )
    sc = parse_scenario(text)
    start = time.perf_counter()
    res = run_scenario(sc)
    elapsed = time.perf_counter() - start
    assert res.rounds == 4 and res.all_terminated_at == 3
    assert elapsed < 1.0
    tracemalloc.start()
    try:
        run_scenario(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000
    # the full schedule's rounds are RandomRounds' (test_adversary)
    source = RandomRounds(0, 4, "t_path", 2, 0.3, 100000)
    assert [rec.snapshot for rec in res.records] == [
        source.next_snapshot(r, None, None) for r in range(4)]


def test_demo_schedule_is_drawn_only_as_far_as_the_run_reads_it():
    sc = parse_scenario(
        "n = 4\nk = 3\nschedule = tpath_demo\nT = 3\n"
        "algorithm = alg1_explicit\nmax_rounds = 1000000\n"
    )
    tracemalloc.start()
    try:
        res = run_scenario(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.rounds == 5 and res.all_terminated_at == 4
    assert peak < 1_000_000


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_scenario_runs_the_fixed_demo_schedule(demo):
    text = f"n = 4\nk = 2\nschedule = {demo}\nalgorithm = disp\nmax_rounds = 20\n"
    res = run_scenario(parse_scenario(text))
    fixed = getattr(oracles, f"{demo}_schedule")(20)
    assert res.schedule_prefix().to_text() == fixed.to_text()


def test_placements():
    sc = parse_scenario(BASE)
    assert build_placement(sc) == {1: 0, 2: 0, 3: 0, 4: 0}
    sc = sc._replace(placement="colocated:2")
    assert build_placement(sc) == {1: 2, 2: 2, 3: 2, 4: 2}
    sc = sc._replace(placement="dispersed")
    assert build_placement(sc) == {1: 0, 2: 1, 3: 2, 4: 3}
    sc = sc._replace(placement="spread:3")
    assert build_placement(sc) == {1: 0, 2: 1, 3: 2, 4: 0}
    sc = sc._replace(placement="explicit:0:1,4;5:2,3")
    assert build_placement(sc) == {1: 0, 4: 0, 2: 5, 3: 5}
    sc = sc._replace(placement="random")
    first = build_placement(sc)
    assert build_placement(sc) == first
    assert all(0 <= node < sc.n for node in first.values())


def test_placement_errors():
    sc = parse_scenario(BASE)
    sc = sc._replace(placement="colocated:6")
    with pytest.raises(ScenarioError, match="outside"):
        build_placement(sc)
    sc = sc._replace(placement="colocated:x")
    with pytest.raises(ScenarioError, match="^bad colocated placement 'x'$"):
        build_placement(sc)
    sc = sc._replace(placement="spread:x")
    with pytest.raises(ScenarioError, match="^bad spread placement 'x'$"):
        build_placement(sc)
    sc = sc._replace(placement="explicit:0:1,2")
    with pytest.raises(ScenarioError, match="must cover agents"):
        build_placement(sc)
    sc = sc._replace(placement="explicit:0:1,1;1:2,3")
    with pytest.raises(ScenarioError, match="placed twice"):
        build_placement(sc)
    sc = sc._replace(placement="explicit:0:1,2;6:3,4")
    with pytest.raises(ScenarioError, match="^explicit node 6 outside 0..5$"):
        build_placement(sc)


# a bad placement exits 2 with one error line that names its scenario line;
# the kind and whether it takes an argument come from PLACEMENTS, and what
# building the placement finds keeps its own text first
@pytest.mark.parametrize("placement, message", [
    ("dispersed:junk", "line 6: placement dispersed takes no argument,"
                       " got 'junk'"),
    ("random:zzz", "line 6: placement random takes no argument, got 'zzz'"),
    ("colocated:x", "bad colocated placement 'x' (line 6)"),
    ("colocated:4", "colocated node 4 outside 0..3 (line 6)"),
    ("spread:0", "spread holes 0 outside 1..3 (line 6)"),
    ("explicit:0:1,2", "explicit placement must cover agents 1..3 (line 6)"),
    ("explicit:9:1,2;0:3", "explicit node 9 outside 0..3 (line 6)"),
    pytest.param("explicit:" + "9" * 5000 + ":1,2;0:3",
                 "number of 5000 digits is too long (line 6)",
                 id="explicit-node-too-long"),
    ("colocated:+1", "bad colocated placement '+1' (line 6)"),
    ("colocated:0_1", "bad colocated placement '0_1' (line 6)"),
    ("spread:1_0", "bad spread placement '1_0' (line 6)"),
    ("spread:+1", "bad spread placement '+1' (line 6)"),
    ("colocated:-1", "colocated node -1 outside 0..3 (line 6)"),
    ("spread:-3", "spread holes -3 outside 1..3 (line 6)"),
    ("scattered", "line 6: unknown placement 'scattered'; known: ('colocated',"
                  " 'dispersed', 'spread', 'random', 'explicit')"),
])
def test_bad_placements_name_their_line(tmp_path, capsys, placement, message):
    text = ("n = 4\nk = 3\nschedule = tpath_demo\nalgorithm = disp\n"
            f"max_rounds = 5\nplacement = {placement}\n")
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        parse_scenario(text)
    scenario = tmp_path / "case.scn"
    scenario.write_text(text)
    assert cli.main(["run", str(scenario)], out=lambda *_: None) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_every_placement_kind_parses():
    for kind, takes in PLACEMENTS.items():
        arg = {"explicit": ":0:1;1:2,3"}.get(kind, ":1" if takes else "")
        text = ("n = 4\nk = 3\nschedule = tpath_demo\nalgorithm = disp\n"
                f"max_rounds = 5\nplacement = {kind}{arg}\n")
        assert sorted(build_placement(parse_scenario(text))) == [1, 2, 3]


def test_run_scenario_random_schedule():
    res = run_scenario(parse_scenario(BASE))
    assert res.dispersed_at is not None
    assert res.all_terminated_at is not None
    report = verify_trace(res.to_text())
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
    assert verify_trace(res.to_text()).ok


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
    ("comp: ", "comp: 0,1,2,3"),
    ("comp: ", "comp: 0,1,2,3|3"),
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


def test_header_n_is_bounded_by_the_comp_lines(tmp_path, capsys):
    # an honest comp: line lists every node, so a large n in a short trace
    # is rejected before the replay builds anything of size n
    text = (
        "trace v=1 n=200000 k=2 T=- algorithm=alg3 visibility=one"
        " communication=global\nround r=0\nedges: 0-1:0,0\npos: 0:1,2\n"
        "act: 1:s 2:m0\npost: 0:1 1:2\ncomp: 0,1\nmsgs: 2\nend rounds=1"
        " dispersed_at=0 explored_at=- all_terminated_at=- budget_exhausted=1\n"
    )
    tracemalloc.start()
    try:
        with pytest.raises(EngineError, match="^line 7: comp field must list"
                                              " each of the 200000 nodes once$"):
            verify_trace(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000
    path = tmp_path / "big_n.trace"
    path.write_text(text)
    assert cli.main(["verify", str(path)], out=lambda *_: None) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: line 7: ")


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
        assert tr.before is prev.after
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


@pytest.mark.parametrize("old, new", [
    ("visibility=one", "visibility=purple"),
    ("communication=global", "communication=nope"),
])
@pytest.mark.parametrize("rounds", [True, False], ids=["rounds", "no_rounds"])
def test_unknown_header_visibility_or_communication_names_line_1(
    tmp_path, capsys, old, new, rounds
):
    text = _clean_run().to_text()
    if not rounds:
        text = text[:text.index("round")] + (
            "end rounds=0 dispersed_at=- explored_at=- all_terminated_at=-"
            " budget_exhausted=1\n"
        )
        assert verify_trace(text).ok
    key, value = new.split("=")
    with pytest.raises(EngineError, match=f"^line 1: unknown {key} '{value}'$"):
        verify_trace(_tamper(text, old, new))
    path = tmp_path / "broken.trace"
    path.write_text(_tamper(text, old, new))
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
    port = Action.from_code(code).port
    post = dict(tr.after)
    post[agent] = tr.before[agent] if port is None else tr.snapshot.neighbor(
        tr.before[agent], port)
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
        prev.snapshot is tr.snapshot and prev.before == tr.before
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

    def replays(text, rounds):
        """Whether each replay in verifying the first rounds of text was
        a memo hit."""
        lines = text.splitlines()
        hits.clear()
        verify_trace("\n".join(lines[:1 + 7 * rounds] + lines[-1:]) + "\n")
        return list(hits)

    monkeypatch.setattr(harness, "round_step", recording)
    assert verify_trace(text).ok
    # round r repeats a clean round: a transition hit, which replays nothing
    assert replays(text, r + 1) == replays(text, r)
    forged = _forge_action(text, r, agent, "s")
    report = verify_trace(forged)
    # the forged round is no transition hit: it is replayed, from the memo
    assert replays(forged, r + 1) == replays(forged, r) + [True]
    assert (f"round {r}: agent {agent} recorded s, alg3 computes"
            f" {act.code()}") in report.violations


def _ct_trace(alg, rounds=60):
    """n=6, k=4, T=3 under ct_dispersion: a handful of distinct round
    blocks, each repeated many times."""
    return run(make_adversary("ct_dispersion", 6, k=4, T=3),
               {a: 0 for a in range(1, 5)}, make_algorithm(alg, T=3),
               max_rounds=rounds, T=3).to_text()


def _blocks(text):
    """The six field lines of each round, in order."""
    lines = text.splitlines()
    return [tuple(lines[i + 1:i + 7]) for i in range(1, len(lines) - 1, 7)]


def _forge_field(text, r, field):
    """Rewrite one field line of round r to a well-formed line that differs:
    another round's line of that field (with other components, for
    ``edges:``), a flipped first action, a one-group partition or msgs 999."""
    lines, blocks = text.splitlines(), _blocks(text)
    f = engine.FIELDS.index(field)
    i = lines.index(f"round r={r}") + 1 + f
    if field in ("edges:", "pos:", "post:"):
        lines[i] = next(b[f] for b in blocks if b[f] != lines[i]
                        and (field != "edges:" or b[4] != blocks[r][4]))
    elif field == "act:":
        toks = lines[i].split()
        agent, code = toks[1].split(":")
        toks[1] = f"{agent}:{'m0' if code == 's' else 's'}"
        lines[i] = " ".join(toks)
    elif field == "comp:":
        lines[i] = "comp: 0,1,2,3,4,5"
    else:
        lines[i] = "msgs: 999"
    assert lines[i] != text.splitlines()[i]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("field", engine.FIELDS)
@pytest.mark.parametrize("alg", ["alg1_implicit", "alg3"])
def test_forged_field_on_a_repeated_round_is_reported(alg, field):
    # the last round repeats an earlier clean round block, so its values are
    # the very objects of a round the verifier has already passed; a forged
    # field must still be reported, exactly as a verifier without any
    # sharing reports it
    text = _ct_trace(alg)
    blocks = _blocks(text)
    last = len(blocks) - 1
    assert blocks[last] in blocks[:last]
    assert verify_trace(text).ok
    forged = _forge_field(text, last, field)
    report = verify_trace(forged)
    assert any(v.startswith(f"round {last}: ") for v in report.violations)
    assert report == oracles.verify_trace_reference(forged)


def test_repeated_round_after_a_termination_is_checked_again():
    # a forged terminate in round 3 leaves the replay's states, and so its
    # steps, as they were; later rounds repeat earlier clean round blocks
    # and steps, but agent 1 is no longer live, so each is a violation
    text = _ct_trace("alg1_explicit", rounds=30)
    blocks = _blocks(text)
    lines = text.splitlines()
    i = lines.index("round r=3") + 3
    assert lines[i].startswith("act: 1:") and "!" not in lines[i]
    agent, code = lines[i].split()[1].split(":")
    lines[i] = lines[i].replace(f"{agent}:{code}", f"{agent}:{code}!", 1)
    forged = "\n".join(lines) + "\n"
    report = verify_trace(forged)
    assert report == oracles.verify_trace_reference(forged)
    again = [r for r in range(4, len(blocks)) if blocks[r] in blocks[:3]]
    assert again
    for r in again:
        assert any(v.startswith(f"round {r}: actors ")
                   for v in report.violations)


def test_repeated_transition_after_a_termination_is_checked_again():
    # alg3 keeps no state, so later repeats of earlier clean blocks start
    # from the very replayed states of those blocks; only the number of
    # terminated agents tells them apart after a forged terminate
    text = _ct_trace("alg3", rounds=30)
    blocks = _blocks(text)
    lines = text.splitlines()
    i = lines.index("round r=5") + 3
    assert " 1:s " in lines[i]
    lines[i] = lines[i].replace(" 1:s ", " 1:s! ", 1)
    forged = "\n".join(lines) + "\n"
    report = verify_trace(forged)
    assert report == oracles.verify_trace_reference(forged)
    again = [r for r in range(6, len(blocks)) if blocks[r] in blocks[:5]]
    assert again
    for r in again:
        assert any(v.startswith(f"round {r}: actors ")
                   for v in report.violations)


def test_repeated_round_with_other_replayed_states_is_checked_again():
    # alg1_explicit counts quiet rounds in its state: on a static path its
    # agents stay twice and then terminate, so a third round recorded as
    # the first two is the same block replayed from other states
    snap = Snapshot.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
    text = run(Schedule([snap] * 3), {1: 0, 2: 1, 3: 2},
               make_algorithm("alg1_explicit", T=3), max_rounds=3,
               T=3).to_text()
    assert "act: 1:s! 2:s! 3:s!" in text
    forged = text.replace("act: 1:s! 2:s! 3:s!", "act: 1:s 2:s 3:s")
    assert len(set(_blocks(forged))) == 1
    report = verify_trace(forged)
    assert report == oracles.verify_trace_reference(forged)
    assert [v for v in report.violations if v.startswith("round ")] == [
        f"round 2: agent {a} recorded s, alg1_explicit computes s!"
        for a in (1, 2, 3)
    ]


def test_crlf_trace_verifies_like_its_lf_copy():
    text = _ct_trace("alg1_implicit")
    forged = _forge_field(text, len(_blocks(text)) - 1, "act:")
    for lf in (text, forged):
        crlf = lf.replace("\n", "\r\n")
        assert verify_trace(crlf) == verify_trace(lf)
    assert verify_trace(text).ok and not verify_trace(forged).ok


@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
def test_other_line_break_in_a_repeated_block_reads_like_the_reference(sep):
    # str.splitlines ends a line at these too, so the block has a line
    # more than its six field lines
    text = _ct_trace("alg1_implicit")
    last = len(_blocks(text)) - 1
    lines = text.splitlines()
    i = lines.index(f"round r={last}") + 2
    lines[i] = lines[i].replace(" ", sep, 1)
    broken = "\n".join(lines) + "\n"
    with pytest.raises(EngineError) as want:
        oracles.parse_trace_reference(broken)
    with pytest.raises(EngineError) as got:
        verify_trace(broken)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("where", ["first_repeat", "last"])
def test_wrong_round_index_on_a_repeated_block_is_reported_like_the_reference(
    where
):
    text = _ct_trace("alg3")
    blocks = _blocks(text)
    r = (len(blocks) - 1 if where == "last" else
         next(r for r, b in enumerate(blocks) if b in blocks[:r]))
    assert blocks[r] in blocks[:r]
    forged = text.replace(f"round r={r}\n", f"round r={r + 1}\n")
    report = verify_trace(forged)
    assert f"round {r + 1}: expected round index {r}" in report.violations
    assert report == oracles.verify_trace_reference(forged)


@pytest.mark.parametrize("kept", range(1, 8))
def test_trace_cut_inside_its_last_repeated_block_fails_like_the_reference(
    kept
):
    # the round line and kept - 1 of the six field lines are left
    text = _ct_trace("alg1_implicit")
    blocks = _blocks(text)
    last = len(blocks) - 1
    assert blocks[last] in blocks[:last]
    lines = text.splitlines()
    i = lines.index(f"round r={last}")
    cut = "\n".join(lines[:i + kept]) + "\n"
    with pytest.raises(EngineError) as want:
        oracles.parse_trace_reference(cut)
    with pytest.raises(EngineError) as got:
        verify_trace(cut)
    assert str(got.value) == str(want.value)


def test_header_k_is_bounded_by_the_first_pos_line(tmp_path, capsys):
    # an honest first pos: line places every agent, so a large k in a short
    # trace is rejected before the replay builds anything of size k
    text = (
        "trace v=1 n=2 k=2000000 T=- algorithm=alg3 visibility=one"
        " communication=global\nround r=0\nedges: 0-1:0,0\npos: 0:1,2\n"
        "act: 1:s 2:m0\npost: 0:1 1:2\ncomp: 0,1\nmsgs: 2\nend rounds=1"
        " dispersed_at=0 explored_at=- all_terminated_at=- budget_exhausted=1\n"
    )
    assert len(text) == 242
    # a trace without rounds has no pos: line, and builds nothing of size k
    empty = text[:text.index("round")] + (
        "end rounds=0 dispersed_at=- explored_at=- all_terminated_at=-"
        " budget_exhausted=1\n"
    )
    tracemalloc.start()
    try:
        with pytest.raises(EngineError, match="^line 4: header k=2000000"
                                              " exceeds the 2 agents of the"
                                              " first pos field$"):
            verify_trace(text)
        assert verify_trace(empty).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000
    path = tmp_path / "big_k.trace"
    path.write_text(text)
    assert cli.main(["verify", str(path)], out=lambda *_: None) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: line 4: ")
    with pytest.raises(EngineError, match="^line 4: header k=2000000"):
        oracles.parse_trace_reference(text)


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
    assert claims.demo("kt_lower", out=lines.append)
    assert lines[-1] == "demo kt_lower: PASS"
    assert sum("PASS" in line for line in lines) >= 6
    lines.clear()
    assert claims.demo("dispersed_block", out=lines.append)
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
    assert text.count(": PASS\n") == len(claims.CLAIMS)


def test_cli_demo_all_matches_golden_hash(demo_all):
    assert hashlib.sha256(demo_all[1].encode()).hexdigest() == DEMO_ALL_SHA256


def test_demo_unknown_id():
    with pytest.raises(ScenarioError, match="unknown demo"):
        claims.demo("nope", out=lambda *_: None)


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


def test_cli_classify(tmp_path, capsys):
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
    # --T is decimal digits; anything else is a usage error, reported as
    # argparse reports a bad int
    for T in ("x", "+3", "1_0", " 3", "3.0"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["classify", str(path), "--property", "t_path", "--T", T],
                     out=lines.append)
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"dispersim classify: error: argument --T: invalid int value: {T!r}")
    # a negative window reads as an integer and fails the property's check
    assert cli.main(["classify", str(path), "--property", "t_path",
                     "--T", "-3"], out=lines.append) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: T must be >= 1, got -3"]


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


def test_cli_file_errors_exit_2_with_one_error_line(tmp_path, capsys):
    undecodable = tmp_path / "bad.sched"
    undecodable.write_bytes(b"n=2 rounds=1\nr=0: \xff\n")
    for argv in (["classify", str(undecodable)], ["verify", str(undecodable)]):
        assert cli.main(argv, out=lambda *_: None) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: cannot read {undecodable}: ")
    scenario = tmp_path / "case.scn"
    scenario.write_text(BASE)
    unwritable = tmp_path / "no" / "such" / "dir" / "x.trace"
    code = cli.main(["run", str(scenario), "--trace-out", str(unwritable)],
                    out=lambda *_: None)
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {unwritable}: ")


def test_cli_classify_T_needs_property(tmp_path, capsys):
    path = tmp_path / "x.sched"
    path.write_text(gen_random_with_property(4, 5, "t_path", 3, 0.3, 12).to_text())
    lines = []
    assert cli.main(["classify", str(path), "--T", "3"], out=lines.append) == 2
    assert lines == []
    assert capsys.readouterr().err.splitlines() == [
        "error: --T needs --property"]


def test_seed_range_is_not_materialized():
    tracemalloc.start()
    try:
        seeds = cli._parse_seeds("0..1000000000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert (seeds[0], seeds[-1], len(seeds)) == (0, 10**12, 10**12 + 1)
    assert list(cli._parse_seeds("3..5")) == [3, 4, 5]
    assert cli._parse_seeds("5,8") == [5, 8]


@pytest.mark.parametrize("seeds, message", [
    ("5..1", "bad seed range '5..1'"),
    ("1_0..1_1", "bad seed range '1_0..1_1'"),
    ("+1..2", "bad seed range '+1..2'"),
    ("0.. 2", "bad seed range '0.. 2'"),
    ("1_0", "bad seed list '1_0'"),
    ("3,+4", "bad seed list '3,+4'"),
])
def test_cli_sweep_rejects_bad_seeds(tmp_path, capsys, seeds, message):
    template = tmp_path / "tmpl.scn"
    template.write_text(BASE)
    lines = []
    assert cli.main(["sweep", str(template), "--seeds", seeds],
                    out=lines.append) == 2
    assert lines == []
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_seed_ranges_of_one_seed_and_negative_seeds_parse():
    assert list(cli._parse_seeds("4..4")) == [4]
    assert list(cli._parse_seeds("-2..-1")) == [-2, -1]
    assert cli._parse_seeds("-3,0") == [-3, 0]


def _fresh_python(code: str) -> str:
    """Stdout of ``code`` in a fresh interpreter that imports dispersim from
    this tree, so that no other test's imports count.  ``-I`` ignores
    PYTHONDONTWRITEBYTECODE, so ``-B`` keeps it from writing bytecode."""
    src = Path(harness.__file__).resolve().parent.parent
    code = f"import sys\nsys.path.insert(0, {str(src)!r})\n" + code
    return subprocess.run([sys.executable, "-I", "-B", "-c", code],
                          check=True, capture_output=True, text=True).stdout


def test_runtime_imports_only_the_standard_library():
    out = _fresh_python(
        "before = set(sys.modules)\n"
        "import dispersim.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    ).split()
    assert {name for name in out if name.startswith("dispersim")} == {
        "dispersim", "dispersim.graphs", "dispersim.engine",
        "dispersim.algorithms", "dispersim.adversary", "dispersim.harness",
        "dispersim.claims", "dispersim.cli",
    }
    roots = {name.split(".")[0] for name in out}
    assert roots - {"dispersim"} <= set(sys.stdlib_module_names)
    assert not roots & {"dataclasses", "inspect"}


def test_only_run_and_sweep_import_scenario(tmp_path):
    scenario = tmp_path / "base.scn"
    scenario.write_text(BASE)
    out = _fresh_python(
        "from dispersim import cli\n"
        "print('dispersim.scenario' in sys.modules)\n"
        f"print(cli.main(['run', {str(scenario)!r}]))\n"
        "print('dispersim.scenario' in sys.modules)\n"
        f"print(cli.main(['sweep', {str(scenario)!r}, '--seeds', '0..2']))\n"
    )
    assert out == (
        "False\n"
        "  n                  6\n"
        "  k                  4\n"
        "  rounds             5\n"
        "  algorithm          alg1_explicit\n"
        "  dispersed_at       2\n"
        "  explored_at        -\n"
        "  all_terminated_at  4\n"
        "  budget_exhausted   0\n"
        "  final_multinodes   0\n"
        "  holes_start        5\n"
        "  holes_end          2\n"
        "  max_messages       16\n"
        "violations: 0\n"
        "0\n"
        "True\n"
        "runs: 3\n"
        "dispersed_at: 2..3\n"
        "explored_at: never\n"
        "all_terminated_at: 4..5\n"
        "violations: 0\n"
        "0\n"
    )


def test_cached_parser_answers_as_a_fresh_one(capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    schedule = str(Path(__file__).parent / "data" / "ctime_demo.sched")
    calls = (["classify", schedule], ["demo", "nope"], ["-h"], ["demo", "-h"],
             ["classify", schedule, "--T", "x"], ["classify", schedule])

    def answers():
        got = []
        for argv in calls:
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            got.append((*capsys.readouterr(), code))
        return got

    cached = answers()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert answers() == cached
    assert [code for *_, code in cached] == [0, 2, 0, 0, 2, 0]


def test_cli_usage_errors(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text("n = 3\nwat = 1\n")
    assert cli.main(["run", str(bad)], out=lambda *_: None) == 2
    assert cli.main(["run", str(tmp_path / "missing.scn")],
                    out=lambda *_: None) == 2
    garbled = tmp_path / "garbled.trace"
    garbled.write_text("not a trace\n")
    assert cli.main(["verify", str(garbled)], out=lambda *_: None) == 2

"""Executable claims: each claimed bound as data.

``CLAIMS`` holds the claims: each names an adversary, the runs that
exhibit its bound and the predicate a run must meet.  ``run_claim`` makes
one run of a claim; ``demo`` runs a claim's small grid and reports the
measured bound next to the claimed one, and the acceptance tests run the
same claims on larger grids.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .adversary import make_adversary
from .algorithms import make_algorithm
from .engine import RunResult, outcomes, run
from .graphs import check_property
from .harness import ScenarioError


class Row(NamedTuple):
    """One run of a claim.  ``T`` goes to the algorithm, the adversary and
    the run."""

    n: int
    k: int
    alg: str
    T: int | None = None


# the start node of agent a; "shifted" leaves node 0 the only hole
PLACEMENT_OF = {"colocated": lambda a: 0, "dispersed": lambda a: a - 1,
                "shifted": lambda a: a}


class Claim(NamedTuple):
    """A claimed bound and the adversarial runs that exhibit it.

    A row passes when the run's graphs keep ``prop`` at the row's T (at 1
    when it has none), the adversary's target, if it has one, is never
    visited, and ``holds(result, bound)`` is true.  ``fmt`` renders a row
    from its Row and ClaimRun fields.
    """

    id: str
    statement: str
    rows: tuple[Row, ...]
    adversary: str
    budget: Callable[[Row], int]
    fmt: str
    holds: Callable[[RunResult, int | None], bool] = lambda res, bound: True
    variant: str | None = None
    placement: str = "colocated"
    visibility: str = "one"
    communication: str = "global"
    prop: str | None = None
    bound: Callable[[Row], int] | None = None


class ClaimRun(NamedTuple):
    result: RunResult
    bound: int | None
    # None when the adversary protects no target
    target_visited: bool | None
    # "no_window" when the run is shorter than the window; None without prop
    prop: bool | str | None
    ok: bool


def run_claim(claim: Claim, row: Row) -> ClaimRun:
    """One run of a claim's row, judged as ``demo`` reports it."""
    adv = make_adversary(claim.adversary, row.n, k=row.k, T=row.T,
                         variant=claim.variant)
    start = PLACEMENT_OF[claim.placement]
    res = run(adv, {a: start(a) for a in range(1, row.k + 1)},
              make_algorithm(row.alg, T=row.T), visibility=claim.visibility,
              communication=claim.communication,
              max_rounds=claim.budget(row), T=row.T)
    target = getattr(adv, "target", None)
    visited = None if target is None else (
        target in outcomes(res.records, res.k).visited)
    T = row.T or 1
    prop = None if claim.prop is None else "no_window"
    if claim.prop is not None and res.rounds >= T:
        prop = check_property(res.schedule_prefix(), claim.prop, T).holds
    bound = claim.bound(row) if claim.bound else None
    ok = prop is not False and not visited and claim.holds(res, bound)
    return ClaimRun(res, bound, visited, prop, ok)


CLAIMS = {claim.id: claim for claim in (
    Claim(
        "kt_lower",
        "dispersion on T-Path graphs needs at least (k-1)(T-1) rounds",
        tuple(Row(k + 2, k, "alg1_explicit", T)
              for k in (3, 5, 8) for T in (2, 4)),
        "kt_lower", prop="t_path", bound=lambda w: (w.k - 1) * (w.T - 1),
        budget=lambda w: (w.k - 1) * (w.T - 1) + w.T + 2,
        holds=lambda res, bound: (
            res.dispersed_at is not None and res.dispersed_at >= bound
        ),
        fmt="k={k}  T={T}  dispersed_at={result.dispersed_at}  bound={bound}"
            "  t_path@{T}={prop}",
    ),
    Claim(
        "ct_dispersion", "no algorithm disperses on Connectivity Time graphs",
        tuple(Row(n, k, "alg1_implicit", T)
              for n, k, T in ((4, 3, 2), (6, 4, 3), (8, 8, 3))),
        "ct_dispersion", prop="connectivity_time",
        budget=lambda w: 20 * w.k * w.T,
        holds=lambda res, bound: res.dispersed_at is None,
        fmt="n={n}  k={k}  T={T}  rounds={result.rounds}"
            "  dispersed_at={result.dispersed_at}  ct@{T}={prop}",
    ),
    Claim(
        "exp_n_minus_2",
        "n-2 agents cannot explore even 1-interval connected graphs",
        tuple(Row(n, n - 2, alg)
              for n in (5, 8, 12) for alg in ("alg3", "alg2")),
        "exploration_star", placement="dispersed", prop="t_interval",
        budget=lambda w: 50 * w.n,
        fmt="n={n}  k={k}  {alg}  rounds={result.rounds}"
            "  target_visited={target_visited}  1_interval={prop}",
    ),
    Claim(
        "path_comm",
        "n-1 agents with face-to-face communication cannot explore",
        tuple(Row(n, n - 1, alg) for n in (7, 9) for alg in ("alg3", "alg2")),
        "sorted_path", variant="comm", communication="f2f", prop="t_interval",
        budget=lambda w: 60 * w.n,
        fmt="n={n}  k={k}  {alg}  target_visited={target_visited}"
            "  1_interval={prop}",
    ),
    Claim(
        "path_visibility", "without 1-hop visibility agents cannot explore",
        tuple(Row(n, n - 1, alg) for n in (7, 9)
              for alg in ("alg3", "alg1_implicit", "greedy_port0")),
        "sorted_path", variant="visibility", visibility="zero",
        prop="t_interval", budget=lambda w: 60 * w.n,
        fmt="n={n}  k={k}  {alg}  target_visited={target_visited}"
            "  1_interval={prop}",
    ),
    Claim(
        "dispersed_block",
        "a blind mover from a dispersed start never completes exploration",
        tuple(Row(n, n - 1, "greedy_port0") for n in (5, 8)),
        "sorted_path", variant="dispersed", placement="shifted",
        visibility="zero", budget=lambda w: 100,
        holds=lambda res, bound: res.explored_at is None,
        fmt="n={n}  k={k}  {alg}  rounds={result.rounds}"
            "  hole_visited={target_visited}",
    ),
    Claim(
        "time_1int",
        "exploring 1-interval connected graphs takes at least n-2 rounds",
        tuple(Row(n, n - 1, "alg2") for n in (6, 10, 14)),
        "two_stars_time", prop="t_interval", bound=lambda w: w.n - 2,
        budget=lambda w: 2 * w.n,
        holds=lambda res, bound: (
            res.explored_at is not None
            and bound <= res.explored_at <= 2 * res.n
            and res.all_terminated_at is not None
        ),
        fmt="n={n}  k={k}  explored_at={result.explored_at}  bound>={bound}"
            "  1_interval={prop}",
    ),
    Claim(
        "time_tpath",
        "exploring T-Path graphs takes at least (n-2)(T-1) rounds",
        tuple(Row(n, n - 1, "alg3", T) for n in (6, 9) for T in (2, 4)),
        "two_stars_time_tpath", prop="t_path",
        bound=lambda w: (w.n - 2) * (w.T - 1),
        budget=lambda w: (w.n + 1) * w.T,
        holds=lambda res, bound: (
            res.explored_at is not None
            and bound <= res.explored_at <= (res.n + 1) * res.T
        ),
        fmt="n={n}  T={T}  explored_at={result.explored_at}  bound>={bound}"
            "  t_path@{T}={prop}",
    ),
    Claim(
        "ct_exploration", "no agent team explores Connectivity Time graphs",
        tuple(Row(n, n - 2, alg, T) for n, T in ((6, 2), (9, 3))
              for alg in ("alg3", "alg2")),
        # alg2 may terminate before T rounds; a shorter trace has no
        # complete window, so only the target decides its row
        "ct_exploration", placement="dispersed", prop="connectivity_time",
        budget=lambda w: 50 * w.n * w.T,
        fmt="n={n}  T={T}  {alg}  target_visited={target_visited}"
            "  ct@{T}={prop}",
    ),
)}


def demo(demo_id: str, out=print) -> bool:
    """Run a claim's rows, one line each, and report whether all pass."""
    claim = CLAIMS.get(demo_id)
    if claim is None:
        raise ScenarioError(f"unknown demo {demo_id!r}; known: {tuple(CLAIMS)}")
    out(claim.statement)
    ok = True
    for row in claim.rows:
        got = run_claim(claim, row)
        ok &= got.ok
        cells = claim.fmt.format(**row._asdict(), **got._asdict())
        out(f"  {cells}  {'PASS' if got.ok else 'FAIL'}")
    out(f"demo {demo_id}: {'PASS' if ok else 'FAIL'}")
    return ok

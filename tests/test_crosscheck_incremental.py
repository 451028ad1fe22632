"""Tests of the incremental crosscheck engine and the max_pairs cap.

The incremental path (shared SAT instance, partition intersection) must
report the exact same inconsistency set as the legacy pair matrix — the
legacy path is the reference implementation, the incremental one the fast
path.
"""

import itertools

import pytest

from repro.core.campaign import Campaign, EncodingCache
from repro.core.crosscheck import find_inconsistencies
from repro.core.explorer import explore_agent
from repro.core.grouping import GroupedResults, OutputGroup, group_paths
from repro.core.tests_catalog import catalog, get_test
from repro.core.trace import OutputTrace
from repro.errors import CrosscheckError, SolverError
from repro.symbex.engine import EngineConfig
from repro.symbex.expr import bvvar
from repro.symbex.simplify import evaluate_bool
from repro.symbex.solver import GroupEncoding, Solver, SolverConfig

AGENTS = ("reference", "ovs", "modified")


def _synthetic_grouped(agent, values, trace_tag, test_key="synthetic"):
    """Grouped results with one ``x == value`` group per value."""

    x = bvvar("x", 8)
    groups = [
        OutputGroup(trace=OutputTrace(items=((trace_tag, value),)),
                    condition=(x == value), path_ids=[index], path_count=1)
        for index, value in enumerate(values)
    ]
    return GroupedResults(agent_name=agent, test_key=test_key, groups=groups,
                          grouping_time=0.0, total_paths=len(groups))


def _trace_pairs(report):
    return {(i.trace_a, i.trace_b) for i in report.inconsistencies}


# ---------------------------------------------------------------------------
# GroupEncoding unit behaviour
# ---------------------------------------------------------------------------

def test_group_encoding_encodes_each_condition_once():
    engine = GroupEncoding()
    x = bvvar("x", 8)
    first = engine.encode(x == 3)
    again = engine.encode(x == 3)
    other = engine.encode(x == 4)
    assert first is again
    assert other is not first
    assert engine.stats.groups_encoded == 2
    assert engine.stats.encoding_reuses == 1
    assert engine.stats.backend_rebuilds == 1


def test_group_encoding_pair_queries_and_cache():
    engine = GroupEncoding()
    x = bvvar("x", 8)
    sat = engine.check_pair(x > 5, x < 9)
    assert sat.result.is_sat
    assert 5 < sat.result.model["x"] < 9
    unsat = engine.check_pair(x > 5, x < 3)
    assert unsat.result.is_unsat
    repeat = engine.check_pair(x > 5, x < 3)
    assert repeat.result.is_unsat
    assert repeat.via == "pair-cache"
    assert engine.stats.pair_cache_hits == 1
    # One engine, one backend, regardless of query count.
    assert engine.stats.backend_rebuilds == 1


def test_group_encoding_unknown_is_not_pair_cached():
    engine = GroupEncoding(SolverConfig(max_conflicts=0))
    x = bvvar("x", 8)
    from repro.symbex.expr import bool_or

    condition = bool_or(x == 5, x == 9)
    first = engine.check_pair(condition, x > 0)
    assert first.result.is_unknown
    engine.config.max_conflicts = 200_000
    second = engine.check_pair(condition, x > 0)
    assert second.result.is_sat
    assert second.via == "assumption"
    assert engine.stats.pair_cache_hits == 0


def test_group_encoding_rejects_cross_test_reuse():
    engine = GroupEncoding()
    engine.bind_test("stats_request")
    engine.bind_test("stats_request")
    with pytest.raises(SolverError):
        engine.bind_test("set_config")


def test_soft_crosscheck_threads_solver_config():
    # The incremental default must honour the instance's solver_config: a
    # zero conflict budget shows up as an UNKNOWN pair instead of being
    # silently replaced by the default 200k budget.
    from repro.core.soft import SOFT
    from repro.symbex.expr import bool_or

    x = bvvar("x", 8)
    grouped_a = _synthetic_grouped("a", [0], "a-out")
    grouped_a.groups[0].condition = bool_or(x == 5, x == 9)
    grouped_b = _synthetic_grouped("b", [0], "b-out")
    grouped_b.groups[0].condition = (x > 0)
    soft = SOFT(solver_config=SolverConfig(max_conflicts=0,
                                           use_interval_precheck=False))
    report = soft.crosscheck(grouped_a, grouped_b)
    assert report.unknown_pairs == 1
    assert SOFT().crosscheck(grouped_a, grouped_b).inconsistency_count == 1


def test_find_inconsistencies_rejects_conflicting_modes():
    grouped = _synthetic_grouped("a", [1], "out")
    other = _synthetic_grouped("b", [2], "other")
    with pytest.raises(CrosscheckError):
        find_inconsistencies(grouped, other, engine=GroupEncoding(),
                             solver=Solver(SolverConfig()))


# ---------------------------------------------------------------------------
# max_pairs cap (global accounting)
# ---------------------------------------------------------------------------

def test_max_pairs_cap_is_global_across_the_pair_matrix():
    grouped_a = _synthetic_grouped("a", [1, 2, 3], "a-out")
    grouped_b = _synthetic_grouped("b", [1, 2, 3], "b-out")
    # 9 candidate pairs (all traces differ).  The legacy matrix asks all 9.
    # The intersection solves twice for x==1 and x==2 (the cell, then
    # UNSAT).  A and B share the terms x==v, so the answers for (x==1, x==3)
    # and (x==2, x==3) already cover x==3's pairs with x==1 and x==2: one
    # solve finds its last cell.  The cap bounds the total either way.
    for mode, full_queries in (("incremental", 5), ("legacy", 9)):
        kwargs = {} if mode == "incremental" else {"solver": Solver(SolverConfig())}
        report = find_inconsistencies(grouped_a, grouped_b, max_pairs=4, **kwargs)
        assert report.queries == 4
        assert report.truncated is True
        full = find_inconsistencies(grouped_a, grouped_b,
                                    **({} if mode == "incremental"
                                       else {"solver": Solver(SolverConfig())}))
        assert full.queries == full_queries
        assert full.truncated is False
        # x==i AND x==j is satisfiable exactly when i == j.
        assert full.inconsistency_count == 3
        assert full.unsat_pairs == 6


def test_max_pairs_zero_queries_nothing():
    grouped_a = _synthetic_grouped("a", [1, 2], "a-out")
    grouped_b = _synthetic_grouped("b", [1, 2], "b-out")
    report = find_inconsistencies(grouped_a, grouped_b, max_pairs=0)
    assert report.queries == 0
    assert report.truncated is True
    assert report.inconsistency_count == 0


def test_deadline_truncates_the_pair_scan():
    grouped_a = _synthetic_grouped("a", [1, 2, 3], "a-out")
    grouped_b = _synthetic_grouped("b", [1, 2, 3], "b-out")

    class TickClock:
        def __init__(self):
            self.now = 0.0

        def __call__(self):
            self.now += 1.0
            return self.now

    # Deadline already expired at the first read: no query runs.
    expired = find_inconsistencies(grouped_a, grouped_b, deadline=0.0,
                                   clock=TickClock())
    assert expired.queries == 0
    assert expired.truncated is True
    # Deadline after three ticks: three solves run, the fourth is refused,
    # instead of running all 5.
    partial = find_inconsistencies(grouped_a, grouped_b, deadline=3.5,
                                   clock=TickClock())
    assert partial.truncated is True
    assert partial.queries == 3
    # No deadline: the injected clock is never consulted.
    full = find_inconsistencies(grouped_a, grouped_b)
    assert full.queries == 5
    assert full.truncated is False


# ---------------------------------------------------------------------------
# Equivalence with the legacy path on the seed catalog
# ---------------------------------------------------------------------------

def test_incremental_matches_legacy_on_seed_catalog():
    for test in ("stats_request", "set_config"):
        grouped = {agent: group_paths(explore_agent(agent, test))
                   for agent in AGENTS}
        engine = GroupEncoding()
        for agent_a, agent_b in itertools.combinations(AGENTS, 2):
            legacy = find_inconsistencies(grouped[agent_a], grouped[agent_b],
                                          solver=Solver(SolverConfig()))
            incremental = find_inconsistencies(grouped[agent_a], grouped[agent_b],
                                               engine=engine)
            assert _trace_pairs(incremental) == _trace_pairs(legacy)
            # One solve per non-empty cell plus one per A group, at most;
            # an A group whose pairs earlier answers already cover (agents
            # share many group conditions) is answered from the cache.
            counts = incremental.solver_stats
            assert counts["fallbacks"] == 0
            assert incremental.queries == (counts["intersection_solves"]
                                           + counts["pair_cache_hits"])
            assert counts["intersection_solves"] <= (
                counts["cells"] + len(grouped[agent_a].groups))
            assert incremental.queries <= legacy.queries
            assert incremental.unsat_pairs == legacy.unsat_pairs
            assert incremental.unknown_pairs == legacy.unknown_pairs
            assert incremental.solver_stats["mode"] == "incremental"
            assert legacy.solver_stats["mode"] == "legacy"
            # Every SAT example is a real model of both group conditions
            # (verified inside the engine), so divergence witnesses hold.
            for inconsistency in incremental.inconsistencies:
                assert inconsistency.example
        # The shared engine bit-blasted each agent's groups once for all
        # pairs of this test, on a single SAT backend.
        stats = engine.stats_dict()
        assert stats["backend_rebuilds"] == 1
        assert stats["encoding_reuses"] > 0


def _assert_matches_matrix(grouped_a, grouped_b, legacy_solver, engine):
    """The intersection answers every pair exactly like the legacy matrix."""

    legacy = find_inconsistencies(grouped_a, grouped_b, solver=legacy_solver)
    incremental = find_inconsistencies(grouped_a, grouped_b, engine=engine)
    assert _trace_pairs(incremental) == _trace_pairs(legacy)
    assert incremental.unsat_pairs == legacy.unsat_pairs
    assert incremental.unknown_pairs == legacy.unknown_pairs == 0
    for inconsistency in incremental.inconsistencies:
        assert evaluate_bool(inconsistency.condition, inconsistency.example)
    return incremental


@pytest.mark.parametrize("test", sorted(key for key in catalog()
                                        if key != "packet_out"))
def test_intersection_matches_legacy_matrix_on_catalog(test):
    # packet_out is left out: its legacy matrix alone takes about a minute.
    grouped = {agent: group_paths(explore_agent(agent, test)) for agent in AGENTS}
    # One legacy solver per test: its query cache answers the mirrored
    # orientation of a pair without solving it again.  A fresh engine per
    # orientation, so each one runs the intersection loop itself.
    legacy_solver = Solver(SolverConfig())
    for agent_a, agent_b in itertools.permutations(AGENTS, 2):
        _assert_matches_matrix(grouped[agent_a], grouped[agent_b],
                               legacy_solver, GroupEncoding())


def test_intersection_falls_back_when_b_groups_do_not_cover_a():
    # A path-capped ovs exploration leaves inputs in none of its groups, so
    # models of reference groups land outside every ovs group.
    full = group_paths(explore_agent("reference", "stats_request"))
    cut = group_paths(explore_agent("ovs", "stats_request",
                                    engine_config=EngineConfig(max_paths=3)))
    assert cut.total_paths == 3
    legacy_solver = Solver(SolverConfig())
    engine = GroupEncoding()
    report = _assert_matches_matrix(full, cut, legacy_solver, engine)
    assert report.solver_stats["fallbacks"] > 0
    assert engine.stats.fallbacks == report.solver_stats["fallbacks"]
    # The other orientation: the full side's groups cover the truncated one.
    mirrored = _assert_matches_matrix(cut, full, legacy_solver, GroupEncoding())
    assert mirrored.solver_stats["fallbacks"] == 0
    assert mirrored.solver_stats["intersection_solves"] > 0


def test_intersection_unknown_falls_back_to_pair_queries():
    grouped_a = group_paths(explore_agent("reference", "stats_request"))
    grouped_b = group_paths(explore_agent("ovs", "stats_request"))
    legacy = find_inconsistencies(grouped_a, grouped_b,
                                  solver=Solver(SolverConfig()))
    # A zero conflict budget makes intersection solves answer UNKNOWN; the
    # A group's open pairs then go to per-pair queries under the same budget.
    report = find_inconsistencies(
        grouped_a, grouped_b,
        engine=GroupEncoding(SolverConfig(max_conflicts=0)))
    counts = report.solver_stats
    assert counts["fallbacks"] > 0
    assert counts["engine"]["unknown"] > 0
    assert counts["engine"]["assumption_solves"] > 0
    assert report.queries == (counts["intersection_solves"]
                              + counts["engine"]["assumption_solves"])
    # Every candidate pair is answered once; no verdict contradicts the
    # full-budget matrix.
    candidates = (len(grouped_a.groups) * len(grouped_b.groups)
                  - report.identical_output_pairs)
    assert (report.inconsistency_count + report.unsat_pairs
            + report.unknown_pairs) == candidates
    assert _trace_pairs(report) <= _trace_pairs(legacy)
    assert report.unsat_pairs <= legacy.unsat_pairs
    for inconsistency in report.inconsistencies:
        assert evaluate_bool(inconsistency.condition, inconsistency.example)


# ---------------------------------------------------------------------------
# Campaign integration: shared per-test engines
# ---------------------------------------------------------------------------

def test_encoding_cache_shares_one_engine_per_test():
    cache = EncodingCache()
    spec = get_test("stats_request")
    other = get_test("set_config")
    assert cache.engine_for(spec) is cache.engine_for(spec)
    assert cache.engine_for(spec) is not cache.engine_for(other)
    assert cache.engine_count == 2


def test_campaign_incremental_matches_legacy_and_bounds_rebuilds():
    def run(incremental):
        return (Campaign(replay_testcases=False, incremental=incremental)
                .with_tests("stats_request", "set_config")
                .with_agents(*AGENTS)
                .run())

    fast = run(True)
    slow = run(False)
    assert fast.pair_count == slow.pair_count == 6
    for report in fast.reports:
        twin = slow.report_for(report.test_key, report.agent_a, report.agent_b)
        assert _trace_pairs(report.crosscheck) == _trace_pairs(twin.crosscheck)
    # One backend per test, not one per pair query.
    assert fast.solver_stats["mode"] == "incremental"
    assert fast.solver_stats["engines"] == 2
    assert fast.solver_stats["backend_rebuilds"] == 2 < fast.pair_count
    assert fast.solver_stats["encoding_reuses"] > 0
    assert slow.solver_stats["mode"] == "legacy"
    assert slow.solver_stats["sat_backend_runs"] >= 0
    # Stats surface identically in the JSON report and the CLI table.
    assert fast.to_dict()["solver_stats"] == fast.solver_stats
    assert fast.to_dict()["incremental"] is True
    assert "phase 2b: incremental" in fast.describe()
    assert "phase 2b: legacy" in slow.describe()


def test_campaign_rerun_solver_stats_are_per_run():
    campaign = Campaign(tests=["set_config"], agents=["reference", "modified"],
                        replay_testcases=False)
    first = campaign.run()
    assert first.solver_stats["groups_encoded"] > 0
    assert first.solver_stats["backend_rebuilds"] == 1
    second = campaign.run()
    # Engines persist across runs; the report must show THIS run's work only.
    assert second.solver_stats["groups_encoded"] == 0
    assert second.solver_stats["backend_rebuilds"] == 0
    assert second.solver_stats["assumption_solves"] == 0
    assert second.solver_stats["pair_cache_hits"] == second.total_queries


def test_cli_campaign_no_incremental_flag():
    from repro.cli.main import build_parser

    args = build_parser().parse_args(["campaign", "--tests", "concrete",
                                      "--agents", "reference,ovs",
                                      "--no-incremental"])
    assert args.no_incremental is True

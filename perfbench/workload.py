"""One repetition of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so the process-global
intern table and simplify memo start cold, as they do for ``soft campaign``.
The last line of standard output is one JSON object: the end-to-end
timings, the exact counters read from the program's public reports, what the
correctness gate needs, and (with ``--trace 1``) the per-layer split.

    PYTHONPATH=src python3 perfbench/workload.py --workload po-crosscheck \
        --tests packet_out --agents reference,ovs --spawned-at 0 --trace 0 \
        --work-dir perfbench/.work
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from typing import Dict, List, Optional

from spans import SpanRecorder, covered_time, install

#: Floating-point entries of the reports that are timings, not counters.
TIMING_KEYS = {"encode_time", "solve_time", "wall_time", "triage_time",
               "total_time", "cpu_time"}


def inconsistency_key(test: str, inconsistency) -> str:
    """Orientation-free digest of one inconsistency's (test, {agent, trace})."""

    sides = sorted([[inconsistency.agent_a, inconsistency.trace_a.to_obj()],
                    [inconsistency.agent_b, inconsistency.trace_b.to_obj()]],
                   key=lambda side: json.dumps(side, sort_keys=True))
    text = json.dumps([test, sides], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def counters_of(obj):
    """*obj* without its timing entries, for exact comparison across runs."""

    if isinstance(obj, dict):
        return {key: counters_of(value) for key, value in obj.items()
                if key not in TIMING_KEYS}
    if isinstance(obj, list):
        return [counters_of(value) for value in obj]
    return obj


class CampaignWorkload:
    """``Campaign(tests, agents).run()``: explore, group, crosscheck, triage."""

    def __init__(self, tests: List[str], agents: List[str],
                 corpus_dir: Optional[str]) -> None:
        from repro.agents.registry import AGENT_REGISTRY
        from repro.core.campaign import Campaign
        from repro.core.tests_catalog import get_test

        for test in tests:
            get_test(test)
        missing = [agent for agent in agents if agent not in AGENT_REGISTRY]
        if missing:
            raise SystemExit("unknown agent(s): %s" % ", ".join(missing))
        self.campaign = Campaign(tests=tests, agents=agents, corpus_dir=corpus_dir)
        self.report = None
        self.data: Dict[str, object] = {}

    def run(self, recorder: Optional[SpanRecorder]) -> None:
        if recorder is not None:
            install(recorder)
        self.report = self.campaign.run()

    def results(self) -> Dict[str, object]:
        from repro.errors import ExpressionError
        from repro.symbex.simplify import evaluate_bool

        data = self.data = self.report.to_dict()
        totals = data["totals"]
        keys: List[str] = []
        bad_examples = 0
        for pair in self.report.reports:
            for inconsistency in pair.inconsistencies:
                keys.append(inconsistency_key(pair.test_key, inconsistency))
                try:
                    holds = evaluate_bool(inconsistency.condition, inconsistency.example)
                except ExpressionError:  # the example leaves a variable unbound
                    holds = False
                bad_examples += 0 if holds else 1
        cells = sum(data["job_states"].values())
        raw = totals["inconsistencies"]
        triage = data["triage"] or {}
        counters = {name: counters_of(data[name]) for name in (
            "solver_stats", "intern_stats", "explorations", "job_states")}
        counters["triage"] = {key: value for key, value in counters_of(triage).items()
                              if key != "cluster_rows"}
        counters["corpus_saved"] = self.report.corpus_saved
        return {
            "check": {
                "paths": {"%s/%s" % (row["agent"], row["test"]): row["paths"]
                          for row in data["explorations"]},
                "inconsistencies": sorted(keys),
                "bad_examples": bad_examples,
                "errors": [],
            },
            "counters": counters,
            "outcome": {
                "attempted": cells,
                "failed": cells - data["job_states"].get("ok", 0),
                "unconfirmed_share": ((raw - totals["replay_verified"]) / raw
                                      if raw else 0.0),
                "artifact_bytes": 0,
            },
        }

    def layers(self, recorder: SpanRecorder) -> Dict[str, float]:
        data = self.data
        solver = data["solver_stats"]
        queries = data["totals"]["solver_queries"]
        raw = data["totals"]["inconsistencies"]
        triage = data["triage"] or {}
        groups = {}
        for pair in self.report.reports:
            groups[pair.agent_a, pair.test_key] = len(pair.grouped_a.groups)
            groups[pair.agent_b, pair.test_key] = len(pair.grouped_b.groups)
        return {
            "explore.paths": sum(row["paths"] for row in data["explorations"]),
            "explore.oracle_queries": sum(row["solver_queries"] or 0
                                          for row in data["explorations"]),
            "group.groups": sum(groups.values()),
            "encode.groups_encoded": solver.get("groups_encoded", 0),
            "encode.reuses": solver.get("encoding_reuses", 0),
            "encode.sat_variables": solver.get("sat_variables", 0),
            "encode.sat_clauses": solver.get("sat_clauses", 0),
            "solve.pair_queries": queries,
            "solve.assumption_solves": solver.get("assumption_solves", 0),
            "solve.interval_decides": solver.get("interval_decides", 0),
            "solve.pair_cache_hits": solver.get("pair_cache_hits", 0),
            "solve.sat": solver.get("sat", 0),
            "solve.unsat": solver.get("unsat", 0),
            "solve.unknown": solver.get("unknown", 0),
            "solve.useful_ratio": solver.get("sat", 0) / queries if queries else 0.0,
            "replay.confirmed_ratio": (data["totals"]["replay_verified"] / raw
                                       if raw else 0.0),
            "minimize.replays": recorder.count_children("minimize", "replay"),
            "triage.clusters": triage.get("clusters", 0),
            "corpus.bundles": self.report.corpus_saved,
            "jobs.cells": sum(data["job_states"].values()),
            "intern.distinct_terms": data["intern_stats"]["distinct_terms"],
            "intern.hit_rate": data["intern_stats"]["hit_rate"] or 0.0,
            "simplify.cache_size": data["intern_stats"]["simplify_cache_size"],
        }


class VendorWorkload:
    """Phase 1 per (test, agent), saved as artifacts, then every file loaded."""

    def __init__(self, tests: List[str], agents: List[str], work_dir: str) -> None:
        from repro.agents.registry import AGENT_REGISTRY
        from repro.core import artifacts, explorer
        from repro.core.tests_catalog import get_test

        self.specs = [get_test(test) for test in tests]
        missing = [agent for agent in agents if agent not in AGENT_REGISTRY]
        if missing:
            raise SystemExit("unknown agent(s): %s" % ", ".join(missing))
        self.agents = agents
        self.work_dir = work_dir
        self.explore = explorer.explore_agent
        self.save = artifacts.save_exploration_artifact
        self.load = artifacts.load_exploration_artifact
        self.units: List[Dict[str, object]] = []

    def run(self, recorder: Optional[SpanRecorder]) -> None:
        explore, save, load = self.explore, self.save, self.load
        if recorder is not None:
            explore = recorder.wrap("explore", explore)
            save = recorder.wrap("artifact.save", save)
            load = recorder.wrap("artifact.load", load)
        for spec in self.specs:
            for agent in self.agents:
                report = explore(agent, spec)
                path = os.path.join(self.work_dir, "%s-%s.json" % (agent, spec.key))
                save(report, path)
                self.units.append({
                    "agent": agent, "test": spec.key, "path": path,
                    "paths": report.path_count,
                    "traces": hash(tuple(o.trace for o in report.outcomes)),
                    "engine_stats": report.engine_stats,
                })
        for unit in self.units:
            unit["loaded"] = load(unit["path"])

    def results(self) -> Dict[str, object]:
        errors = []
        size = 0
        for unit in self.units:
            loaded = unit["loaded"]
            size += os.path.getsize(unit["path"])
            if (loaded.agent_name, loaded.test_key, loaded.path_count) != (
                    unit["agent"], unit["test"], unit["paths"]) or hash(
                    tuple(o.trace for o in loaded.outcomes)) != unit["traces"]:
                errors.append("artifact round trip changed %s/%s"
                              % (unit["agent"], unit["test"]))
        return {
            "check": {
                "paths": {"%s/%s" % (unit["agent"], unit["test"]): unit["paths"]
                          for unit in self.units},
                "inconsistencies": [],
                "bad_examples": 0,
                "errors": errors,
            },
            "counters": {"%s/%s" % (unit["agent"], unit["test"]):
                         counters_of(unit["engine_stats"]) for unit in self.units},
            "outcome": {
                "attempted": 3 * len(self.units),
                "failed": 0,
                "unconfirmed_share": 0.0,
                "artifact_bytes": size,
            },
        }

    def layers(self, recorder: SpanRecorder) -> Dict[str, float]:
        return {
            "explore.paths": sum(unit["paths"] for unit in self.units),
            "explore.oracle_queries": sum(unit["engine_stats"].get("solver_queries", 0)
                                          for unit in self.units),
        }


def layer_metrics(recorder: SpanRecorder, wall: float) -> Dict[str, float]:
    """Span-derived per-layer times.

    ``trace.accounted_ratio`` is the layers' summed self time over the wall
    time.  It falls below 1 by the share of wall time that no layer span
    covers, and rises above 1 when top-level spans overlap.
    """

    summary = recorder.summary()

    def get(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0)

    top = recorder.top_level()
    unattributed = wall - covered_time(top)
    attributed = sum(row["self_s"] for row in summary.values())
    return {
        "explore.busy_s": get("explore", "busy_s"),
        "explore.calls": get("explore", "calls"),
        "group.busy_s": get("group", "busy_s"),
        "encode.self_s": get("encode", "self_s"),
        "solve.self_s": get("solve", "self_s"),
        "crosscheck.self_s": get("crosscheck", "self_s"),
        "concretize.busy_s": get("concretize", "busy_s"),
        "concretize.calls": get("concretize", "calls"),
        "replay.busy_s": get("replay", "busy_s"),
        "replay.calls": get("replay", "calls"),
        "witness.busy_s": get("witness", "busy_s"),
        "minimize.self_s": get("minimize", "self_s"),
        "minimize.calls": get("minimize", "calls"),
        "triage.cluster_s": get("triage.cluster", "busy_s"),
        "corpus.busy_s": get("corpus", "busy_s"),
        "artifact.save_s": get("artifact.save", "busy_s"),
        "artifact.load_s": get("artifact.load", "busy_s"),
        "jobs.unattributed_s": unattributed,
        "trace.accounted_ratio": attributed / wall,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("po-crosscheck", "flow-pipeline", "vendor-explore"))
    parser.add_argument("--tests", required=True)
    parser.add_argument("--agents", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)
    tests, agents = args.tests.split(","), args.agents.split(",")

    scratch = tempfile.mkdtemp(dir=args.work_dir)
    try:
        if args.workload == "vendor-explore":
            workload = VendorWorkload(tests, agents, scratch)
        else:
            corpus = (os.path.join(scratch, "corpus")
                      if args.workload == "flow-pipeline" else None)
            workload = CampaignWorkload(tests, agents, corpus)
        recorder = SpanRecorder() if args.trace else None
        setup_end = time.monotonic()
        result: Dict[str, object] = {"setup_s": setup_end - args.spawned_at}
        if not args.setup_only:
            cpu_start = time.process_time()
            started = time.perf_counter()
            workload.run(recorder)
            wall = time.perf_counter() - started
            result.update({
                "wall_s": wall,
                "cpu_s": time.process_time() - cpu_start,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            })
            result.update(workload.results())
            if recorder is not None:
                layers = layer_metrics(recorder, wall)
                layers.update(workload.layers(recorder))
                result["layers"] = layers
                if args.spans_out:
                    with open(args.spans_out, "w") as handle:
                        json.dump({"workload": args.workload, "tests": tests,
                                   "agents": agents, "spans": recorder.to_records()},
                                  handle)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

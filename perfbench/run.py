"""Campaign benchmark: what a SOFT user waits for, end to end and by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload po-crosscheck --seed 1 --seconds 40 --trace 0

Every repetition runs in a fresh interpreter (``workload.py``) with
``workers=1``.  ``--seed`` permutes the order of the tests and agents; the
program receives only that order.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` reports the per-layer split from traced repetitions,
each run beside an untraced one of the same order, so the tracing overhead
can be taken over the pairs of many runs.  Every repetition must match
``reference.json`` and repeat the exact counters of earlier repetitions of
its order.  The last line of standard output is the result object.  See
``README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(HERE, ".work")
REFERENCE = os.path.join(HERE, "reference.json")

CATALOG = ["packet_out", "stats_request", "set_config", "flow_mod",
           "eth_flow_mod", "cs_flow_mods", "concrete", "short_symb"]
AGENTS = ["reference", "ovs", "modified"]
#: name -> (tests, agents) in their unpermuted order.
WORKLOADS = {
    "po-crosscheck": (["packet_out"], ["reference", "ovs"]),
    "flow-pipeline": (["flow_mod", "eth_flow_mod"], AGENTS),
    "vendor-explore": (CATALOG, AGENTS),
}

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "explore.busy_s": "s", "explore.calls": "count", "explore.paths": "count",
    "explore.oracle_queries": "count",
    "group.busy_s": "s", "group.groups": "count",
    "encode.self_s": "s", "encode.groups_encoded": "count", "encode.reuses": "count",
    "encode.sat_variables": "count", "encode.sat_clauses": "count",
    "solve.self_s": "s", "solve.pair_queries": "count",
    "solve.assumption_solves": "count", "solve.interval_decides": "count",
    "solve.pair_cache_hits": "count", "solve.sat": "count", "solve.unsat": "count",
    "solve.unknown": "count", "solve.useful_ratio": "ratio",
    "crosscheck.self_s": "s",
    "concretize.busy_s": "s", "concretize.calls": "count",
    "replay.busy_s": "s", "replay.calls": "count", "replay.confirmed_ratio": "ratio",
    "witness.busy_s": "s", "minimize.self_s": "s", "minimize.calls": "count",
    "minimize.replays": "count", "triage.cluster_s": "s", "triage.clusters": "count",
    "corpus.busy_s": "s", "corpus.bundles": "count",
    "artifact.save_s": "s", "artifact.load_s": "s", "artifact.bytes": "bytes",
    "jobs.unattributed_s": "s", "jobs.cells": "count",
    "intern.distinct_terms": "count", "intern.hit_rate": "ratio",
    "simplify.cache_size": "count",
    "unconfirmed_share": "ratio", "failed_cells": "ratio", "artifact_mb": "MB",
    "trace.wall_s": "s", "trace.accounted_ratio": "ratio",
}

#: Set-up samples per untraced run (~0.35 s each), taken one at a time
#: after one unmeasured warm-up process has written the bytecode caches.
SETUP_PROBES = 25
#: No repetition starts later than this into a run, so a run ends well
#: within 180 seconds.
LAST_START_S = 100.0
CHILD_TIMEOUT_S = 170.0
#: The layers' self times must account for the wall time within this share.
ACCOUNTED_TOLERANCE = 0.03


#: (tests, agents) in the order the program receives them.
Order = Tuple[List[str], List[str]]


class BenchError(Exception):
    """A repetition crashed or the run cannot be made."""


def scratch_dir() -> str:
    """Where this run's repetitions keep their files; removed at its end."""

    return os.path.join(WORK_DIR, "scratch-%d" % os.getpid())


def start_child(workload: str, order: Order, trace: bool,
                setup_only: bool = False) -> subprocess.Popen:
    tests, agents = order
    argv = [sys.executable, os.path.join(HERE, "workload.py"),
            "--workload", workload, "--tests", ",".join(tests),
            "--agents", ",".join(agents), "--trace", "1" if trace else "0",
            "--work-dir", scratch_dir()]
    if setup_only:
        argv.append("--setup-only")
    if trace:
        argv += ["--spans-out", os.path.join(WORK_DIR, workload + ".spans.json")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # Installed programs start from cached bytecode; keep that cache in the
    # work directory whatever the caller's environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(WORK_DIR, "pycache")
    argv += ["--spawned-at", repr(time.monotonic())]
    return subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def finish_child(workload: str, proc: subprocess.Popen) -> Dict[str, object]:
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError("%s repetition exceeded %.0fs" % (workload, CHILD_TIMEOUT_S))
    except BaseException:
        stop(proc)
        raise
    if proc.returncode != 0:
        raise BenchError("%s repetition exited %d:\n%s"
                         % (workload, proc.returncode, err[-4000:]))
    return json.loads(out.strip().splitlines()[-1])


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.communicate()


def run_child(workload: str, order: Order, trace: bool,
              setup_only: bool = False) -> Dict[str, object]:
    return finish_child(workload, start_child(workload, order, trace, setup_only))


def run_round(workload: str, plan: List[Tuple[Order, bool]]) -> List[Dict[str, object]]:
    """Run the round's repetitions, at the same time when each has a core.

    Every repetition is single-threaded; running two on two cores doubles
    the samples per second of run.
    """

    if len(os.sched_getaffinity(0)) < len(plan):
        return [run_child(workload, order, traced) for order, traced in plan]
    procs: List[subprocess.Popen] = []
    try:
        for order, traced in plan:
            procs.append(start_child(workload, order, traced))
        return [finish_child(workload, proc) for proc in procs]
    finally:
        for proc in procs:
            stop(proc)


def gate(rep: Dict[str, object], expected: Dict[str, object]) -> List[str]:
    """Why *rep* fails the correctness gate (empty when it passes)."""

    check = rep["check"]
    problems = list(check["errors"])
    if check["paths"] != expected["paths"]:
        problems.append("path counts differ from the reference: %s" % sorted(
            key for key in set(check["paths"]) | set(expected["paths"])
            if check["paths"].get(key) != expected["paths"].get(key)))
    got, want = check["inconsistencies"], expected["inconsistencies"]
    if got != want:
        problems.append("inconsistency set differs from the reference: "
                        "%d missing, %d unexpected"
                        % (len(set(want) - set(got)), len(set(got) - set(want))))
    if check["bad_examples"]:
        problems.append("%d inconsistency example(s) do not satisfy their "
                        "condition" % check["bad_examples"])
    return problems


def source_digest() -> str:
    """Digest of the program under test, so stored counters expire with it."""

    digest = hashlib.sha256()
    for directory, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def same_counters(workload: str, order: Order, counters: Dict[str, object],
                  source: str) -> bool:
    """Whether *counters* equal those stored by the first repetition of the
    same order and program, in this run or an earlier one; the first
    repetition stores them."""

    key = hashlib.sha256(json.dumps([workload, order, source]).encode()).hexdigest()
    path = os.path.join(WORK_DIR, "counters", key[:24] + ".json")
    if os.path.exists(path):
        with open(path) as handle:
            return json.load(handle) == counters
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(counters, handle, sort_keys=True)
    return True


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run rounds of repetitions until *seconds* are used.

    Untraced rounds run the seed's order and then its reverse, so every pair
    is crosschecked in both orientations and the medians do not depend on
    which orientation the seed drew.  Traced rounds run the seed's order
    untraced and traced side by side; the pairs are listed with the result,
    and the tracing overhead is taken over the pairs of many runs.
    """

    tests, agents = WORKLOADS[workload]
    rng = random.Random(seed)
    forward = (rng.sample(tests, len(tests)), rng.sample(agents, len(agents)))
    orders = [forward, (forward[0][::-1], forward[1][::-1])]
    with open(REFERENCE) as handle:
        expected = json.load(handle)[workload]

    deadline = time.monotonic() + min(seconds, LAST_START_S)
    run_child(workload, forward, trace=False, setup_only=True)
    setups = [] if trace else [
        run_child(workload, orders[probe % 2], trace=False, setup_only=True)["setup_s"]
        for probe in range(SETUP_PROBES)]
    reps: List[Dict[str, object]] = []
    started = time.monotonic()
    rounds = 0
    while True:
        if trace:
            plan = [(orders[0], False), (orders[0], True)]
        else:
            plan = [(orders[0], False), (orders[1], False)]
        for (order, traced), rep in zip(plan, run_round(workload, plan)):
            rep.update(order=order, traced=traced)
            reps.append(rep)
        rounds += 1
        now = time.monotonic()
        if now + (now - started) / rounds > deadline:
            break

    problems: List[str] = []
    source = source_digest()
    for index, rep in enumerate(reps):
        problems += ["repetition %d: %s" % (index, problem)
                     for problem in gate(rep, expected)]
        if not same_counters(workload, rep["order"], rep["counters"], source):
            problems.append("repetition %d: counters differ from an earlier "
                            "repetition of the same order (nondeterminism)" % index)
        if rep["traced"] and abs(rep["layers"]["trace.accounted_ratio"] - 1.0) \
                > ACCOUNTED_TOLERANCE:
            problems.append("repetition %d: layer self times sum to %.3f of wall "
                            "time" % (index, rep["layers"]["trace.accounted_ratio"]))
    return orders, setups, reps, problems


def end_to_end(setups: List[float], reps: List[Dict[str, object]]) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(rep["wall_s"] for rep in reps),
        "cpu_s": statistics.median(rep["cpu_s"] for rep in reps),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
    }


def per_layer(reps: List[Dict[str, object]]) -> Dict[str, float]:
    traced = [rep for rep in reps if rep["traced"]]
    values = {name: statistics.median(rep["layers"].get(name, 0) for rep in traced)
              for name in PER_LAYER}
    values.update({
        "unconfirmed_share": statistics.median(
            rep["outcome"]["unconfirmed_share"] for rep in reps),
        "failed_cells": (sum(rep["outcome"]["failed"] for rep in reps)
                         / sum(rep["outcome"]["attempted"] for rep in reps)),
        "artifact.bytes": statistics.median(
            rep["outcome"]["artifact_bytes"] for rep in reps),
        "artifact_mb": statistics.median(
            rep["outcome"]["artifact_bytes"] for rep in reps) / 1e6,
        "trace.wall_s": statistics.median(rep["wall_s"] for rep in traced),
    })
    return values


def record_reference() -> None:
    """Write ``reference.json`` from one unpermuted repetition per workload."""

    reference = {}
    for workload, (tests, agents) in WORKLOADS.items():
        check = run_child(workload, (tests, agents), trace=False)["check"]
        reference[workload] = {"paths": check["paths"],
                               "inconsistencies": check["inconsistencies"]}
    with open(REFERENCE, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from the program as it is")
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so every repetition started is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no src/repro under %s; run from a full checkout" % ROOT,
              file=sys.stderr)
        return 2
    if args.workload is None and not args.record_reference:
        parser.error("--workload is required")
    os.makedirs(scratch_dir(), exist_ok=True)
    try:
        if args.record_reference:
            record_reference()
            return 0
        orders, setups, reps, problems = measure(
            args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch_dir(), ignore_errors=True)

    values = per_layer(reps) if args.trace else end_to_end(setups, reps)
    units = PER_LAYER if args.trace else END_TO_END
    for problem in problems:
        print("perfbench: FAILED %s" % problem, file=sys.stderr)
    # The seed, the orders it drew and what each repetition saw; the result
    # object below is the last line.
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "orders": orders,
        "repetitions": [{
            "order": rep["order"], "traced": rep["traced"], "wall_s": rep["wall_s"],
            "peak_rss_mb": rep["peak_rss_mb"],
            "unconfirmed_share": rep["outcome"]["unconfirmed_share"],
            "artifact_mb": rep["outcome"]["artifact_bytes"] / 1e6,
            "counters_sha256": hashlib.sha256(json.dumps(
                rep["counters"], sort_keys=True).encode()).hexdigest()[:16],
        } for rep in reps],
        "setup_samples": len(setups),
    }, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(rep["outcome"]["attempted"] for rep in reps),
        "failed": sum(rep["outcome"]["failed"] for rep in reps),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

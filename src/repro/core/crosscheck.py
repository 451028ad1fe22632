"""Phase 2b: the inconsistency finder.

For two agents A and B, and for every pair of *different* grouped outputs
``(i, j)``, the question is whether ``C_A(i) AND C_B(j)`` is satisfiable.  A
model is a concrete input on which the two agents diverge — an inconsistency
— and is reported together with both output traces so a human can judge
which (if either) implementation violates the specification.

The paper asks the solver about every pair, so its cost is bounded by
``|RES_A| * |RES_B|`` queries (§3.4).  Two solving modes exist:

* **incremental** (the default): a shared
  :class:`~repro.symbex.solver.incremental.GroupEncoding` bit-blasts each
  group condition exactly once behind an activation literal and crosschecks
  by *partition intersection*.  B's groups partition the inputs B explored,
  so for each A group it lists the B groups that group meets: one solve
  finds a model, the model's B group is the next non-empty cell, that group
  is blocked, and the loop ends at the first UNSAT.  The bound becomes
  ``cells + |RES_A|`` solves, where ``cells`` is the number of non-empty
  (A group, B group) intersections — on real tests almost every pair is
  UNSAT, so this is far below ``|RES_A| * |RES_B|``.  Pass ``engine=`` to
  share the encoding across several pair reports of the same test (what
  :class:`~repro.core.campaign.Campaign` does).
* **legacy**: pass ``solver=`` (or ``incremental=False``) to ask every pair
  from scratch through a :class:`~repro.symbex.solver.Solver`, re-simplifying
  and re-bit-blasting both conditions per query — the paper's pair matrix,
  and the reference implementation the incremental engine is
  equivalence-tested against.

On the incremental path ``queries`` counts solves (plus per-pair fallback
queries and A groups answered wholly from the engine's pair cache); on the
legacy path it counts pair queries.  ``max_pairs`` and ``deadline`` cap that count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.grouping import GroupedResults, OutputGroup
from repro.core.trace import OutputTrace
from repro.errors import CrosscheckError
from repro.symbex.expr import BoolExpr, bool_and
from repro.symbex.solver import (GroupEncoding, Intersection, SatResult, Solver,
                                 SolverConfig)

__all__ = ["Inconsistency", "CrosscheckReport", "find_inconsistencies"]


@dataclass
class Inconsistency:
    """A pair of divergent behaviours reachable by a common input."""

    agent_a: str
    agent_b: str
    trace_a: OutputTrace
    trace_b: OutputTrace
    #: The conjunction that the solver satisfied.
    condition: BoolExpr
    #: A concrete example input assignment (variable name -> value).
    example: Dict[str, int] = field(default_factory=dict)
    solver_time: float = 0.0

    def diff(self):
        """First divergence between the two *symbolic* output traces.

        This is the pre-replay view of the divergence; the witness pipeline
        recomputes the signature from the concrete replay traces, which is
        what actually happened rather than what the solver predicted.
        """

        return self.trace_a.diff(self.trace_b)

    def describe(self) -> str:
        lines = [
            "inconsistency between %s and %s" % (self.agent_a, self.agent_b),
            "  %s output:" % self.agent_a,
            "  " + self.trace_a.short(limit=5),
            "  %s output:" % self.agent_b,
            "  " + self.trace_b.short(limit=5),
            "  " + self.diff().describe(),
            "  example input: %s" % _render_example(self.example),
        ]
        return "\n".join(lines)


def _render_example(example: Dict[str, int]) -> str:
    parts = ["%s=0x%x" % (name, value) for name, value in sorted(example.items())]
    return "{" + ", ".join(parts) + "}"


@dataclass
class CrosscheckReport:
    """Result of crosschecking two grouped intermediate results."""

    agent_a: str
    agent_b: str
    test_key: str
    inconsistencies: List[Inconsistency]
    queries: int
    unsat_pairs: int
    unknown_pairs: int
    checking_time: float
    identical_output_pairs: int
    #: True when ``max_pairs`` stopped the scan before every pair was queried.
    truncated: bool = False
    #: How the queries were answered: ``mode`` plus per-mode counters (for the
    #: incremental mode also an ``engine`` snapshot, cumulative when shared).
    solver_stats: Dict[str, object] = field(default_factory=dict)

    @property
    def inconsistency_count(self) -> int:
        return len(self.inconsistencies)

    def distinct_trace_pairs(self) -> List[Tuple[OutputTrace, OutputTrace]]:
        return [(i.trace_a, i.trace_b) for i in self.inconsistencies]

    def summary_row(self) -> Dict[str, object]:
        """One row of the paper's Table 3 (inconsistency-checking part)."""

        return {
            "test": self.test_key,
            "agent_a": self.agent_a,
            "agent_b": self.agent_b,
            "queries": self.queries,
            "inconsistencies": self.inconsistency_count,
            "checking_time": self.checking_time,
        }


def find_inconsistencies(grouped_a: GroupedResults, grouped_b: GroupedResults,
                         solver: Optional[Solver] = None,
                         max_pairs: Optional[int] = None,
                         engine: Optional[GroupEncoding] = None,
                         incremental: Optional[bool] = None,
                         deadline: Optional[float] = None,
                         clock: Callable[[], float] = time.perf_counter,
                         ) -> CrosscheckReport:
    """Crosscheck two agents' grouped results for one test specification.

    *max_pairs* caps the number of queries (solves on the incremental path,
    pair queries on the legacy one) **globally** across the whole scan; a
    truncated scan is flagged in the report.

    *deadline* is an absolute time on *clock* (default
    ``time.perf_counter``): once reached, the scan stops before the next
    query and the report is flagged ``truncated``, like a *max_pairs*
    cutoff.  Callers with query caches (the hybrid scheduler)
    simply re-scan on the next slice — already-solved pairs are cheap.

    Mode selection: an explicit *engine* drives the incremental path on that
    (possibly shared) encoding; an explicit *solver* or ``incremental=False``
    selects the legacy per-query path; by default a fresh incremental engine
    is created for this report.
    """

    if grouped_a.test_key != grouped_b.test_key:
        raise CrosscheckError(
            "cannot crosscheck different tests: %r vs %r"
            % (grouped_a.test_key, grouped_b.test_key)
        )
    if engine is not None and (solver is not None or incremental is False):
        raise CrosscheckError(
            "pass either engine= (incremental) or solver=/incremental=False "
            "(legacy), not both")
    use_incremental = engine is not None or (solver is None and incremental is not False)
    if use_incremental:
        if engine is None:
            engine = GroupEncoding(SolverConfig())
        engine.bind_test(grouped_a.test_key)
    elif solver is None:
        solver = Solver(SolverConfig())

    started = time.perf_counter()
    inconsistencies: List[Inconsistency] = []
    queries = 0
    unsat_pairs = 0
    unknown_pairs = 0
    identical = 0
    truncated = False

    def admit() -> bool:
        """Count one more query unless a cap stops the scan first."""

        nonlocal queries, truncated
        if ((max_pairs is not None and queries >= max_pairs)
                or (deadline is not None and clock() >= deadline)):
            truncated = True
            return False
        queries += 1
        return True

    def record(group_a: OutputGroup, group_b: OutputGroup, result: SatResult,
               elapsed: float) -> None:
        nonlocal unsat_pairs, unknown_pairs
        if result.is_sat:
            inconsistencies.append(Inconsistency(
                agent_a=grouped_a.agent_name,
                agent_b=grouped_b.agent_name,
                trace_a=group_a.trace,
                trace_b=group_b.trace,
                condition=bool_and(group_a.condition, group_b.condition),
                example=dict(result.model),
                solver_time=elapsed,
            ))
        elif result.is_unsat:
            unsat_pairs += 1
        else:
            unknown_pairs += 1

    if use_incremental:
        counts = Intersection().counts  # zeroed, so every key is reported
        conditions_b = [group.condition for group in grouped_b.groups]
        by_trace: Dict[OutputTrace, List[int]] = {}
        for index, group_b in enumerate(grouped_b.groups):
            by_trace.setdefault(group_b.trace, []).append(index)
        for group_a in grouped_a.groups:
            same = by_trace.get(group_a.trace, ())
            identical += len(same)
            intersection = engine.intersect(group_a.condition, conditions_b,
                                            skip=frozenset(same), may_solve=admit)
            for name, value in intersection.counts.items():
                counts[name] += value
            for index, result in intersection.results.items():
                record(group_a, grouped_b.groups[index], result, result.time)
            if intersection.truncated:
                break
    else:
        for group_a in grouped_a.groups:
            if truncated:
                break
            for group_b in grouped_b.groups:
                if group_a.trace == group_b.trace:
                    identical += 1
                    continue
                if not admit():
                    break
                query_started = time.perf_counter()
                result = solver.check([group_a.condition, group_b.condition])
                record(group_a, group_b, result,
                       time.perf_counter() - query_started)

    if use_incremental:
        solver_stats: Dict[str, object] = {"mode": "incremental"}
        solver_stats.update(counts)
        solver_stats["engine"] = engine.stats_dict()
    else:
        solver_stats = {"mode": "legacy"}
        solver_stats.update(solver.stats_dict())

    return CrosscheckReport(
        agent_a=grouped_a.agent_name,
        agent_b=grouped_b.agent_name,
        test_key=grouped_a.test_key,
        inconsistencies=inconsistencies,
        queries=queries,
        unsat_pairs=unsat_pairs,
        unknown_pairs=unknown_pairs,
        checking_time=time.perf_counter() - started,
        identical_output_pairs=identical,
        truncated=truncated,
        solver_stats=solver_stats,
    )

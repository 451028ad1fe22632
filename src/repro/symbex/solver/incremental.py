"""Incremental crosscheck solving: encode once, solve under assumptions.

Phase 2b asks, for every pair of output groups of two agents, whether some
input reaches both.  The legacy pipeline pays full price per question: every
pair re-simplifies, re-bit-blasts and re-solves both conditions from scratch
in a fresh SAT instance.

:class:`GroupEncoding` keeps **one** SAT instance per test.  Each output-group
condition is simplified and bit-blasted exactly once, guarded by a fresh
*activation literal* ``act`` with implications ``act -> atom`` for every
conjunct of the simplified condition.  Two query shapes run on it:

* :meth:`GroupEncoding.intersect` lists the B groups that one A group meets.
  One agent's groups partition the inputs it explored (path conditions are
  mutually exclusive), so instead of asking every pair it solves
  ``act_a AND NOT L_b1 AND ... AND NOT L_bk``, where ``L_b`` is an
  equivalence literal ``L_b <-> AND(atoms_b)`` built lazily for each B group
  already hit (and for the B groups whose pairs need no answer, blocked
  before the first solve).  Each model is evaluated against the remaining B
  groups with the compiled term tapes; the group it satisfies is the next
  cell, and it is blocked before the next solve.  The loop stops at UNSAT,
  so one A group costs one solve per non-empty cell plus one.  Two fallbacks keep
  the answer exact: a model in no B group (B's exploration failed or was
  truncated, so its groups do not cover A) finishes the A group with a
  selector clause ``s -> OR(act_b of the remaining groups)``; an UNKNOWN
  solve hands the A group's remaining pairs to :meth:`check_pair`, so a
  conflict budget keeps its per-pair meaning.  Every answer goes to the
  pair-result cache: agents share many group conditions, so a later A group
  starts with its known cells blocked, and one whose pairs are all known
  needs no solve.
* :meth:`GroupEncoding.check_pair` decides one pair as
  ``solve(assumptions=[act_i, act_j])``, behind the same pair-result cache.

Both re-use the shared bit-blasting structure and every clause learned while
answering earlier questions instead of rebuilding the backend.

All public methods are thread-safe.  Queries on one engine serialize on its
lock (the shared SAT instance is stateful); a campaign's thread pool still
overlaps Phase 2b across *different* tests' engines, and the pure-Python
backend is GIL-bound either way.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import (AbstractSet, Callable, Dict, FrozenSet, List, Optional,
                    Sequence)

from repro.errors import SolverError
from repro.symbex.compile import compile_term
from repro.symbex.expr import BoolAnd, BoolConst, BoolExpr
from repro.symbex.simplify import simplify_bool
from repro.symbex.solver.model import complete_model, require_verified
from repro.symbex.solver.sat import SATStatus
from repro.symbex.solver.solver import SatResult, SolverConfig

__all__ = ["GroupEncoding", "IncrementalStats", "Intersection", "PairOutcome"]


@dataclass
class IncrementalStats:
    """Counters of one :class:`GroupEncoding` engine."""

    #: Distinct group conditions bit-blasted into the shared CNF.
    groups_encoded: int = 0
    #: Conditions requested again after their first encoding (the saving).
    encoding_reuses: int = 0
    #: Pair queries answered by re-solving the shared instance under the
    #: pair's two activation literals.
    assumption_solves: int = 0
    #: SAT instances constructed (1 per engine; the legacy path pays 1/query).
    backend_rebuilds: int = 0
    #: Pair queries, and whole A-group intersections, answered from the
    #: pair-result cache.
    pair_cache_hits: int = 0
    #: Solves of the intersection loop (one per non-empty cell, plus one
    #: UNSAT solve per A group that ends the loop).
    intersection_solves: int = 0
    #: Non-empty (A group, B group) cells found by the intersection loop.
    cells: int = 0
    #: A groups finished by a fallback (uncovered model or UNKNOWN solve).
    fallbacks: int = 0
    #: Outcomes of pair queries and intersection solves.
    sat: int = 0
    unsat: int = 0
    unknown: int = 0
    encode_time: float = 0.0
    solve_time: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "groups_encoded": self.groups_encoded,
            "encoding_reuses": self.encoding_reuses,
            "assumption_solves": self.assumption_solves,
            "backend_rebuilds": self.backend_rebuilds,
            "pair_cache_hits": self.pair_cache_hits,
            "intersection_solves": self.intersection_solves,
            "cells": self.cells,
            "fallbacks": self.fallbacks,
            "sat": self.sat,
            "unsat": self.unsat,
            "unknown": self.unknown,
            "encode_time": self.encode_time,
            "solve_time": self.solve_time,
        }


@dataclass
class _EncodedGroup:
    """One group condition installed in the shared CNF."""

    #: Assuming this literal activates the condition's clauses.
    activation: int
    #: The simplified condition; its compiled tape decides whether a model
    #: lies in this group.
    simplified: BoolExpr
    #: The simplified conjuncts (used for model verification); empty when
    #: the condition simplified to a constant.
    atoms: List[BoolExpr] = field(default_factory=list)
    trivially_false: bool = False
    #: The original condition; pins the interned term alive so the engine's
    #: id-keyed group map stays valid for the lifetime of this entry.
    condition: Optional[BoolExpr] = None
    #: ``L <-> simplified``, declared the first time the intersection loop
    #: must block this group (``activation`` only implies the atoms).
    equivalence: Optional[int] = None


@dataclass
class PairOutcome:
    """Result of one pair query plus how it was decided."""

    result: SatResult
    #: "trivial" | "assumption" | "pair-cache"
    via: str


@dataclass
class Intersection:
    """One A group crosschecked against a list of B groups."""

    #: B index -> the pair's answer, in B order, for every answered pair
    #: outside ``skip``.  A truncated intersection holds only the cells
    #: found before it stopped.
    results: Dict[int, SatResult] = field(default_factory=dict)
    #: True when ``may_solve`` refused a solve before the answer was complete.
    truncated: bool = False
    #: How this intersection was answered, under the names of the
    #: matching :class:`IncrementalStats` counters.
    counts: Dict[str, int] = field(default_factory=lambda: dict.fromkeys(
        ("intersection_solves", "cells", "fallbacks", "pair_cache_hits"), 0))


class GroupEncoding:
    """Shared incremental encoding of output-group conditions for ONE test.

    Conditions from different tests use different symbolic namespaces and
    must not share an instance; :meth:`bind_test` enforces this for callers
    that hold engines in a cache.
    """

    def __init__(self, config: Optional[SolverConfig] = None) -> None:
        self.config = config if config is not None else SolverConfig()
        self.stats = IncrementalStats(backend_rebuilds=1)
        self._lock = threading.RLock()
        # Activation literals need the CNF-level surface (new_var/add_clause),
        # so the engine asks for an *incremental* backend; a non-incremental
        # configured backend (interval) falls back to the reference CDCL one.
        self._backend = self.config.make_incremental_backend()
        # id-keyed: group conditions are hash-consed, so identity is
        # structural identity (each _EncodedGroup pins its condition alive).
        self._groups: Dict[int, _EncodedGroup] = {}
        # frozenset((act_a, act_b)) -> SAT (with a model) or UNSAT; filled
        # by pair queries and by every answer an intersection proves.
        self._pair_cache: Dict[FrozenSet[int], SatResult] = {}
        self._bound_test: Optional[str] = None

    # ------------------------------------------------------------------
    # Guard rails
    # ------------------------------------------------------------------

    def bind_test(self, test_key: str) -> None:
        """Pin the engine to one test; reuse across tests is an error."""

        with self._lock:
            if self._bound_test is None:
                self._bound_test = test_key
            elif self._bound_test != test_key:
                raise SolverError(
                    "GroupEncoding bound to test %r cannot crosscheck test %r; "
                    "conditions of different tests must not share one SAT "
                    "instance" % (self._bound_test, test_key))

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------

    def encode(self, condition: BoolExpr) -> _EncodedGroup:
        """Install *condition* behind an activation literal (once per key)."""

        with self._lock:
            key = id(condition)
            group = self._groups.get(key)
            if group is not None:
                self.stats.encoding_reuses += 1
                return group
            started = time.perf_counter()
            simplified = simplify_bool(condition)
            if isinstance(simplified, BoolConst):
                if simplified.value:
                    group = _EncodedGroup(activation=self._backend.true_lit,
                                          simplified=simplified,
                                          condition=condition)
                else:
                    group = _EncodedGroup(activation=self._backend.false_lit,
                                          simplified=simplified,
                                          trivially_false=True,
                                          condition=condition)
            else:
                if isinstance(simplified, BoolAnd):
                    atoms = list(simplified.operands)
                else:
                    atoms = [simplified]
                activation = self._backend.new_var()
                for atom in atoms:
                    self._backend.add_clause(
                        [-activation, self._backend.declare(atom)])
                group = _EncodedGroup(activation=activation,
                                      simplified=simplified, atoms=atoms,
                                      condition=condition)
            self._groups[key] = group
            self.stats.groups_encoded += 1
            self.stats.encode_time += time.perf_counter() - started
            return group

    # ------------------------------------------------------------------
    # Partition intersection
    # ------------------------------------------------------------------

    def intersect(self, condition_a: BoolExpr,
                  conditions_b: Sequence[BoolExpr],
                  skip: AbstractSet[int] = frozenset(),
                  may_solve: Optional[Callable[[], bool]] = None,
                  ) -> Intersection:
        """Decide ``condition_a AND conditions_b[j]`` for every ``j``.

        The B conditions must come from one agent's grouping (mutually
        exclusive).  Pairs whose index is in *skip* are not answered: those
        groups are blocked from the start.  *may_solve* is called before
        every solve; once it returns False the intersection stops and is
        flagged ``truncated``.
        """

        with self._lock:
            group_a = self.encode(condition_a)
            groups_b = [self.encode(condition) for condition in conditions_b]
            started = time.perf_counter()
            try:
                return self._intersect(group_a, groups_b, skip,
                                       may_solve or (lambda: True))
            finally:
                self.stats.solve_time += time.perf_counter() - started

    def _intersect(self, group_a: _EncodedGroup,
                   groups_b: List[_EncodedGroup], skip: AbstractSet[int],
                   may_solve: Callable[[], bool]) -> Intersection:
        out = Intersection()
        wanted = [index for index in range(len(groups_b)) if index not in skip]
        if not wanted:
            return out
        # Cells (SAT) plus, after an UNKNOWN solve, the per-pair answers.
        answers: Dict[int, SatResult] = {}
        complete = True
        if not group_a.trivially_false:
            known = self._known_pairs(group_a, groups_b, wanted)
            if len(known) == len(wanted):
                if not may_solve():
                    out.truncated = True
                    return out
                self.stats.pair_cache_hits += 1
                out.counts["pair_cache_hits"] += 1
                out.results = {index: known[index] for index in wanted}
                return out
            # Known cells are blocked like cells found by solving; B groups
            # known to miss A cannot hold a model, so they leave the search.
            answers = {index: result for index, result in known.items()
                       if result.is_sat}
            remaining = [index for index, group in enumerate(groups_b)
                         if index not in skip and index not in known
                         and not group.trivially_false]
            blocked = [index for index in sorted(set(skip) | set(answers))
                       if not groups_b[index].trivially_false]
            status = self._find_cells(group_a, groups_b, remaining, blocked,
                                      answers, out, may_solve)
            if status == SATStatus.UNKNOWN:
                self._finish_pairwise(group_a, groups_b, wanted, answers, out,
                                      may_solve)
            complete = status == SATStatus.UNSAT
        for index in wanted:
            if index in answers:
                out.results[index] = answers[index]
            elif complete:
                out.results[index] = SatResult(SATStatus.UNSAT)
        self._remember_results(group_a, groups_b, out.results)
        return out

    def _known_pairs(self, group_a: _EncodedGroup,
                     groups_b: List[_EncodedGroup],
                     wanted: List[int]) -> Dict[int, SatResult]:
        """Cached answers for the wanted pairs (copies; UNKNOWN never cached)."""

        if not self.config.use_cache:
            return {}
        known: Dict[int, SatResult] = {}
        for index in wanted:
            cached = self._pair_cache.get(
                frozenset((group_a.activation, groups_b[index].activation)))
            if cached is not None:
                known[index] = SatResult(cached.status, dict(cached.model))
        return known

    def _remember_results(self, group_a: _EncodedGroup,
                          groups_b: List[_EncodedGroup],
                          results: Dict[int, SatResult]) -> None:
        for index, result in results.items():
            if not result.is_unknown:
                self._remember(
                    frozenset((group_a.activation, groups_b[index].activation)),
                    SatResult(result.status, dict(result.model)))

    def _find_cells(self, group_a: _EncodedGroup, groups_b: List[_EncodedGroup],
                    remaining: List[int], blocked: List[int],
                    hits: Dict[int, SatResult], out: Intersection,
                    may_solve: Callable[[], bool]) -> Optional[str]:
        """The intersection loop over the *remaining* B groups.

        The *blocked* groups are excluded from the first solve on.  Returns
        how the loop ended.  UNSAT: every cell is in *hits* (also when no B
        group was left to hit).  UNKNOWN: a solve ran out of budget.  None:
        *may_solve* refused, *out* is flagged truncated.
        """

        backend = self._backend
        assumptions = [group_a.activation]
        assumptions.extend(-self._equivalence(groups_b[index]) for index in blocked)
        selector: Optional[int] = None
        try:
            while remaining:
                if not may_solve():
                    out.truncated = True
                    return None
                out.counts["intersection_solves"] += 1
                self.stats.intersection_solves += 1
                solve_started = time.perf_counter()
                status = backend.check_sat(
                    assumptions=assumptions if selector is None else assumptions + [selector],
                    max_conflicts=self.config.max_conflicts)
                if status == SATStatus.UNKNOWN:
                    self.stats.unknown += 1
                    return status
                if status == SATStatus.UNSAT:
                    self.stats.unsat += 1
                    return status
                self.stats.sat += 1
                model = backend.get_value()
                if self.config.verify_models:
                    model = require_verified(model, group_a.atoms)
                else:
                    model = complete_model(model, group_a.atoms)
                elapsed = time.perf_counter() - solve_started
                landed = [index for index in remaining
                          if compile_term(groups_b[index].simplified).run_bool(model, default=0)]
                if not landed and selector is not None:
                    raise SolverError(
                        "intersection model satisfies the selector but no B "
                        "group — this is a bug in the decision procedure")
                for index in landed:
                    group = groups_b[index]
                    hits[index] = SatResult(
                        SATStatus.SAT, model=complete_model(model, group.atoms),
                        time=elapsed)
                    assumptions.append(-self._equivalence(group))
                out.counts["cells"] += len(landed)
                self.stats.cells += len(landed)
                remaining = [index for index in remaining if index not in hits]
                if landed and selector is None:
                    continue
                # The model lies in no B group: B's groups do not cover A
                # here, so ask only for models inside a remaining group.
                if selector is None:
                    out.counts["fallbacks"] += 1
                    self.stats.fallbacks += 1
                else:
                    backend.add_clause([-selector])
                    selector = None
                if remaining:
                    selector = backend.new_var()
                    backend.add_clause([-selector] + [groups_b[index].activation
                                                      for index in remaining])
            return SATStatus.UNSAT
        finally:
            # Retire the selector on every exit, or its clause stays live in
            # the test's shared instance for every later solve.
            if selector is not None:
                backend.add_clause([-selector])

    def _equivalence(self, group: _EncodedGroup) -> int:
        if group.equivalence is None:
            group.equivalence = self._backend.declare(group.simplified)
        return group.equivalence

    def _finish_pairwise(self, group_a: _EncodedGroup,
                         groups_b: List[_EncodedGroup], wanted: List[int],
                         answers: Dict[int, SatResult], out: Intersection,
                         may_solve: Callable[[], bool]) -> None:
        """UNKNOWN fallback: answer the A group's open pairs one by one."""

        if not out.counts["fallbacks"]:
            out.counts["fallbacks"] += 1
            self.stats.fallbacks += 1
        for index in wanted:
            if index in answers:
                continue
            if groups_b[index].trivially_false:
                answers[index] = SatResult(SATStatus.UNSAT)
                continue
            if not may_solve():
                out.truncated = True
                return
            answers[index] = self._check_groups(group_a, groups_b[index]).result

    # ------------------------------------------------------------------
    # Pair queries
    # ------------------------------------------------------------------

    def check_pair(self, condition_a: BoolExpr, condition_b: BoolExpr) -> PairOutcome:
        """Decide satisfiability of ``condition_a AND condition_b``."""

        with self._lock:
            group_a = self.encode(condition_a)
            group_b = self.encode(condition_b)
            started = time.perf_counter()
            try:
                return self._check_groups(group_a, group_b)
            finally:
                self.stats.solve_time += time.perf_counter() - started

    def _check_groups(self, group_a: _EncodedGroup,
                      group_b: _EncodedGroup) -> PairOutcome:
        if group_a.trivially_false or group_b.trivially_false:
            self.stats.unsat += 1
            return PairOutcome(SatResult(SATStatus.UNSAT), via="trivial")
        atoms = group_a.atoms + group_b.atoms
        if not atoms:
            self.stats.sat += 1
            return PairOutcome(SatResult(SATStatus.SAT, model={}), via="trivial")

        cache_key = frozenset((group_a.activation, group_b.activation))
        if self.config.use_cache:
            cached = self._pair_cache.get(cache_key)
            if cached is not None:
                self.stats.pair_cache_hits += 1
                return PairOutcome(SatResult(cached.status, dict(cached.model)),
                                   via="pair-cache")

        self.stats.assumption_solves += 1
        status = self._backend.check_sat(
            assumptions=[group_a.activation, group_b.activation],
            max_conflicts=self.config.max_conflicts)
        if status == SATStatus.UNKNOWN:
            # Never cached: a later call may run with a raised budget.
            self.stats.unknown += 1
            return PairOutcome(SatResult(SATStatus.UNKNOWN), via="assumption")
        if status == SATStatus.UNSAT:
            self.stats.unsat += 1
            self._remember(cache_key, SatResult(SATStatus.UNSAT))
            return PairOutcome(SatResult(SATStatus.UNSAT), via="assumption")

        model = self._backend.get_value()
        if self.config.verify_models:
            model = require_verified(model, atoms)
        else:
            model = complete_model(model, atoms)
        self.stats.sat += 1
        self._remember(cache_key, SatResult(SATStatus.SAT, model=dict(model)))
        return PairOutcome(SatResult(SATStatus.SAT, model=model), via="assumption")

    def _remember(self, cache_key: FrozenSet[int], result: SatResult) -> None:
        if self.config.use_cache:
            self._pair_cache[cache_key] = result

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def group_count(self) -> int:
        with self._lock:
            return len(self._groups)

    def stats_dict(self) -> Dict[str, float]:
        """Counter snapshot plus the size of the shared backend."""

        with self._lock:
            snapshot = self.stats.as_dict()
            snapshot["sat_variables"] = self._backend.num_vars
            snapshot["sat_clauses"] = self._backend.num_clauses
            snapshot["backend_solves"] = self._backend.solves
            return snapshot

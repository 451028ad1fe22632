"""In-memory span recorder for the traced benchmark runs.

Spans are recorded around calls into the program's public layer functions
from outside the program: :func:`install` rebinds module globals and class
attributes, so nothing under ``src/`` changes.  A span is ``[name, start,
end, parent]``; the parent is the span open on the same thread when the call
began, so a layer's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, Dict, List, Optional

#: ``repro.core.campaign`` resolves these module globals at call time, so
#: rebinding them there traces every call the campaign makes.
CAMPAIGN_LAYERS = {
    "explore_agent": "explore",
    "group_paths": "group",
    "find_inconsistencies": "crosscheck",
    "build_testcase": "concretize",
    "replay_testcase": "replay",
    "build_witness": "witness",
    "minimize_witness": "minimize",
}


class SpanRecorder:
    """Collects spans from every thread; written out once, at the end."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()

    def wrap(self, name: str, fn: Callable) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(recorder._local, "stack", None)
            if stack is None:
                stack = recorder._local.stack = []
            span = [name, time.perf_counter(), None, stack[-1] if stack else None]
            recorder.spans.append(span)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()

        return traced

    def to_records(self) -> List[Dict[str, object]]:
        """Spans as JSON-safe records; ``parent`` is an index into the list."""

        index = {id(span): position for position, span in enumerate(self.spans)}
        return [{"name": name, "start": start, "end": end,
                 "parent": None if parent is None else index[id(parent)]}
                for name, start, end, parent in self.spans]

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, busy time (sum of durations) and self time."""

        child_time: Dict[int, float] = {}
        for _, start, end, parent in self.spans:
            if parent is not None:
                child_time[id(parent)] = child_time.get(id(parent), 0.0) + end - start
        out: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            name, start, end, _ = span
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - child_time.get(id(span), 0.0)
        return out

    def count_children(self, parent_name: str, child_name: str) -> int:
        return sum(1 for name, _, _, parent in self.spans
                   if name == child_name and parent is not None
                   and parent[0] == parent_name)

    def top_level(self) -> List[list]:
        return [span for span in self.spans if span[3] is None]


def covered_time(spans: List[list]) -> float:
    """Length of the union of the spans' intervals."""

    total = 0.0
    reach: Optional[float] = None
    for _, start, end, _ in sorted(spans, key=lambda span: span[1]):
        if reach is None or start >= reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def install(recorder: SpanRecorder) -> None:
    """Trace every public layer call a campaign makes (process-wide)."""

    from repro.core import campaign
    from repro.core.corpus import WitnessCorpus
    from repro.core.witness import TriageIndex
    from repro.symbex.solver import GroupEncoding

    for attribute, name in CAMPAIGN_LAYERS.items():
        setattr(campaign, attribute, recorder.wrap(name, getattr(campaign, attribute)))
    # check_pair calls self.encode, so encode spans nest under solve spans.
    GroupEncoding.encode = recorder.wrap("encode", GroupEncoding.encode)
    GroupEncoding.check_pair = recorder.wrap("solve", GroupEncoding.check_pair)
    TriageIndex.add_all = recorder.wrap("triage.cluster", TriageIndex.add_all)
    WitnessCorpus.add_clusters = recorder.wrap("corpus", WitnessCorpus.add_clusters)

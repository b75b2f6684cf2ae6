"""Span tracer that times vifit's layers from outside the package.

Wrappers are installed on module and class attributes, so a caller that
looks a function up through its module at call time goes through the
wrapper; nothing under ``src/`` changes.  Spans stay in memory as
``[name, start, end, parent]`` lists and are written out only after the
run.  ``restore`` puts every original attribute back.

Layers that run once per optimizer step are *step-scoped*: they record a
span only inside ``trainer.train``.  Outside it (for example the target
density inside a Monte-Carlo KL audit) they pass straight through, so their
time lands in the self time of the span that called them.
"""

from __future__ import annotations

import json
import time
from collections import Counter


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.labels: dict = {}  # span index -> roster member, for trainer.train
        self.counts: Counter = Counter()
        self._stack: list = []
        self._installed: list = []  # (owner, attribute, original)
        self._in_train = 0

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``; returns (result, index)."""
        spans, stack = self.spans, self._stack
        index = len(spans)
        record = [name, 0.0, 0.0, stack[-1] if stack else -1]
        spans.append(record)
        stack.append(index)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs), index
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def wrap(self, owner, attr: str, name: str, step_scoped: bool = False, observe=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``observe(tracer, index, args, result)`` runs after each recorded
        call, to add counts or labels at the same boundary.
        """
        original = owner.__dict__[attr]

        def wrapper(*args, **kwargs):
            if step_scoped and not self._in_train:
                return original(*args, **kwargs)
            result, index = self.span(name, original, *args, **kwargs)
            if observe is not None:
                observe(self, index, args, result)
            return result

        self._install(owner, attr, original, wrapper)

    def count(self, owner, attr: str, name: str):
        """Count calls to ``owner.attr`` made inside ``trainer.train``; no span."""
        original = owner.__dict__[attr]
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self._in_train:
                counts[name] += 1
            return original(*args, **kwargs)

        self._install(owner, attr, original, wrapper)

    def wrap_train(self, owner, attr: str, label_of):
        """Wrap the training loop: opens the step scope and labels the span."""
        original = owner.__dict__[attr]

        def wrapper(state, *args, **kwargs):
            self._in_train += 1
            try:
                trace, index = self.span("trainer.train", original, state, *args, **kwargs)
            finally:
                self._in_train -= 1
            self.labels[index] = label_of(state)
            self.counts["trainer.steps"] += trace.steps_run
            return trace

        self._install(owner, attr, original, wrapper)

    def _install(self, owner, attr: str, original, wrapper):
        wrapper.__wrapped__ = original
        self._installed.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def installed(self) -> list:
        return [(owner, attr) for owner, attr, _ in self._installed]

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list:
        """Each span's duration minus the time covered by its child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [
            (end - start) - child[i] for i, (name, start, end, _) in enumerate(self.spans)
        ]

    def self_by_name(self) -> dict:
        totals: dict = {}
        for (name, *_), t in zip(self.spans, self.self_times()):
            totals[name] = totals.get(name, 0.0) + t
        return totals

    def calls_by_name(self) -> Counter:
        return Counter(name for name, *_ in self.spans)

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": i,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "label": self.labels.get(i),
                        }
                    )
                    + "\n"
                )

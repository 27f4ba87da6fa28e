"""Outside-in span tracing of wordgraphs' public functions.

The tracer wraps each target function and rebinds the wrapper under every
name that holds the original in any loaded ``wordgraphs`` module, so calls
through ``from .graphs import canonical_key`` in ``ages`` or ``primes`` are
seen as well as calls inside ``graphs`` itself.  ``Graph`` constructions are
counted by wrapping ``Graph.__post_init__`` on the class.

Spans are aggregated in memory by (function, parent span): calls, inclusive
seconds and self seconds (inclusive minus the time of child spans).  There
is no per-call record, so a few hundred thousand calls cost a few dicts.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

PACKAGE = "wordgraphs"

# (span name, module, attribute); the span name is the metric prefix
TARGETS = (
    ("graphs.embedding", "graphs", "embedding"),
    ("graphs.canonical_key", "graphs", "canonical_key"),
    ("graphs.Graph", "graphs", "Graph.__post_init__"),
    ("graphs.add_vertex", "graphs", "add_vertex"),
    ("graphs.induced_subgraph", "graphs", "induced_subgraph"),
    ("graphs.canonical_form", "graphs", "canonical_form"),
    ("graphs.enumerate_graphs", "graphs", "enumerate_graphs"),
    ("primes.find_nontrivial_module", "primes", "find_nontrivial_module"),
    ("primes.is_prime", "primes", "is_prime"),
    ("primes.is_critically_prime", "primes", "is_critically_prime"),
    ("primes.schmerl_trotter_pair", "primes", "schmerl_trotter_pair"),
    ("primes.prime_height", "primes", "prime_height"),
    ("ages.age_enumerate", "ages", "age_enumerate"),
    ("ages.bounds_enumerate", "ages", "bounds_enumerate"),
    ("ages.validate_bound_certificate", "ages", "validate_bound_certificate"),
    ("ages.jonsson_desk_check", "ages", "jonsson_desk_check"),
    ("wordgraph.graph_of_word", "wordgraph", "graph_of_word"),
    ("words.factor_complexity", "words", "factor_complexity"),
    ("words.recurrence_bound", "words", "recurrence_bound"),
    ("realizers.build_realizer", "realizers", "build_realizer"),
    ("realizers.validate_realizer", "realizers", "validate_realizer"),
    ("catalogue.detect_unavoidable", "catalogue", "detect_unavoidable"),
    ("graph6.to_graph6", "graph6", "to_graph6"),
    ("graph6.from_graph6", "graph6", "from_graph6"),
    ("cli.main", "cli", "main"),
)

# spans whose non-None results are counted as "found"
COUNT_FOUND = frozenset({"graphs.embedding"})


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[tuple[str, str], list] = {}  # -> [calls, total_s, self_s]
        self.found: dict[str, int] = {}
        self._stack: list[list] = []  # frames [name, child_seconds]
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        stack, spans, found = self._stack, self.spans, self.found
        clock = time.perf_counter
        count_found = name in COUNT_FOUND

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1] if stack else None
                key = (name, parent[0] if parent else "")
                rec = spans.get(key)
                if rec is None:
                    rec = spans[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
            if count_found and result is not None:
                found[name] = found.get(name, 0) + 1
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for name, module, attr in targets:
            mod = importlib.import_module(f"{PACKAGE}.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                original = owner.__dict__[meth]
                self._rebind(owner, meth, original, self.wrap(name, original))
                continue
            original = getattr(mod, attr)
            wrapper = self.wrap(name, original)
            for mod_name, m in list(sys.modules.items()):
                if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                    continue
                for binding, value in list(vars(m).items()):
                    if value is original:
                        self._rebind(m, binding, original, wrapper)

    def _rebind(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- aggregates ------------------------------------------------------------

    def calls(self, name: str, parent: str | None = None) -> int:
        return sum(rec[0] for (n, p), rec in self.spans.items()
                   if n == name and (parent is None or p == parent))

    def self_seconds(self, name: str) -> float:
        return sum(rec[2] for (n, _), rec in self.spans.items() if n == name)

    def as_json(self) -> list:
        return [[name, parent, *rec] for (name, parent), rec in sorted(self.spans.items())]

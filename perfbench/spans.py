"""Layer spans for the traced benchmark run.

The tracer wraps the public functions, methods and properties of each
``smvirt`` layer module from outside the package.  A wrapped call records
a span only while the benchmark has a span of its own open, so set-up and
output checking stay out of the figures.

Spans are merged per parent: repeated calls of one function under one
parent span share a node that counts calls and sums their durations.  That
keeps memory bounded on launches that make tens of millions of mapping
table lookups.  ``engine.run`` is the exception: every launch gets its own
node and a new launch id, which every span below it inherits.
"""

from __future__ import annotations

import enum
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager, nullcontext

LAYERS = (
    "cli",
    "harness",
    "engine",
    "coordinator",
    "resource_maps",
    "phase_compiler",
    "kernel_model",
)

COORDINATOR_EVENTS = frozenset(
    "coordinator.Coordinator." + m
    for m in (
        "on_block_arrival",
        "on_phase_change",
        "on_barrier",
        "release_barrier",
        "on_warp_finished",
        "on_epoch",
    )
)
COORDINATOR_RETRY = "coordinator.Coordinator.retry_all_queues"
COORDINATOR_GUARD = "coordinator.Coordinator.deadlock_guard"
COORDINATOR_ACCESS = frozenset(
    ("coordinator.Coordinator.access_register", "coordinator.Coordinator.access_scratch")
)
ENGINE_RUN = "engine.run"

# Work counted at a layer boundary, from a call's arguments and result.
_WORK = {
    "harness.run_sweep": lambda args, res: ("sweep_rows", len(res.rows)),
    "phase_compiler.annotate_phases": lambda args, res: ("instr_compiled", len(args[0].body)),
    "kernel_model.parse_kernel": lambda args, res: ("instr_kernel_io", len(res.body)),
    "kernel_model.serialize_kernel": lambda args, res: ("instr_kernel_io", len(args[0].body)),
}


class Node:
    """Merged span: every call of ``name`` under one parent span."""

    __slots__ = ("id", "name", "layer", "parent", "op", "launch", "calls", "true_calls",
                 "total", "children")

    def __init__(self, nid, name, layer, parent, op, launch):
        self.id = nid
        self.name = name
        self.layer = layer
        self.parent = parent
        self.op = op
        self.launch = launch
        self.calls = 0
        self.true_calls = 0  # calls that returned True (guard fired, swap hit)
        self.total = 0.0
        self.children = {}

    def as_dict(self, self_s):
        return {
            "id": self.id,
            "parent": None if self.parent is None else self.parent.id,
            "op": self.op,
            "launch": self.launch,
            "name": self.name,
            "layer": self.layer,
            "calls": self.calls,
            "true_calls": self.true_calls,
            "total_s": self.total,
            "self_s": self_s,
        }


def self_times(nodes):
    """Each node's duration minus the time its child spans cover."""
    covered = {id(n): 0.0 for n in nodes}
    for n in nodes:
        if n.parent is not None and id(n.parent) in covered:
            covered[id(n.parent)] += n.total
    return {id(n): n.total - covered[id(n)] for n in nodes}


class Tracer:
    def __init__(self):
        self.nodes: list[Node] = []
        self.counts: Counter = Counter()
        self._stack: list = [None]
        self._ops = 0
        self._launches = 0
        self._undo: list = []

    # -- spans ----------------------------------------------------------------

    def _node(self, name, layer, parent, launch=None):
        node = Node(len(self.nodes), name, layer, parent, parent.op,
                    parent.launch if launch is None else launch)
        self.nodes.append(node)
        return node

    @contextmanager
    def span(self, name):
        """Open a benchmark span: one operation, with a fresh op id."""
        self._ops += 1
        node = Node(len(self.nodes), name, "bench", None, self._ops, 0)
        self.nodes.append(node)
        self._stack.append(node)
        t0 = time.perf_counter()
        try:
            yield node
        finally:
            node.total += time.perf_counter() - t0
            node.calls += 1
            self._stack.pop()

    def reset(self):
        """Drop the recorded spans and counts; return them."""
        out = (self.nodes, self.counts)
        self.nodes, self.counts = [], Counter()
        return out

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, name, layer):
        stack = self._stack
        clock = time.perf_counter
        work = _WORK.get(name)
        tracer = self

        if name == ENGINE_RUN:
            def wrapper(*args, **kwargs):
                parent = stack[-1]
                if parent is None:
                    return fn(*args, **kwargs)
                tracer._launches += 1
                node = tracer._node(name, layer, parent, launch=tracer._launches)
                stack.append(node)
                t0 = clock()
                try:
                    res = fn(*args, **kwargs)
                finally:
                    node.total += clock() - t0
                    node.calls += 1
                    stack.pop()
                tracer.counts["sim_instr"] += res.issued_instructions
                tracer.counts["sim_cycles"] += res.cycles
                return res
            return wrapper

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if parent is None:
                return fn(*args, **kwargs)
            node = parent.children.get(name)
            if node is None:
                node = parent.children[name] = tracer._node(name, layer, parent)
            stack.append(node)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                node.total += clock() - t0
                node.calls += 1
                stack.pop()
            if res is True:
                node.true_calls += 1
            if work is not None:
                key, n = work(args, res)
                tracer.counts[key] += n
            return res
        return wrapper

    def install(self, sm):
        """Wrap every layer of the imported package ``sm``.

        Module-level functions are replaced wherever a module of the
        package holds them (``from .engine import run`` copies the name
        into the importing module); methods and properties are replaced on
        their class.
        """
        modules = [m for k, m in sys.modules.items() if k == sm.__name__ or k.startswith(sm.__name__ + ".")]
        for layer in LAYERS:
            mod = getattr(sm, layer)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(obj, f"{layer}.{attr}", layer)
                    for m in modules:
                        for k, v in list(vars(m).items()):
                            if v is obj:
                                self._set(m, k, wrapped)
                elif inspect.isclass(obj) and not issubclass(obj, (enum.Enum, BaseException)):
                    self._install_class(obj, layer)

    def _install_class(self, cls, layer):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                self._set(cls, attr, self._wrap(obj, name, layer))
            elif isinstance(obj, property) and obj.fset is None:
                self._set(cls, attr, property(self._wrap(obj.fget, name, layer)))

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


class NullTracer:
    """Stand-in for untraced runs: spans cost one context manager."""

    def span(self, name):
        return nullcontext()


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(nodes, counts):
    """Per-layer figures of one traced pass (see README for definitions)."""
    own = self_times(nodes)
    counts = Counter(counts)
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    by_name: Counter = Counter()
    true_by_name: Counter = Counter()
    for n in nodes:
        if n.layer in self_s:
            self_s[n.layer] += own[id(n)]
            calls[n.layer] += n.calls
        by_name[n.name] += n.calls
        true_by_name[n.name] += n.true_calls

    events = sum(by_name[k] for k in COORDINATOR_EVENTS)
    access = sum(by_name[k] for k in COORDINATOR_ACCESS)
    swapped = sum(true_by_name[k] for k in COORDINATOR_ACCESS)
    return {
        "cli.calls": calls["cli"],
        "cli.self_s": self_s["cli"],
        "harness.calls": calls["harness"],
        "harness.self_s": self_s["harness"],
        "harness.rows_per_s": _ratio(counts["sweep_rows"], self_s["harness"]),
        "engine.calls": by_name[ENGINE_RUN],
        "engine.self_s": self_s["engine"],
        "engine.ns_per_sim_instr": _ratio(self_s["engine"] * 1e9, counts["sim_instr"]),
        "engine.sim_cycles": counts["sim_cycles"],
        "coordinator.events": events,
        "coordinator.retries": by_name[COORDINATOR_RETRY],
        "coordinator.self_s": self_s["coordinator"],
        "coordinator.us_per_event": _ratio(self_s["coordinator"] * 1e6, events),
        "coordinator.guard_fired_ratio": _ratio(true_by_name[COORDINATOR_GUARD],
                                                by_name[COORDINATOR_GUARD]),
        "coordinator.swap_access_ratio": _ratio(swapped, access),
        "resource_maps.calls": calls["resource_maps"],
        "resource_maps.self_s": self_s["resource_maps"],
        "resource_maps.ns_per_call": _ratio(self_s["resource_maps"] * 1e9,
                                            calls["resource_maps"]),
        "phase_compiler.calls": calls["phase_compiler"],
        "phase_compiler.self_s": self_s["phase_compiler"],
        "phase_compiler.instr_per_s": _ratio(counts["instr_compiled"],
                                             self_s["phase_compiler"]),
        "kernel_model.calls": calls["kernel_model"],
        "kernel_model.self_s": self_s["kernel_model"],
        "kernel_model.instr_per_s": _ratio(counts["instr_kernel_io"],
                                           self_s["kernel_model"]),
    }


def span_records(nodes):
    own = self_times(nodes)
    return [n.as_dict(own[id(n)]) for n in nodes]

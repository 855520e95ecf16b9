"""Benchmark-side tracing: spans around each layer's public functions.

Nothing inside ``src/`` is traced.  :class:`Wrapping` rebinds every public
function (and public method of every public class) of the modules listed in
:data:`LAYER_PLAN` to a wrapper that records a span, in every ``repro.*``
namespace that imported it, and restores the originals afterwards.

A span is ``(key, start, end, parent, op)``: ``key`` names the layer metric
it feeds, ``parent`` is the enclosing span on the same thread, and ``op`` the
benchmark operation it belongs to (inherited from the parent when unset).
Spans stay in memory until the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, layer key, names to leave unwrapped).  Layer keys name the
#: per-layer metric a span's self time is added to.  Hot helpers that run
#: per node or per field are excluded: wrapping them would cost more than
#: the work they do and move their time into the wrong layer (checker-side
#: helpers belong to the decide sweep, which ``protocol.checker`` measures).
LAYER_PLAN: Tuple[Tuple[str, str, frozenset], ...] = (
    ("repro.graphs.generators", "generators", frozenset()),
    ("repro.graphs.planarity", "graphs", frozenset()),
    ("repro.graphs.spanning", "graphs", frozenset(
        {"RootedForest.depth", "RootedForest.children", "RootedForest.roots",
         "RootedForest.children_map", "RootedForest.edges"})),
    ("repro.graphs.outerplanar", "graphs", frozenset({"properly_nested"})),
    ("repro.graphs.embedding", "graphs", frozenset(
        {"RotationSystem.rotation", "RotationSystem.degree", "RotationSystem.rho",
         "RotationSystem.next_face_half_edge", "RotationSystem.add_cw",
         "RotationSystem.add_ccw", "RotationSystem.add_first_edge",
         "RotationSystem.add_half_edge_first"})),
    ("repro.graphs.biconnectivity", "graphs", frozenset(
        {"component_nodes", "BlockCutTree.block_of_edge"})),
    ("repro.graphs.series_parallel", "graphs", frozenset(
        {"Ear.endpoints", "Ear.interior", "Ear.edges"})),
    ("repro.graphs.treewidth2", "graphs", frozenset()),
    ("repro.graphs.coloring", "graphs", frozenset()),
    ("repro.protocols.euler_reduction", "graphs", frozenset(
        {"ordered_children", "branch_index", "rotation_order_consistent",
         "EulerReduction.hosts_of_copy"})),
    ("repro.protocols.planarity", "protocols", frozenset()),
    ("repro.protocols.outerplanarity", "protocols", frozenset()),
    ("repro.protocols.path_outerplanarity", "protocols", frozenset(
        {"check_path_outerplanarity_node", "PathOuterplanarityParams.name_width",
         "PathOuterplanarityParams.lr_coin2"})),
    ("repro.protocols.planar_embedding", "protocols", frozenset()),
    ("repro.protocols.series_parallel", "protocols", frozenset()),
    ("repro.protocols.treewidth2", "protocols", frozenset()),
    ("repro.protocols.lr_sorting", "protocols", frozenset(
        {"lr_check_node", "LRNodeSlice.from_view", "LRNodeSlice.own",
         "LRNodeSlice.neighbor", "LRNodeSlice.edge", "LRParams.block_of_position",
         "LRParams.block_index", "LRParams.pair_encode"})),
    ("repro.protocols.spanning_tree", "protocols", frozenset()),
    ("repro.protocols.composition", "protocols", frozenset(
        {"SubRun.mapped_bits_per_round"})),
    ("repro.primitives.spanning_tree_verification", "primitives.spanning_tree_verification",
     frozenset({"check_node", "check_node_fields", "stv_label_fields", "split_coins"})),
    ("repro.primitives.forest_encoding", "primitives.forest_encoding", frozenset(
        {"forest_label_fields", "decode_forest_fields", "decode_forest_view"})),
    ("repro.primitives.multiset_equality", "primitives.multiset_equality",
     frozenset({"check_subtree_eval"})),
    ("repro.primitives.edge_labels", "primitives.edge_labels",
     frozenset({"EdgeLabelSimulation.unfold_for_node"})),
    ("repro.adversaries.mutation", "adversaries.mutate", frozenset(
        {"MutationRecord.path_str", "MutatingProver.mutation"})),
    ("repro.dynamic.updates", "dynamic.driver", frozenset(
        {"EdgeInsert.as_tuple", "EdgeDelete.as_tuple", "EdgeInsert.inverse",
         "EdgeDelete.inverse", "update_from_tuple", "EdgeInsert.apply",
         "EdgeDelete.apply", "generate_stream"})),
)

#: single sites outside the whole-module plan: (module, qualified name, key)
EXTRA_SITES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.labels", "Label.pack", "labels.pack"),
    ("repro.core.labels", "PackedLabel.pack", "labels.pack"),
    ("repro.core.protocol", "Interaction.verifier_round", "protocol.coins"),
    ("repro.core.protocol", "Interaction.prover_round", "protocol.record"),
    ("repro.core.protocol", "Interaction.decide", "protocol.checker"),
    ("repro.core.views", "build_views", "views.build"),
    ("repro.core.columnar", "run_kernel", "columnar.kernel"),
    ("repro.runtime.runner", "BatchRunner.run", "runtime.overhead"),
    ("repro.runtime.runner", "execute_one_run", "runtime.overhead"),
    ("repro.analysis.experiments", "run_batch", "runtime.overhead"),
    ("repro.runtime.runner", "BatchReport.canonical_dict", "runtime.report"),
    ("repro.runtime.runner", "BatchReport.canonical_json", "runtime.report"),
    ("repro.runtime.runner", "BatchReport.summary", "runtime.report"),
    ("repro.dynamic.driver", "run_campaign", "dynamic.driver"),
    ("repro.dynamic.driver", "initial_graph", "dynamic.driver"),
    ("repro.dynamic.driver", "campaign_stream", "dynamic.stream"),
    ("repro.dynamic.updates", "generate_stream", "dynamic.stream"),
    ("repro.dynamic.driver", "node_signatures", "dynamic.signatures"),
    ("repro.dynamic.driver", "diff_signatures", "dynamic.diff"),
    ("repro.dynamic.driver", "ChurnReport.canonical_json", "runtime.report"),
    ("repro.service.wire", "encode_message", "wire.codec"),
    ("repro.service.wire", "decode_message", "wire.codec"),
    ("repro.service.wire", "validate_request", "server.loop"),
    ("repro.service.queue", "FairQueue.offer", "queue"),
    ("repro.service.queue", "FairQueue.next", "queue"),
    ("repro.service.server", "ProofServer._handle_request", "server.loop"),
    ("repro.service.server", "ProofServer._finish", "server.loop"),
    ("repro.service.server", "ProofServer._execute", "server.lane"),
)


class Span:
    __slots__ = ("key", "start", "end", "parent", "op")

    def __init__(self, key, start, parent, op):
        self.key = key
        self.start = start
        self.end = 0.0
        self.parent = parent
        self.op = op


class Recorder:
    """In-memory span and event store, one span stack per thread."""

    def __init__(self):
        self.spans: List[Span] = []
        #: (key, value, enclosing span or None, thread op) counter events
        self.events: List[tuple] = []
        self.calls: Dict[str, int] = {}
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_op(self, op) -> None:
        """Attribute this thread's work, and its open spans, to ``op``."""
        self._local.op = op
        self.tag_open(op)

    def tag_open(self, op) -> None:
        """Attribute this thread's open spans (only) to ``op``."""
        for span in self._stack():
            if span.op is None:
                span.op = op

    def thread_op(self):
        return getattr(self._local, "op", None)

    def count(self, key: str, value: float) -> None:
        stack = self._stack()
        self.events.append((key, value, stack[-1] if stack else None, self.thread_op()))

    def wrap(self, fn: Callable, key: str, name: str,
             op_of: Optional[Callable] = None, after: Optional[Callable] = None):
        rec = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec._stack()
            parent = stack[-1] if stack else None
            op = op_of(args) if op_of is not None else None
            if op is None:
                op = parent.op if parent is not None else rec.thread_op()
            span = Span(key, perf(), parent, op)
            rec.spans.append(span)
            rec.calls[name] = rec.calls.get(name, 0) + 1
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf()
                stack.pop()
            if after is not None:
                after(rec, args, result)
            return result

        return wrapper

    def record(self, key: str, fn: Callable):
        """Run ``fn()`` inside a span of its own (no wrapping involved)."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(key, time.perf_counter(), parent,
                    parent.op if parent is not None else self.thread_op())
        self.spans.append(span)
        try:
            return fn()
        finally:
            span.end = time.perf_counter()


def resolve_op(span: Optional[Span]):
    """The op a span belongs to: its own, else its nearest ancestor's."""
    while span is not None:
        if span.op is not None:
            return span.op
        span = span.parent
    return None


def self_times(rec: Recorder) -> Dict[Any, Dict[str, float]]:
    """Per op, per layer key: summed self time in seconds."""
    child = {}
    for s in rec.spans:
        if s.parent is not None:
            child[id(s.parent)] = child.get(id(s.parent), 0.0) + (s.end - s.start)
    out: Dict[Any, Dict[str, float]] = {}
    for s in rec.spans:
        op = resolve_op(s)
        per = out.setdefault(op, {})
        per[s.key] = per.get(s.key, 0.0) + (s.end - s.start) - child.get(id(s), 0.0)
    return out


def event_totals(rec: Recorder) -> Dict[Any, Dict[str, float]]:
    """Per op, per event key: summed event values."""
    out: Dict[Any, Dict[str, float]] = {}
    for key, value, span, thread_op in rec.events:
        op = resolve_op(span) if span is not None else thread_op
        per = out.setdefault(op, {})
        per[key] = per.get(key, 0.0) + value
    return out


def _repro_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))]


class Wrapping:
    """Every planned site, resolved once; :meth:`install` / :meth:`restore`
    swap wrappers in and out by plain attribute assignment."""

    def __init__(self, rec: Recorder, hooks: Optional[Dict[str, dict]] = None):
        hooks = hooks or {}
        self.sites: List[Tuple[Any, str, Any, Any]] = []
        wanted: List[Tuple[Any, str, str, str]] = []  # (owner, attr, key, name)
        for mod_name, key, skip in LAYER_PLAN:
            module = importlib.import_module(mod_name)
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod_name:
                    continue
                if inspect.isfunction(obj) and attr not in skip:
                    wanted.append((module, attr, key, f"{mod_name}.{attr}"))
                elif inspect.isclass(obj):
                    for meth, raw in vars(obj).items():
                        qual = f"{attr}.{meth}"
                        if meth.startswith("_") or qual in skip:
                            continue
                        if inspect.isfunction(raw) or isinstance(raw, (staticmethod, classmethod)):
                            wanted.append((obj, meth, key, f"{mod_name}.{qual}"))
        for mod_name, qual, key in EXTRA_SITES:
            module = importlib.import_module(mod_name)
            owner, _, attr = qual.rpartition(".")
            target = getattr(module, owner) if owner else module
            wanted.append((target, attr, key, f"{mod_name}.{qual}"))

        # reverse index: module-level function -> every (module, name) bound to it
        bound: Dict[int, List[Tuple[Any, str]]] = {}
        for module in _repro_modules():
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj):
                    bound.setdefault(id(obj), []).append((module, attr))
        for owner, attr, key, name in wanted:
            raw = vars(owner)[attr]
            hook = hooks.get(name, {})
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(rec.wrap(raw.__func__, key, name, **hook))
            else:
                wrapped = rec.wrap(raw, key, name, **hook)
            if inspect.isclass(owner):
                self.sites.append((owner, attr, raw, wrapped))
            else:
                for module, alias in bound.get(id(raw), [(owner, attr)]):
                    self.sites.append((module, alias, raw, wrapped))

    def install(self) -> None:
        for owner, attr, _, wrapped in self.sites:
            setattr(owner, attr, wrapped)

    def restore(self) -> None:
        for owner, attr, raw, _ in self.sites:
            setattr(owner, attr, raw)

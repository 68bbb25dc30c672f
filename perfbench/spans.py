"""Outside-in tracing: spans around the simulator's layer boundaries.

Nothing inside ``src/`` is instrumented. While ``Tracer.installed()`` is
active, the tracer replaces, at class or module level:

* ``Engine.on``, so that every event handler registered during the run is
  wrapped in a span named after its event kind;
* ``Engine.schedule`` and ``Engine.run_until``;
* the names ``simulation.py`` calls into: ``step_waypoint``,
  ``predict_position``, ``postrouting_hook``, ``plain_forward``,
  ``Medium.enqueue``, each protocol's ``emit`` and ``receive``, plus
  ``Simulation.__init__``, ``Simulation.run`` and the medium's delivery
  callback ``Simulation._on_frame_delivered``.

Every span is kept in memory as (name, start, end, parent) in flat arrays and
written out by ``write_spans`` once the run is over. Self time, a span's
duration minus the durations of its direct children, is accumulated as spans
close, so the self times of all spans add up exactly to the root spans.
"""

from __future__ import annotations

import contextlib
import json
import time
from array import array
from pathlib import Path

from manetsim import routing, simulation
from manetsim.balancer import DropReason
from manetsim.channel import Medium
from manetsim.engine import Engine, EventKind

ROOT_SPAN = "workload"

# Span name -> the per-layer self-time metric it is charged to. Every span the
# tracer can open appears here exactly once, so the metrics partition the
# traced wall time.
SELF_TIME_METRIC = {
    ROOT_SPAN: "experiment.batch_overhead_s",
    "experiment.batch": "experiment.batch_overhead_s",
    "experiment.csv": "experiment.csv_s",
    "simulation.construct": "simulation.construct_s",
    "simulation.run": "simulation.collect_s",
    "engine.run_until": "engine.loop_self_s",
    "engine.schedule": "engine.schedule_s",
    "event.mobility-tick": "mobility.tick_s",
    "mobility.step": "mobility.step_s",
    "mobility.predict": "mobility.predict_s",
    "event.control-emit": "simulation.emit_self_s",
    "routing.emit": "routing.emit_s",
    "routing.receive": "routing.receive_s",
    "event.stream-send": "traffic.send_self_s",
    "balancer.hook": "balancer.hook_s",
    "balancer.plain": "balancer.plain_s",
    "channel.enqueue": "channel.enqueue_s",
    "event.tx-attempt": "channel.attempt_s",
    "event.packet-arrival": "channel.arrival_self_s",
    "simulation.deliver": "simulation.deliver_self_s",
}

EVENT_KINDS = tuple(kind.value for kind in EventKind if kind is not EventKind.CALLBACK)

# Every per-layer metric a traced run reports, grouped by layer; the order
# of BENCHMARK.json's per_layer list.
LAYER_METRICS = (
    "engine.events", *(f"engine.events.{kind}" for kind in EVENT_KINDS),
    "engine.schedule_calls", "engine.schedule_s", "engine.loop_self_s", "engine.ns_per_event",
    "mobility.tick_s", "mobility.step_calls", "mobility.step_s",
    "mobility.predict_calls", "mobility.predict_s",
    "channel.attempts", "channel.attempt_s", "channel.tx", "channel.tx_per_attempt",
    "channel.arrival_self_s", "channel.enqueue_calls", "channel.enqueue_s",
    "channel.deliveries", "channel.deliveries_per_tx",
    "routing.receive_calls", "routing.receive_s", "routing.rebroadcast_share",
    "routing.emit_calls", "routing.emit_s",
    "balancer.hook_calls", "balancer.hook_s", "balancer.plain_calls", "balancer.plain_s",
    "balancer.no_route_share", "balancer.mean_set_size", "balancer.fallback_share",
    "traffic.sent", "traffic.received", "traffic.pdr", "traffic.send_self_s",
    "simulation.deliver_self_s", "simulation.emit_self_s",
    "simulation.construct_s", "simulation.collect_s",
    "experiment.batch_overhead_s", "experiment.csv_s",
    "cli.import_s", "config.parse_s",
    "trace.wall_s", "trace.overhead",
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # One row per span, in the order spans open.
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._open: list[int] = []  # indices of the spans currently open
        self._child_ns: list[int] = []  # per open span: time covered by children
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}  # outcomes observed at span exits

    def _name_id(self, name: str) -> int:
        if name not in SELF_TIME_METRIC:
            raise KeyError(f"span {name!r} has no self-time metric")
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_ns[name] = 0
            self.calls[name] = 0
        return self._ids[name]

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn, observe=None):
        """``fn`` inside a span; ``observe(result)`` runs after the span closes."""
        nid = self._name_id(name)
        clock = time.perf_counter_ns
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        open_spans, child_ns = self._open, self._child_ns
        self_ns, calls = self.self_ns, self.calls

        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            span_parent.append(open_spans[-1] if open_spans else -1)
            span_start.append(0)
            span_end.append(0)
            open_spans.append(idx)
            child_ns.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                span_start[idx] = start
                span_end[idx] = end
                open_spans.pop()
                duration = end - start
                self_ns[name] += duration - child_ns.pop()
                calls[name] += 1
                if child_ns:
                    child_ns[-1] += duration
            if observe is not None:
                observe(result)
            return result

        return traced

    def root(self, fn):
        """Run ``fn`` as one root span; returns its result."""
        return self.wrap(ROOT_SPAN, fn)()

    @contextlib.contextmanager
    def installed(self):
        patches: list[tuple[object, str, object]] = []

        def patch(owner, attr: str, name: str, observe=None) -> None:
            original = getattr(owner, attr)
            patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, observe))

        original_on = Engine.on

        def on(engine, kind, handler):
            original_on(engine, kind, self.wrap(f"event.{kind.value}", handler))

        patches.append((Engine, "on", original_on))
        Engine.on = on
        patch(Engine, "schedule", "engine.schedule")
        patch(Engine, "run_until", "engine.run_until")
        patch(simulation.Simulation, "__init__", "simulation.construct")
        patch(simulation.Simulation, "run", "simulation.run", self._observe_run)
        patch(simulation.Simulation, "_on_frame_delivered", "simulation.deliver")
        patch(simulation, "step_waypoint", "mobility.step")
        patch(simulation, "predict_position", "mobility.predict")
        patch(simulation, "postrouting_hook", "balancer.hook", self._observe_hook)
        patch(simulation, "plain_forward", "balancer.plain", self._observe_plain)
        patch(Medium, "enqueue", "channel.enqueue")
        for protocol in (routing.BatmanProtocol, routing.GeoOlsrProtocol,
                         routing.BatmobileProtocol):
            patch(protocol, "emit", "routing.emit")
            patch(protocol, "receive", "routing.receive", self._observe_receive)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    # -- outcomes observed at span exits ------------------------------------

    def _observe_run(self, result) -> None:
        self.count("events_processed", result.events_processed)
        self.count("tx", result.control_tx + result.data_tx)
        self.count("sent", result.sent)
        self.count("received", result.received)

    def _observe_hook(self, result) -> None:
        decision, sset = result
        if decision is DropReason.NO_ROUTE:
            self.count("no_route")
        if sset is not None:
            self.count("hook_sets")
            self.count("hook_set_members", len(sset.members))
            self.count("hook_fallbacks", int(sset.fallback))

    def _observe_plain(self, result) -> None:
        if result[0] is DropReason.NO_ROUTE:
            self.count("no_route")

    def _observe_receive(self, result) -> None:
        if result is not None:
            self.count("rebroadcasts")

    # -- results ----------------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Self time summed per self-time metric, in seconds."""
        totals = dict.fromkeys(SELF_TIME_METRIC.values(), 0)
        for name, ns in self.self_ns.items():
            totals[SELF_TIME_METRIC[name]] += ns
        return {metric: ns / 1e9 for metric, ns in totals.items()}

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics from this tracer's spans: name -> (value, unit)."""
        calls = lambda name: self.calls.get(name, 0)
        counts = lambda key: self.counts.get(key, 0)
        share = lambda part, whole: part / whole if whole else 0.0
        seconds = self.self_seconds()
        events = sum(calls(f"event.{kind}") for kind in EVENT_KINDS)
        attempts = calls("event.tx-attempt")
        forwards = calls("balancer.hook") + calls("balancer.plain")
        metrics: dict[str, tuple[float, str]] = {"engine.events": (events, "count")}
        for kind in EVENT_KINDS:
            metrics[f"engine.events.{kind}"] = (calls(f"event.{kind}"), "count")
        metrics.update({
            "engine.schedule_calls": (calls("engine.schedule"), "count"),
            "engine.ns_per_event": (share(seconds["engine.loop_self_s"] * 1e9, events), "ns"),
            "mobility.step_calls": (calls("mobility.step"), "count"),
            "mobility.predict_calls": (calls("mobility.predict"), "count"),
            "channel.attempts": (attempts, "count"),
            "channel.tx": (counts("tx"), "count"),
            "channel.tx_per_attempt": (share(counts("tx"), attempts), "ratio"),
            "channel.enqueue_calls": (calls("channel.enqueue"), "count"),
            "channel.deliveries": (calls("simulation.deliver"), "count"),
            "channel.deliveries_per_tx": (share(calls("simulation.deliver"), counts("tx")), "ratio"),
            "routing.receive_calls": (calls("routing.receive"), "count"),
            "routing.rebroadcast_share": (share(counts("rebroadcasts"), calls("routing.receive")), "ratio"),
            "routing.emit_calls": (calls("routing.emit"), "count"),
            "balancer.hook_calls": (calls("balancer.hook"), "count"),
            "balancer.plain_calls": (calls("balancer.plain"), "count"),
            "balancer.no_route_share": (share(counts("no_route"), forwards), "ratio"),
            "balancer.mean_set_size": (share(counts("hook_set_members"), counts("hook_sets")), "nodes"),
            "balancer.fallback_share": (share(counts("hook_fallbacks"), counts("hook_sets")), "ratio"),
            "traffic.sent": (counts("sent"), "count"),
            "traffic.received": (counts("received"), "count"),
            "traffic.pdr": (share(counts("received"), counts("sent")), "ratio"),
        })
        for metric, value in seconds.items():
            metrics[metric] = (value, "s")
        return metrics

    def write_spans(self, path: Path) -> None:
        """Spans as four native-endian columns after a one-line JSON header."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.span_name),
            "columns": [["name", "H"], ["parent", "q"], ["start_ns", "q"], ["end_ns", "q"]],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.span_name, self.span_parent, self.span_start, self.span_end):
                column.tofile(fh)


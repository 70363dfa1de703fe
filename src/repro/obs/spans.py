"""Sampled per-packet span tracing: the causal record behind forensics.

Counters say *how many* detours and drops happened; they cannot say what
any one packet went through.  A **span** is the hop-by-hop biography of a
single sampled DATA packet: for every node it visits, when it arrived,
which egress port it was queued on, how long it waited there, how long it
serialized, whether DIBS detoured it (and why, and out of which port),
its remaining TTL, and how it ended (delivered, dropped with a reason, or
still in flight when the run stopped).  Spans are what ``repro explain``
and the FCT attribution pass (:mod:`repro.obs.forensics`) consume.

Determinism contract
--------------------
The sampling decision is a pure function of ``(seed, flow_id, seq)``
through :func:`repro.sim.rng.stable_hash` — a dedicated counter-based
stream that draws nothing from any shared RNG and keeps no state.  The
same packet is therefore sampled (or not) regardless of event interleaving,
scheduler engine, worker count, or ``--resume`` replays: span sets are
bit-identical across all of them.  Because a retransmission reuses the
original segment's ``(flow, seq)`` key, every transmission of a sampled
segment is sampled too — which is exactly what the retransmit/RTO
attribution needs (the recovery latency of a segment is the delivering
transmission's send time minus the first transmission's).

Span instrumentation never schedules simulator events and never touches a
shared RNG, so simulation metrics are bit-identical with spans on or off.
The off-mode cost is a ``pkt.span is not None`` slot check on the paths a
packet takes (same cost class as the pre-existing ``pkt.path`` checks);
the obs-overhead bench gates it.

Hop record fields (all per-hop, keys present once known):

=============  ========================================================
``node``       node name (sending host, then each switch)
``t_in``       arrival time at the node (send time on the first hop)
``ttl``        remaining TTL at arrival (switch hops only)
``port``       egress port index chosen at this node
``t_q``        time the packet was enqueued on the egress port
``t_tx``       time serialization started (``q_s = t_tx - t_q``)
``q_s``        queueing delay on the egress port
``tx_s``       serialization time
``prop_s``     nominal propagation delay of the egress link
``detour``     ``True`` when DIBS detoured the packet at this node
``desired``    the full desired port's index (detoured hops only)
``cause``      detour trigger: ``queue_full`` or ``policy``
``ecn``        ``True`` when the egress queue CE-marked the packet here
=============  ========================================================

Finished spans become ``span`` records on the versioned JSONL trace
channel (:mod:`repro.obs.trace`) and, when attached, the flight-recorder
ring (:mod:`repro.obs.forensics`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.net.packet import DATA
from repro.sim.rng import stable_hash, stable_hash_from, stable_hash_state

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host
    from repro.net.network import Network
    from repro.net.packet import Packet

__all__ = [
    "DEFAULT_SPAN_RATE",
    "SPAN_STREAM",
    "PacketSpan",
    "SpanRecorder",
    "span_sampled",
]

# The --spans CLI default: ~1.6% of (flow, seq) keys.  Dense enough that
# every incast flow of a scaled run lands a few sampled segments, sparse
# enough that span volume stays a sliver of the event count.
DEFAULT_SPAN_RATE = 1.0 / 64.0

# Salt naming the dedicated hash stream; sampling shares nothing with any
# other consumer of stable_hash.
SPAN_STREAM = "obs.spans"

# stable_hash values are uniform on [0, 2**31); a rate maps to a threshold
# in the same space.
_HASH_SPACE = 1 << 31


def span_sampled(seed: int, flow_id: int, seq: int, rate: float) -> bool:
    """The pure sampling decision: is ``(flow_id, seq)`` sampled at
    ``rate`` under ``seed``?  Stateless, draw-order independent, and
    process independent — the determinism contract in one function."""
    if rate <= 0.0:
        return False
    return stable_hash(seed, SPAN_STREAM, flow_id, seq) < int(rate * _HASH_SPACE)


class PacketSpan:
    """The in-flight biography of one sampled packet transmission.

    Attached to ``Packet.span``; the net-layer hot paths append/annotate
    ``hops`` in place and call ``rec.finish`` exactly once at the end
    (idempotent via ``done`` — a drop can be observed by both the port
    and the switch that called it)."""

    __slots__ = ("rec", "idx", "flow", "seq", "size", "rtx", "t_send", "hops", "done")

    def __init__(
        self,
        rec: "SpanRecorder",
        idx: int,
        flow: int,
        seq: int,
        size: int,
        rtx: bool,
        t_send: float,
    ) -> None:
        self.rec = rec
        self.idx = idx
        self.flow = flow
        self.seq = seq
        self.size = size
        self.rtx = rtx
        self.t_send = t_send
        self.hops: list[dict] = []
        self.done = False


class SpanRecorder:
    """Samples DATA packets at the hosts and collects their finished spans.

    Attach once per run (before ``network.run``).  Finished spans are kept
    in ``records`` (emission order — deterministic), written through the
    ``tracer`` (a :class:`repro.obs.trace.TraceWriter`) when one is given,
    and appended to the ``flight`` ring (a
    :class:`repro.obs.forensics.FlightRecorder`) when one is attached.
    """

    def __init__(
        self,
        network: "Network",
        sample_rate: float,
        seed: int = 0,
        tracer=None,
        flight=None,
    ) -> None:
        if not 0.0 < sample_rate <= 1.0:
            raise ValueError("span sample rate must be in (0, 1]")
        self.network = network
        self.sample_rate = sample_rate
        self.seed = seed
        self.tracer = tracer
        self.flight = flight
        self.records: list[dict] = []
        # Cumulative counters, exported under the "spans" scope.  Names are
        # spans_-prefixed so none collides with the unprefixed counter names
        # CounterSnapshot.drop_report() sums across every scope.
        self.sampled = 0
        self.delivered = 0
        self.dropped = 0
        self.unfinished = 0
        self._threshold = int(sample_rate * _HASH_SPACE)
        # on_send hashes (seed, SPAN_STREAM, flow, seq) per originated
        # packet; the constant prefix is folded once here, and the
        # (seed, SPAN_STREAM, flow) prefix once per flow.
        self._hash_state = stable_hash_state(seed, SPAN_STREAM)
        self._flow_states: dict[int, int] = {}
        self._live: dict[int, PacketSpan] = {}
        self._next_idx = 0
        self._attached = False

    # ------------------------------------------------------------------
    def attach(self) -> "SpanRecorder":
        """Hook every host's send path and register the counter scope."""
        if self._attached:
            raise RuntimeError("span recorder already attached")
        self._attached = True
        for host in self.network.hosts:
            host.span_recorder = self
        self.network.counter_registry.register("spans", self.counters_dict)
        return self

    def close(self) -> None:
        """Flush still-live spans (status ``unfinished``, creation order —
        deterministic) and detach from the hosts.  Call after the run,
        before the trace writer closes."""
        if not self._attached:
            return
        now = self.network.scheduler.now
        for idx in sorted(self._live):
            span = self._live[idx]
            span.done = True
            self.unfinished += 1
            self._emit(span, "unfinished", now, None)
        self._live.clear()
        for host in self.network.hosts:
            if host.span_recorder is self:
                host.span_recorder = None
        self._attached = False

    # ------------------------------------------------------------------
    # net-layer entry points
    # ------------------------------------------------------------------
    def on_send(self, host: "Host", pkt: "Packet") -> None:
        """Called by ``Host.send`` for every originated packet; samples
        DATA transmissions by the pure (seed, flow, seq) hash."""
        if pkt.kind != DATA or pkt.span is not None:
            return
        flow_state = self._flow_states.get(pkt.flow_id)
        if flow_state is None:
            flow_state = self._flow_states[pkt.flow_id] = stable_hash_state(
                pkt.flow_id, state=self._hash_state
            )
        if stable_hash_from(flow_state, pkt.seq) >= self._threshold:
            return
        idx = self._next_idx
        self._next_idx = idx + 1
        t_send = host.scheduler.now
        span = PacketSpan(
            self, idx, pkt.flow_id, pkt.seq, pkt.size, pkt.is_retransmit, t_send
        )
        span.hops.append({"node": host.name, "t_in": t_send})
        pkt.span = span
        self._live[idx] = span
        self.sampled += 1

    def finish(self, span: PacketSpan, status: str, t_end: float,
               where: Optional[str] = None) -> None:
        """Finalize a span (idempotent: a drop may be seen first by the
        port, then by the switch that called ``send``)."""
        if span.done:
            return
        span.done = True
        self._live.pop(span.idx, None)
        if status == "delivered":
            self.delivered += 1
        else:
            self.dropped += 1
        self._emit(span, status, t_end, where)

    # ------------------------------------------------------------------
    def _emit(self, span: PacketSpan, status: str, t_end: float,
              where: Optional[str]) -> None:
        from repro.obs.trace import TRACE_SCHEMA_VERSION

        record = {
            "v": TRACE_SCHEMA_VERSION,
            "type": "span",
            "t": t_end,
            "seed": self.seed,
            "flow": span.flow,
            "seq": span.seq,
            "size": span.size,
            "rtx": int(span.rtx),
            "t_send": span.t_send,
            "status": status,
            "hops": span.hops,
        }
        if where is not None:
            record["end"] = where
        self.records.append(record)
        if self.tracer is not None:
            self.tracer.write_record(record)
        if self.flight is not None:
            self.flight.record(record)

    # ------------------------------------------------------------------
    def counters_dict(self) -> dict[str, int]:
        return {
            "spans_sampled": self.sampled,
            "spans_delivered": self.delivered,
            "spans_dropped": self.dropped,
            "spans_unfinished": self.unfinished,
            "spans_live": len(self._live),
        }

"""Transitions of the per-hop path's precomputed state, and its accounting.

The forwarding pipeline decides rarely-changing questions — may this port
bypass its queue, may it transmit, which ports does a destination route
to, which ports may take a detour — once, in the operation that changes
the answer, instead of per packet (docs/INTERNALS.md, "Per-hop budget").
Each test here drives one such transition on a live port or switch, under
both engines, and checks what a user can observe: arrival times,
counters, forwarding choices, raised errors.  The accounting tests check
that elided tx-dones, which cost the hot path nothing, still reach
``events_processed``, the profile and ``busy_seconds`` exactly.
"""

import subprocess
import sys

import pytest

from repro.core.config import DibsConfig
from repro.net.host import Host
from repro.net.link import Port, connect
from repro.net.network import Network
from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.pfc import enable_pfc
from repro.net.queues import DropTailQueue
from repro.net.switch import Switch
from repro.obs.profiler import SchedulerProfiler
from repro.sim.engine import Scheduler, SimulationError
from repro.sim.engine_heap import HeapScheduler
from repro.topo import fat_tree

ENGINES = {"calendar": Scheduler, "heap": HeapScheduler}


@pytest.fixture(params=sorted(ENGINES))
def make_sched(request):
    return ENGINES[request.param]


class Sink(Node):
    """Records (time, packet) for every arrival."""

    def __init__(self, node_id, name, scheduler):
        super().__init__(node_id, name, scheduler)
        self.arrivals = []

    def receive(self, pkt, in_port):
        self.arrivals.append((self.scheduler.now, pkt))


def make_pair(make_sched, delay_s=10e-6, capacity=100):
    sched = make_sched()
    a, b = Sink(0, "a", sched), Sink(1, "b", sched)
    pa = Port(a, DropTailQueue(capacity), 1e9, delay_s)
    pb = Port(b, DropTailQueue(capacity), 1e9, delay_s)
    connect(pa, pb)
    return sched, b, pa


def pkt(size=1500, flow=1, dst=1):
    return Packet(flow_id=flow, src=0, dst=dst, payload=size - 40)


def times(sink):
    return [round(t, 12) for t, _p in sink.arrivals]


# ----------------------------------------------------------------------
# Port: fast-path flags
# ----------------------------------------------------------------------
class TestObserverAttachedAfterBuild:
    def test_observer_sees_every_enqueue_and_dequeue(self, make_sched):
        sched, b, pa = make_pair(make_sched)
        assert pa._bypass
        seen = []
        pa.on_queue_change = lambda port: seen.append(len(port.queue))
        assert not pa._bypass and pa._inline_q
        for _ in range(3):
            pa.send(pkt())
        sched.schedule_at(100e-6, pa.send, pkt())  # idle port, empty queue
        sched.run()
        # Every packet, the idle-port one included, goes through the
        # queue: one enqueue and one dequeue notification each.
        assert len(seen) == 2 * 4 == 2 * pa.queue.enqueues
        assert seen[-2:] == [1, 0]
        assert len(b.arrivals) == 4
        pa.on_queue_change = None
        assert pa._bypass

    def test_pfc_enabled_after_build_observes_every_queue_change(self, make_sched):
        net = Network(fat_tree(k=4), scheduler=make_sched())
        enable_pfc(net)
        calls = {}
        for sw in net.switches:
            for port in sw.ports:
                assert not port._bypass
                pfc_observer = port.on_queue_change

                def counting(p, pfc_observer=pfc_observer):
                    calls[p] = calls.get(p, 0) + 1
                    pfc_observer(p)

                port.on_queue_change = counting
        flows = [net.start_flow(f"host_{i}", "host_15", 30_000) for i in range(6)]
        net.run(until=0.05)
        assert all(flow.completed for flow in flows)
        ports = [port for sw in net.switches for port in sw.ports]
        assert sum(calls.values()) > 0
        for port in ports:
            assert calls.get(port, 0) == port.queue.enqueues + port.pkts_sent


class TestElideToggle:
    @staticmethod
    def _traffic(make_sched, toggle_at, value, sends=(0.0, 1e-6, 50e-6, 120e-6, 121e-6, 300e-6)):
        # value=True at toggle_at is the untoggled baseline: the same
        # events, including the assignment itself.
        sched, b, pa = make_pair(make_sched)
        sched.schedule_at(toggle_at, setattr, pa, "elide_tx", value)
        for t in sends:
            sched.schedule_at(t, pa.send, pkt())
        sched.run()
        assert not pa.busy
        return (times(b), pa.pkts_sent, pa.bytes_sent, pa.queue.enqueues,
                sched.events_processed)

    def test_toggling_mid_run_changes_nothing_observable(self, make_sched):
        base = self._traffic(make_sched, 60e-6, True)
        assert self._traffic(make_sched, 60e-6, False) == base
        # Re-enabling after disabling at build time is equally invisible.
        sched, b, pa = make_pair(make_sched)
        pa.elide_tx = False
        assert not pa._bypass and not pa._inline_q
        pa.elide_tx = True
        assert pa._bypass and pa._inline_q

    def test_toggle_while_a_reservation_is_live(self, make_sched):
        # At 5 us the first packet's elided tx-done (12 us) is pending.
        sends = (0.0, 50e-6, 120e-6, 121e-6, 300e-6)
        base = self._traffic(make_sched, 5e-6, True, sends)
        assert self._traffic(make_sched, 5e-6, False, sends) == base


class TestPauseAndFlapMidSerialization:
    def test_pause_resume_mid_serialization(self, make_sched):
        sched, b, pa = make_pair(make_sched, delay_s=0.0)
        pa.send(pkt())  # serializes over [0, 12 us]
        sched.schedule_at(6e-6, pa.pause)
        sched.schedule_at(20e-6, pa.send, pkt())  # idle but paused: queues
        sched.schedule_at(40e-6, pa.resume)
        sched.run(until=30e-6)
        assert pa.paused and not pa._can_tx and not pa._bypass
        assert len(pa.queue) == 1
        sched.run()
        assert pa._can_tx and pa._bypass
        assert times(b) == [12e-6, 52e-6]

    def test_down_up_mid_serialization(self, make_sched):
        sched, b, pa = make_pair(make_sched, delay_s=0.0)
        pa.send(pkt())
        sched.run(until=6e-6)
        assert pa.set_down() == 1
        assert not pa._can_tx and not pa._bypass
        assert not pa.send(pkt())  # down: dropped, never bypassed
        assert pa.drops_link_down == 2 and len(pa.queue) == 0
        pa.set_up()
        assert pa._can_tx and pa._bypass
        # The cut packet's tx-done still frees the transmitter at 12 us;
        # from then on the port is idle and sends take the fast path.
        sched.schedule_at(15e-6, pa.send, pkt())
        sched.run()
        assert times(b) == [27e-6]
        assert not pa.busy


class TestCorruptionBudget:
    def test_armed_mid_flight_hits_packets_already_propagating(self, make_sched):
        sched, b, pa = make_pair(make_sched, delay_s=100e-6)
        for _ in range(3):
            pa.send(pkt())
        sched.run(until=50e-6)  # all three serialized, none delivered
        pa.corrupt_next = 2
        sched.run()
        assert pa.drops_corrupt == 2 and pa.corrupt_next == 0
        assert len(b.arrivals) == 1
        pa.send(pkt())  # budget spent: deliveries are clean again
        sched.run()
        assert len(b.arrivals) == 2

    def test_disarm(self, make_sched):
        sched, b, pa = make_pair(make_sched)
        pa.corrupt_next = 5
        pa.corrupt_next = 0
        pa.send(pkt())
        sched.run()
        assert pa.drops_corrupt == 0 and len(b.arrivals) == 1


class TestUnconnectedPort:
    def test_delivery_raises(self, make_sched):
        sched = make_sched()
        pa = Port(Sink(0, "a", sched), DropTailQueue(10), 1e9, 0.0)
        pa.send(pkt())
        with pytest.raises(SimulationError, match="not connected"):
            sched.run()

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_delivery_raises_under_python_O(self, engine):
        code = (
            "from repro.net.link import Port\n"
            "from repro.net.host import Host\n"
            "from repro.net.packet import Packet\n"
            "from repro.net.queues import DropTailQueue\n"
            "from repro.sim.engine import Scheduler, SimulationError\n"
            "from repro.sim.engine_heap import HeapScheduler\n"
            f"sched = {ENGINES[engine].__name__}()\n"
            "port = Port(Host(0, 'h', sched), DropTailQueue(10), 1e9, 0.0)\n"
            "port.send(Packet(flow_id=1, src=0, dst=1))\n"
            "try:\n"
            "    sched.run()\n"
            "except SimulationError as exc:\n"
            "    print('raised:', exc)\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "raised:" in proc.stdout and "not connected" in proc.stdout


class TestHostNic:
    def test_send_before_and_after_the_nic_is_attached(self, make_sched):
        sched = make_sched()
        host = Host(0, "h", sched)
        with pytest.raises(RuntimeError, match="no NIC"):
            host.send(pkt())
        sink = Sink(1, "s", sched)
        nic = Port(host, DropTailQueue(10), 1e9, 0.0)
        connect(nic, Port(sink, DropTailQueue(10), 1e9, 0.0))
        assert host.nic is nic
        assert host.send(pkt())
        sched.run()
        assert len(sink.arrivals) == 1


# ----------------------------------------------------------------------
# Switch: resolved routes, ECMP memo, detour ports
# ----------------------------------------------------------------------
def make_hub(make_sched, n_ports=3, capacity=1, dibs=None):
    """A switch whose ports lead to sinks (switch-facing: not hosts)."""
    sched = make_sched()
    hub = Switch(10, "hub", sched, dibs=dibs if dibs is not None else DibsConfig())
    sinks = []
    for i in range(n_ports):
        sink = Sink(i, f"s{i}", sched)
        connect(Port(hub, DropTailQueue(capacity), 1e9, 0.0),
                Port(sink, DropTailQueue(100), 1e9, 0.0))
        sinks.append(sink)
    return sched, hub, sinks


class TestDetourToggle:
    def test_set_detour_enabled_switches_between_detour_and_drop(self, make_sched):
        # No detours back to the ingress (port 2): port 1 is the only
        # candidate, so every pick is deterministic.
        sched, hub, sinks = make_hub(make_sched, dibs=DibsConfig(allow_detour_to_ingress=False))
        hub.install_fib({0: [0]})
        hub.receive(pkt(dst=0), in_port=2)  # transmitting
        hub.receive(pkt(dst=0), in_port=2)  # fills the 1-packet queue
        hub.receive(pkt(dst=0), in_port=2)
        assert hub.counters.detours == 1  # detoured to port 1
        hub.set_detour_enabled(False)
        assert not hub._plain_detour
        hub.receive(pkt(dst=0), in_port=2)
        assert hub.counters.detours == 1 and hub.counters.drops_overflow == 1
        hub.set_detour_enabled(True)
        assert hub._plain_detour
        hub.receive(pkt(dst=0), in_port=2)
        assert hub.counters.detours == 2
        sched.run()
        assert [len(s.arrivals) for s in sinks] == [2, 2, 0]


class TestFaultRefresh:
    def test_local_refresh_never_picks_a_down_port(self, make_sched):
        sched, hub, sinks = make_hub(make_sched, capacity=1000)
        hub.install_fib({0: [0, 1]})
        for flow in range(20):
            hub.receive(pkt(dst=0, flow=flow), in_port=2)
        assert hub._ecmp_cache
        used = {port.pkts_sent + len(port.queue) for port in hub.ports[:2]}
        assert 0 not in used  # both paths carry some flows
        hub.ports[0].set_down()
        hub.refresh_fault_state()
        assert not hub._ecmp_cache  # memo invalidated
        assert hub.fib[0] == [1]
        before = hub.ports[0].drops_link_down
        for flow in range(20):
            hub.receive(pkt(dst=0, flow=flow), in_port=2)
        assert hub.ports[0].drops_link_down == before  # never chosen
        hub.ports[1].set_down()
        hub.refresh_fault_state()
        hub.receive(pkt(dst=0), in_port=2)
        assert hub.counters.drops_no_route == 1 and hub.fib[0] == []
        hub.ports[0].set_up()
        hub.ports[1].set_up()
        hub.refresh_fault_state()
        assert hub.fib[0] == [0, 1] and not hub._ecmp_cache

    def test_reroute_after_link_failure(self, make_sched):
        net = Network(fat_tree(k=4), scheduler=make_sched())
        edge = net.switch("edge_0_0")
        dead = net.port_between("edge_0_0", "agg_0_0")
        flows = [net.start_flow("host_0", f"host_{i}", 20_000) for i in range(4, 16)]
        net.run(until=0.001)
        assert edge._ecmp_cache
        dead.set_down()
        net.port_between("agg_0_0", "edge_0_0").set_down()
        net.recompute_routes()
        assert not edge._ecmp_cache
        assert all(dead.index not in hops for hops in edge.fib.values())
        sent = dead.pkts_sent
        net.run(until=0.2)
        assert dead.pkts_sent == sent
        assert all(flow.completed for flow in flows)


class TestEcmpModeAndFabricPorts:
    def test_ecmp_mode_assignment_switches_to_spraying(self, make_sched):
        sched, hub, sinks = make_hub(make_sched, capacity=1000)
        hub.install_fib({0: [0, 1]})
        hub.ecmp_mode = "packet"
        for _ in range(4):
            hub.receive(pkt(dst=0, flow=7), in_port=2)
        assert [hub.ports[i].queue.enqueues for i in (0, 1)] == [2, 2]
        with pytest.raises(ValueError):
            hub.ecmp_mode = "bogus"

    def test_detour_candidates_follow_wiring(self, make_sched):
        sched, hub, sinks = make_hub(make_sched, n_ports=2)
        host_port = Port(hub, DropTailQueue(1), 1e9, 0.0)
        connect(host_port, Port(Host(5, "h", sched), DropTailQueue(1), 1e9, 0.0))
        loose = Port(hub, DropTailQueue(1), 1e9, 0.0)  # not wired yet
        desired = hub.ports[0]
        assert hub.detour_candidates(desired, in_port=-1) == [hub.ports[1]]
        connect(loose, Port(Sink(6, "late", sched), DropTailQueue(1), 1e9, 0.0))
        assert hub.detour_candidates(desired, in_port=-1) == [hub.ports[1], loose]
        loose.set_down()
        assert hub.detour_candidates(desired, in_port=-1) == [hub.ports[1]]


# ----------------------------------------------------------------------
# accounting: elided tx-dones in events, profiles and busy time
# ----------------------------------------------------------------------
def incast_network(make_sched, stride):
    net = Network(fat_tree(k=4), dibs=DibsConfig(), scheduler=make_sched(), seed=3)
    profiler = SchedulerProfiler(sample_stride=stride).install(net.scheduler)
    for i in range(1, 13):
        net.start_flow(f"host_{i}", "host_0", 15_000, transport="dibs")
    return net, profiler


class TestProfileAccounting:
    @pytest.mark.parametrize("stride", [1, 16])
    def test_categories_sum_to_events_processed(self, make_sched, stride):
        net, profiler = incast_network(make_sched, stride)
        net.run(until=0.002)
        profile = profiler.as_dict()
        events = net.scheduler.events_processed
        assert profile["total_events"] == events == profiler.total_events
        assert sum(c["events"] for c in profile["categories"].values()) == events
        assert net.scheduler._events_elided > 0
        assert profile["categories"]["link.tx"]["events"] > 0
        net.run(until=0.2)
        assert profiler.as_dict()["total_events"] == net.scheduler.events_processed

    @pytest.mark.parametrize("stride", [1, 16])
    def test_settle_sweep_after_the_loop_is_charged(self, make_sched, stride):
        net, profiler = incast_network(make_sched, stride)
        sched = net.scheduler
        sched.run(until=0.001)  # the bare loop: no settle sweep
        elided = sched._events_elided
        assert profiler.total_events == sched.events_processed
        net.run(until=0.001)  # nothing left to dispatch; the sweep settles
        assert sched._events_elided > elided
        assert profiler.total_events == sched.events_processed

    def test_busy_read_settles_and_is_charged(self, make_sched):
        sched, b, pa = make_pair(make_sched)
        profiler = SchedulerProfiler(sample_stride=1).install(sched)
        pa.send(pkt())
        sched.run(until=20e-6)  # tx-done at 12 us passed, delivery at 22 us not
        before = sched.events_processed
        assert profiler.total_events == before
        assert not pa.busy  # settles the elided tx-done
        assert sched.events_processed == before + 1
        assert profiler.as_dict()["categories"]["link.tx"]["events"] == 1
        assert profiler.total_events == before + 1

    def test_profiler_assigned_directly_is_bound_by_run(self, make_sched):
        sched, b, pa = make_pair(make_sched)
        profiler = SchedulerProfiler(sample_stride=1)
        sched.profiler = profiler
        for _ in range(3):
            pa.send(pkt())
        sched.run()
        assert not pa.busy
        assert profiler.total_events == sched.events_processed


class TestBusySeconds:
    def test_mid_serialization_set_down_matches_accumulated(self, make_sched):
        sched, b, pa = make_pair(make_sched, delay_s=50e-6)
        sizes = [1500, 40, 1500, 777, 1500]
        accumulated = 0.0
        for size in sizes:
            pa.send(pkt(size=size))
            accumulated += size * 8 / 1e9
        # Mid-way through the third packet (starts at 12.32 us, 12 us long).
        sched.run(until=18.1e-6)
        pa.set_down()
        accumulated -= sum(size * 8 / 1e9 for size in sizes[2:])  # never started or cut
        accumulated += 18.1e-6 - (1500 + 40) * 8 / 1e9  # the cut packet's wire time
        assert abs(pa.busy_seconds - accumulated) <= 1e-12

    def test_flap_storm_matches_accumulated(self, make_sched):
        sched, b, pa = make_pair(make_sched, delay_s=50e-6)
        accumulated = 0.0
        for i in range(5):
            started = sched.now
            pa.send(pkt())  # 12 us of serialization, cut at 1.5-7.5 us
            sched.run(until=started + 1.5e-6 * (i + 1))
            pa.set_down()
            accumulated += sched.now - started
            sched.run(until=started + 20e-6)  # the cut packet's tx-done
            pa.set_up()
        pa.send(pkt())
        accumulated += 12e-6
        sched.run()
        assert abs(pa.busy_seconds - accumulated) <= 1e-12

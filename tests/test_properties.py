"""Property-based tests (hypothesis) on core invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.stats import jain_index, percentile
from repro.net.packet import Packet
from repro.net.queues import DropTailQueue, PFabricQueue, SharedBufferPool
from repro.routing.fib import compute_fibs, shortest_path_lengths
from repro.sim.engine import Scheduler
from repro.sim.rng import stable_hash, stable_hash_from, stable_hash_state
from repro.topo import fat_tree, jellyfish, leaf_spine
from repro.workload.distributions import EmpiricalDistribution


def pkt(flow=1, seq=0, priority=None, payload=1460):
    return Packet(flow_id=flow, src=0, dst=1, seq=seq, payload=payload, priority=priority)


class TestSchedulerProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=200))
    def test_events_always_fire_in_nondecreasing_time(self, delays):
        sched = Scheduler()
        fired = []
        for d in delays:
            sched.schedule(d, lambda t=d: fired.append(sched.now))
        sched.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e3, allow_nan=False), min_size=1, max_size=100),
        st.data(),
    )
    def test_cancellation_removes_exactly_the_cancelled(self, delays, data):
        sched = Scheduler()
        fired = []
        events = [sched.schedule(d, fired.append, i) for i, d in enumerate(delays)]
        to_cancel = data.draw(st.sets(st.integers(0, len(delays) - 1)))
        for i in to_cancel:
            sched.cancel(events[i])
        sched.run()
        assert set(fired) == set(range(len(delays))) - to_cancel


class TestQueueProperties:
    @given(st.integers(min_value=1, max_value=50), st.integers(min_value=0, max_value=200))
    def test_droptail_never_exceeds_capacity(self, capacity, arrivals):
        q = DropTailQueue(capacity)
        accepted = sum(1 for i in range(arrivals) if q.enqueue(pkt(seq=i)))
        assert len(q) <= capacity
        assert accepted == min(arrivals, capacity)
        assert q.drops == arrivals - accepted

    @given(st.lists(st.integers(min_value=0, max_value=100), max_size=100))
    def test_droptail_fifo_order_preserved(self, seqs):
        q = DropTailQueue(1000)
        pkts = [pkt(seq=s) for s in seqs]
        for p in pkts:
            q.enqueue(p)
        out = []
        while True:
            p = q.dequeue()
            if p is None:
                break
            out.append(p)
        assert out == pkts

    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=1_000_000), st.integers(0, 3)),
            min_size=1,
            max_size=100,
        )
    )
    def test_pfabric_dequeue_is_always_current_minimum(self, arrivals):
        q = PFabricQueue(16)
        resident: list[int] = []
        for prio, _ in arrivals:
            before = len(q)
            accepted = q.enqueue(pkt(priority=prio))
            if accepted:
                if before == 16:  # eviction happened
                    resident.remove(max(resident))
                resident.append(prio)
        while resident:
            out = q.dequeue()
            assert out.priority == min(resident)
            resident.remove(out.priority)
        assert q.dequeue() is None

    @given(st.lists(st.integers(min_value=40, max_value=1500), min_size=1, max_size=200))
    def test_pfabric_byte_count_matches_contents(self, sizes):
        q = PFabricQueue(32)
        for i, s in enumerate(sizes):
            q.enqueue(pkt(seq=i, priority=i, payload=s - 40))
        total = 0
        while True:
            p = q.dequeue()
            if p is None:
                break
            total += p.size
        assert total == q.byte_count + total  # byte_count drained to 0
        assert q.byte_count == 0

    @given(
        st.integers(min_value=1_500, max_value=100_000),
        st.lists(st.integers(min_value=40, max_value=1500), max_size=100),
    )
    def test_shared_pool_never_oversubscribed(self, pool_bytes, sizes):
        from repro.net.queues import DynamicBufferQueue

        pool = SharedBufferPool(pool_bytes, alpha=1.0)
        queues = [DynamicBufferQueue(pool) for _ in range(4)]
        rng = random.Random(0)
        for i, s in enumerate(sizes):
            queues[rng.randrange(4)].enqueue(pkt(seq=i, payload=s - 40))
        assert pool.used_bytes <= pool.total_bytes
        assert pool.used_bytes == sum(q.byte_count for q in queues)


class TestStatsProperties:
    @given(st.lists(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False), min_size=1, max_size=300))
    def test_percentile_within_data_range(self, values):
        for p in (0, 25, 50, 75, 99, 100):
            result = percentile(values, p)
            assert min(values) <= result <= max(values)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=100))
    def test_percentile_monotone_in_p(self, values):
        results = [percentile(values, p) for p in (0, 10, 50, 90, 100)]
        for a, b in zip(results, results[1:]):
            # Allow for float interpolation noise between equal values.
            assert b >= a - 1e-6 * max(1.0, abs(a))

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=100))
    def test_jain_index_bounds(self, values):
        idx = jain_index(values)
        assert 1.0 / len(values) - 1e-9 <= idx <= 1.0 + 1e-9

    @given(st.floats(min_value=1e-3, max_value=1e6, allow_nan=False), st.integers(2, 50))
    def test_jain_index_equal_allocations_is_one(self, value, n):
        assert abs(jain_index([value] * n) - 1.0) < 1e-9


class TestDistributionProperties:
    @given(
        st.lists(st.floats(min_value=1.0, max_value=1e7), min_size=2, max_size=8, unique=True),
        st.integers(0, 2**31),
    )
    def test_samples_within_support(self, raw_values, seed):
        values = sorted(raw_values)
        n = len(values)
        points = [(v, (i + 1) / n) for i, v in enumerate(values)]
        points.insert(0, (values[0] - 0.5, 0.0))
        dist = EmpiricalDistribution(points)
        rng = random.Random(seed)
        for _ in range(50):
            s = dist.sample(rng)
            assert 1 <= s <= round(values[-1]) + 1


class TestRoutingProperties:
    @settings(deadline=None, max_examples=20)
    @given(st.sampled_from([2, 4, 6]), st.integers(0, 1000))
    def test_fat_tree_fib_next_hops_strictly_approach(self, k, salt):
        topo = fat_tree(k=k)
        fibs = compute_fibs(topo)
        hosts = topo.hosts
        dst = hosts[salt % len(hosts)]
        dist = shortest_path_lengths(topo, dst)
        for switch, table in fibs.items():
            for hop in table[dst]:
                assert dist[hop] == dist[switch] - 1

    @settings(deadline=None, max_examples=10)
    @given(st.integers(6, 14), st.integers(0, 100))
    def test_jellyfish_always_connected_and_regular(self, n, seed):
        if n * 3 % 2:
            n += 1
        topo = jellyfish(switches=n, fabric_degree=3, seed=seed)
        adj = topo.switch_adjacency()
        assert all(len(v) == 3 for v in adj.values())
        topo.validate()  # includes connectivity


class TestHashProperties:
    @given(st.integers(0, 2**40), st.integers(0, 2**40))
    def test_stable_hash_deterministic(self, a, b):
        assert stable_hash(a, b) == stable_hash(a, b)

    @given(st.lists(st.one_of(st.integers(0, 2**40), st.text(max_size=8)), max_size=4),
           st.lists(st.one_of(st.integers(0, 2**40), st.text(max_size=8)), max_size=4))
    def test_stable_hash_from_folded_prefix_matches(self, prefix, rest):
        assert stable_hash_from(stable_hash_state(*prefix), *rest) == stable_hash(*prefix, *rest)

    @given(st.lists(st.one_of(st.integers(0, 2**40), st.text(max_size=8)), max_size=4),
           st.lists(st.one_of(st.integers(0, 2**40), st.text(max_size=8)), max_size=4),
           st.lists(st.one_of(st.integers(0, 2**40), st.text(max_size=8)), max_size=4))
    def test_stable_hash_state_continues_a_folded_prefix(self, first, second, rest):
        state = stable_hash_state(*second, state=stable_hash_state(*first))
        assert stable_hash_from(state, *rest) == stable_hash(*first, *second, *rest)

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=5))
    def test_stable_hash_in_range(self, parts):
        h = stable_hash(*parts)
        assert 0 <= h < 2**31

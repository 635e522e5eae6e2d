import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from famtarsim import flowtable as flowtable_mod
from famtarsim import router as router_mod
from famtarsim.flowtable import DEFAULT_BUCKET_COUNT, FlowTable, FlowTableError
from famtarsim.model import FLOW_ENTRY_BYTES, FlowValue, make_flow_key, seconds
from famtarsim.scenario import ScenarioSpec, run_scenario

TIMEOUT = seconds(10.0)


def key(i: int):
    return make_flow_key(0x0A000001 + i, 0x0A0000FF, 20_000 + i, 9000, 17)


def value(now=0, port=0, gateway=0x0A000002, ttl=63):
    return FlowValue(now, port, gateway, ttl)


def test_insert_lookup_roundtrip():
    table = FlowTable(TIMEOUT)
    assert table.lookup(key(0), 0) is None
    assert table.insert(key(0), value(0, port=1), 0) is True
    entry = table.lookup(key(0), 50)
    assert entry is not None and entry.port == 1 and entry.ttl == 63
    assert table.entry_count == 1


def test_entry_expires_strictly_after_timeout():
    table = FlowTable(TIMEOUT)
    table.insert(key(0), value(0), 0)
    assert table.lookup(key(0), TIMEOUT) is not None       # exactly idle==timeout: live
    assert table.lookup(key(0), TIMEOUT + 1) is None       # one microsecond later: gone
    assert table.entry_count == 1                          # ...but only logically


def test_refreshing_a_hit_extends_its_idle_timer():
    # the forwarding path refreshes a hit in place: lookup(...).ts = now
    table = FlowTable(TIMEOUT)
    table.insert(key(0), value(0), 0)
    table.lookup(key(0), seconds(9.0)).ts = seconds(9.0)
    assert table.lookup(key(0), seconds(19.0)) is not None
    assert table.lookup(key(0), seconds(19.0) + 1) is None
    assert table.entry_count == 1


def test_lookup_rejects_time_travel():
    table = FlowTable(TIMEOUT)
    table.insert(key(0), value(seconds(5.0)), seconds(5.0))
    with pytest.raises(FlowTableError):
        table.lookup(key(0), seconds(4.0))
    assert table.lookup(key(0), seconds(5.0)) is not None


def test_insert_over_live_entry_is_a_bug():
    table = FlowTable(TIMEOUT, buckets=1)
    table.insert(key(0), value(0), 0)
    with pytest.raises(FlowTableError):
        table.insert(key(0), value(1), 1)


def test_lazy_gc_collects_expired_neighbours_on_insert():
    table = FlowTable(TIMEOUT, buckets=1)  # force every key into one chain
    table.insert(key(0), value(0), 0)
    table.insert(key(1), value(seconds(6.0)), seconds(6.0))
    now = seconds(15.0) + 1  # key(0) idle 15 s (expired), key(1) idle 9 s (live)
    assert table.entry_count == 2
    table.insert(key(2), value(now), now)
    assert table.entry_count == 2  # key(0) collected, key(2) added
    assert table.lookup(key(0), now) is None
    assert table.lookup(key(1), now) is not None
    assert table.lookup(key(2), now) is not None


def test_single_bucket_insert_collects_expired_and_refuses_live_overwrite():
    table = FlowTable(TIMEOUT, buckets=1)
    table.insert(key(0), value(0), 0)
    table.insert(key(1), value(0), 0)
    table.insert(key(2), value(seconds(8.0)), seconds(8.0))
    now = TIMEOUT + 1  # key(0) and key(1) expired, key(2) live
    with pytest.raises(FlowTableError):
        table.insert(key(2), value(now, port=4), now)
    assert table.entry_count == 3  # the refused insert collected nothing
    assert table.lookup(key(2), now).port == 0
    assert table.insert(key(3), value(now), now) is True
    assert table.entry_count == 2
    assert [k for k, _ in table.entries()] == [key(2), key(3)]


def test_reinsert_after_expiry_is_allowed():
    table = FlowTable(TIMEOUT, buckets=1)
    table.insert(key(0), value(0), 0)
    now = TIMEOUT + 1
    assert table.insert(key(0), value(now, port=3), now) is True
    assert table.lookup(key(0), now).port == 3
    assert table.entry_count == 1


def test_blocked_interface_suppresses_insert_bit_identically():
    table = FlowTable(TIMEOUT)
    table.insert(key(0), value(0, port=1), 0)

    def snapshot():
        return [(k, v.pack()) for k, v in table.entries()]

    before = snapshot()
    table.block_interface(2, seconds(1.0), seconds(5.0))

    assert table.is_blocked(2, seconds(1.0))
    assert table.is_blocked(2, seconds(6.0) - 1)
    assert not table.is_blocked(2, seconds(6.0))
    assert table.insert(key(1), value(seconds(2.0), port=2), seconds(2.0)) is False
    assert snapshot() == before  # a refused insert leaves no trace

    # the block ends exactly at now + duration
    assert table.insert(key(1), value(seconds(6.0) - 1, port=2), seconds(6.0) - 1) is False
    assert table.insert(key(1), value(seconds(6.0), port=2), seconds(6.0)) is True
    assert not table.is_blocked(2, seconds(6.0))


def test_block_other_interfaces_unaffected():
    table = FlowTable(TIMEOUT)
    table.block_interface(2, 0, seconds(5.0))
    assert table.insert(key(0), value(0, port=1), 0) is True


def test_later_block_overwrites_expiry():
    table = FlowTable(TIMEOUT)
    table.block_interface(2, 0, seconds(5.0))
    table.block_interface(2, seconds(4.0), seconds(5.0))
    assert table.is_blocked(2, seconds(9.0) - 1)
    assert not table.is_blocked(2, seconds(9.0))


def test_block_requires_positive_duration():
    table = FlowTable(TIMEOUT)
    with pytest.raises(ValueError):
        table.block_interface(0, 0, 0)


def test_purge_interface_removes_live_and_expired_entries():
    table = FlowTable(TIMEOUT, buckets=1)
    table.insert(key(0), value(0, port=1), 0)             # expired by 11 s
    table.insert(key(1), value(seconds(5.0), port=1), seconds(5.0))
    table.insert(key(2), value(seconds(5.0), port=2), seconds(5.0))
    # by 11 s key(0) has aged out but was never garbage-collected; the purge
    # still counts it
    assert table.purge_interface(1) == 2
    assert table.entry_count == 1
    assert table.lookup(key(2), seconds(11.0)).port == 2
    assert table.purge_interface(7) == 0


def test_footprint_is_23_bytes_per_entry():
    table = FlowTable(TIMEOUT)
    for i in range(5):
        table.insert(key(i), value(0), 0)
    assert table.entry_count == 5
    assert all(len(k.pack()) + len(v.pack()) == FLOW_ENTRY_BYTES == 23
               for k, v in table.entries())


def test_purge_keeps_entry_count_exact():
    table = FlowTable(TIMEOUT, buckets=4)
    for i in range(12):
        at = 0 if i < 6 else seconds(5.0)
        table.insert(key(i), value(at, port=i % 3), at)

    def stored():
        return sum(1 for _ in table.entries())

    assert table.entry_count == stored() == 12
    assert table.purge_interface(0) == 4          # keys 0, 3, 6, 9
    assert table.entry_count == stored() == 8
    assert table.purge_interface(0) == 0
    assert sorted(v.port for _, v in table.entries()) == [1] * 4 + [2] * 4


def test_constructor_validation():
    with pytest.raises(ValueError):
        FlowTable(0)
    with pytest.raises(ValueError):
        FlowTable(TIMEOUT, buckets=0)


@pytest.mark.parametrize("test", [
    test_insert_lookup_roundtrip, test_entry_expires_strictly_after_timeout,
    test_refreshing_a_hit_extends_its_idle_timer, test_lookup_rejects_time_travel,
    test_blocked_interface_suppresses_insert_bit_identically,
    test_block_other_interfaces_unaffected, test_later_block_overwrites_expiry,
    test_footprint_is_23_bytes_per_entry,
], ids=lambda test: test.__name__)
def test_a_one_bucket_table_passes_the_default_bucket_tests(monkeypatch, test):
    monkeypatch.setitem(globals(), "FlowTable", functools.partial(FlowTable, buckets=1))
    test()


@pytest.mark.parametrize("buckets", [1, DEFAULT_BUCKET_COUNT])
def test_tables_side_by_side_keep_separate_entries(buckets):
    a, b = FlowTable(TIMEOUT, buckets=buckets), FlowTable(TIMEOUT, buckets=buckets)
    assert a.insert(key(0), value(0, port=1), 0)
    assert b.lookup(key(0), 0) is None and list(b.entries()) == []
    assert b.insert(key(0), value(0, port=2), 0)
    assert b.insert(key(1), value(0, port=2), 0)
    assert (a.entry_count, b.entry_count) == (1, 2)
    assert a.purge_interface(1) == 1
    assert a.lookup(key(0), 0) is None and b.lookup(key(0), 0).port == 2
    assert [k for k, _ in b.entries()] in ([key(0), key(1)], [key(1), key(0)])


class CountingTable(FlowTable):
    """A flow table that counts the entries its purges and GC remove."""

    def __init__(self, timeout, buckets):
        super().__init__(timeout, buckets=buckets)
        self.dropped = self.purged = 0

    def _drop_where(self, bucket, doomed):
        dropped = FlowTable._drop_where(bucket, doomed)
        self.dropped += dropped
        return dropped

    def purge_interface(self, iface):
        purged = super().purge_interface(iface)
        self.purged += purged
        return purged


@pytest.mark.parametrize("buckets", [1, DEFAULT_BUCKET_COUNT])
def test_the_shared_empty_bucket_stays_empty_through_a_run(monkeypatch, buckets):
    # short-lived flows with a 0.2 s idle timeout, and both paths fail in turn
    monkeypatch.setattr(router_mod, "FlowTable",
                        functools.partial(CountingTable, buckets=buckets))
    doc = {"version": 1, "name": "churn", "duration_s": 3.0,
           "topology": {"builder": "parallel_paths", "paths": 2},
           "workload": {"kind": "custom", "flows": [
               {"src": "H1", "dst": "H2", "rate_bps": 400_000.0,
                "packet_size_bytes": 500, "start_s": 0.1 * i,
                "stop_s": 0.1 * i + 0.4} for i in range(25)]},
           "famtar": {"flow_timeout_s": 0.2},
           "failures": [{"link": "R2-R4", "down_at_s": 0.7, "up_at_s": 1.2},
                        {"link": "R3-R4", "down_at_s": 1.5, "up_at_s": 2.0}]}
    engine = run_scenario(ScenarioSpec.from_dict(doc))
    tables = [router.fft for router in engine.routers.values()]
    assert engine.log.counts["fft_insert"] > 0
    assert sum(t.purged for t in tables) > 0
    if buckets == 1:  # every insert after a router's first runs the GC
        assert sum(t.dropped - t.purged for t in tables) > 0
    assert flowtable_mod._EMPTY == {}


# -- randomized state-machine check against a dict model ----------------------

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 5), st.integers(0, 3)),
        st.tuples(st.just("refresh"), st.integers(0, 5), st.just(0)),
        st.tuples(st.just("advance"), st.integers(1, 6_000_000), st.just(0)),
        st.tuples(st.just("block"), st.integers(0, 3), st.integers(1, 8_000_000)),
        st.tuples(st.just("purge"), st.integers(0, 3), st.just(0)),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(_ops)
def test_flowtable_matches_reference_model(ops):
    """Single-bucket table vs. a dict: stored entries and liveness agree."""
    table = FlowTable(TIMEOUT, buckets=1)
    stored: dict = {}   # key index -> (ts, port); physical content
    blocked: dict = {}  # iface -> expiry
    now = 0

    def live(idx):
        return idx in stored and now - stored[idx][0] <= TIMEOUT

    for op, a, b in ops:
        if op == "advance":
            now += a
        elif op == "insert":
            is_blocked_now = b in blocked and blocked[b] > now
            if live(a):
                # the admission-block check precedes the duplicate check
                if is_blocked_now:
                    assert table.insert(key(a), value(now, port=b), now) is False
                else:
                    blocked.pop(b, None)  # a stale block is cleared first
                    with pytest.raises(FlowTableError):
                        table.insert(key(a), value(now, port=b), now)
                continue
            assert table.insert(key(a), value(now, port=b), now) is (not is_blocked_now)
            if not is_blocked_now:
                blocked.pop(b, None)
                stored = {i: v for i, v in stored.items() if now - v[0] <= TIMEOUT}
                stored[a] = (now, b)
        elif op == "refresh":  # what a hit on the forwarding path does
            entry = table.lookup(key(a), now)
            assert (entry is not None) == live(a)
            if entry is not None:
                entry.ts = now
                stored[a] = (now, stored[a][1])
        elif op == "block":
            table.block_interface(a, now, b)
            blocked[a] = now + b
        elif op == "purge":
            expect = sum(1 for ts, port in stored.values() if port == a)
            assert table.purge_interface(a) == expect
            stored = {i: v for i, v in stored.items() if v[1] != a}

        assert table.entry_count == len(stored)
        for idx in range(6):
            entry = table.lookup(key(idx), now)
            if live(idx):
                assert entry is not None and entry.port == stored[idx][1]
            else:
                assert entry is None

import pytest

from famtarsim.model import (ADDR_BASE, FLOW_ENTRY_BYTES, FLOW_KEY_BYTES,
                             FLOW_VALUE_BYTES, HOST, ROUTER, FlowKey,
                             FlowValue, Link, Packet, Topology, TopologyError,
                             format_addr, make_flow_key,
                             seconds, to_seconds)
from helpers import diamond_topology, line_topology


def test_time_conversion():
    assert seconds(1.5) == 1_500_000
    assert seconds(0) == 0
    assert to_seconds(2_500_000) == 2.5
    assert to_seconds(seconds(120.0)) == 120.0


def test_flow_key_packs_to_13_network_order_bytes():
    key = make_flow_key(0x0A000001, 0x0A000002, 20000, 9000, 17)
    assert key.pack() == bytes.fromhex("0a0000010a0000024e20232811")
    assert len(key.pack()) == FLOW_KEY_BYTES == 13
    assert key == (0x0A000001, 0x0A000002, 20000, 9000, 17)
    assert key[2] == 20000 and key[4] == 17


def test_flow_key_is_hashable_and_ordered():
    a = make_flow_key(1, 2, 3, 4, 17)
    b = make_flow_key(1, 2, 3, 4, 17)
    c = make_flow_key(1, 2, 3, 5, 17)
    assert a == b and hash(a) == hash(b)
    assert a < c
    assert len({a, b, c}) == 2


@pytest.mark.parametrize("args", [
    (-1, 2, 3, 4, 17),
    (2 ** 32, 2, 3, 4, 17),
    (1, 2, -1, 4, 17),
    (1, 2, 65536, 4, 17),
    (1, 2, 3, 65536, 17),
    (1, 2, 3, 4, 256),
    (1, 2, 3, 4, -1),
])
def test_flow_key_rejects_out_of_range_fields(args):
    with pytest.raises(ValueError):
        make_flow_key(*args)


def test_flow_value_packs_to_10_bytes():
    value = FlowValue(ts=5_000_000, port=2, gateway=0x0A000003, ttl=63)
    assert value.pack() == bytes.fromhex("004c4b40020a0000033f")
    assert len(value.pack()) == FLOW_VALUE_BYTES == 10


def test_flow_entry_footprint_is_23_bytes():
    assert FLOW_ENTRY_BYTES == 23
    key = make_flow_key(1, 2, 3, 4, 17)
    value = FlowValue(0, 0, 0, 64)
    assert len(key.pack()) + len(value.pack()) == 23


def test_packet_records_path_only_on_request():
    key = make_flow_key(1, 2, 3, 4, 17)
    plain = Packet(key, 1000, 64, 0)
    traced = Packet(key, 1000, 64, 0, record_path=True)
    assert plain.path is None
    assert traced.path == []


def test_format_addr():
    assert format_addr(0x0A000001) == "10.0.0.1"
    assert format_addr(ADDR_BASE + 255) == "10.0.1.0"


def test_topology_addresses_follow_sorted_node_ids():
    topo = line_topology()
    # sorted ids: H1, H2, R1, R2
    assert topo.addr_of == {
        "H1": ADDR_BASE, "H2": ADDR_BASE + 1,
        "R1": ADDR_BASE + 2, "R2": ADDR_BASE + 3,
    }
    assert topo.node_of_addr[ADDR_BASE + 2] == "R1"


def test_topology_directed_links_pair_up():
    topo = diamond_topology()
    assert len(topo.directed) == 2 * len(topo.links)
    for dl in topo.directed:
        rev = topo.directed[dl.reverse_index]
        assert rev.reverse_index == dl.index
        assert (rev.src, rev.dst) == (dl.dst, dl.src)
        assert rev.link is dl.link
    # interface numbering follows link declaration order per node
    assert topo.directed_between("R1", "H1").iface_index == 0
    assert topo.directed_between("R1", "R2").iface_index == 1
    assert topo.directed_between("R1", "R3").iface_index == 2
    assert topo.out_links["R1"][2].dst == "R3"


def test_topology_queries():
    topo = diamond_topology()
    assert topo.routers() == ["R1", "R2", "R3", "R4"]
    assert topo.hosts() == ["H1", "H2"]
    assert topo.link_by_id["R2-R4"].capacity == 10_000_000
    with pytest.raises(KeyError):
        topo.directed_between("R2", "R3")


def _link(link_id="L", a="A", b="B", capacity=1_000_000, delay=100,
          cost=10, queue=10):
    return Link(link_id, a, b, capacity, delay, cost, queue)


def test_topology_rejects_malformed_graphs():
    with pytest.raises(TopologyError):
        Topology({}, [])
    with pytest.raises(TopologyError):
        Topology({"A": "switch"}, [])
    with pytest.raises(TopologyError):  # unknown endpoint
        Topology({"A": ROUTER, "B": ROUTER}, [_link(b="C")])
    with pytest.raises(TopologyError):  # self loop
        Topology({"A": ROUTER}, [_link(b="A")])
    with pytest.raises(TopologyError):  # duplicate link id
        Topology({"A": ROUTER, "B": ROUTER, "C": ROUTER},
                 [_link(), _link(a="B", b="C")])
    with pytest.raises(TopologyError):  # host with two links
        Topology({"A": HOST, "B": ROUTER, "C": ROUTER},
                 [_link("L1"), _link("L2", "A", "C"), _link("L3", "B", "C")])
    with pytest.raises(TopologyError):  # host with no link
        Topology({"A": HOST, "B": ROUTER, "C": ROUTER}, [_link("L1", "B", "C")])
    with pytest.raises(TopologyError):  # disconnected
        Topology({"A": ROUTER, "B": ROUTER, "C": ROUTER, "D": ROUTER},
                 [_link("L1"), _link("L2", "C", "D")])


def test_topology_caps_a_node_at_255_interfaces():
    # the FFT stores an egress in 8 bits; nothing after Topology checks it
    def star(leaves):
        nodes = {"HUB": ROUTER, **{f"L{i}": ROUTER for i in range(leaves)}}
        return Topology(nodes, [_link(f"E{i}", "HUB", f"L{i}")
                                for i in range(leaves)])

    assert star(255).out_links["HUB"][-1].iface_index == 255 - 1
    with pytest.raises(TopologyError, match="more than 255 interfaces"):
        star(256)


@pytest.mark.parametrize("bad", [
    dict(capacity=0), dict(cost=0), dict(delay=-1), dict(queue=0),
])
def test_topology_rejects_bad_link_parameters(bad):
    with pytest.raises(TopologyError):
        Topology({"A": ROUTER, "B": ROUTER}, [_link(**bad)])

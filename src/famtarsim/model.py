"""Core domain types shared by every layer of the simulator.

Conventions used throughout the package:

- simulation time is an integer count of microseconds from run start
- link capacities are in bit/s, packet and flow sizes in bytes
- node addresses are opaque 32-bit values assigned by the topology
  (one address per node, no subnetting)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Optional

SimTime = int  # microseconds since run start

US_PER_S = 1_000_000


def seconds(value: float) -> SimTime:
    """Convert seconds (possibly fractional) to integer microseconds."""
    return round(value * US_PER_S)


def to_seconds(t: SimTime) -> float:
    return t / US_PER_S


# --------------------------------------------------------------------------
# Flow identification
# --------------------------------------------------------------------------

_KEY_STRUCT = struct.Struct("!IIHHB")   # src_addr, dst_addr, src_port, dst_port, ip_prot
_VALUE_STRUCT = struct.Struct("!IBIB")  # ts (32-bit view), port, gateway, ttl

FLOW_KEY_BYTES = _KEY_STRUCT.size            # 13
FLOW_VALUE_BYTES = _VALUE_STRUCT.size        # 10
FLOW_ENTRY_BYTES = FLOW_KEY_BYTES + FLOW_VALUE_BYTES  # 23

_U32 = 0xFFFFFFFF
_U16 = 0xFFFF
_U8 = 0xFF


class FlowKey(tuple):
    """104-bit flow five-tuple (src addr, dst addr, src port, dst port, protocol).

    Implemented as a plain tuple subclass so it hashes and compares like the
    raw field tuple; construct via :func:`make_flow_key` to get validation.
    """

    __slots__ = ()

    def pack(self) -> bytes:
        """Serialized on-the-wire form; always 13 bytes."""
        return _KEY_STRUCT.pack(*self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FlowKey(src={format_addr(self[0])}:{self[2]}, "
                f"dst={format_addr(self[1])}:{self[3]}, prot={self[4]})")


def make_flow_key(src_addr: int, dst_addr: int, src_port: int,
                  dst_port: int, ip_prot: int) -> FlowKey:
    """Build a validated :class:`FlowKey`; out-of-range fields raise ValueError."""
    for name, value, limit in (("src_addr", src_addr, _U32),
                               ("dst_addr", dst_addr, _U32),
                               ("src_port", src_port, _U16),
                               ("dst_port", dst_port, _U16),
                               ("ip_prot", ip_prot, _U8)):
        if not isinstance(value, int) or not 0 <= value <= limit:
            raise ValueError(f"flow key field {name}={value!r} outside [0, {limit}]")
    return FlowKey((src_addr, dst_addr, src_port, dst_port, ip_prot))


class FlowValue:
    """Mutable per-flow forwarding state: last-seen time, pinned egress, TTL.

    ``ts`` carries 32-bit resolution semantics in the serialized form but is
    stored as full simulation time so the simulator never wraps.  The fields
    are not range-checked: time never runs negative, the gateway is a
    topology address, the TTL comes from a packet (see :class:`Packet`) and
    :class:`Topology` caps a node at 255 interfaces, so the port fits 8 bits.
    """

    __slots__ = ("ts", "port", "gateway", "ttl")

    def __init__(self, ts: SimTime, port: int, gateway: int, ttl: int):
        self.ts = ts
        self.port = port
        self.gateway = gateway
        self.ttl = ttl

    def pack(self) -> bytes:
        """Serialized form; always 10 bytes (ts truncated to its low 32 bits)."""
        return _VALUE_STRUCT.pack(self.ts & _U32, self.port, self.gateway, self.ttl)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FlowValue(ts={self.ts}, port={self.port}, "
                f"gateway={format_addr(self.gateway)}, ttl={self.ttl})")


# --------------------------------------------------------------------------
# Packets
# --------------------------------------------------------------------------

# Drop reasons attributed by the forwarding path and the engine.
DROP_TTL_EXPIRED = "ttl_expired"
DROP_UNREACHABLE = "unreachable"
DROP_QUEUE_FULL = "queue_full"
DROP_LINK_DOWN = "link_down"


class Packet:
    """A simulated datagram.

    ``flow_id``, ``flow_seq`` and ``path`` are measurement artifacts; the
    forwarding path never reads them.  ``size`` and ``ttl`` are not checked
    here: every packet copies them from a :class:`FlowSpec`, which requires a
    positive size and a TTL in [1, 255].
    """

    __slots__ = ("key", "size", "ttl", "created_at", "flow_id", "flow_seq",
                 "path")

    def __init__(self, key: FlowKey, size: int, ttl: int, created_at: SimTime,
                 flow_id: int = 0, flow_seq: int = 0, record_path: bool = False):
        self.key = key
        self.size = size
        self.ttl = ttl
        self.created_at = created_at
        self.flow_id = flow_id
        self.flow_seq = flow_seq
        self.path: Optional[list] = [] if record_path else None


# --------------------------------------------------------------------------
# Topology
# --------------------------------------------------------------------------

HOST = "host"
ROUTER = "router"

ADDR_BASE = 0x0A000001  # 10.0.0.1; nodes are numbered upward from here


def format_addr(addr: int) -> str:
    return f"{(addr >> 24) & 0xFF}.{(addr >> 16) & 0xFF}.{(addr >> 8) & 0xFF}.{addr & 0xFF}"


@dataclass(frozen=True)
class Node:
    node_id: str
    kind: str   # HOST or ROUTER
    addr: int


@dataclass(frozen=True)
class Link:
    """A bidirectional physical link; both directions share these parameters."""

    link_id: str
    endpoint_a: str
    endpoint_b: str
    capacity: int               # bit/s
    propagation_delay: SimTime  # microseconds
    base_cost: int
    queue_capacity: int         # packets per direction


@dataclass(frozen=True)
class DirectedLink:
    """One direction of a link: the egress interface at ``src`` towards ``dst``."""

    index: int          # global directed-link index
    link: Link
    src: str
    dst: str
    iface_index: int    # interface number at src (small, fits the 8-bit FFT port)
    reverse_index: int  # global index of the opposite direction


class TopologyError(ValueError):
    pass


class Topology:
    """Immutable node/link graph with per-node interface numbering.

    Node addresses are assigned deterministically (sorted node id order) and
    interface indices follow link declaration order, so two constructions
    from the same description are identical.
    """

    def __init__(self, nodes: dict[str, str], links: Iterable[Link]):
        self.links: list[Link] = list(links)
        self._validate_nodes(nodes)
        node_ids = sorted(nodes)
        self.nodes: dict[str, Node] = {
            nid: Node(nid, nodes[nid], ADDR_BASE + i) for i, nid in enumerate(node_ids)
        }
        self.addr_of: dict[str, int] = {n.node_id: n.addr for n in self.nodes.values()}
        self.node_of_addr: dict[int, str] = {n.addr: n.node_id for n in self.nodes.values()}

        self.directed: list[DirectedLink] = []
        self.out_links: dict[str, list[DirectedLink]] = {nid: [] for nid in self.nodes}
        self.link_by_id: dict[str, Link] = {}
        self._build_directed()
        self._validate_graph()

    # -- construction helpers -------------------------------------------------

    def _validate_nodes(self, nodes: dict[str, str]) -> None:
        if not nodes:
            raise TopologyError("topology has no nodes")
        for nid, kind in nodes.items():
            if kind not in (HOST, ROUTER):
                raise TopologyError(f"node {nid}: unknown kind {kind!r}")
        for link in self.links:
            for end in (link.endpoint_a, link.endpoint_b):
                if end not in nodes:
                    raise TopologyError(f"link {link.link_id}: unknown endpoint {end}")
            if link.endpoint_a == link.endpoint_b:
                raise TopologyError(f"link {link.link_id} is a self-loop")
            if link.capacity <= 0:
                raise TopologyError(f"link {link.link_id}: capacity must be positive")
            if link.base_cost <= 0:
                raise TopologyError(f"link {link.link_id}: cost must be positive")
            if link.propagation_delay < 0:
                raise TopologyError(f"link {link.link_id}: negative propagation delay")
            if link.queue_capacity <= 0:
                raise TopologyError(f"link {link.link_id}: queue capacity must be positive")

    def _build_directed(self) -> None:
        for link in self.links:
            if link.link_id in self.link_by_id:
                raise TopologyError(f"duplicate link id {link.link_id}")
            self.link_by_id[link.link_id] = link
            base = len(self.directed)
            fwd = DirectedLink(base, link, link.endpoint_a, link.endpoint_b,
                               len(self.out_links[link.endpoint_a]), base + 1)
            rev = DirectedLink(base + 1, link, link.endpoint_b, link.endpoint_a,
                               len(self.out_links[link.endpoint_b]), base)
            self.directed.extend((fwd, rev))
            self.out_links[fwd.src].append(fwd)
            self.out_links[rev.src].append(rev)

    def _validate_graph(self) -> None:
        for nid, node in self.nodes.items():
            degree = len(self.out_links[nid])
            if node.kind == HOST and degree != 1:
                raise TopologyError(f"host {nid} must have exactly one link, has {degree}")
            if degree > _U8:  # the FFT stores an egress in 8 bits
                raise TopologyError(f"node {nid} has more than 255 interfaces")
        # connectivity (undirected reachability from an arbitrary node)
        start = next(iter(self.nodes))
        seen = {start}
        frontier = [start]
        while frontier:
            here = frontier.pop()
            for dl in self.out_links[here]:
                if dl.dst not in seen:
                    seen.add(dl.dst)
                    frontier.append(dl.dst)
        missing = set(self.nodes) - seen
        if missing:
            raise TopologyError(f"topology is not connected; unreachable: {sorted(missing)}")

    # -- queries ---------------------------------------------------------------

    def routers(self) -> list[str]:
        return [nid for nid in sorted(self.nodes) if self.nodes[nid].kind == ROUTER]

    def hosts(self) -> list[str]:
        return [nid for nid in sorted(self.nodes) if self.nodes[nid].kind == HOST]

    def directed_between(self, src: str, dst: str) -> DirectedLink:
        for dl in self.out_links[src]:
            if dl.dst == dst:
                return dl
        raise KeyError(f"no directed link {src} -> {dst}")

"""Flow Forwarding Table (FFT).

The table pins every active flow to the egress interface and gateway chosen
when its first packet was routed, so later routing-table changes only affect
flows that start afterwards.  Entries expire after an idle timeout but are
collected lazily: an expired entry is only physically removed when an insert
lands in its hash bucket (or by a purge); lookups simply refuse to return
it.

Each bucket is a dict keyed by :class:`FlowKey` in insertion order, so a
lookup is one ``dict.get`` however many keys share the bucket, while the
bucket still groups the neighbours that an insert garbage-collects.  A hit
returns the stored :class:`FlowValue` itself: the forwarding path refreshes
its idle timer by assigning ``ts`` directly.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .model import FlowKey, FlowValue, SimTime, seconds

DEFAULT_FLOW_TIMEOUT: SimTime = seconds(10.0)
DEFAULT_BUCKET_COUNT = 1024

# every bucket no insert has reached yet; lookups, purges and GC only read it
_EMPTY: dict[FlowKey, FlowValue] = {}


class FlowTableError(RuntimeError):
    """Contract violation by a caller; indicates a simulator bug."""


class FlowTable:
    """Bucketed associative array from :class:`FlowKey` to :class:`FlowValue`.

    The bucket count is configurable so bucket-level behaviour (collision GC)
    can be exercised in tests with a bucket count of 1.  Every bucket starts
    as one shared empty dict that nothing writes, and :meth:`insert` gives a
    bucket its own dict before its first write, so a new table allocates one
    list and no bucket.
    """

    def __init__(self, timeout: SimTime = DEFAULT_FLOW_TIMEOUT,
                 buckets: int = DEFAULT_BUCKET_COUNT):
        if timeout <= 0:
            raise ValueError("flow idle timeout must be positive")
        if buckets <= 0:
            raise ValueError("bucket count must be positive")
        self.timeout = timeout
        self._nbuckets = buckets
        self._buckets: list[dict[FlowKey, FlowValue]] = [_EMPTY] * buckets
        self._count = 0
        self._blocked: dict[int, SimTime] = {}  # iface index -> block expiry

    # -- forwarding-path operations ---------------------------------------

    def lookup(self, key: FlowKey, now: SimTime) -> Optional[FlowValue]:
        """Return the live entry for ``key`` or None; never mutates the table.

        Raises :class:`FlowTableError` when ``now`` is earlier than the
        entry's timestamp: simulation time never runs backwards.
        """
        value = self._buckets[hash(key) % self._nbuckets].get(key)
        if value is None:
            return None
        age = now - value.ts
        if age > self.timeout:
            return None  # physically present but expired
        if age < 0:
            raise FlowTableError("lookup with time earlier than entry timestamp")
        return value

    def insert(self, key: FlowKey, value: FlowValue, now: SimTime) -> bool:
        """Add a new flow entry.

        Returns False (and leaves the table untouched) when the target egress
        interface is inside a post-failure admission block.  Otherwise the
        destination bucket is garbage-collected and the entry added.
        The caller must have checked that no live entry exists for ``key``.
        """
        expiry = self._blocked.get(value.port)
        if expiry is not None:
            if expiry > now:
                return False
            del self._blocked[value.port]

        index = hash(key) % self._nbuckets
        bucket = self._buckets[index]
        if bucket is _EMPTY:
            bucket = self._buckets[index] = {}
        elif bucket:
            timeout = self.timeout
            old = bucket.get(key)
            if old is not None and now - old.ts <= timeout:
                raise FlowTableError(f"insert over live entry for {key!r}")
            # lazy GC: drop expired neighbours on insert
            self._count -= self._drop_where(bucket, lambda v: now - v.ts > timeout)
        bucket[key] = value
        self._count += 1
        return True

    def update_entry(self, key: FlowKey, new_port: int, new_gateway: int,
                     new_ttl: int, now: SimTime) -> None:
        """Re-point an existing entry at a new egress and refresh its timer.

        The arguments come from an installed route and a validated packet.
        """
        v = self._buckets[hash(key) % self._nbuckets].get(key)
        if v is None:
            raise FlowTableError(f"update_entry on absent flow {key!r}")
        v.ts = now
        v.port = new_port
        v.gateway = new_gateway
        v.ttl = new_ttl

    # -- failure handling ---------------------------------------------------

    def block_interface(self, iface: int, now: SimTime, duration: SimTime) -> None:
        """Refuse new flow entries on ``iface`` until ``now + duration``.

        A later block simply overwrites the expiry.
        """
        if duration <= 0:
            raise ValueError("block duration must be positive")
        self._blocked[iface] = now + duration

    def is_blocked(self, iface: int, now: SimTime) -> bool:
        expiry = self._blocked.get(iface)
        return expiry is not None and expiry > now

    def purge_interface(self, iface: int) -> int:
        """Remove every entry (live or expired) pinned to ``iface``; return count."""
        removed = sum(self._drop_where(bucket, lambda v: v.port == iface)
                      for bucket in self._buckets if bucket)
        self._count -= removed
        return removed

    @staticmethod
    def _drop_where(bucket: dict[FlowKey, FlowValue], doomed) -> int:
        """Delete the entries of ``bucket`` whose value satisfies ``doomed``."""
        keys = [k for k, v in bucket.items() if doomed(v)]
        for k in keys:
            del bucket[k]
        return len(keys)

    # -- observability --------------------------------------------------------

    @property
    def entry_count(self) -> int:
        """Physically stored entries; an upper bound on live flows between GCs."""
        return self._count

    def entries(self) -> Iterator[tuple[FlowKey, FlowValue]]:
        for bucket in self._buckets:
            yield from bucket.items()

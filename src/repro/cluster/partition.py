"""K-mer-space partitioning: splitmix64 partitions on a consistent ring.

Two layers, deliberately separate:

1. **k-mer -> partition** (:func:`partition_ids`) is a *fixed* hash of
   the canonical cache key modulo ``num_partitions``.  It never changes
   with topology, so the records inside a partition — and therefore
   every query answer — are invariant under scaling: bit-identity at
   any worker count falls out by construction.
2. **partition -> shard slot** (:class:`ConsistentHashRing`) is
   consistent hashing with virtual nodes.  Adding or removing a slot
   moves only the partitions whose ring arcs change hands (~P/N for P
   partitions on N slots), which is what keeps scale-up/scale-down handoffs
   and rolling restarts cheap.

The k-mer hash is the splitmix64 finalizer — a full-width 64-bit
mixer, vectorized over ``uint64`` arrays (numpy wraps multiplication
modulo 2^64, exactly the arithmetic the scalar finalizer does).  A
plain ``key % P`` would do for uniformity on random k-mers but
clusters badly on the low-entropy low bits of real genomic runs
(poly-A/T tracts differ only in their top bases).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Sequence, Tuple

import numpy as np


class PartitionError(ValueError):
    """Raised on invalid partition-space parameters."""


#: splitmix64 finalizer multipliers (Steele et al., "Fast splittable
#: pseudorandom number generators").
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def partition_ids(keys: Sequence[int], num_partitions: int) -> np.ndarray:
    """Partition id of every cache key, vectorized (``int64`` array).

    ``keys`` must already be cache keys (canonicalized when the
    reference is canonical) — partitioning the raw strand would send a
    k-mer and its reverse complement to different workers than the one
    holding their shared record.
    """
    if num_partitions <= 0:
        raise PartitionError(
            f"num_partitions must be positive, got {num_partitions}"
        )
    z = np.asarray(keys, dtype=np.uint64).copy()
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return (z % np.uint64(num_partitions)).astype(np.int64)


def partition_id(key: int, num_partitions: int) -> int:
    """Partition id of one cache key (scalar :func:`partition_ids`)."""
    return int(partition_ids(np.array([key], dtype=np.uint64), num_partitions)[0])


def _ring_point(label: str) -> int:
    """Position of ``label`` on the 64-bit ring (sha256-derived)."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class ConsistentHashRing:
    """Consistent hashing of partitions onto named shard slots.

    Every node (slot) contributes ``virtual_nodes`` points on a 64-bit
    ring; a partition is owned by the first node point at or after its
    own ring position (wrapping).  Ownership is a pure function of
    (node names, virtual_nodes) — no RNG, no insertion order — so any
    process computes the identical assignment.
    """

    def __init__(self, nodes: Sequence[str], virtual_nodes: int = 16) -> None:
        if not nodes:
            raise PartitionError("ring needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise PartitionError(f"duplicate ring nodes: {sorted(nodes)}")
        if virtual_nodes <= 0:
            raise PartitionError(
                f"virtual_nodes must be positive, got {virtual_nodes}"
            )
        self.nodes: Tuple[str, ...] = tuple(nodes)
        self.virtual_nodes = virtual_nodes
        points: List[Tuple[int, str]] = []
        for node in self.nodes:
            for v in range(virtual_nodes):
                points.append((_ring_point(f"{node}#{v}"), node))
        # Tie-break by node name so equal points (astronomically rare)
        # still order deterministically.
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [n for _, n in points]

    def node_for(self, label: str) -> str:
        """Owning node of an arbitrary string label."""
        return self._node_at(_ring_point(label))

    def _node_at(self, point: int) -> str:
        index = bisect.bisect_left(self._points, point)
        if index == len(self._points):
            index = 0
        return self._owners[index]

    def owner(self, partition: int) -> str:
        """Owning node of partition ``partition``."""
        return self._node_at(_ring_point(f"partition:{partition}"))

    def assignment(self, num_partitions: int) -> Dict[str, List[int]]:
        """``node -> sorted owned partitions`` for the whole space.

        Every node appears (possibly with an empty list), so callers
        can spawn workers for unlucky slots too.
        """
        if num_partitions <= 0:
            raise PartitionError(
                f"num_partitions must be positive, got {num_partitions}"
            )
        out: Dict[str, List[int]] = {node: [] for node in self.nodes}
        for partition in range(num_partitions):
            out[self.owner(partition)].append(partition)
        return out

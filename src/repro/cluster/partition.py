"""K-mer-space placement: a splitmix64 hash picks each k-mer's worker.

:func:`partition_ids` hashes the canonical cache key modulo the worker
count, so the k-mer space splits into one partition per worker and
worker *w* holds exactly the records that hash to *w*.  Placement is
static: a rolling restart respawns a worker on the same partition, and
the records a query can meet are the same at every worker count, so
every answer is placement-independent by construction — the Type-3
scale-out of the paper, where queries spread evenly over independent
ranks and channels.

The hash is the splitmix64 finalizer — a full-width 64-bit mixer,
vectorized over ``uint64`` arrays (numpy wraps multiplication modulo
2^64, exactly the arithmetic the scalar finalizer does).  A plain
``key % W`` would do for uniformity on random k-mers but clusters badly
on the low-entropy low bits of real genomic runs (poly-A/T tracts
differ only in their top bases).
"""

from __future__ import annotations

from typing import Sequence

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

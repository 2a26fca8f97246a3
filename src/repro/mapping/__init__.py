"""Read mapping on Sieve: seed-filter-and-extend (docs/MAPPING.md).

Any :class:`repro.api.QueryBackend` — the scalar database, the Sieve
device, the sharded service, the multi-process cluster — plays the
seed-location *filter* role that compute-in-memory hardware plays in
published read-mapping stacks; the host resolves surviving seeds to
reference locations, drops the windows a lossless q-gram filter rules
out, and verifies the rest with bit-parallel semi-global alignment over
band-clipped windows, priced either analytically (host SIMD) or through
the DRAM ledger (in-situ extension).

Run ``python -m repro.mapping`` for a self-checking demo of the
mapping service request type over a cluster topology.
"""

from .aligner import SemiglobalResult, semiglobal_distance
from .cost import (
    ExtensionModelError,
    ExtensionStats,
    HostExtensionModel,
    HostExtensionParams,
    InsituExtensionModel,
    InsituExtensionParams,
)
from .pipeline import (
    EXTENSION_MODES,
    MappingConfig,
    MappingError,
    MappingResult,
    MappingStats,
    ReadMapper,
    SeedExtender,
    build_extension_model,
)
from .seeds import Candidate, SeedIndex, SeedIndexError

__all__ = [
    "Candidate",
    "EXTENSION_MODES",
    "ExtensionModelError",
    "ExtensionStats",
    "HostExtensionModel",
    "HostExtensionParams",
    "InsituExtensionModel",
    "InsituExtensionParams",
    "MappingConfig",
    "MappingError",
    "MappingResult",
    "MappingStats",
    "ReadMapper",
    "SeedExtender",
    "SeedIndex",
    "SeedIndexError",
    "SemiglobalResult",
    "build_extension_model",
    "semiglobal_distance",
]

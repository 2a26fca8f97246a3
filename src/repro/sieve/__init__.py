"""Sieve core: the paper's contribution.

Bit-accurate functional models of the column-wise layout, matcher
circuitry, Early Termination Mechanism, Column Finder, k-mer-to-subarray
index, and the whole device (``SieveDevice``), plus the trace-driven
analytic performance/energy models of the three accelerator designs
(``Type1Model``, ``Type2Model``, ``Type3Model``).
"""

from .column_finder import ColumnFinder, ColumnFinderError, ColumnFindResult
from .controller import (
    BankEventSim,
    BankSimResult,
    SimRequest,
    sample_requests,
    validate_steady_state,
)
from .device import DeviceError, DeviceStats, SieveDevice
from .device_sim import (
    DeviceEventSim,
    DeviceSimConfig,
    DeviceSimResult,
    simulate_device,
)
from .extensions import (
    VariantResult,
    hbm_config,
    nvm_config,
    technology_comparison,
)
from .etm import DEFAULT_SEGMENT_SIZE, EtmError, EtmPipeline
from .functional import FunctionalError, MatchBatch, MatchOutcome, SieveSubarraySim
from .index import INDEX_ENTRY_BYTES, IndexEntry, SubarrayIndex
from .layout import (
    GROUP_WIDTH,
    OFFSET_BITS,
    PAYLOAD_BITS,
    QUERIES_PER_GROUP,
    REFS_PER_GROUP,
    LayoutError,
    SubarrayLayout,
)
from .loading import LoadCostModel, LoadCostReport, LoadingError
from .matcher import MatcherArray, MatcherError
from .type1 import Type1BankSim, Type1Layout, Type1Outcome
from .type2 import Type2GroupSim, Type2Outcome
from .perfmodel import (
    EspModel,
    ModelError,
    PerfResult,
    QueryCost,
    SieveModel,
    SieveModelConfig,
    Type1Model,
    Type2Model,
    Type3Model,
    WorkloadStats,
)

__all__ = [
    "BankEventSim",
    "BankSimResult",
    "SimRequest",
    "sample_requests",
    "validate_steady_state",
    "VariantResult",
    "hbm_config",
    "nvm_config",
    "technology_comparison",
    "Type1BankSim",
    "Type1Layout",
    "Type1Outcome",
    "Type2GroupSim",
    "Type2Outcome",
    "LoadCostModel",
    "LoadCostReport",
    "LoadingError",
    "ColumnFinder",
    "ColumnFinderError",
    "ColumnFindResult",
    "DeviceError",
    "DeviceStats",
    "SieveDevice",
    "DeviceEventSim",
    "DeviceSimConfig",
    "DeviceSimResult",
    "simulate_device",
    "DEFAULT_SEGMENT_SIZE",
    "EtmError",
    "EtmPipeline",
    "FunctionalError",
    "MatchBatch",
    "MatchOutcome",
    "SieveSubarraySim",
    "INDEX_ENTRY_BYTES",
    "IndexEntry",
    "SubarrayIndex",
    "GROUP_WIDTH",
    "OFFSET_BITS",
    "PAYLOAD_BITS",
    "QUERIES_PER_GROUP",
    "REFS_PER_GROUP",
    "LayoutError",
    "SubarrayLayout",
    "MatcherArray",
    "MatcherError",
    "EspModel",
    "ModelError",
    "PerfResult",
    "QueryCost",
    "SieveModel",
    "SieveModelConfig",
    "Type1Model",
    "Type2Model",
    "Type3Model",
    "WorkloadStats",
]

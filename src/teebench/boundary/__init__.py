"""Emulated TEE/REE split: shared-memory regions, a relay agent and
counted, cost-injected world crossings."""

from .context import (
    BoundaryStats,
    Context,
    InvokeResult,
    Session,
    initialize_context,
)
from .errors import (
    BoundaryError,
    RegionAllocationError,
    RegionFault,
    SessionStateError,
    TaMemoryError,
    TaNotFoundError,
    TeeSocketError,
)
from .protocol import Command, IoctlCode, NOOP_COMMAND, TeeResult
from .regions import RegionDescriptor, SharedRegion, TrustedRegionView
from .supplicant import DISCARD_HANDLE, Supplicant
from .trusted import TeeSocket, TrustedEnv, register_ta

__all__ = [
    "BoundaryError",
    "BoundaryStats",
    "Command",
    "Context",
    "DISCARD_HANDLE",
    "InvokeResult",
    "IoctlCode",
    "NOOP_COMMAND",
    "RegionAllocationError",
    "RegionDescriptor",
    "RegionFault",
    "Session",
    "SessionStateError",
    "SharedRegion",
    "Supplicant",
    "TaMemoryError",
    "TaNotFoundError",
    "TeeResult",
    "TeeSocket",
    "TeeSocketError",
    "TrustedEnv",
    "TrustedRegionView",
    "initialize_context",
    "register_ta",
]

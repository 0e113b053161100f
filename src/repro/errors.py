"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one base class.  Subsystems raise the most specific
subclass that applies; constructors accept a human-readable message and
optional structured context kept on the instance for programmatic
inspection.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A configuration value is missing, malformed, or inconsistent."""


class SimulationError(ReproError):
    """The discrete-event kernel detected an inconsistency."""


class SchedulingError(SimulationError):
    """An event was scheduled in the past or with invalid parameters."""


class HardwareError(ReproError):
    """A hardware model was driven outside its valid operating range."""


class SensorRangeError(HardwareError):
    """A sensor measurement request exceeded the sensor's range."""


class GridError(ReproError):
    """The electrical-grid model detected an invalid topology or state."""


class NetworkError(ReproError):
    """Base class for communication-network errors."""


class AddressError(NetworkError):
    """A network address or device identifier is malformed or unknown."""


class ChannelError(NetworkError):
    """The wireless channel rejected a transmission."""


class SlotAllocationError(NetworkError):
    """The TDMA schedule has no free slot for a new device."""


class BackhaulError(NetworkError):
    """The inter-aggregator backhaul could not route a message."""


class ProtocolError(ReproError):
    """A protocol message or state transition violated the specification."""


class CodecError(ProtocolError):
    """A protocol message could not be encoded or decoded."""


class MembershipError(ProtocolError):
    """A membership operation (register/transfer/remove) is invalid."""


class ChainError(ReproError):
    """Base class for blockchain errors."""


class BlockValidationError(ChainError):
    """A block failed structural or hash-link validation."""


class TamperDetectedError(ChainError):
    """An audit found that stored ledger data was mutated."""


class PrunedBlockError(ChainError):
    """A block body was requested below the ledger's pruning boundary."""


class StorageError(ReproError):
    """The device-local store-and-forward buffer failed an operation."""


class BillingError(ReproError):
    """The billing engine was given inconsistent inputs."""


class AnomalyError(ReproError):
    """An anomaly-detection component was misconfigured."""


class ExperimentError(ReproError):
    """An experiment harness could not complete a run."""

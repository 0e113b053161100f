"""Deterministic per-link fault injectors.

A :class:`LinkFaultInjector` sits on one communication path (a device's
radio link, a broker's downlink, a backhaul edge) and answers two
questions the transport layers ask:

* :meth:`packet_blocked` — frame-level: is this transmission lost?
  True throughout a blackout window and with probability ``drop_p``
  otherwise (the Wi-Fi path adds this *on top of* the channel's
  RSSI-driven error model).
* :meth:`message_verdict` — message-level: pass, drop, duplicate,
  delay or corrupt this routed message?  Corrupted frames fail their
  integrity check at the receiver and are discarded — observably
  distinct from silent drops, identical in effect.

All draws come from the generator handed in at construction (derive it
from the kernel's :class:`~repro.sim.rng.RngStreams`), so fault
sequences replay exactly for a given master seed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.monitoring.counters import CounterBank


class FaultAction(enum.Enum):
    """Verdict for one message crossing a faulted link."""

    PASS = "pass"
    DROP = "drop"
    DUPLICATE = "duplicate"
    DELAY = "delay"
    CORRUPT = "corrupt"


@dataclass(frozen=True)
class LinkFaultSpec:
    """Stationary fault probabilities of one link.

    Attributes:
        drop_p: Probability a frame/message is silently lost.
        duplicate_p: Probability a message is delivered twice.
        delay_p: Probability a message is held back.
        delay_s: Extra latency applied to delayed messages.
        corrupt_p: Probability a message arrives corrupted (and is
            discarded by the receiver's integrity check).
    """

    drop_p: float = 0.0
    duplicate_p: float = 0.0
    delay_p: float = 0.0
    delay_s: float = 0.5
    corrupt_p: float = 0.0

    def __post_init__(self) -> None:
        for name in ("drop_p", "duplicate_p", "delay_p", "corrupt_p"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        total = self.drop_p + self.duplicate_p + self.delay_p + self.corrupt_p
        if total > 1.0:
            raise ConfigError(f"drop_p+duplicate_p+delay_p+corrupt_p must be <= 1, got {total}")
        if self.delay_s < 0:
            raise ConfigError(f"delay must be >= 0, got {self.delay_s}")

    @property
    def lossless(self) -> bool:
        """True when every probability is zero."""
        return (
            self.drop_p == 0.0
            and self.duplicate_p == 0.0
            and self.delay_p == 0.0
            and self.corrupt_p == 0.0
        )


class LinkFaultInjector:
    """Fault state of one link: a blackout flag plus stationary noise.

    Args:
        name: Counter prefix (e.g. ``"uplink:device1"``).
        rng: Random stream for fault draws.
        spec: Stationary fault probabilities (default: none).
        counters: Shared counter bank (one is created when omitted).
    """

    def __init__(
        self,
        name: str,
        rng: np.random.Generator,
        spec: LinkFaultSpec | None = None,
        counters: CounterBank | None = None,
    ) -> None:
        if not name:
            raise ConfigError("injector name must be non-empty")
        self._name = name
        self._rng = rng
        self._spec = spec or LinkFaultSpec()
        self._counters = counters if counters is not None else CounterBank()
        self._blackout = False

    @property
    def name(self) -> str:
        """Counter prefix of this injector."""
        return self._name

    @property
    def spec(self) -> LinkFaultSpec:
        """Current stationary fault probabilities."""
        return self._spec

    @property
    def counters(self) -> CounterBank:
        """The counter bank faults are recorded into."""
        return self._counters

    @property
    def blackout_active(self) -> bool:
        """Whether the link is currently blacked out."""
        return self._blackout

    def set_spec(self, spec: LinkFaultSpec) -> None:
        """Swap the stationary fault probabilities (plan window edges)."""
        self._spec = spec

    def start_blackout(self) -> None:
        """Black the link out: everything is lost until :meth:`end_blackout`."""
        self._blackout = True
        self._counters.increment(f"{self._name}.blackouts")

    def end_blackout(self) -> None:
        """Lift the blackout."""
        self._blackout = False

    # -- transport-layer queries ----------------------------------------

    def packet_blocked(self) -> bool:
        """Frame-level loss verdict (blackout, else one ``drop_p`` draw)."""
        if self._blackout:
            self._counters.increment(f"{self._name}.blackout_losses")
            return True
        if self._spec.drop_p > 0 and float(self._rng.random()) < self._spec.drop_p:
            self._counters.increment(f"{self._name}.drops")
            return True
        return False

    def message_verdict(self) -> FaultAction:
        """Message-level verdict: one draw across all fault modes."""
        if self._blackout:
            self._counters.increment(f"{self._name}.blackout_losses")
            return FaultAction.DROP
        if self._spec.lossless:
            return FaultAction.PASS
        draw = float(self._rng.random())
        edge = self._spec.drop_p
        if draw < edge:
            self._counters.increment(f"{self._name}.drops")
            return FaultAction.DROP
        edge += self._spec.duplicate_p
        if draw < edge:
            self._counters.increment(f"{self._name}.duplicates")
            return FaultAction.DUPLICATE
        edge += self._spec.delay_p
        if draw < edge:
            self._counters.increment(f"{self._name}.delays")
            return FaultAction.DELAY
        edge += self._spec.corrupt_p
        if draw < edge:
            self._counters.increment(f"{self._name}.corruptions")
            return FaultAction.CORRUPT
        return FaultAction.PASS

    @property
    def extra_delay_s(self) -> float:
        """Latency added to messages the verdict delayed."""
        return self._spec.delay_s

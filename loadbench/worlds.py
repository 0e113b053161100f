"""The benchmark's worlds: sizes, seeds and the roaming churn.

Every input is derived from the round's seed (``run.py`` derives one
per round from the workload seed).  The fleet worlds use
``seed % WORLD_SEEDS`` as the spec seed so that every seed lands on a
world whose ledger digest is pinned in ``digests.json``; the receipt
picks and the serve traffic use the full seed.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

#: Fleet worlds with a pinned digest per mode and size.
WORLD_SEEDS = 32


@dataclass(frozen=True)
class Size:
    """How big one round of each workload is.

    The horizon sits mid-interval, off the 0.1 s measurement grid, where
    the fleet is quiescent (see "Vectorized fleet" in docs/ARCHITECTURE.md).
    """

    networks: int
    devices_per_network: int
    horizon_s: float
    receipts: int
    billing_passes: int
    builds: int


SIZES = {
    # 1,000 devices in 50 networks, as the workloads are defined.
    "full": Size(50, 20, 5.05, 1000, 3, 5),
    # A seconds-long world for the benchmark's own tests.
    "tiny": Size(2, 5, 5.05, 50, 2, 2),
}


def world_seed(seed: int) -> int:
    """The spec seed of the fleet world for a workload seed."""
    return seed % WORLD_SEEDS


def fleet_spec(size: Size, seed: int, vector: bool):
    """``scaled_spec`` on the direct transport, optionally vectorized.

    Scan and association take 50 ms instead of the Wi-Fi model's ~5.5 s,
    so the whole fleet reports from t ~ 0.45 s and the horizon is mostly
    steady state rather than join phase.
    """
    from repro.runtime import TransportSpec
    from repro.runtime.spec import VectorSpec
    from repro.workloads.scenarios import scaled_spec

    spec = scaled_spec(
        size.networks,
        size.devices_per_network,
        seed=world_seed(seed),
        transport=TransportSpec(kind="direct", scan_s=0.05, assoc_s=0.05),
    )
    if vector:
        spec = dataclasses.replace(spec, vector=VectorSpec(enabled=True))
    return spec


@dataclass(frozen=True)
class Trip:
    """One roamer's itinerary: home -> away -> home."""

    device: str
    home: str
    away: str
    leave_at: float
    enter_away_at: float
    leave_away_at: float
    return_at: float


def roaming_churn(size: Size, seed: int) -> list[Trip]:
    """One roamer per network (5 % of the full fleet).

    Each leaves home between 1.0 and 1.5 s, is in transit 0.2-0.4 s,
    stays 0.8-1.2 s in the next network (a temporary membership whose
    reports the host forwards home over the backhaul), is in transit
    again and re-enters home by 3.5 s, leaving the rest of the horizon
    for its buffered reports to flush.
    """
    rng = random.Random(f"churn:{world_seed(seed)}")
    trips = []
    for i in range(size.networks):
        j = rng.randrange(size.devices_per_network)
        leave_at = rng.uniform(1.0, 1.5)
        enter_away_at = leave_at + rng.uniform(0.2, 0.4)
        leave_away_at = enter_away_at + rng.uniform(0.8, 1.2)
        return_at = leave_away_at + rng.uniform(0.2, 0.4)
        trips.append(
            Trip(
                device=f"dev-{i}-{j}",
                home=f"net-{i}",
                away=f"net-{(i + 1) % size.networks}",
                leave_at=leave_at,
                enter_away_at=enter_away_at,
                leave_away_at=leave_away_at,
                return_at=return_at,
            )
        )
    return trips


def schedule_churn(scenario, trips: list[Trip]) -> None:
    """Arm every trip as a :class:`MobilityTrace` on the built world."""
    from repro.workloads.mobility import MobilityEvent, MobilityTrace

    for trip in trips:
        # The device entered home at t=0 through its spec; the trace
        # holds the rest of the itinerary, which starts with a leave.
        device = scenario.device(trip.device)
        sim = scenario.simulator
        sim.schedule(trip.leave_at, device.leave_network, label=f"{trip.device}:leave")
        trace = MobilityTrace(
            [
                MobilityEvent(trip.enter_away_at, "enter", trip.away),
                MobilityEvent(trip.leave_away_at, "leave"),
                MobilityEvent(trip.return_at, "enter", trip.home),
            ]
        )
        scenario.schedule_mobility(trip.device, trace)


def fleet_inputs(workload: str, size: Size, seed: int):
    """``(spec, trips, horizon_s)`` of a fleet workload's world."""
    roaming = workload == "fleet_roaming"
    spec = fleet_spec(size, seed, vector=roaming)
    trips = roaming_churn(size, seed) if roaming else []
    return spec, trips, size.horizon_s


def build_fleet(spec, trips: list[Trip]):
    """Build the fleet world (kernel tracing off) and arm its churn."""
    from repro.runtime import build
    from repro.runtime.context import SimContext

    scenario = build(spec, context=SimContext.create(seed=spec.seed, trace=False))
    schedule_churn(scenario, trips)
    return scenario


def serve_spec(seed: int):
    """The paper testbed with no simulated device entering: the served
    aggregator sees only the load generator's traffic, so every request's
    kernel step is the same small amount of work."""
    from repro.runtime.spec import ServeSpec
    from repro.workloads.scenarios import paper_testbed_spec

    spec = paper_testbed_spec(seed=seed, enter_devices=False)
    return dataclasses.replace(spec, serve=ServeSpec(enabled=True))

"""ScenarioSpec / SimContext runtime tests.

Covers the declarative-spec contract end to end:

* lossless round-trip — ``from_dict(to_dict())`` and the JSON path
  reproduce the spec exactly, over hypothesis-generated specs,
* strict decoding — every malformed spec document raises ``ConfigError``,
* determinism — the spec-built paper testbed reproduces the ledger
  digest the imperative builder produced before the refactor,
* provenance — ``snapshot()`` carries the master seed and the
  originating spec,
* unified counters — every layer (devices, aggregators, mesh,
  channel, chain, faults) emits into one shared :class:`CounterBank`,
* the ``repro-experiments --scenario`` CLI path.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import ConfigError
from repro.runtime import (
    DeviceSpec,
    FaultSpec,
    LedgerSpec,
    MeshSpec,
    NetworkSpec,
    ObsSpec,
    ProfileSpec,
    ScenarioSpec,
    ServeSpec,
    ShardSpec,
    SimContext,
    TransportSpec,
    build,
)
from repro.runtime.spec import VectorSpec
from repro.workloads.scenarios import paper_testbed_spec, scaled_spec

# Ledger tip hash of build_paper_testbed(seed=7) run to t=30.0, captured
# on the pre-refactor imperative builder. The spec path must reproduce
# it bit for bit.
PAPER_TESTBED_SEED7_DIGEST = (
    "bcca848983a69021572fb962b4887cd30c9e19978987dc1c0766c87eec59b70e"
)

_name = st.text(alphabet="abcdefgh123", min_size=1, max_size=8)
_finite = st.floats(
    min_value=0.001, max_value=1000.0, allow_nan=False, allow_infinity=False
)

_profiles = st.one_of(
    st.builds(
        ProfileSpec,
        kind=st.just("constant"),
        params=st.fixed_dictionaries({"current_ma": _finite}),
    ),
    st.builds(
        ProfileSpec,
        kind=st.just("duty_cycle"),
        params=st.fixed_dictionaries(
            {
                "high_ma": _finite,
                "low_ma": _finite,
                "period_s": _finite,
                "duty": st.floats(min_value=0.05, max_value=0.95),
            }
        ),
    ),
    st.builds(
        ProfileSpec,
        kind=st.just("sinusoid"),
        params=st.fixed_dictionaries(
            {
                "mean_ma": st.floats(min_value=100.0, max_value=500.0),
                "amplitude_ma": st.floats(min_value=0.0, max_value=100.0),
                "period_s": _finite,
                "phase_s": _finite,
            }
        ),
    ),
)


def _split(draw, names, parts):
    """``names`` shuffled and cut into ``parts`` non-empty groups."""
    order = draw(st.permutations(names))
    cuts = draw(
        st.lists(
            st.integers(1, max(1, len(order) - 1)),
            min_size=parts - 1,
            max_size=parts - 1,
            unique=True,
        )
    )
    bounds = [0, *sorted(cuts), len(order)]
    return tuple(tuple(order[a:b]) for a, b in zip(bounds, bounds[1:]))


@st.composite
def scenario_specs(draw):
    """A valid ScenarioSpec with coherent cross-references."""
    network_names = draw(
        st.lists(_name, min_size=1, max_size=4, unique=True)
    )
    networks = tuple(
        NetworkSpec(
            name=name,
            supply_voltage_v=draw(st.floats(min_value=1.0, max_value=48.0)),
            wire_resistance_ohms=draw(st.floats(min_value=0.0, max_value=2.0)),
            wire_leakage_ma=draw(st.floats(min_value=0.0, max_value=10.0)),
            slot_count=draw(st.one_of(st.none(), st.integers(4, 64))),
        )
        for name in network_names
    )
    device_names = draw(
        st.lists(
            _name.map(lambda s: "dev-" + s), min_size=0, max_size=5, unique=True
        )
    )
    devices = tuple(
        DeviceSpec(
            name=name,
            network=draw(st.sampled_from(network_names)),
            profile=draw(_profiles),
            enter_at=draw(
                st.one_of(st.none(), st.floats(min_value=0.0, max_value=30.0))
            ),
            distance_m=draw(st.floats(min_value=0.5, max_value=50.0)),
        )
        for name in device_names
    )
    mesh = MeshSpec(
        topology=draw(st.sampled_from(("full", "line", "star"))),
        latency_s=draw(st.floats(min_value=1e-4, max_value=0.5)),
    )
    if draw(st.booleans()):
        mesh = MeshSpec(
            topology="explicit",
            latency_s=mesh.latency_s,
            links=tuple(
                (a, b)
                for a, b in draw(
                    st.lists(
                        st.tuples(
                            st.sampled_from(network_names),
                            st.sampled_from(network_names),
                        ),
                        max_size=4,
                    )
                )
                if a != b
            ),
        )
    transport = TransportSpec(
        kind=draw(st.sampled_from(("mqtt", "direct", "serve"))),
        latency_s=draw(st.floats(min_value=0.0, max_value=0.1)),
        loss_p=draw(st.floats(min_value=0.0, max_value=0.5)),
        connect_s=draw(st.floats(min_value=0.01, max_value=2.0)),
        scan_s=draw(st.floats(min_value=0.0, max_value=5.0)),
        assoc_s=draw(st.floats(min_value=0.0, max_value=2.0)),
    )
    obs = ObsSpec(
        enabled=draw(st.booleans()),
        spans=draw(st.booleans()),
        profile=draw(st.booleans()),
        sample_every=draw(st.integers(min_value=1, max_value=10**6)),
    )
    checkpoint_every = draw(st.integers(min_value=0, max_value=16))
    ledger = LedgerSpec(
        sync_enabled=draw(st.booleans()),
        header_batch_size=draw(st.integers(min_value=1, max_value=64)),
        sync_interval_s=draw(st.one_of(st.none(), st.floats(0.1, 60.0))),
        checkpoint_interval_blocks=checkpoint_every,
        pruning_depth_blocks=draw(
            st.integers(min_value=0, max_value=8 if checkpoint_every else 0)
        ),
    )
    shards = draw(st.integers(min_value=1, max_value=len(network_names)))
    assignment = _split(draw, network_names, shards) if draw(st.booleans()) else ()
    sharding = ShardSpec(
        shards=shards,
        window_s=draw(st.one_of(st.none(), st.floats(1e-4, 1.0))),
        assignment=assignment,
    )
    vector = VectorSpec(
        enabled=draw(st.booleans()),
        scan_interval_s=draw(st.floats(min_value=0.1, max_value=10.0)),
        min_cohort=draw(st.integers(min_value=1, max_value=8)),
        backend=draw(st.sampled_from(("auto", "python"))),
    )
    serve = ServeSpec(
        enabled=draw(st.booleans()),
        host=draw(st.sampled_from(("127.0.0.1", "0.0.0.0"))),
        port=draw(st.integers(min_value=0, max_value=65535)),
        network=draw(st.one_of(st.none(), st.sampled_from(network_names))),
        step_s=draw(st.floats(min_value=0.01, max_value=5.0)),
        poll_timeout_s=draw(st.floats(min_value=0.0, max_value=30.0)),
    )
    # Four probabilities of at most 0.25 each keep their sum <= 1.
    noise_params = st.dictionaries(
        st.sampled_from(("drop_p", "duplicate_p", "delay_p", "delay_s", "corrupt_p")),
        st.floats(min_value=0.0, max_value=0.25),
    )
    start = st.floats(min_value=0.0, max_value=20.0)
    duration = st.floats(min_value=0.5, max_value=20.0)
    faults = []
    if draw(st.booleans()):
        faults.append(
            FaultSpec(
                kind="channel_blackout",
                name="blackout",
                start_at=draw(start),
                duration_s=draw(duration),
                target="radio",
            )
        )
    if draw(st.booleans()):
        faults.append(
            FaultSpec(
                kind="channel_noise",
                name="radio-noise",
                start_at=draw(start),
                duration_s=draw(st.one_of(st.none(), duration)),
                target="radio",
                params=draw(noise_params),
            )
        )
    if draw(st.booleans()):
        faults.append(
            FaultSpec(
                kind="broker_noise",
                name="noise",
                start_at=draw(start),
                target=draw(st.sampled_from(network_names)),
                params=draw(noise_params),
            )
        )
    if draw(st.booleans()):
        faults.append(
            FaultSpec(
                kind="aggregator_crash",
                name="crash",
                start_at=draw(start),
                duration_s=draw(duration),
                target=draw(st.sampled_from(network_names)),
            )
        )
    if len(network_names) >= 2 and draw(st.booleans()):
        faults.append(
            FaultSpec(
                kind="backhaul_partition",
                name="partition",
                start_at=draw(start),
                duration_s=draw(duration),
                groups=_split(draw, network_names, 2),
            )
        )
    return ScenarioSpec(
        name=draw(_name),
        seed=draw(st.integers(min_value=0, max_value=2**32)),
        t_measure_s=draw(st.floats(min_value=0.01, max_value=5.0)),
        device_retry=draw(st.booleans()),
        networks=networks,
        devices=devices,
        mesh=mesh,
        transport=transport,
        faults=tuple(faults),
        obs=obs,
        ledger=ledger,
        sharding=sharding,
        vector=vector,
        serve=serve,
    )


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(scenario_specs())
    def test_dict_round_trip_is_identity(self, spec):
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    @settings(max_examples=60, deadline=None)
    @given(scenario_specs())
    def test_json_round_trip_is_identity(self, spec):
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    @settings(max_examples=30, deadline=None)
    @given(scenario_specs())
    def test_to_dict_is_json_serializable(self, spec):
        # json round-trip of the dict must not change it either
        data = spec.to_dict()
        assert json.loads(json.dumps(data)) == data

    def test_unknown_keys_rejected(self):
        data = paper_testbed_spec().to_dict()
        data["bogus"] = 1
        with pytest.raises(ConfigError):
            ScenarioSpec.from_dict(data)

    def test_device_unknown_network_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioSpec(
                networks=(NetworkSpec(name="agg1"),),
                devices=(
                    DeviceSpec(
                        name="d1",
                        network="nope",
                        profile=ProfileSpec("constant", {"current_ma": 10.0}),
                    ),
                ),
            )


def _golden_spec():
    """A spec with every block, topology and fault kind off its default."""
    return ScenarioSpec(
        name="golden",
        seed=11,
        t_measure_s=0.2,
        device_retry=False,
        networks=(
            NetworkSpec(
                name="agg1",
                supply_voltage_v=12.0,
                wire_resistance_ohms=0.3,
                wire_leakage_ma=1.5,
                slot_count=8,
            ),
            NetworkSpec(name="agg2"),
        ),
        devices=(
            DeviceSpec(
                name="d1",
                network="agg1",
                profile=ProfileSpec("constant", {"current_ma": 90.0}),
            ),
            DeviceSpec(
                name="d2",
                network="agg2",
                profile=ProfileSpec("duty_cycle", {"high_ma": 200.0, "duty": 0.25}),
                enter_at=None,
                distance_m=12.5,
            ),
            DeviceSpec(
                name="d3",
                network="agg2",
                profile=ProfileSpec("sinusoid", {"mean_ma": 120.0, "amplitude_ma": 50.0}),
                enter_at=3.5,
            ),
        ),
        mesh=MeshSpec(topology="explicit", latency_s=0.004, links=(("agg1", "agg2"),)),
        transport=TransportSpec(
            kind="direct", latency_s=0.002, loss_p=0.05, connect_s=0.5, scan_s=0.05,
            assoc_s=0.1,
        ),
        faults=(
            FaultSpec(
                kind="channel_blackout", name="fb", start_at=10.0, duration_s=2.0,
                target="radio",
            ),
            FaultSpec(
                kind="channel_noise", name="fn", start_at=5.0, target="radio",
                params={"drop_p": 0.1, "delay_s": 0.02},
            ),
            FaultSpec(
                kind="broker_noise", name="bn", start_at=6.0, duration_s=4.0,
                target="agg1", params={"duplicate_p": 0.2},
            ),
            FaultSpec(
                kind="aggregator_crash", name="ac", start_at=20.0, duration_s=5.0,
                target="agg2",
            ),
            FaultSpec(
                kind="backhaul_partition", name="bp", start_at=15.0, duration_s=3.0,
                groups=(("agg1",), ("agg2",)),
            ),
        ),
        obs=ObsSpec(enabled=True, spans=False, profile=True, sample_every=500),
        ledger=LedgerSpec(
            sync_enabled=True, header_batch_size=8, sync_interval_s=2.5,
            checkpoint_interval_blocks=4, pruning_depth_blocks=2,
        ),
        sharding=ShardSpec(shards=2, window_s=0.001, assignment=(("agg2",), ("agg1",))),
        vector=VectorSpec(enabled=True, scan_interval_s=2.0, min_cohort=3, backend="python"),
        serve=ServeSpec(
            enabled=True, host="0.0.0.0", port=8123, network="agg2", step_s=0.5,
            poll_timeout_s=0.2,
        ),
    )


# ``_golden_spec().to_dict()`` pinned as a literal: round-trip tests cannot
# catch a renamed key (both directions change together); this can.
GOLDEN_SPEC_DICT = {
    "name": "golden",
    "seed": 11,
    "t_measure_s": 0.2,
    "device_retry": False,
    "networks": [
        {"name": "agg1", "supply_voltage_v": 12.0, "wire_resistance_ohms": 0.3,
         "wire_leakage_ma": 1.5, "slot_count": 8},
        {"name": "agg2", "supply_voltage_v": 5.0, "wire_resistance_ohms": 0.1,
         "wire_leakage_ma": 2.5, "slot_count": None},
    ],
    "devices": [
        {"name": "d1", "network": "agg1",
         "profile": {"kind": "constant", "params": {"current_ma": 90.0}},
         "enter_at": 0.0, "distance_m": 5.0},
        {"name": "d2", "network": "agg2",
         "profile": {"kind": "duty_cycle", "params": {"high_ma": 200.0, "duty": 0.25}},
         "enter_at": None, "distance_m": 12.5},
        {"name": "d3", "network": "agg2",
         "profile": {"kind": "sinusoid",
                     "params": {"mean_ma": 120.0, "amplitude_ma": 50.0}},
         "enter_at": 3.5, "distance_m": 5.0},
    ],
    "mesh": {"topology": "explicit", "latency_s": 0.004, "links": [["agg1", "agg2"]]},
    "transport": {"kind": "direct", "latency_s": 0.002, "loss_p": 0.05,
                  "connect_s": 0.5, "scan_s": 0.05, "assoc_s": 0.1},
    "faults": [
        {"kind": "channel_blackout", "name": "fb", "start_at": 10.0, "duration_s": 2.0,
         "target": "radio", "groups": [], "params": {}},
        {"kind": "channel_noise", "name": "fn", "start_at": 5.0, "duration_s": None,
         "target": "radio", "groups": [], "params": {"drop_p": 0.1, "delay_s": 0.02}},
        {"kind": "broker_noise", "name": "bn", "start_at": 6.0, "duration_s": 4.0,
         "target": "agg1", "groups": [], "params": {"duplicate_p": 0.2}},
        {"kind": "aggregator_crash", "name": "ac", "start_at": 20.0, "duration_s": 5.0,
         "target": "agg2", "groups": [], "params": {}},
        {"kind": "backhaul_partition", "name": "bp", "start_at": 15.0, "duration_s": 3.0,
         "target": None, "groups": [["agg1"], ["agg2"]], "params": {}},
    ],
    "obs": {"enabled": True, "spans": False, "profile": True, "sample_every": 500},
    "ledger": {"sync_enabled": True, "header_batch_size": 8, "sync_interval_s": 2.5,
               "checkpoint_interval_blocks": 4, "pruning_depth_blocks": 2},
    "sharding": {"shards": 2, "window_s": 0.001, "assignment": [["agg2"], ["agg1"]]},
    "vector": {"enabled": True, "scan_interval_s": 2.0, "min_cohort": 3,
               "backend": "python"},
    "serve": {"enabled": True, "host": "0.0.0.0", "port": 8123, "network": "agg2",
              "step_s": 0.5, "poll_timeout_s": 0.2},
}


_DROP = object()


def _edit(path, value=_DROP):
    """A mutator that sets (or deletes) the key at ``path`` in a spec dict."""

    def mutate(data):
        *parents, last = path
        node = data
        for key in parents:
            node = node[key]
        if value is _DROP:
            del node[last]
        else:
            node[last] = value
        return data

    return mutate


def _fault(kind, params, **extra):
    return {"kind": kind, "name": "f", "start_at": 12.0, "params": params, **extra}


def _partition(groups):
    return {"kind": "backhaul_partition", "name": "bp", "start_at": 12.0,
            "duration_s": 3.0, "groups": groups}


# Spec-file inputs that must be refused with ConfigError, rather than escape
# as TypeError/KeyError/ValueError or be accepted (some only to fail later
# inside the kernel).
MALFORMED_SPECS = {
    "voltage-as-string": _edit(("networks", 0, "supply_voltage_v"), "5"),
    "params-as-list": _edit(("devices", 0, "profile", "params"), [1, 2]),
    "device-without-profile": _edit(("devices", 0, "profile")),
    "one-ended-link": _edit(("mesh",), {"topology": "explicit", "links": [["agg1"]]}),
    "null-mesh": _edit(("mesh",), None),
    "shards-as-string": _edit(("sharding",), {"shards": "2"}),
    "enabled-as-string": _edit(("vector",), {"enabled": "false"}),
    "retry-as-string": _edit(("device_retry",), "no"),
    "seed-as-bool": _edit(("seed",), True),
    "infinite-t-measure": _edit(("t_measure_s",), float("inf")),
    "nan-enter-at": _edit(("devices", 0, "enter_at"), float("nan")),
    "non-object": lambda data: [1, 2],
    "empty-list": lambda data: [],
    "noise-unknown-param": _edit(("faults",), [_fault("channel_noise", {"bogus": 1.0})]),
    "noise-param-out-of-range": _edit(
        ("faults",), [_fault("broker_noise", {"drop_p": 1.5}, target="agg1")]
    ),
    "noise-params-sum-over-one": _edit(
        ("faults",), [_fault("channel_noise", {"drop_p": 0.6, "corrupt_p": 0.6})]
    ),
    "crash-with-params": _edit(
        ("faults",),
        [_fault("aggregator_crash", {"drop_p": 0.1}, target="agg1", duration_s=1.0)],
    ),
    "mesh-self-link": _edit(("mesh",), {"topology": "explicit", "links": [["agg1", "agg1"]]}),
    "partition-overlapping-groups": _edit(
        ("faults",), [_partition([["agg1"], ["agg1", "agg2"]])]
    ),
    "partition-missing-network": _edit(("faults",), [_partition([["agg1"], []])]),
}


class TestStrictDecoding:
    def test_golden_dict_is_stable(self):
        spec = _golden_spec()
        assert spec.to_dict() == GOLDEN_SPEC_DICT
        assert ScenarioSpec.from_dict(GOLDEN_SPEC_DICT) == spec

    @pytest.mark.parametrize("case", sorted(MALFORMED_SPECS))
    def test_malformed_spec_is_a_config_error(self, case):
        data = paper_testbed_spec().to_dict()
        data = MALFORMED_SPECS[case](data)
        # Through the dict API and through a JSON document (Python's json
        # spells the non-finite floats Infinity / NaN, as a file would).
        with pytest.raises(ConfigError):
            ScenarioSpec.from_dict(data)
        with pytest.raises(ConfigError):
            ScenarioSpec.from_json(json.dumps(data))

    def test_unparsable_json_is_a_config_error(self):
        with pytest.raises(ConfigError):
            ScenarioSpec.from_json("{not json")

    def test_absent_blocks_take_defaults(self):
        data = {"networks": [{"name": "agg1"}]}
        assert ScenarioSpec.from_dict(data) == ScenarioSpec(
            networks=(NetworkSpec(name="agg1"),)
        )


class TestDeterminism:
    def test_paper_testbed_matches_pre_refactor_digest(self):
        scenario = build(paper_testbed_spec(seed=7))
        scenario.run_until(30.0)
        assert scenario.chain.tip_hash == PAPER_TESTBED_SEED7_DIGEST

    def test_observed_paper_testbed_matches_pinned_digest(self):
        # Spans + profiler are pure observation: an instrumented run
        # must reproduce the pinned ledger digest bit for bit.
        import dataclasses

        spec = dataclasses.replace(
            paper_testbed_spec(seed=7), obs=ObsSpec(enabled=True)
        )
        scenario = build(spec)
        scenario.run_until(30.0)
        assert scenario.chain.tip_hash == PAPER_TESTBED_SEED7_DIGEST
        assert len(scenario.simulator.spans) > 0
        assert scenario.simulator.profiler is not None

    def test_ledger_defaults_preserve_pinned_digest(self):
        # A LedgerSpec on every axis' default (sync off, no
        # checkpoints, no pruning) must build the exact pre-ledger-sync
        # world: the chainsync subscription draws no randomness and the
        # sync task never arms.
        import dataclasses

        spec = dataclasses.replace(paper_testbed_spec(seed=7), ledger=LedgerSpec())
        scenario = build(spec)
        scenario.run_until(30.0)
        assert scenario.chain.tip_hash == PAPER_TESTBED_SEED7_DIGEST

    def test_same_spec_builds_identical_worlds(self):
        spec = scaled_spec(n_networks=2, devices_per_network=3, seed=11)
        digests = []
        for _ in range(2):
            scenario = build(spec)
            scenario.run_until(12.0)
            digests.append(scenario.chain.tip_hash)
        assert digests[0] == digests[1]

    def test_json_round_tripped_spec_builds_identical_world(self):
        spec = paper_testbed_spec(seed=7)
        revived = ScenarioSpec.from_json(spec.to_json())
        scenario = build(revived)
        scenario.run_until(30.0)
        assert scenario.chain.tip_hash == PAPER_TESTBED_SEED7_DIGEST


class TestProvenance:
    def test_snapshot_carries_seed_spec_and_digest(self):
        spec = paper_testbed_spec(seed=42)
        scenario = build(spec)
        scenario.run_until(5.0)
        snap = scenario.snapshot()
        assert snap["master_seed"] == 42
        assert snap["spec"] == spec.to_dict()
        assert snap["ledger_digest"] == scenario.chain.tip_hash
        assert json.loads(json.dumps(snap, default=str))  # JSON-safe

    def test_scenario_records_originating_spec(self):
        spec = paper_testbed_spec(seed=3)
        scenario = build(spec)
        assert scenario.spec == spec
        assert scenario.master_seed == 3


class TestUnifiedCounters:
    def test_all_layers_share_one_counter_bank(self):
        scenario = build(paper_testbed_spec(seed=1))
        scenario.run_until(10.0)
        bank = scenario.counters
        assert bank is scenario.context.counters
        # one bank is visible from every layer's process
        for device in scenario.devices.values():
            assert device.counters is bank
        for unit in scenario.aggregators.values():
            assert unit.counters is bank
        assert scenario.mesh.counters is bank
        snapshot = bank.snapshot()
        assert any(key.startswith("chain.") for key in snapshot)
        assert any(key.startswith("device") for key in snapshot)
        assert any(".blocks_written" in key for key in snapshot)
        assert any(".acks_sent" in key for key in snapshot)

    def test_fault_plan_shares_the_bank(self):
        spec = paper_testbed_spec(
            seed=5,
            faults=(
                FaultSpec(
                    kind="channel_blackout",
                    name="radio-blackout",
                    start_at=2.0,
                    duration_s=3.0,
                    target="radio",
                ),
            ),
        )
        scenario = build(spec)
        scenario.run_until(10.0)
        assert scenario.fault_plan is not None
        assert scenario.fault_plan.counters is scenario.counters
        assert scenario.counters.get("fault.radio-blackout.activations") == 1

    def test_context_create_wires_clock_and_streams(self):
        ctx = SimContext.create(seed=9)
        assert ctx.master_seed == 9
        first = ctx.stream("x").random()
        assert first == SimContext.create(seed=9).stream("x").random()


class TestCliScenario:
    def test_scenario_flag_runs_spec_file(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(paper_testbed_spec(seed=7).to_json())
        code = main(["--scenario", str(spec_file), "--until", "5"])
        assert code == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["master_seed"] == 7
        assert snap["spec"]["name"] == "paper-testbed"
        assert snap["time"] == 5.0

    def test_scenario_flag_writes_snapshot_with_out(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(
            scaled_spec(n_networks=1, devices_per_network=2, seed=4).to_json()
        )
        out_dir = tmp_path / "out"
        code = main(
            ["--scenario", str(spec_file), "--until", "3", "--out", str(out_dir)]
        )
        assert code == 0
        capsys.readouterr()
        written = json.loads((out_dir / "scenario_snapshot.json").read_text())
        assert written["master_seed"] == 4

    @pytest.mark.parametrize("command", [[], ["serve"]])
    def test_bad_spec_file_exits_2_with_message(self, tmp_path, capsys, command):
        bad = paper_testbed_spec().to_dict()
        bad["t_measure_s"] = "0.1"
        spec_file = tmp_path / "bad.json"
        spec_file.write_text(json.dumps(bad))
        # A shape that used to build and then fail mid-run, at start_at.
        overlap = MALFORMED_SPECS["partition-overlapping-groups"](paper_testbed_spec().to_dict())
        overlap_file = tmp_path / "overlap.json"
        overlap_file.write_text(json.dumps(overlap))
        for path in (spec_file, overlap_file, tmp_path / "absent.json"):
            assert main([*command, "--scenario", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("repro-experiments: error: ")
            assert "Traceback" not in captured.err

"""Assorted robustness: decoder fuzz, deployment builder paths, SOF with
competing vetoes."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import Deployment, MinQuery, VMATProtocol, build_deployment, small_test_config
from repro.crypto.encoding import decode_parts, encode_parts
from repro.errors import ConfigError, CryptoError
from repro.topology import grid_topology


class TestDecoderFuzz:
    @given(st.binary(max_size=200))
    def test_decode_never_crashes_uncontrolled(self, data):
        """Arbitrary bytes either decode or raise CryptoError — no other
        exception escapes (a hostile frame cannot crash a sensor)."""
        try:
            decode_parts(data)
        except CryptoError:
            pass

    @given(st.lists(st.integers(-(2**64), 2**64), max_size=5))
    def test_bitflip_never_decodes_to_original(self, parts):
        encoded = bytearray(encode_parts(*parts))
        if not encoded:
            return
        encoded[len(encoded) // 2] ^= 0xFF
        try:
            decoded = decode_parts(bytes(encoded))
        except CryptoError:
            return
        assert decoded != tuple(parts)


class TestDeploymentBuilder:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(seed=2**63), "signed 64-bit"),
            (dict(seed=-(2**63) - 1), "signed 64-bit"),
            (dict(key_scheme="quantum"), "unknown key scheme"),
        ],
    )
    def test_bad_arguments_raise_config_error(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            build_deployment(num_nodes=10, **kwargs)

    def test_custom_master_secret_changes_keys(self):
        a = build_deployment(num_nodes=10, seed=1, master_secret=b"alpha")
        b = build_deployment(num_nodes=10, seed=1, master_secret=b"beta")
        assert a.registry.sensor_key(1) != b.registry.sensor_key(1)

    def test_same_seed_same_deployment(self):
        a = build_deployment(num_nodes=15, seed=4)
        b = build_deployment(num_nodes=15, seed=4)
        assert sorted(a.topology.edges()) == sorted(b.topology.edges())
        assert a.registry.ring(3) == b.registry.ring(3)

    def test_deployment_dataclass_fields(self):
        deployment = build_deployment(num_nodes=10, seed=1)
        assert isinstance(deployment, Deployment)
        assert deployment.network.topology is deployment.topology
        assert deployment.network.registry is deployment.registry

    def test_readings_default_to_zero_for_missing_sensors(self):
        deployment = build_deployment(num_nodes=10, seed=1)
        protocol = VMATProtocol(deployment.network)
        # Only one sensor given a reading: the rest default to 0.0 and
        # one of them wins the MIN.
        result = protocol.execute(MinQuery(), {3: 5.0})
        assert result.produced_result
        assert result.estimate == 0.0


class TestCompetingVetoes:
    @settings(max_examples=10, deadline=None)
    @given(
        vetoers=st.sets(st.integers(1, 15), min_size=2, max_size=6),
        seed=st.integers(0, 50),
    )
    def test_many_vetoers_one_always_lands(self, vetoers, seed):
        """SOF with several simultaneous honest vetoers: exactly the
        one-is-enough semantics — the BS hears a valid veto, and it is
        one of the actual vetoers."""
        from repro.core.confirmation import run_confirmation
        from repro.core.protocol import install_execution
        from repro.core.tree import form_tree

        dep = build_deployment(
            config=small_test_config(depth_bound=10),
            topology=grid_topology(4, 4),
            seed=seed,
        )
        readings = {i: 50.0 for i in dep.topology.sensor_ids}
        for vetoer in vetoers:
            readings[vetoer] = 1.0
        install_execution(dep.network, readings, MinQuery(), b"n")
        form_tree(dep.network, None, 10)
        result = run_confirmation(dep.network, None, 10, b"n", [10.0])
        assert result.valid_veto is not None
        assert result.valid_veto[0].sensor_id in vetoers

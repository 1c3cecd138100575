"""Campaign specs: JSON round-trip, hashing, seed derivation."""

from __future__ import annotations

import pytest

from repro.campaign import CampaignSpec, ScenarioSpec, derive_cell_seed
from repro.errors import ConfigError


def two_scenario_spec() -> CampaignSpec:
    return CampaignSpec(
        name="demo",
        seed=7,
        replicates=2,
        scenarios=(
            ScenarioSpec("comm", {"nodes": (1_000, 10_000), "synopses": (100,)}),
            ScenarioSpec("fig8", {"count": (50,), "synopses": (50,), "trials": (10,)}),
        ),
    )


class TestScenarioSpec:
    def test_scalar_axis_is_promoted_to_tuple(self):
        spec = ScenarioSpec("comm", {"nodes": 500})
        assert spec.grid["nodes"] == (500,)

    def test_rejects_empty_axis(self):
        with pytest.raises(ConfigError):
            ScenarioSpec("comm", {"nodes": ()})

    def test_rejects_non_scalar_values(self):
        with pytest.raises(ConfigError):
            ScenarioSpec("comm", {"nodes": ([1, 2],)})

    def test_replicate_axis_is_reserved(self):
        with pytest.raises(ConfigError):
            ScenarioSpec("comm", {"replicate": (0, 1)})


class TestCampaignSpec:
    def test_json_round_trip(self):
        spec = two_scenario_spec()
        again = CampaignSpec.from_json(spec.to_json())
        assert again == spec
        assert again.spec_hash() == spec.spec_hash()

    def test_spec_hash_changes_with_content(self):
        spec = two_scenario_spec()
        other = CampaignSpec.from_dict({**spec.to_dict(), "seed": 8})
        assert other.spec_hash() != spec.spec_hash()

    def test_validation(self):
        with pytest.raises(ConfigError):
            CampaignSpec(name="", scenarios=(ScenarioSpec("comm", {}),))
        with pytest.raises(ConfigError):
            CampaignSpec(name="x", scenarios=())
        with pytest.raises(ConfigError):
            CampaignSpec(name="x", scenarios=(ScenarioSpec("comm", {}),), replicates=0)

    @pytest.mark.parametrize(
        "text",
        [
            "[1",
            "not json",
            "[]",
            "5",
            '{"name": 3}',
            '{"name": "x"}',
            '{"scenarios": [{"scenario": "comm"}]}',
            '{"name": "x", "scenarios": 5}',
            '{"name": "x", "scenarios": [5]}',
            '{"name": "x", "scenarios": [{"grid": {}}]}',
            '{"name": "x", "scenarios": [{"scenario": 4}]}',
            '{"name": "x", "scenarios": [{"scenario": "comm", "grid": 5}]}',
            '{"name": "x", "scenarios": [{"scenario": "comm", "grid": {"nodes": null}}]}',
            '{"name": "x", "scenarios": [{"scenario": "comm", "grid": {"nodes": {}}}]}',
            '{"name": "x", "scenarios": [{"scenario": "comm"}], "seed": "a"}',
            '{"name": "x", "scenarios": [{"scenario": "comm"}], "seed": [1]}',
            '{"name": "x", "scenarios": [{"scenario": "comm"}], "seed": 1.5}',
            '{"name": "x", "scenarios": [{"scenario": "comm"}], "replicates": true}',
            '{"name": "x", "scenarios": [{"scenario": "comm"}], "cell_timeout": "1"}',
            '{"name": "x", "scenarios": [{"scenario": "comm"}], "cell_timeout": 3e9}',
            '{"name": "x", "scenarios": [{"scenario": "comm"}], "cell_timeout": 2147483648}',
            '{"name": "x", "scenarios": [{"scenario": "comm"}], "imports": "mod"}',
            '{"name": "x", "scenarios": [{"scenario": "comm"}], "imports": [1]}',
            '{"name": "x", "scenarios": [{"scenario": "comm", "grdi": {"nodes": [5]}}]}',
            '{"name": "x", "scenarios": [{"scenario": "comm"}], "replicate": 3}',
        ],
    )
    def test_from_json_rejects_malformed_input_with_config_error(self, text):
        """What ``campaign run --spec`` reads off disk fails typed."""
        with pytest.raises(ConfigError):
            CampaignSpec.from_json(text)

    def test_from_json_accepts_ints_for_cell_timeout_and_omitted_defaults(self):
        spec = CampaignSpec.from_json(
            '{"name": "x", "scenarios": [{"scenario": "comm"}], "cell_timeout": 30}'
        )
        assert spec.cell_timeout == 30.0 and isinstance(spec.cell_timeout, float)
        assert (spec.seed, spec.replicates, spec.imports) == (0, 1, ())
        assert spec.scenarios == (ScenarioSpec("comm", {}),)

    def test_cells_expand_grid_times_replicates(self):
        cells = two_scenario_spec().cells()
        # comm: 2x1 grid, fig8: 1x1x1 grid, both x2 replicates.
        assert len(cells) == (2 * 1 + 1) * 2
        assert len({c.cell_id for c in cells}) == len(cells)
        replicates = {c.params_dict()["replicate"] for c in cells}
        assert replicates == {0, 1}


class TestSeedDerivation:
    def test_stable_across_calls(self):
        params = {"nodes": 100, "replicate": 0}
        assert derive_cell_seed(7, "comm", params) == derive_cell_seed(7, "comm", params)

    def test_sensitive_to_every_input(self):
        params = {"nodes": 100, "replicate": 0}
        base = derive_cell_seed(7, "comm", params)
        assert derive_cell_seed(8, "comm", params) != base
        assert derive_cell_seed(7, "fig8", params) != base
        assert derive_cell_seed(7, "comm", {**params, "nodes": 101}) != base
        assert derive_cell_seed(7, "comm", {**params, "replicate": 1}) != base

    def test_independent_of_param_insertion_order(self):
        a = derive_cell_seed(7, "comm", {"a": 1, "b": 2})
        b = derive_cell_seed(7, "comm", {"b": 2, "a": 1})
        assert a == b

    def test_subset_grid_reuses_full_grid_seeds(self):
        """Position-free seeding: narrowing the grid must not move seeds."""
        full = two_scenario_spec()
        subset = CampaignSpec(
            name="demo",
            seed=7,
            replicates=2,
            scenarios=(ScenarioSpec("comm", {"nodes": (10_000,), "synopses": (100,)}),),
        )
        full_seeds = {c.cell_id: c.seed for c in full.cells()}
        for cell in subset.cells():
            assert full_seeds[cell.cell_id] == cell.seed

    def test_seed_fits_in_63_bits(self):
        seed = derive_cell_seed(0, "comm", {"replicate": 0})
        assert 0 <= seed < 2**63

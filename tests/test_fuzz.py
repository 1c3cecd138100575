"""Tests for :mod:`repro.invariants.fuzz` — the seeded adversary fuzzer.

The fuzzer's contract has three legs, each tested here:

* **determinism** — the trial-th config of a master seed, and the
  violations any config produces, are pure functions of their inputs;
* **soundness on correct code** — a sweep of seeded configs over the
  unmodified protocol raises zero violations (the catalog has no false
  positives on the supported configuration space);
* **sensitivity + repro round-trip** — fuzzing against a planted mutant
  finds a violation, shrinks it to a smaller config that still violates
  the same invariants, and the saved JSON repro replays to exactly the
  recorded violation set.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ReproError
from repro.invariants import FuzzConfig, fuzz, replay_repro, run_config
from repro.invariants.fuzz import sample_config

#: The mutant used for sensitivity tests: silent-pinpoint breaks *every*
#: pinpointing execution (no revocation ever happens), so any sampled
#: config whose adversary forces a pinpoint trips revocation-progress —
#: the broadest detection surface of the planted set.
SENSITIVITY_MUTANT = "silent-pinpoint"


class TestSampleConfigDeterminism:
    def test_same_inputs_same_config(self) -> None:
        for trial in range(10):
            assert sample_config(0, trial) == sample_config(0, trial)

    def test_trials_differ(self) -> None:
        configs = {sample_config(0, trial) for trial in range(10)}
        assert len(configs) > 1

    def test_master_seeds_differ(self) -> None:
        assert sample_config(0, 0) != sample_config(1, 0) or (
            sample_config(0, 1) != sample_config(1, 1)
        )

    def test_sampled_configs_valid(self) -> None:
        for trial in range(10):
            config = sample_config(0, trial)
            topology = config.build_topology()
            assert all(m in topology.sensor_ids for m in config.malicious)
            assert config.depth_bound() >= 1


class TestFuzzConfigRoundTrip:
    def test_json_round_trip(self) -> None:
        config = sample_config(3, 5)
        data = json.loads(json.dumps(config.to_dict()))
        assert FuzzConfig.from_dict(data) == config

    def test_key_reordering_stable(self) -> None:
        config = sample_config(3, 5)
        data = config.to_dict()
        reordered = dict(reversed(list(data.items())))
        assert FuzzConfig.from_dict(reordered) == config

    def test_unknown_field_rejected(self) -> None:
        data = sample_config(3, 5).to_dict()
        data["frobnicate"] = True
        with pytest.raises(ReproError, match="unknown FuzzConfig fields"):
            FuzzConfig.from_dict(data)

    def test_unknown_mutant_rejected(self) -> None:
        with pytest.raises(ReproError, match="unknown mutant"):
            run_config(sample_config(0, 0), mutant="nonexistent")


class TestRunConfigDeterminism:
    def test_repeat_runs_identical(self) -> None:
        config = FuzzConfig(seed=11, topology="line", size=6, malicious=(3,),
                            strategy="junk-minimum", executions=2)
        first = [v.to_dict() for v in run_config(config)]
        second = [v.to_dict() for v in run_config(config)]
        assert first == second

    def test_mutant_runs_identical(self) -> None:
        config = FuzzConfig(seed=11, topology="line", size=5, malicious=(2,),
                            strategy="spurious-veto", executions=1)
        first = [v.to_dict() for v in run_config(config, mutant=SENSITIVITY_MUTANT)]
        second = [v.to_dict() for v in run_config(config, mutant=SENSITIVITY_MUTANT)]
        assert first == second
        assert first, "silent-pinpoint under a spurious veto must violate"


class TestFuzzCleanOnCorrectCode:
    def test_seeded_sweep_clean(self) -> None:
        report = fuzz(master_seed=0, trials=6)
        assert report.configs_run == 6
        assert report.clean, [
            (t, c.to_dict(), [str(v) for v in vs])
            for t, c, vs in report.findings
        ]


class TestFuzzFindsMutant:
    def test_finds_shrinks_and_replays(self, tmp_path) -> None:
        report = fuzz(
            master_seed=0,
            trials=5,
            mutant=SENSITIVITY_MUTANT,
            repro_dir=tmp_path,
        )
        assert not report.clean, "planted mutant survived the fuzz sweep"
        assert report.repro_paths
        trial, shrunk, violations = report.findings[0]
        original = sample_config(0, trial)
        violated = {v.invariant for v in violations}
        assert "revocation-progress" in violated

        # Shrinking never grows the config and preserves the violation.
        assert shrunk.size <= original.size
        assert len(shrunk.malicious) <= len(original.malicious)
        assert shrunk.executions <= original.executions
        replayed = {v.invariant for v in run_config(shrunk, mutant=SENSITIVITY_MUTANT)}
        assert violated <= replayed

        # The saved repro file replays deterministically.
        path = report.repro_paths[0]
        got, expected = replay_repro(path)
        assert expected
        assert set(expected) <= {v.invariant for v in got}

        # And it documents the mutant that produced it.
        data = json.loads(open(path).read())
        assert data["mutant"] == SENSITIVITY_MUTANT
        assert data["version"] == 1

    @pytest.mark.parametrize(
        "text",
        [
            "{",
            "not json",
            "[]",
            '"repro"',
            '{"version": 1}',
            '{"version": 1, "config": 5}',
            '{"version": 1, "config": {}}',
            '{"version": 1, "config": {"seed": 0, "malicious": 3}}',
            '{"version": 1, "config": {"seed": 0, "colour": "red"}}',
        ],
    )
    def test_replay_rejects_malformed_files_typed(self, tmp_path, capsys, text) -> None:
        from repro.cli import main

        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ReproError):
            replay_repro(path)
        # The CLI prints the error and exits nonzero, no traceback.
        assert main(["fuzz", "--replay", str(path)]) == 1
        assert "REPLAY FAILED" in capsys.readouterr().out

    def test_replay_rejects_future_versions(self, tmp_path) -> None:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "version": 999,
            "config": sample_config(0, 0).to_dict(),
            "violated": [],
        }))
        with pytest.raises(ReproError, match="unsupported repro version"):
            replay_repro(path)

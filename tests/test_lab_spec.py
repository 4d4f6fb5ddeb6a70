"""RunSpec identity: canonical hashing and config round-trips.

The whole lab rests on one invariant: equal computations hash equal,
different computations hash different. These tests pin both directions
plus the ``SystemConfig`` <-> canonical-JSON round-trip that lets a
journal rebuild its machines.
"""

import dataclasses

import pytest

from repro.bench.runner import config_for_scale
from repro.errors import ConfigError
from repro.fuzz.sampling import CampaignSpec, sample_cases
from repro.lab.spec import (
    RunSpec,
    bench_spec,
    canonical_config,
    canonical_json,
    config_digest,
    config_from_canonical,
    fuzz_spec,
)


def _spec(**overrides):
    config = overrides.pop("config", config_for_scale("smoke"))
    base = dict(scheme="star", workload="hash", operations=64, seed=7)
    base.update(overrides)
    return bench_spec(config, **base)


class TestSpecHash:
    def test_identical_specs_hash_identically(self):
        assert _spec().spec_hash == _spec().spec_hash

    def test_hash_survives_dict_round_trip(self):
        spec = _spec(crash_and_recover=True, metrics=("nvm.",))
        clone = RunSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.spec_hash == spec.spec_hash

    @pytest.mark.parametrize("overrides", [
        {"scheme": "anubis"},
        {"workload": "array"},
        {"operations": 65},
        {"seed": 8},
        {"crash_and_recover": True},
        {"metrics": ("nvm.",)},
        {"config": config_for_scale("smoke", adr_bitmap_lines=8)},
        {"config": config_for_scale("smoke", bitmap_fanout=64)},
    ])
    def test_any_semantic_change_changes_the_hash(self, overrides):
        assert _spec(**overrides).spec_hash != _spec().spec_hash

    def test_schema_version_is_part_of_the_identity(self):
        assert _spec().canonical()["schema"] == 1

    def test_canonical_json_is_stable_under_key_order(self):
        assert (canonical_json({"b": 1, "a": 2})
                == canonical_json({"a": 2, "b": 1}))

    def test_rejects_unknown_kind_and_empty_runs(self):
        payload = _spec().to_dict()
        payload["kind"] = "mystery"
        with pytest.raises(ConfigError):
            RunSpec.from_dict(payload)
        with pytest.raises(ConfigError):
            _spec(operations=0)


class TestConfigRoundTrip:
    def test_round_trip_reproduces_the_exact_config(self):
        config = config_for_scale(
            "smoke", adr_bitmap_lines=8, bitmap_fanout=64
        ).with_metadata_cache_bytes(8192)
        rebuilt = config_from_canonical(canonical_config(config))
        assert dataclasses.asdict(rebuilt) == dataclasses.asdict(config)
        assert rebuilt.crypto_key == config.crypto_key
        assert config_digest(rebuilt) == config_digest(config)

    def test_system_config_accessor_matches_factory_input(self):
        config = config_for_scale("smoke")
        spec = _spec(config=config)
        assert (dataclasses.asdict(spec.system_config())
                == dataclasses.asdict(config))

    def test_malformed_canonical_config_raises_config_error(self):
        payload = canonical_config(config_for_scale("smoke"))
        del payload["nvm"]
        with pytest.raises(ConfigError):
            config_from_canonical(payload)


class TestFuzzSpecs:
    def test_fuzz_cases_map_to_stable_distinct_specs(self):
        cases = sample_cases(CampaignSpec(cases=6, seed=3))
        hashes = [fuzz_spec(case).spec_hash for case in cases]
        assert hashes == [fuzz_spec(case).spec_hash for case in cases]
        assert len(set(hashes)) == len(hashes)

    def test_fuzz_params_carry_the_sampled_fractions(self):
        case = sample_cases(CampaignSpec(cases=1, seed=3))[0]
        spec = fuzz_spec(case)
        assert spec.kind == "fuzz"
        assert spec.params["crash_frac"] == case.crash_frac
        assert spec.params["prepare_frac"] == case.prepare_frac

    def test_plain_case_hash_is_pinned(self):
        # stored fuzz cells stay cached only while this hash holds
        case = sample_cases(CampaignSpec(cases=3, seed=4,
                                         attack_rate=1.0))[0]
        assert fuzz_spec(case).spec_hash == (
            "4da34a8fab472baa73e0859b21bdc0d1"
            "a9c89aa72c17d873d8b5a4ccc8ee6b74"
        )

    def test_sanitize_and_defect_ride_in_params_only_when_set(self):
        case = sample_cases(CampaignSpec(cases=1, seed=3))[0]
        plain = fuzz_spec(case)
        assert "sanitize" not in plain.params
        assert "defect" not in plain.params
        sanitized = fuzz_spec(case, sanitize=True)
        broken = fuzz_spec(case, defect="skip-root-verify")
        assert sanitized.params["sanitize"] is True
        assert broken.params["defect"] == "skip-root-verify"
        assert len({plain.spec_hash, sanitized.spec_hash,
                    broken.spec_hash}) == 3

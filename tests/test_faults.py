"""Tests for the Ch. 2 failure model: config, error models, injector."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    CrashPlan,
    FaultConfig,
    FaultInjector,
    RandomBitError,
    RandomErrorVector,
    bit_error_probability,
    error_vector_probability,
)
from repro.faults.errors import make_error_model


class TestFaultConfig:
    def test_defaults_are_fault_free(self):
        assert FaultConfig().is_fault_free
        assert FaultConfig.fault_free().is_fault_free

    @pytest.mark.parametrize(
        "field", ["p_tile", "p_link", "p_upset", "p_overflow"]
    )
    def test_probability_bounds(self, field):
        with pytest.raises(ValueError):
            FaultConfig(**{field: -0.1})
        with pytest.raises(ValueError):
            FaultConfig(**{field: 1.1})

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            FaultConfig(sigma_synchr=-0.5)

    def test_bad_error_model_rejected(self):
        with pytest.raises(ValueError, match="error_model"):
            FaultConfig(error_model="gaussian")

    def test_with_override(self):
        config = FaultConfig(p_upset=0.1).with_(p_overflow=0.2)
        assert config.p_upset == 0.1
        assert config.p_overflow == 0.2
        assert not config.is_fault_free

    def test_frozen(self):
        with pytest.raises(AttributeError):
            FaultConfig().p_tile = 0.5


class TestErrorProbabilityRelations:
    def test_error_vector_probability_exact(self):
        # p_upset = (2^n - 1) p_v
        assert error_vector_probability(0.75, 2) == pytest.approx(0.25)

    def test_error_vector_thesis_approximation(self):
        # For large n, p_v ~ p_upset / 2^n (thesis Eq. in Ch. 2).
        n = 32
        pv = error_vector_probability(0.5, n)
        assert pv == pytest.approx(0.5 / 2**n, rel=1e-6)

    def test_bit_error_probability_inverts(self):
        n = 64
        pb = bit_error_probability(0.3, n)
        assert 1 - (1 - pb) ** n == pytest.approx(0.3)

    def test_bit_error_thesis_approximation(self):
        # For small p_upset, p_b ~ p_upset / n.
        n = 128
        pb = bit_error_probability(0.01, n)
        assert pb == pytest.approx(0.01 / n, rel=0.05)

    def test_bit_error_saturation(self):
        assert bit_error_probability(1.0, 8) == 1.0

    @pytest.mark.parametrize("fn", [error_vector_probability, bit_error_probability])
    def test_validation(self, fn):
        with pytest.raises(ValueError):
            fn(0.5, 0)
        with pytest.raises(ValueError):
            fn(1.5, 8)


class TestErrorModels:
    def test_vector_model_changes_payload(self):
        rng = np.random.default_rng(0)
        model = RandomErrorVector()
        payload = b"\x00" * 16
        for _ in range(50):
            assert model.corrupt(payload, rng) != payload

    def test_vector_model_preserves_length(self):
        rng = np.random.default_rng(1)
        model = RandomErrorVector()
        for size in (1, 7, 64):
            assert len(model.corrupt(b"a" * size, rng)) == size

    def test_bit_model_minimal_flip(self):
        # p_bit = 0 -> exactly one bit flipped.
        rng = np.random.default_rng(2)
        model = RandomBitError(0.0)
        payload = b"\x00" * 8
        for _ in range(30):
            corrupted = model.corrupt(payload, rng)
            diff = int.from_bytes(corrupted, "big") ^ int.from_bytes(payload, "big")
            assert bin(diff).count("1") == 1

    def test_bit_model_flip_rate(self):
        rng = np.random.default_rng(3)
        model = RandomBitError(0.25)
        payload = b"\x00" * 100
        total_flips = 0
        trials = 200
        for _ in range(trials):
            corrupted = model.corrupt(payload, rng)
            diff = int.from_bytes(corrupted, "big") ^ int.from_bytes(payload, "big")
            total_flips += bin(diff).count("1")
        rate = total_flips / (trials * 800)
        assert rate == pytest.approx(0.25, rel=0.1)

    def test_empty_payload_passthrough(self):
        rng = np.random.default_rng(4)
        assert RandomErrorVector().corrupt(b"", rng) == b""
        assert RandomBitError(0.1).corrupt(b"", rng) == b""

    @pytest.mark.parametrize("size", [1, 570])
    def test_vector_model_stream_matches_array_oracle(self, size):
        # The byte-comparison corrupt must draw exactly what the original
        # frombuffer/array_equal implementation drew, so golden traces and
        # seeded results are unchanged.
        resamples = 0

        def oracle(payload, rng):
            nonlocal resamples
            original = np.frombuffer(payload, dtype=np.uint8)
            while True:
                scrambled = rng.integers(0, 256, size=len(payload), dtype=np.uint8)
                if not np.array_equal(scrambled, original):
                    return scrambled.tobytes()
                resamples += 1

        model = RandomErrorVector()
        rng, oracle_rng = np.random.default_rng(11), np.random.default_rng(11)
        payload = bytes(size)
        for _ in range(1000):
            corrupted = model.corrupt(payload, rng)
            assert corrupted == oracle(payload, oracle_rng)
            # Feed outputs back so the 1-byte case meets varied payloads.
            payload = corrupted
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        if size == 1:
            assert resamples > 0, "resample-on-equal branch never exercised"

    def test_factory(self):
        assert make_error_model("vector").name == "vector"
        assert make_error_model("bit", 0.1).name == "bit"
        with pytest.raises(ValueError):
            make_error_model("nope")

    def test_bit_model_validation(self):
        with pytest.raises(ValueError):
            RandomBitError(-0.1)


class TestCrashPlan:
    def test_empty_plan(self):
        plan = CrashPlan()
        assert plan.tile_alive(0)
        assert plan.link_alive(0, 1)
        assert plan.n_dead_tiles == 0

    def test_membership(self):
        plan = CrashPlan(
            dead_tiles=frozenset({3}), dead_links=frozenset({(0, 1)})
        )
        assert not plan.tile_alive(3)
        assert plan.tile_alive(4)
        assert not plan.link_alive(0, 1)
        assert plan.link_alive(1, 0)  # directed


class TestFaultInjector:
    def _links(self, n):
        return [(a, b) for a in range(n) for b in range(n) if a != b]

    def test_deterministic_by_seed(self):
        tiles = list(range(20))
        links = self._links(6)
        config = FaultConfig(p_tile=0.3, p_link=0.3)
        plan_a = FaultInjector(config, 42).draw_crash_plan(tiles, links)
        plan_b = FaultInjector(config, 42).draw_crash_plan(tiles, links)
        assert plan_a == plan_b

    def test_protection_respected(self):
        tiles = list(range(30))
        config = FaultConfig(p_tile=0.9)
        plan = FaultInjector(config, 1).draw_crash_plan(
            tiles, [], protected_tiles={0, 1, 2}
        )
        assert plan.dead_tiles.isdisjoint({0, 1, 2})
        assert plan.n_dead_tiles > 10  # p=0.9 over 27 candidates

    def test_exact_counts(self):
        tiles = list(range(16))
        links = self._links(4)
        injector = FaultInjector(FaultConfig(), 5)
        plan = injector.crash_plan_with_exact_counts(
            tiles, links, n_dead_tiles=3, n_dead_links=2
        )
        assert plan.n_dead_tiles == 3
        assert plan.n_dead_links == 2

    def test_exact_counts_overflow(self):
        injector = FaultInjector(FaultConfig(), 5)
        with pytest.raises(ValueError, match="cannot crash"):
            injector.crash_plan_with_exact_counts(
                [0, 1], [], n_dead_tiles=3
            )

    def test_upset_rate(self):
        injector = FaultInjector(FaultConfig(p_upset=0.4), 6)
        hits = sum(injector.upset_occurs() for _ in range(4000))
        assert hits / 4000 == pytest.approx(0.4, abs=0.03)

    def test_no_upsets_when_zero(self):
        injector = FaultInjector(FaultConfig(), 7)
        assert not any(injector.upset_occurs() for _ in range(100))

    def test_overflow_rate(self):
        injector = FaultInjector(FaultConfig(p_overflow=0.25), 8)
        hits = sum(injector.overflow_occurs() for _ in range(4000))
        assert hits / 4000 == pytest.approx(0.25, abs=0.03)

    def test_round_duration_no_skew(self):
        injector = FaultInjector(FaultConfig(), 9)
        assert injector.round_duration(1e-6) == 1e-6

    def test_round_duration_skew_statistics(self):
        injector = FaultInjector(FaultConfig(sigma_synchr=0.2), 10)
        samples = np.array([injector.round_duration(1.0) for _ in range(3000)])
        assert samples.mean() == pytest.approx(1.0, abs=0.02)
        assert samples.std() == pytest.approx(0.2, abs=0.02)
        assert samples.min() >= 0.05  # truncation

    def test_round_duration_validation(self):
        injector = FaultInjector(FaultConfig(), 11)
        with pytest.raises(ValueError):
            injector.round_duration(0.0)

    def test_corrupt_uses_configured_model(self):
        injector = FaultInjector(
            FaultConfig(p_upset=0.5, error_model="bit"), 12, payload_bits=64
        )
        assert injector.error_model.name == "bit"
        payload = b"\x00" * 8
        assert injector.corrupt(payload) != payload


@given(
    p_upset=st.floats(min_value=0.0, max_value=1.0),
    n_bits=st.integers(min_value=1, max_value=512),
)
@settings(max_examples=100, deadline=None)
def test_property_bit_error_probability_bounds(p_upset, n_bits):
    pb = bit_error_probability(p_upset, n_bits)
    assert 0.0 <= pb <= 1.0
    assert pb <= p_upset + 1e-12  # per-bit never exceeds per-packet


@given(payload=st.binary(min_size=1, max_size=64), seed=st.integers(0, 2**31))
@settings(max_examples=100, deadline=None)
def test_property_corruption_differs_and_preserves_length(payload, seed):
    rng = np.random.default_rng(seed)
    for model in (RandomErrorVector(), RandomBitError(0.1)):
        corrupted = model.corrupt(payload, rng)
        assert corrupted != payload
        assert len(corrupted) == len(payload)

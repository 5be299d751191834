import json
import math

import numpy as np
import pytest

from coupled_sampler.schedule import (
    NoiseSchedule,
    align_schedules,
    alpha_bar_to_edm_sigma,
    alpha_bar_to_flow_time,
    build_linear,
    edm_sigma_to_alpha_bar,
    flow_time_to_alpha_bar,
    schedule_to_json,
    shift_schedule,
    snr_log_grid,
)


class TestBuildLinear:
    def test_single_step(self):
        s = build_linear(1, 0.1, 0.1)
        assert s.beta.tolist() == [0.1]
        assert s.alpha_bar.tolist() == pytest.approx([0.9], abs=0)

    def test_two_steps_hand_product(self):
        s = build_linear(2, 0.1, 0.2)
        assert s.alpha_bar == pytest.approx([0.9, 0.72], rel=1e-15)

    def test_thousand_steps_matches_high_precision_product(self):
        # frozen from an exact rational product over the betas; an fsum-log
        # recomputation agrees to 5e-16 and guards the literal below
        expected = 4.035829765375685e-05
        s = build_linear(1000, 1e-4, 0.02)
        assert s.alpha_bar[-1] == pytest.approx(expected, rel=1e-12)
        log_ab = math.fsum(math.log1p(-float(b)) for b in s.beta)
        assert math.exp(log_ab) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "args",
        [(0, 0.1, 0.2), (10, 0.0, 0.2), (10, 0.1, 1.0), (10, -0.1, 0.2), (10, 0.3, 0.2)],
    )
    def test_rejects_bad_arguments(self, args):
        with pytest.raises(ValueError):
            build_linear(*args)

    def test_product_identity_and_monotonicity(self):
        for t_steps, b0, b1 in [(5, 0.05, 0.4), (200, 1e-4, 0.115), (50, 0.01, 0.3)]:
            s = build_linear(t_steps, b0, b1)
            assert s.alpha_bar.tobytes() == np.cumprod(1.0 - s.beta).tobytes()
            assert np.all(np.diff(s.alpha_bar) < 0)
            assert s.alpha_bar[-1] > 0

    def test_rejects_first_alpha_bar_rounding_to_one(self):
        # 1 - 1e-17 rounds to 1.0: step 1 would carry no noise at all
        with pytest.raises(ValueError, match="strictly decreasing"):
            build_linear(20, 1e-17, 0.3)
        with pytest.raises(ValueError, match="strictly decreasing"):
            NoiseSchedule([1e-17, 0.1])
        assert NoiseSchedule([1e-16, 0.1]).alpha_bar[0] < 1.0


class TestShift:
    def test_identity_shift_returns_input(self):
        s = build_linear(20, 0.01, 0.2)
        assert shift_schedule(s, 1.0) is s

    def test_single_step_snr_algebra(self):
        # alpha_bar 0.5 -> SNR 1 -> shifted SNR 0.25 -> alpha_bar 0.2
        s = NoiseSchedule([0.5])
        out = shift_schedule(s, 2.0)
        assert out.alpha_bar[0] == pytest.approx(0.2, rel=1e-14)

    def test_composition_law(self):
        s = build_linear(64, 1e-3, 0.3)
        twice = shift_schedule(shift_schedule(s, 2.0), 2.0)
        once = shift_schedule(s, 4.0)
        assert np.max(np.abs(twice.alpha_bar - once.alpha_bar) / once.alpha_bar) < 1e-12

    def test_shifted_schedule_is_valid(self):
        s = build_linear(100, 1e-4, 0.1)
        for shift in (0.25, 3.0):
            out = shift_schedule(s, shift)
            assert np.all((out.beta > 0) & (out.beta < 1))
            assert np.all(np.diff(out.alpha_bar) < 0)

    def test_rejects_non_positive_shift(self):
        s = build_linear(5, 0.1, 0.2)
        for shift in (0.0, -1.0):
            with pytest.raises(ValueError):
                shift_schedule(s, shift)


class TestEdmConversion:
    def test_noiseless_endpoint(self):
        assert edm_sigma_to_alpha_bar(0.0) == 1.0
        assert alpha_bar_to_edm_sigma(1.0) == 0.0

    def test_snr_matching_values(self):
        assert edm_sigma_to_alpha_bar(1.0) == pytest.approx(0.5, rel=1e-15)
        assert edm_sigma_to_alpha_bar(3.0) == pytest.approx(0.1, rel=1e-15)
        assert alpha_bar_to_edm_sigma(0.5) == pytest.approx(1.0, rel=1e-15)

    def test_round_trip_from_alpha_bar_levels(self):
        ab = edm_sigma_to_alpha_bar(snr_log_grid())
        back = edm_sigma_to_alpha_bar(alpha_bar_to_edm_sigma(ab))
        assert np.max(np.abs(back - ab) / ab) < 1e-12

    def test_round_trip_from_sigma_points(self):
        for sigma in (0.01, 1.0, 80.0):
            back = alpha_bar_to_edm_sigma(edm_sigma_to_alpha_bar(sigma))
            assert back == pytest.approx(sigma, rel=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            edm_sigma_to_alpha_bar(-0.5)
        for ab in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                alpha_bar_to_edm_sigma(ab)


class TestFlowTime:
    def test_endpoints_and_midpoint(self):
        assert flow_time_to_alpha_bar(1.0) == 1.0
        assert flow_time_to_alpha_bar(0.5) == pytest.approx(0.5, rel=1e-15)
        assert flow_time_to_alpha_bar(0.8) == pytest.approx(0.64 / 0.68, rel=1e-15)

    def test_rejects_below_minimum(self):
        for t in (0.0, -0.2, 1e-9):
            with pytest.raises(ValueError):
                flow_time_to_alpha_bar(t)
        with pytest.raises(ValueError):
            flow_time_to_alpha_bar(1.2)

    def test_inverse_round_trip(self):
        ts = np.linspace(0.05, 1.0, 40)
        back = alpha_bar_to_flow_time(flow_time_to_alpha_bar(ts))
        assert np.max(np.abs(back - ts)) < 1e-12


class TestAlignment:
    def test_self_alignment_is_identity(self):
        s = build_linear(30, 0.01, 0.25)
        a = align_schedules(s, s)
        assert all(src == tgt for src, tgt in a.mapping)
        assert a.max_log_snr_gap == 0.0

    def test_hand_case(self):
        # exhaustive log-SNR comparison over all 6 pairs picks (1,1), (2,2)
        src = NoiseSchedule([0.1, 1 - 0.5 / 0.9])
        tgt = NoiseSchedule([0.05, 1 - 0.5 / 0.95, 0.8])
        assert src.alpha_bar == pytest.approx([0.9, 0.5], rel=1e-12)
        assert tgt.alpha_bar == pytest.approx([0.95, 0.5, 0.1], rel=1e-12)
        a = align_schedules(src, tgt)
        assert a.mapping == ((1, 1), (2, 2))
        gaps = np.abs(src.log_snr()[:, None] - tgt.log_snr()[None, :])
        assert a.max_log_snr_gap == pytest.approx(np.min(gaps, axis=1).max(), rel=1e-12)

    def test_mapping_monotone_for_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            t_a, t_b = rng.integers(2, 40, size=2)
            sa = NoiseSchedule(np.sort(rng.uniform(1e-4, 0.5, t_a)))
            sb = NoiseSchedule(np.sort(rng.uniform(1e-4, 0.5, t_b)))
            targets = [tgt for _, tgt in align_schedules(sa, sb).mapping]
            assert all(b >= a for a, b in zip(targets, targets[1:]))


class TestSerialization:
    def test_round_trip(self):
        s = build_linear(20, 0.01, 0.2)
        out = NoiseSchedule.from_json_dict(json.loads(schedule_to_json(s)))
        assert np.array_equal(out.beta, s.beta)
        assert np.array_equal(out.alpha_bar, s.alpha_bar)

    def test_checksum_mismatch_rejected(self):
        doc = json.loads(schedule_to_json(build_linear(5, 0.1, 0.2)))
        doc["beta"][2] = 0.123
        with pytest.raises(ValueError, match="checksum"):
            NoiseSchedule.from_json_dict(doc)

    def test_checksum_optional(self):
        doc = json.loads(schedule_to_json(build_linear(5, 0.1, 0.2)))
        del doc["alpha_bar_sha256"]
        NoiseSchedule.from_json_dict(doc)

    def test_num_steps_mismatch_rejected(self):
        doc = json.loads(schedule_to_json(build_linear(5, 0.1, 0.2)))
        doc["num_steps"] = 9
        with pytest.raises(ValueError, match="num_steps"):
            NoiseSchedule.from_json_dict(doc)


def test_schedules_are_immutable():
    s = build_linear(5, 0.1, 0.2)
    with pytest.raises(ValueError):
        s.beta[0] = 0.5


def test_alpha_bar_is_derived_never_passed():
    # an increasing alpha_bar was once accepted unchecked, in the caller's
    # writable array
    with pytest.raises(TypeError):
        NoiseSchedule(beta=np.array([0.1, 0.2]), alpha_bar=np.array([0.5, 0.9]))
    beta = np.array([0.1, 0.2, 0.05])
    s = NoiseSchedule(beta)
    assert s.alpha_bar.tobytes() == np.cumprod(1.0 - beta).tobytes()
    assert not s.beta.flags.writeable and not s.alpha_bar.flags.writeable
    # a schedule holds copies: the caller's array stays writable, and
    # writing it, or the base of a view passed in, leaves the schedule as is
    assert beta.flags.writeable
    from_view = NoiseSchedule(beta[:2])
    beta[:] = 0.5
    assert s.beta.tolist() == [0.1, 0.2, 0.05] and from_view.beta.tolist() == [0.1, 0.2]


def test_alpha_bar_at_convention():
    s = build_linear(3, 0.1, 0.3)
    assert s.alpha_bar_at(0) == 1.0
    assert s.alpha_bar_at(3) == pytest.approx(0.504, rel=1e-12)
    with pytest.raises(ValueError):
        s.alpha_bar_at(4)

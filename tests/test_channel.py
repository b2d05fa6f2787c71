"""Channel sampling, tap gains, the dense/DD-domain oracles, and the batched
sub-channel primitive (the spreading stack)."""

import numpy as np
import pytest

from oddmsim import (
    ChannelProfile,
    DDGrid,
    DDPath,
    ModemParams,
    TimeSequence,
    apply_channel,
    dd_to_time,
    eva_profile,
    sample_channel,
    time_to_dd,
)
from oddmsim.channel import DiscreteChannel, spreading_stack

from oracles import dd_reference_output, full_matrix, subchannel, time_gain


def _small_params():
    return ModemParams(n_delay=12, n_doppler=4, max_delay=3)


def _small_channel(seed=5):
    p = _small_params()
    rng = np.random.default_rng(seed)
    prof = ChannelProfile(delays=(0, 1, 3), powers=(0.5, 0.3, 0.2), k_max=2)
    return sample_channel(prof, p, rng), p


class TestProfile:
    def test_eva_taps_at_full_scale_resolution(self):
        prof = eva_profile(k_max=5)
        assert prof.delays == (0, 0, 1, 2, 3, 5, 8, 13, 19)
        assert prof.max_delay == 19
        assert abs(sum(prof.powers) - 1.0) < 1e-12

    def test_truncation_keeps_low_taps(self):
        prof = eva_profile(k_max=3, max_tap=9)
        assert prof.delays == (0, 0, 1, 2, 3, 5, 8)
        assert abs(sum(prof.powers) - 1.0) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelProfile(delays=(), powers=(), k_max=1)
        with pytest.raises(ValueError):
            ChannelProfile(delays=(0, 1), powers=(1.0,), k_max=1)
        with pytest.raises(ValueError):
            ChannelProfile(delays=(0,), powers=(-1.0,), k_max=1)
        with pytest.raises(ValueError):
            ChannelProfile(delays=(0,), powers=(1.0,), k_max=-1)


class TestSampling:
    def test_doppler_taps_stay_in_range(self):
        prof = eva_profile(k_max=5)
        p = ModemParams(n_delay=64, n_doppler=16, max_delay=19)
        rng = np.random.default_rng(0)
        for _ in range(200):
            ch = sample_channel(prof, p, rng)
            assert all(abs(path.doppler) <= 5 for path in ch.paths)

    def test_mean_total_power_is_unity(self):
        # ensemble average of sum |h_p|^2 over many realizations
        prof = eva_profile(k_max=5)
        p = ModemParams(n_delay=64, n_doppler=16, max_delay=19)
        rng = np.random.default_rng(1)
        total = 0.0
        n = 100_000
        for _ in range(n):
            ch = sample_channel(prof, p, rng)
            total += sum(abs(path.gain) ** 2 for path in ch.paths)
        assert abs(total / n - 1.0) < 0.01

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            ChannelProfile(delays=(), powers=(), k_max=0)

    def test_profile_longer_than_the_frame_rejected(self):
        # a tap at delay 19 used to widen the channel to l_max = 19 under a
        # max_delay = 8 frame, whose pilot estimate then held 9 gain rows
        p = ModemParams(n_delay=64, n_doppler=16, max_delay=8)
        with pytest.raises(ValueError, match="max_delay=8"):
            sample_channel(eva_profile(k_max=3), p, np.random.default_rng(0))


class TestTimeGain:
    def test_single_zero_doppler_path_is_flat(self):
        p = _small_params()
        ch = DiscreteChannel([DDPath(0, 0, 1.0)], p)
        for q in (0, 7, 47):
            assert time_gain(ch, 0, q) == pytest.approx(1.0)

    def test_single_path_phase_ramp(self):
        # one path at delay 2, Doppler 3, frame of 24 samples
        p = ModemParams(n_delay=6, n_doppler=4, max_delay=2)
        ch = DiscreteChannel([DDPath(2, 3, 1.0)], p)
        for q in range(24):
            expected = np.exp(2j * np.pi * 3 * (q - 2) / 24)
            assert abs(time_gain(ch, 2, q) - expected) < 1e-14

    def test_off_support_delay_returns_zero(self):
        ch, _ = _small_channel()
        assert time_gain(ch, 2, 5) == 0

    def test_table_matches_direct_sum_oracle(self):
        prof = eva_profile(k_max=5)
        p = ModemParams(n_delay=64, n_doppler=16, max_delay=19)
        rng = np.random.default_rng(3)
        ch = sample_channel(prof, p, rng)
        table = ch.gain_table()
        mn = p.frame_len
        for _ in range(200):
            l = int(rng.integers(0, 20))
            q = int(rng.integers(0, mn))
            direct = sum(
                path.gain * np.exp(2j * np.pi * path.doppler * (q - l) / mn)
                for path in ch.paths
                if path.delay == l
            )
            assert abs(table[l, q] - direct) <= 1e-12

    def test_periodic_in_time(self):
        ch, p = _small_channel()
        mn = p.frame_len
        for l in ch.support:
            for q in (0, 5, 11):
                assert abs(time_gain(ch, l, q + mn) - time_gain(ch, l, q)) < 1e-12


class TestApplyChannel:
    def test_identity_channel(self):
        p = _small_params()
        ch = DiscreteChannel([DDPath(0, 0, 1.0)], p)
        rng = np.random.default_rng(2)
        s = TimeSequence(rng.standard_normal(p.frame_len) * (1 + 0j), p)
        r = apply_channel(ch, s, 0.0)
        np.testing.assert_allclose(r.samples, s.samples, atol=1e-15)

    def test_matches_dense_matrix_oracle(self):
        ch, p = _small_channel()
        rng = np.random.default_rng(6)
        s = TimeSequence(
            rng.standard_normal(p.frame_len) + 1j * rng.standard_normal(p.frame_len), p
        )
        r = apply_channel(ch, s, 0.0)
        assert np.abs(full_matrix(ch) @ s.samples - r.samples).max() <= 1e-12

    def test_cyclic_wraparound(self):
        # an impulse at the last sample reaches r[l-1] through delay l
        p = _small_params()
        ch = DiscreteChannel([DDPath(2, 0, 1.0)], p)
        s = np.zeros(p.frame_len, dtype=complex)
        s[p.frame_len - 1] = 1.0
        r = apply_channel(ch, TimeSequence(s, p), 0.0).samples
        expected = np.zeros_like(s)
        expected[1] = time_gain(ch, 2, 1)
        np.testing.assert_allclose(r, expected, atol=1e-15)

    def test_noise_requires_rng(self):
        ch, p = _small_channel()
        s = TimeSequence(np.zeros(p.frame_len), p)
        with pytest.raises(ValueError):
            apply_channel(ch, s, 0.1)

    def test_length_mismatch_rejected(self):
        ch, p = _small_channel()
        other = ModemParams(n_delay=8, n_doppler=4, max_delay=3)
        with pytest.raises(ValueError):
            apply_channel(ch, TimeSequence(np.zeros(other.frame_len), other), 0.0)


class TestFullMatrix:
    def test_row_structure(self):
        ch, p = _small_channel()
        mat = full_matrix(ch)
        uniq = len(set(path.delay for path in ch.paths))
        mn = p.frame_len
        cols = {(q - l) % mn for l in ch.support for q in range(mn)}
        for q in range(mn):
            nz = np.flatnonzero(mat[q])
            assert len(nz) == uniq
            for c in nz:
                assert ((q - c) % mn) in ch.support

    def test_entries_match_time_gain(self):
        ch, p = _small_channel()
        mat = full_matrix(ch)
        mn = p.frame_len
        for q in (0, 3, 17, mn - 1):
            for l in ch.support:
                assert mat[q, (q - l) % mn] == pytest.approx(time_gain(ch, l, q))

    def test_band_plus_corner_pattern(self):
        # nonzeros sit on the lower band or in the top-right corner block
        ch, p = _small_channel()
        mat = full_matrix(ch)
        mn = p.frame_len
        lm = ch.l_max
        rows, cols = np.nonzero(mat)
        for q, c in zip(rows, cols):
            on_band = 0 <= q - c <= lm
            in_corner = q < lm and c >= mn - lm
            assert on_band or in_corner

    def test_oracle_cap(self):
        prof = eva_profile(k_max=5)
        p = ModemParams(n_delay=512, n_doppler=32, max_delay=19)
        ch = sample_channel(prof, p, np.random.default_rng(0))
        with pytest.raises(ValueError, match="oracle"):
            full_matrix(ch)


class TestSubChannel:
    def test_middle_column_is_spreading_vector(self):
        ch, p = _small_channel()
        mn = p.frame_len
        for q in (0, 5, mn - 1):
            sc = subchannel(ch, q)
            expected = np.array(
                [time_gain(ch, l, (q + l) % mn) for l in range(ch.l_max + 1)]
            )
            np.testing.assert_allclose(sc[:, ch.l_max], expected, atol=1e-14)

    def test_off_support_entries_are_zero(self):
        ch, _ = _small_channel()
        sc = subchannel(ch, 4)
        sup = set(ch.support)
        for l in range(ch.l_max + 1):
            for c, dl in enumerate(range(-ch.l_max, ch.l_max + 1)):
                if (l - dl) not in sup:
                    assert sc[l, c] == 0

    def test_sub_relation_matches_dense_oracle_everywhere(self):
        ch, p = _small_channel(seed=8)
        rng = np.random.default_rng(9)
        mn = p.frame_len
        s = rng.standard_normal(mn) + 1j * rng.standard_normal(mn)
        r = full_matrix(ch) @ s
        lm = ch.l_max
        for q in range(mn):
            sc = subchannel(ch, q)
            r_q = np.array([r[(q + l) % mn] for l in range(lm + 1)])
            s_q = np.array([s[(q + dl) % mn] for dl in range(-lm, lm + 1)])
            assert np.abs(sc @ s_q - r_q).max() <= 1e-12

    def test_q_out_of_range(self):
        ch, p = _small_channel()
        with pytest.raises(ValueError):
            subchannel(ch, p.frame_len)


def _assert_stack_matches_oracle(ch, seed):
    mn = ch.params.frame_len
    lm = ch.l_max
    rng = np.random.default_rng(seed)
    # random indices plus every q whose taps wrap past the frame end
    q_idx = np.concatenate([rng.integers(0, mn, 30), np.arange(mn - lm - 1, mn)])
    stack = spreading_stack(ch.gain_table(), q_idx)
    assert stack.shape == (q_idx.size, lm + 1, 2 * lm + 1)
    for i, q in enumerate(q_idx):
        np.testing.assert_array_equal(stack[i], subchannel(ch, int(q)))


class TestSpreadingStack:
    def test_matches_subchannel_on_desk_grid(self, desk_channel):
        _assert_stack_matches_oracle(desk_channel, seed=30)

    def test_matches_subchannel_on_odd_grid(self):
        p = ModemParams(n_delay=7, n_doppler=5, max_delay=3)
        prof = ChannelProfile(delays=(0, 2, 3), powers=(0.5, 0.3, 0.2), k_max=2)
        ch = sample_channel(prof, p, np.random.default_rng(31))
        _assert_stack_matches_oracle(ch, seed=32)


class TestDDReference:
    def test_identity_channel_passthrough(self):
        p = _small_params()
        ch = DiscreteChannel([DDPath(0, 0, 1.0)], p)
        rng = np.random.default_rng(10)
        x = rng.standard_normal((12, 4)) + 1j * rng.standard_normal((12, 4))
        out = dd_reference_output(ch, DDGrid(x, p))
        np.testing.assert_allclose(out.entries, x, atol=1e-14)

    def test_equals_time_domain_pipeline(self):
        ch, p = _small_channel(seed=11)
        rng = np.random.default_rng(12)
        x = rng.standard_normal((12, 4)) + 1j * rng.standard_normal((12, 4))
        grid = DDGrid(x, p)
        via_time = time_to_dd(apply_channel(ch, dd_to_time(grid), 0.0))
        direct = dd_reference_output(ch, grid)
        assert np.abs(via_time.entries - direct.entries).max() <= 1e-10

    def test_cp_rows_carry_extra_phase(self):
        # rows above the path delay see the plain shift; rows below pick up
        # the cyclic-prefix phase factor
        p = _small_params()
        k_p, l_p = 1, 2
        ch = DiscreteChannel([DDPath(l_p, k_p, 1.0)], p)
        rng = np.random.default_rng(13)
        x = rng.standard_normal((12, 4)) + 1j * rng.standard_normal((12, 4))
        out = dd_reference_output(ch, DDGrid(x, p)).entries
        mn = p.frame_len
        for m in range(12):
            for n in range(4):
                base = (
                    np.exp(2j * np.pi * (m - l_p) * k_p / mn)
                    * x[(m - l_p) % 12, (n - k_p) % 4]
                )
                if m < l_p:
                    base *= np.exp(-2j * np.pi * ((n - k_p) % 4) / 4)
                assert abs(out[m, n] - base) < 1e-12

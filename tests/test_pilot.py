"""Embedded-pilot frames, read-off estimation, and the Gaussian error model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddmsim import (
    DDGrid,
    EstimatedChannel,
    ModemParams,
    PilotConfig,
    apply_channel,
    dd_to_time,
    embed_pilot,
    estimate_channel,
    gains_from_estimate,
    perturb_channel,
    pilot_amplitude_for_snr,
    time_to_dd,
)
from oddmsim.channel import DDPath, DiscreteChannel
from oddmsim.pilot import deserialize_estimate, serialize_estimate


def _params(m=32, n=8, lmax=4):
    return ModemParams(n_delay=m, n_doppler=n, max_delay=lmax)


def _single_path(p, l=2, k=-3, h=0.7 - 0.2j):
    return DiscreteChannel([DDPath(l, k, h)], l_max=p.max_delay, k_max=3, params=p)


class TestEmbed:
    def test_pilot_in_middle_and_guards_zero(self):
        p = _params()
        cfg = PilotConfig(amplitude=5.0, max_delay=4)
        data = np.ones(cfg.data_cell_count(p), dtype=complex)
        grid = embed_pilot(data, cfg, p).entries
        assert grid[16, 4] == 5.0
        guard = grid[cfg.guard_rows(p)].copy()
        guard[16 - cfg.guard_rows(p)[0], 4] = 0
        assert np.all(guard == 0)

    def test_data_cell_count(self):
        p = _params()
        cfg = PilotConfig(amplitude=1.0, max_delay=4)
        assert cfg.data_cell_count(p) == p.frame_len - p.n_doppler * 9

    def test_data_fills_row_major(self):
        p = _params(m=16, n=4, lmax=2)
        cfg = PilotConfig(amplitude=9.0, max_delay=2)
        data = np.arange(1, cfg.data_cell_count(p) + 1, dtype=complex)
        grid = embed_pilot(data, cfg, p).entries
        mask = cfg.data_mask(p)
        np.testing.assert_array_equal(grid[mask].real, np.arange(1, mask.sum() + 1))

    def test_wrong_data_count(self):
        p = _params()
        cfg = PilotConfig(amplitude=1.0, max_delay=4)
        with pytest.raises(ValueError):
            embed_pilot(np.zeros(3), cfg, p)


class TestEstimate:
    def test_noiseless_single_path_recovery(self):
        p = _params()
        cfg = PilotConfig(amplitude=8.0, max_delay=4)
        ch = _single_path(p)
        frame = embed_pilot(np.zeros(cfg.data_cell_count(p)), cfg, p)
        received = time_to_dd(apply_channel(ch, dd_to_time(frame), 0.0))
        est = estimate_channel(received, cfg)
        half = p.n_doppler // 2
        assert abs(est.taps[2, -3 + half] - (0.7 - 0.2j)) < 1e-12
        rest = est.taps.copy()
        rest[2, -3 + half] = 0
        assert np.abs(rest).max() < 1e-12
        assert np.abs(est.gains - EstimatedChannel.from_true(ch).gains).max() < 1e-12

    def test_phase_divisor_convention(self):
        # read-off at Doppler offset k divides by x_pilot * exp(j*2*pi*m_p*k/(MN))
        p = ModemParams(n_delay=512, n_doppler=32, max_delay=4)
        cfg = PilotConfig(amplitude=3.0, max_delay=4)
        grid = np.zeros((512, 32), dtype=complex)
        mp, npi = 256, 16
        grid[mp + 1, npi + 1] = 1.0
        est = estimate_channel(DDGrid(grid, p), cfg)
        half = 16
        expected = 1.0 / (3.0 * np.exp(2j * np.pi * 256 * 1 / 16384))
        assert abs(est.taps[1, 1 + half] - expected) < 1e-14

    def test_noisy_error_variance_law(self):
        # Var(dh) = sigma_z^2 / P_pilot_dd over the read window
        p = _params()
        cfg = PilotConfig(amplitude=10.0, max_delay=4)
        ch = _single_path(p)
        frame = embed_pilot(np.zeros(cfg.data_cell_count(p)), cfg, p)
        clean = dd_to_time(frame)
        rng = np.random.default_rng(31)
        sz = 0.4
        half = p.n_doppler // 2
        true = np.zeros((5, p.n_doppler), dtype=complex)
        true[2, -3 + half] = 0.7 - 0.2j
        acc = 0.0
        count = 0
        trials = 10_000
        for _ in range(trials):
            noisy = apply_channel(ch, clean, sz, rng)
            est = estimate_channel(time_to_dd(noisy), cfg)
            err = est.taps - true
            acc += float(np.sum(np.abs(err) ** 2))
            count += err.size
        emp = acc / count
        assert abs(emp - sz**2 / 100.0) < 0.05 * sz**2 / 100.0


class TestPerturb:
    def test_zero_variance_equals_truth(self):
        p = _params()
        ch = _single_path(p)
        est = perturb_channel(ch, 0.0)
        assert np.abs(est.gains - EstimatedChannel.from_true(ch).gains).max() < 1e-12

    def test_per_entry_variance(self):
        p = _params(m=16, n=8, lmax=3)
        ch = _single_path(ModemParams(n_delay=16, n_doppler=8, max_delay=3))
        rng = np.random.default_rng(17)
        sigma2 = 0.01
        half = 4
        errs = []
        for _ in range(10_000):
            est = perturb_channel(ch, sigma2, rng)
            errs.append(est.taps[1, 2])  # a cell with no true path
        emp = float(np.var(errs))
        assert abs(emp - sigma2) < 0.05 * sigma2

    def test_entries_uncorrelated(self):
        p = _params(m=16, n=8, lmax=3)
        ch = _single_path(ModemParams(n_delay=16, n_doppler=8, max_delay=3))
        rng = np.random.default_rng(18)
        a = np.empty(10_000, dtype=complex)
        b = np.empty(10_000, dtype=complex)
        for t in range(10_000):
            est = perturb_channel(ch, 0.02, rng)
            a[t] = est.taps[0, 1]
            b[t] = est.taps[3, 6]
        rho = abs(np.mean(a * np.conj(b))) / np.sqrt(np.var(a) * np.var(b))
        assert rho < 0.02

    def test_negative_variance_rejected(self):
        p = _params()
        with pytest.raises(ValueError):
            perturb_channel(_single_path(p), -1.0)


class TestGains:
    def test_transform_matches_direct_sum(self):
        p = _params(m=16, n=8, lmax=3)
        rng = np.random.default_rng(19)
        taps = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
        est = gains_from_estimate(taps, p)
        mn = p.frame_len
        ks = np.arange(-4, 4)
        for _ in range(100):
            l = int(rng.integers(0, 4))
            q = int(rng.integers(0, mn))
            direct = np.sum(taps[l] * np.exp(2j * np.pi * ks * (q - l) / mn))
            assert abs(est.gains[l, q] - direct) <= 1e-10

    def test_time_error_scales_with_doppler_bins(self):
        # Var(dg) = N * per-entry DD variance
        p = _params(m=16, n=8, lmax=3)
        ch = _single_path(ModemParams(n_delay=16, n_doppler=8, max_delay=3))
        true_gains = ch.gain_table()
        rng = np.random.default_rng(20)
        sigma2 = 0.005
        errs = []
        for _ in range(10_000):
            est = perturb_channel(ch, sigma2, rng)
            errs.append(est.gains[2, 37] - true_gains[2, 37])
        emp = float(np.var(errs))
        expected = p.n_doppler * sigma2
        assert abs(emp - expected) < 0.05 * expected

    def test_rows_off_the_support_must_be_zero(self):
        # the detectors read every row of the table, not just the support
        p = _params(m=16, n=8, lmax=3)
        gains = _single_path(p).gain_table().copy()
        EstimatedChannel(gains, support=(2,), params=p)
        gains[1, 5] = 1e-3
        with pytest.raises(ValueError, match="off the support"):
            EstimatedChannel(gains, support=(2,), params=p)


class TestPowerAccounting:
    def test_effective_pilot_power_halves_when_doppler_bins_double(self):
        sz2 = 0.1
        p8 = _params(m=32, n=8, lmax=4)
        p16 = _params(m=32, n=16, lmax=4)
        amp = pilot_amplitude_for_snr(30.0, sz2, p8)
        cfg = PilotConfig(amplitude=amp, max_delay=4)
        snr8 = cfg.effective_power(p8) / sz2
        snr16 = cfg.effective_power(p16) / sz2
        assert snr8 == pytest.approx(2 * snr16)
        assert 10 * np.log10(snr8) == pytest.approx(30.0)

    def test_estimate_matches_synthetic_model_in_distribution(self):
        # pilot-based estimation and the synthetic injector agree in mean and
        # per-entry variance
        p = _params(m=32, n=8, lmax=4)
        cfg = PilotConfig(amplitude=12.0, max_delay=4)
        ch = _single_path(p)
        frame = embed_pilot(np.zeros(cfg.data_cell_count(p)), cfg, p)
        clean = dd_to_time(frame)
        rng = np.random.default_rng(23)
        sz = 0.3
        sigma2 = sz**2 / cfg.dd_power
        cell = (3, 5)
        a = np.empty(10_000, dtype=complex)
        b = np.empty(10_000, dtype=complex)
        for t in range(10_000):
            noisy = apply_channel(ch, clean, sz, rng)
            a[t] = estimate_channel(time_to_dd(noisy), cfg).taps[cell]
            b[t] = perturb_channel(ch, sigma2, rng).taps[cell]
        assert abs(np.mean(a) - np.mean(b)) < 0.05 * np.sqrt(sigma2)
        assert abs(np.var(a) - np.var(b)) < 0.05 * sigma2


class TestSerialization:
    def test_round_trip(self):
        p = _params(m=16, n=8, lmax=3)
        rng = np.random.default_rng(25)
        taps = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
        est = gains_from_estimate(taps, p)
        back = deserialize_estimate(serialize_estimate(est), p)
        assert np.abs(back.taps - est.taps).max() < 1e-15
        assert np.abs(back.gains - est.gains).max() < 1e-9

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        m=st.integers(1, 24),
        n=st.integers(2, 12),
        l_max=st.integers(0, 5),
        seed=st.integers(0, 2**16),
    )
    def test_round_trip_on_any_grid_shape(self, m, n, l_max, seed):
        p = ModemParams(n_delay=m, n_doppler=n)
        rng = np.random.default_rng(seed)
        taps = rng.standard_normal((l_max + 1, n)) + 1j * rng.standard_normal((l_max + 1, n))
        est = gains_from_estimate(taps, p)
        back = deserialize_estimate(serialize_estimate(est), p)
        assert np.array_equal(back.taps, est.taps)
        assert np.array_equal(back.gains, est.gains)

    def test_perfect_csi_view_has_no_taps(self):
        p = _params()
        est = EstimatedChannel.from_true(_single_path(p))
        with pytest.raises(ValueError):
            serialize_estimate(est)

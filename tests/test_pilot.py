"""Embedded-pilot frames, read-off estimation, and the Gaussian error model."""

import numpy as np
import pytest

from oddmsim import (
    DDGrid,
    EstimatedChannel,
    ModemParams,
    apply_channel,
    data_cell_count,
    dd_to_time,
    embed_pilot,
    estimate_channel,
    gains_from_estimate,
    guard_rows,
    perturb_channel,
    pilot_amplitude_for_snr,
    time_to_dd,
)
from oddmsim.channel import DDPath, DiscreteChannel


def _params(m=32, n=8, lmax=4):
    return ModemParams(n_delay=m, n_doppler=n, max_delay=lmax)


def _single_path(p, l=2, k=-3, h=0.7 - 0.2j):
    return DiscreteChannel([DDPath(l, k, h)], p)


# (M, N, max_delay): the usual test frame, a small one, no delay spread on an
# odd Doppler axis, and odd axes
EMBED_FRAMES = [(32, 8, 4), (16, 4, 2), (8, 5, 0), (9, 7, 3)]


class TestEmbed:
    def test_pilot_in_middle_and_guards_zero(self):
        p = _params()
        data = np.ones(data_cell_count(p), dtype=complex)
        grid = embed_pilot(data, 5.0, p).entries
        assert grid[16, 4] == 5.0
        guard = grid[guard_rows(p)].copy()
        guard[16 - guard_rows(p)[0], 4] = 0
        assert np.all(guard == 0)

    def test_data_cell_count(self):
        p = _params()
        assert data_cell_count(p) == p.frame_len - p.n_doppler * 9

    def test_data_fills_row_major(self):
        p = _params(m=16, n=4, lmax=2)
        data = np.arange(1, data_cell_count(p) + 1, dtype=complex)
        grid = embed_pilot(data, 9.0, p).entries
        np.testing.assert_array_equal(grid[[0, 1, 2, 3, 4, 5]].real.ravel(), data[:24].real)
        np.testing.assert_array_equal(grid[11:].real.ravel(), data[24:].real)

    def test_wrong_data_count(self):
        p = _params()
        with pytest.raises(ValueError):
            embed_pilot(np.zeros(3), 1.0, p)

    @pytest.mark.parametrize(
        "frame", EMBED_FRAMES, ids=[f"{m}x{n}-l{l}" for m, n, l in EMBED_FRAMES]
    )
    def test_guard_rows_count_and_data_cells_agree(self, frame):
        p = _params(*frame)
        mp, npil = p.n_delay // 2, p.n_doppler // 2
        rows = guard_rows(p)
        np.testing.assert_array_equal(
            rows, np.arange(mp - p.max_delay, mp + p.max_delay + 1)
        )
        data_rows = np.setdiff1d(np.arange(p.n_delay), rows)
        assert data_cell_count(p) == data_rows.size * p.n_doppler
        # distinct nonzero data fill the rows off the guard band, row-major;
        # the guard band holds the pilot alone, in the middle of the grid
        data = np.arange(1, data_cell_count(p) + 1, dtype=complex)
        grid = embed_pilot(data, 9.0, p).entries
        np.testing.assert_array_equal(grid[data_rows].ravel(), data)
        guard = grid[rows]
        assert guard[mp - rows[0], npil] == 9.0
        assert np.count_nonzero(guard) == 1
        for count in (data.size - 1, data.size + 1):
            with pytest.raises(ValueError, match="data symbols"):
                embed_pilot(np.zeros(count), 9.0, p)


class TestEstimate:
    def test_noiseless_single_path_recovery(self):
        p = _params()
        amp = 8.0
        ch = _single_path(p)
        frame = embed_pilot(np.zeros(data_cell_count(p)), amp, p)
        received = time_to_dd(apply_channel(ch, dd_to_time(frame), 0.0))
        est = estimate_channel(received, amp)
        half = p.n_doppler // 2
        assert abs(est.taps[2, -3 + half] - (0.7 - 0.2j)) < 1e-12
        rest = est.taps.copy()
        rest[2, -3 + half] = 0
        assert np.abs(rest).max() < 1e-12
        assert np.abs(est.gains - EstimatedChannel.from_true(ch).gains).max() < 1e-12

    def test_phase_divisor_convention(self):
        # read-off at Doppler offset k divides by x_pilot * exp(j*2*pi*m_p*k/(MN))
        p = ModemParams(n_delay=512, n_doppler=32, max_delay=4)
        amp = 3.0
        grid = np.zeros((512, 32), dtype=complex)
        mp, npi = 256, 16
        grid[mp + 1, npi + 1] = 1.0
        est = estimate_channel(DDGrid(grid, p), amp)
        half = 16
        expected = 1.0 / (3.0 * np.exp(2j * np.pi * 256 * 1 / 16384))
        assert abs(est.taps[1, 1 + half] - expected) < 1e-14

    def test_noisy_error_variance_law(self):
        # Var(dh) = sigma_z^2 / P_pilot_dd over the read window
        p = _params()
        amp = 10.0
        ch = _single_path(p)
        frame = embed_pilot(np.zeros(data_cell_count(p)), amp, p)
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
            est = estimate_channel(time_to_dd(noisy), amp)
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
        p_dd = pilot_amplitude_for_snr(30.0, sz2, p8) ** 2
        snr8 = p_dd / p8.n_doppler / sz2
        snr16 = p_dd / p16.n_doppler / sz2
        assert snr8 == pytest.approx(2 * snr16)
        assert 10 * np.log10(snr8) == pytest.approx(30.0)

    def test_estimate_matches_synthetic_model_in_distribution(self):
        # pilot-based estimation and the synthetic injector agree in mean and
        # per-entry variance
        p = _params(m=32, n=8, lmax=4)
        amp = 12.0
        ch = _single_path(p)
        frame = embed_pilot(np.zeros(data_cell_count(p)), amp, p)
        clean = dd_to_time(frame)
        rng = np.random.default_rng(23)
        sz = 0.3
        sigma2 = sz**2 / amp**2
        cell = (3, 5)
        a = np.empty(10_000, dtype=complex)
        b = np.empty(10_000, dtype=complex)
        for t in range(10_000):
            noisy = apply_channel(ch, clean, sz, rng)
            a[t] = estimate_channel(time_to_dd(noisy), amp).taps[cell]
            b[t] = perturb_channel(ch, sigma2, rng).taps[cell]
        assert abs(np.mean(a) - np.mean(b)) < 0.05 * np.sqrt(sigma2)
        assert abs(np.var(a) - np.var(b)) < 0.05 * sigma2

"""Closed-form SINR expressions, bounds, union-bound SER, state evolution."""

import numpy as np
import pytest

from oddmsim import analysis as an
from oddmsim.analysis import (
    ErrorState,
    channel_moments,
    ser_union_bound,
    sinr_from_powers,
    sinr_mrc_profile,
    sinr_soft_profile,
    soft_spectrum,
    state_evolution,
)
import oracles
from oracles import spreading_stack, stack_covariance, subchannel


class TestAppendixMoments:
    """Closed-form Gaussian moments against Monte-Carlo expectation oracles."""

    N_DRAWS = 100_000

    def _draws(self, lm1, sigma2, seed):
        rng = np.random.default_rng(seed)
        return np.sqrt(sigma2 / 2) * (
            rng.standard_normal((self.N_DRAWS, lm1))
            + 1j * rng.standard_normal((self.N_DRAWS, lm1))
        )

    def test_error_energy(self):
        lm = 8
        sigma2 = 0.03
        dg = self._draws(lm + 1, sigma2, 1)
        emp = float(np.mean(np.sum(np.abs(dg) ** 2, axis=1)))
        expected = (lm + 1) * sigma2
        assert abs(emp - expected) < 0.01 * expected

    def test_error_energy_squared(self):
        lm = 8
        sigma2 = 0.03
        dg = self._draws(lm + 1, sigma2, 2)
        emp = float(np.mean(np.sum(np.abs(dg) ** 2, axis=1) ** 2))
        expected = (lm**2 + 3 * lm + 2) * sigma2**2
        assert abs(emp - expected) < 0.01 * expected

    def test_projected_error_power(self):
        lm = 8
        sigma2 = 0.03
        rng = np.random.default_rng(3)
        g = rng.standard_normal(lm + 1) + 1j * rng.standard_normal(lm + 1)
        dg = self._draws(lm + 1, sigma2, 4)
        emp = float(np.mean(np.abs(dg @ np.conj(g)) ** 2))
        expected = sigma2 * float(np.vdot(g, g).real)
        assert abs(emp - expected) < 0.01 * expected


def _moments_oracle(ch, q):
    """ChannelMoments' fields at symbol q, from the definitions on its sub-channel."""
    sub = subchannel(ch, q)
    lm = ch.l_max
    own2 = np.abs(sub[:, lm]) ** 2
    taps = np.arange(lm + 1)
    out = dict.fromkeys(
        ("cross_neg", "cross_pos", "branch_neg", "branch_pos", "mask_neg", "mask_pos"), 0.0
    )
    out["energy"] = own2.sum()
    for dl in range(-lm, lm + 1):
        if dl == 0:
            continue
        side = "neg" if dl < 0 else "pos"
        g_dl = sub[:, dl + lm]
        out[f"cross_{side}"] += abs(np.vdot(sub[:, lm], g_dl)) ** 2
        out[f"branch_{side}"] += np.vdot(g_dl, g_dl).real
        out[f"mask_{side}"] += own2[(taps - dl >= 0) & (taps - dl <= lm)].sum()
    return out


class TestChannelMoments:
    """Every field against its per-symbol definition."""

    def _check(self, ch, q_idx):
        mom = channel_moments(ch)
        for q in q_idx:
            for name, value in _moments_oracle(ch, int(q)).items():
                np.testing.assert_allclose(
                    getattr(mom, name)[q], value, rtol=1e-12, err_msg=f"{name} at q={q}"
                )

    def test_desk_grid(self, desk_channel):
        mn = desk_channel.params.frame_len
        q_idx = np.random.default_rng(40).choice(mn, 100, replace=False)
        self._check(desk_channel, np.concatenate([[0, mn - 1], q_idx]))

    def test_odd_grid(self):
        from oddmsim import ChannelProfile, ModemParams, sample_channel

        p = ModemParams(n_delay=13, n_doppler=9, max_delay=4)
        prof = ChannelProfile(delays=(0, 1, 4), powers=(0.5, 0.3, 0.2), k_max=3)
        ch = sample_channel(prof, p, np.random.default_rng(41))
        self._check(ch, range(p.frame_len))

    @pytest.mark.parametrize("scale", ["desk", "paper"])
    def test_support_loop_equals_every_tap_loop(self, scale, desk_channel, request):
        # skipping the tap rows off the support must not change a bit
        ch = desk_channel if scale == "desk" else request.getfixturevalue("paper_channel")
        assert len(ch.support) < ch.l_max + 1  # some rows are really skipped
        mom, ref = channel_moments(ch), oracles.channel_moments(ch)
        assert mom.l_max == ref.l_max
        for name in ("energy", "cross_neg", "cross_pos", "branch_neg", "branch_pos",
                     "mask_neg", "mask_pos"):
            assert np.array_equal(getattr(mom, name), getattr(ref, name)), name


class TestMrcSinr:
    def test_reduces_to_matched_filter_bound(self, desk_channel):
        sz2 = 0.04
        errs = ErrorState(0.0, 0.0, 0.0, 1.0, sz2)
        mom = channel_moments(desk_channel)
        np.testing.assert_allclose(
            sinr_mrc_profile(desk_channel, errs, mom), mom.energy / sz2, rtol=1e-12
        )

    def test_matches_monte_carlo_with_injected_errors(self, desk_channel, qam4):
        # direct single-pass equalization with i.i.d. symbol and channel errors
        from oddmsim.pilot import perturb_channel

        params = desk_channel.params
        mn = params.frame_len
        lm = desk_channel.l_max
        table = desk_channel.gain_table()
        rng = np.random.default_rng(50)
        v_err, sdg2, sz2 = 0.05, 1e-3, 10 ** (-1.6)
        trials = 300
        psi_p = np.zeros(mn)
        eta_p = np.zeros(mn)
        for _ in range(trials):
            s = qam4.map_bits(rng.integers(0, 2, mn * 2))
            shat = s + np.sqrt(v_err / 2) * (
                rng.standard_normal(mn) + 1j * rng.standard_normal(mn)
            )
            est = perturb_channel(desk_channel, sdg2 / params.n_doppler, rng)
            r = np.zeros(mn, dtype=complex)
            for l in desk_channel.support:
                r += table[l] * np.roll(s, l)
            r += np.sqrt(sz2 / 2) * (
                rng.standard_normal(mn) + 1j * rng.standard_normal(mn)
            )
            resid = r.copy()
            for l in range(lm + 1):
                resid -= est.gains[l] * np.roll(shat, l)
            own = np.array([np.roll(est.gains[l], -l) for l in range(lm + 1)])
            branch = np.array([np.roll(resid, -l) for l in range(lm + 1)])
            branch += own * shat[None, :]
            vhat = np.sum(np.abs(own) ** 2, axis=0)
            num = np.sum(np.conj(own) * branch, axis=0)
            psi_p += np.abs(vhat * s) ** 2
            eta_p += np.abs(num - vhat * s) ** 2
        emp_db = 10 * np.log10(np.mean(psi_p / eta_p))
        errs = ErrorState(v_err, v_err, sdg2, 1.0, sz2)
        th_db = 10 * np.log10(np.mean(sinr_mrc_profile(desk_channel, errs)))
        assert abs(emp_db - th_db) <= 0.3

    def test_monotone_in_each_variance(self, desk_channel):
        base = dict(sigma_e2_cur=0.05, sigma_e2_prev=0.08, sigma_dg2=1e-3, power=1.0, sigma_z2=0.02)
        mom = channel_moments(desk_channel)
        ref = sinr_mrc_profile(desk_channel, ErrorState(**base), mom)
        for name in ("sigma_e2_cur", "sigma_e2_prev", "sigma_dg2", "sigma_z2"):
            worse = dict(base)
            worse[name] = base[name] * 3 + 1e-4
            assert np.all(sinr_mrc_profile(desk_channel, ErrorState(**worse), mom) < ref)

    def test_upper_bound_dominates(self, desk_channel):
        # the ideal-cancellation bound is the profile at zero symbol error
        rng = np.random.default_rng(51)
        mom = channel_moments(desk_channel)
        for _ in range(1000):
            sz2 = float(rng.uniform(0.001, 0.5))
            dg2 = float(rng.uniform(0.0, 0.01))
            errs = ErrorState(
                float(rng.uniform(0, 1)),
                float(rng.uniform(0, 1)),
                dg2,
                1.0,
                sz2,
            )
            bound = sinr_mrc_profile(desk_channel, ErrorState(0.0, 0.0, dg2, 1.0, sz2), mom)
            assert np.all(bound >= sinr_mrc_profile(desk_channel, errs, mom) - 1e-12)

    def test_bound_slope_flattens_with_channel_error(self, desk_channel):
        # dSINR/dSNR near 18 dB drops visibly once channel error dominates
        snrs = np.array([8.0, 18.0])
        slopes = []
        for dg2 in (0.0, 10 ** (-2.0)):
            vals = []
            for snr in snrs:
                sz2 = 10 ** (-snr / 10)
                v = np.mean(
                    sinr_mrc_profile(
                        desk_channel, ErrorState(0.0, 0.0, dg2, 1.0, sz2)
                    )
                )
                vals.append(10 * np.log10(v))
            slopes.append((vals[1] - vals[0]) / (snrs[1] - snrs[0]))
        assert slopes[0] > 0.95  # near-linear without channel error
        assert slopes[1] < 0.6  # saturating under heavy channel error

    def test_validation(self):
        with pytest.raises(ValueError):
            ErrorState(-0.1, 0.0)
        with pytest.raises(ValueError):
            ErrorState(1.5, 0.0, power=1.0)


class TestSoftSinr:
    def test_matched_filter_limit_with_mrc_direction(self, desk_channel):
        # with no interferer variance the MMSE filter points along g_q, so
        # the soft SINR is the matched-filter bound at every q
        sz2 = 0.05
        mom = channel_moments(desk_channel)
        errs = ErrorState(0.0, 0.0, 0.0, 1.0, sz2)
        np.testing.assert_allclose(
            sinr_soft_profile(desk_channel, errs),
            mom.energy / sz2,
            rtol=1e-12,
        )

    def test_decreasing_in_current_error(self, desk_channel):
        sz2 = 0.05
        prev = None
        for cur in (0.0, 0.1, 0.3, 0.6):
            errs = ErrorState(cur, 0.2, 0.0, 1.0, sz2)
            val = sinr_soft_profile(desk_channel, errs)
            if prev is not None:
                assert np.all(val < prev)
            prev = val

    def test_rejects_channel_error(self, desk_channel):
        with pytest.raises(ValueError):
            sinr_soft_profile(desk_channel, ErrorState(0.1, 0.1, 1e-3, 1.0, 0.05))

    def test_rejects_zero_noise_before_building_a_stack(self, desk_channel, monkeypatch):
        def never(table, support, start, stop):
            raise AssertionError("a Gram was built")

        monkeypatch.setattr(an, "_interferer_grams", never)
        with pytest.raises(ValueError, match="sigma_z2 > 0, got 0.0"):
            sinr_soft_profile(desk_channel, ErrorState(0.1, 0.1, 0.0, 1.0, 0.0))

    @staticmethod
    def _per_symbol(ch, errs, q):
        # the filter solved on q's own sub-channel; the residual splits the
        # current (dl < 0) and previous (dl > 0) interferers
        sub = subchannel(ch, q)
        lm = ch.l_max
        v = np.full(2 * lm + 1, errs.sigma_e2_prev)
        v[lm] = errs.power
        cov = (sub * v) @ sub.conj().T + errs.sigma_z2 * np.eye(lm + 1)
        w = np.conj(np.linalg.solve(cov, sub[:, lm]))
        proj2 = np.abs(w @ sub) ** 2
        ripn = (
            errs.sigma_z2 * np.vdot(w, w).real
            + errs.sigma_e2_cur * proj2[:lm].sum()
            + errs.sigma_e2_prev * proj2[lm + 1 :].sum()
        )
        return errs.power * proj2[lm] / ripn

    @pytest.mark.parametrize(
        "errs",
        [
            ErrorState(0.3, 0.05, 0.0, 1.0, 10 ** (-1.4)),
            # current error far above the previous one at high SNR: the
            # filter nearly nulls its interferers, and the residual weighs
            # those small, cancelling gains by the large current error
            ErrorState(0.2, 1e-4, 0.0, 1.0, 1e-3),
        ],
        ids=["typical", "cur_over_prev"],
    )
    @pytest.mark.parametrize("scale", ["desk", "paper"])
    def test_matches_per_symbol_filter(self, scale, errs, desk_channel, request):
        ch = desk_channel if scale == "desk" else request.getfixturevalue("paper_channel")
        mn = ch.params.frame_len
        if scale == "desk":
            q_idx = range(mn)
        else:  # the chunk edges
            q_idx = (0, an._CHUNK - 1, an._CHUNK, an._CHUNK + 1, 2047, 2048, mn - 1)
        profile = sinr_soft_profile(ch, errs)
        for q in q_idx:
            assert profile[q] == pytest.approx(self._per_symbol(ch, errs, q), rel=1e-12), q

    def test_chunk_size_does_not_change_results(self, desk_channel, monkeypatch):
        errs = ErrorState(0.3, 0.05, 0.0, 1.0, 10 ** (-1.4))
        ref = sinr_soft_profile(desk_channel, errs)
        for chunk in (1, 97, 4096):
            monkeypatch.setattr(an, "_CHUNK", chunk)
            assert np.array_equal(sinr_soft_profile(desk_channel, errs), ref), chunk

    def test_matches_monte_carlo_single_pass(self, desk_channel, qam4):
        params = desk_channel.params
        mn = params.frame_len
        lm = desk_channel.l_max
        table = desk_channel.gain_table()
        rng = np.random.default_rng(52)
        v_err, sz2 = 0.05, 10 ** (-1.6)
        v = np.full(2 * lm + 1, v_err)
        v[lm] = 1.0
        stack = spreading_stack(table, np.arange(mn))
        y = np.linalg.solve(stack_covariance(stack, v, sz2), stack[:, :, lm, None])[:, :, 0]
        mu = np.einsum("nj,nj->n", np.conj(y), stack[:, :, lm]).real
        w = np.conj(y)
        own = np.array([np.roll(table[l], -l) for l in range(lm + 1)])
        trials = 300
        psi_p = np.zeros(mn)
        eta_p = np.zeros(mn)
        for _ in range(trials):
            s = qam4.map_bits(rng.integers(0, 2, mn * 2))
            shat = s + np.sqrt(v_err / 2) * (
                rng.standard_normal(mn) + 1j * rng.standard_normal(mn)
            )
            r = np.zeros(mn, dtype=complex)
            for l in desk_channel.support:
                r += table[l] * np.roll(s, l)
            r += np.sqrt(sz2 / 2) * (
                rng.standard_normal(mn) + 1j * rng.standard_normal(mn)
            )
            resid = r.copy()
            for l in desk_channel.support:
                resid -= table[l] * np.roll(shat, l)
            branch = np.array([np.roll(resid, -l) for l in range(lm + 1)])
            branch += own * shat[None, :]
            out = np.einsum("ql,lq->q", w, branch)
            psi_p += np.abs(mu * s) ** 2
            eta_p += np.abs(out - mu * s) ** 2
        emp_db = 10 * np.log10(np.mean(psi_p / eta_p))
        errs = ErrorState(v_err, v_err, 0.0, 1.0, sz2)
        th_db = 10 * np.log10(np.mean(sinr_soft_profile(desk_channel, errs)))
        assert abs(emp_db - th_db) <= 0.3


@pytest.fixture(scope="module")
def paper_channel():
    from oddmsim import harness, sample_channel

    cfg = harness.paper_preset()
    return sample_channel(cfg.profile, cfg.params, np.random.default_rng(70))


class TestSoftSpectrum:
    """The Lanczos table gives the uniform-variance soft SINR without a solve."""

    SZ2 = 10 ** (-1.4)

    @pytest.mark.parametrize("scale", ["desk", "paper"])
    def test_matches_uniform_variance_filters(self, scale, desk_channel, request):
        ch = desk_channel if scale == "desk" else request.getfixturevalue("paper_channel")
        spectrum = soft_spectrum(ch)
        for v in (1.0, 0.3, 1e-3, 0.0):
            errs = ErrorState(v, v, 0.0, 1.0, self.SZ2)
            np.testing.assert_allclose(
                spectrum.sinr(v, self.SZ2),
                sinr_soft_profile(ch, errs),
                rtol=1e-12,
                err_msg=f"v={v}",
            )

    def test_noise_only_limit(self, desk_channel):
        energy = channel_moments(desk_channel).energy
        np.testing.assert_allclose(
            soft_spectrum(desk_channel).sinr(0.0, self.SZ2), energy / self.SZ2, rtol=1e-12
        )

    def test_strictly_decreasing_in_variance(self, desk_channel):
        spectrum = soft_spectrum(desk_channel)
        vals = [spectrum.sinr(v, self.SZ2) for v in (0.0, 1e-3, 0.05, 0.3, 1.0)]
        for lo, hi in zip(vals[1:], vals[:-1]):
            assert np.all(lo < hi)

    @pytest.mark.parametrize("scale", ["desk", "paper"])
    def test_matches_eigen_oracle(self, scale, desk_channel, request):
        ch = desk_channel if scale == "desk" else request.getfixturevalue("paper_channel")
        spectrum, ref = soft_spectrum(ch), oracles.soft_spectrum_eigen(ch)
        for v in (1.0, 0.3, 1e-3, 1e-7, 0.0):
            np.testing.assert_allclose(
                spectrum.sinr(v, self.SZ2), ref.sinr(v, self.SZ2), rtol=1e-12, err_msg=f"v={v}"
            )

    def test_breakdown_at_first_step(self):
        # one path at delay 0: each interferer column has a single entry below
        # the own vector's, so W_q g_q = 0 and Lanczos stops after one step
        from oddmsim import DDPath, DiscreteChannel, ModemParams

        p = ModemParams(n_delay=16, n_doppler=4, max_delay=3)
        gain = 0.6 - 0.8j
        ch = DiscreteChannel([DDPath(0, 1, gain)], p)
        spectrum = soft_spectrum(ch)
        assert np.all(spectrum.beta2 == 0.0)
        for v in (1.0, 0.3, 1e-3, 0.0):
            sinr = spectrum.sinr(v, self.SZ2, power=2.0)
            np.testing.assert_allclose(sinr, 2.0 * abs(gain) ** 2 / self.SZ2, rtol=1e-14)

    def test_chunk_size_does_not_change_results(self, desk_channel, monkeypatch):
        ref = soft_spectrum(desk_channel)
        for chunk in (1, 97, 4096):
            monkeypatch.setattr(an, "_CHUNK", chunk)
            got = soft_spectrum(desk_channel)
            for name in ("alpha", "beta2", "energy"):
                assert np.array_equal(getattr(got, name), getattr(ref, name)), (chunk, name)

    @pytest.mark.parametrize("scale", ["desk", "paper"])
    def test_gram_windows_match_the_stack(self, scale, desk_channel, request, monkeypatch):
        # every window soft_spectrum builds from the band, at chunk edges that
        # align with nothing and through the last l_max symbols, whose samples
        # wrap past MN, against the dense stack with the own column dropped
        ch = desk_channel if scale == "desk" else request.getfixturevalue("paper_channel")
        table, lm, mn = ch.gain_table(), ch.l_max, ch.params.frame_len
        v = np.ones(2 * lm + 1)
        v[lm] = 0.0
        seen = []
        build = an._interferer_grams

        def checked(table_arg, support, start, stop):
            gram, g_own = build(table_arg, support, start, stop)
            stack = spreading_stack(table, np.arange(start, stop))
            ref = stack_covariance(stack, v, 0.0)
            assert gram.flags.c_contiguous
            np.testing.assert_allclose(
                gram, ref, rtol=0, atol=1e-12 * np.abs(ref).max(), err_msg=f"{start}:{stop}"
            )
            assert np.array_equal(g_own, stack[:, :, lm])
            seen.append((start, stop))
            return gram, g_own

        monkeypatch.setattr(an, "_interferer_grams", checked)
        monkeypatch.setattr(an, "_CHUNK", 97 if scale == "desk" else 1000)
        soft_spectrum(ch)
        assert seen[0][0] == 0 and seen[-1][1] == mn
        assert all(a[1] == b[0] for a, b in zip(seen, seen[1:]))

    def test_evolution_rows_match_eigen_oracle(self, paper_channel, qam4, monkeypatch):
        def rows():
            t = state_evolution(paper_channel, 0.0, qam4, "soft", 10**-1.4)
            return [
                f"{10 * np.log10(s):.10g},{ser:.10g},{mse:.10g},{ber:.10g}"
                for s, ser, mse, ber in zip(t.sinr_mean, t.ser, t.mse, t.ber)
            ]

        lanczos = rows()
        monkeypatch.setattr(an, "soft_spectrum", oracles.soft_spectrum_eigen)
        assert lanczos == rows()


class TestSerAndEvolution:
    def test_union_bound_limits(self, qam4):
        assert ser_union_bound(float("inf"), qam4) == 0.0
        assert ser_union_bound(0.0, qam4) == 1.0

    @pytest.mark.parametrize(
        "x, expected, rel",
        [
            # frozen from the evaluation 3 * 0.5 * erfc(1/sqrt(2))
            (1.0, 0.4759657617943712, 1e-9),
            # the tail, against tabulated 3*Q(5) and 3*Q(10)
            (5.0, 8.599547156375817e-07, 1e-12),
            (10.0, 2.285955907248158e-23, 1e-12),
        ],
        ids=["3Q(1)", "3Q(5)", "3Q(10)"],
    )
    def test_union_bound_reference_value(self, qam4, x, expected, rel):
        # SINR = x^2 * 2 P_t / d_min^2 makes the Q argument x, so the bound
        # is 3*Q(x)
        sinr = x**2 * 2 * qam4.power / qam4.d_min**2
        assert ser_union_bound(sinr, qam4) == pytest.approx(expected, rel=rel)

    def test_evolution_noiseless_converges_to_zero(self, desk_channel, qam4):
        trace = state_evolution(desk_channel, 0.0, qam4, "mrc_hard", 1e-12)
        assert trace.ber[-1] < 1e-12
        assert len(trace.ber) == 20

    def test_evolution_variance_nonincreasing(self, desk_profile, qam4):
        from oddmsim import ModemParams, sample_channel

        p = ModemParams(n_delay=64, n_doppler=16, max_delay=8)
        for seed in range(5):
            ch = sample_channel(desk_profile, p, np.random.default_rng(seed))
            for snr in (10.0, 14.0, 18.0):
                trace = state_evolution(ch, 0.0, qam4, "mrc_hard", 10 ** (-snr / 10))
                assert np.all(np.diff(trace.mse) <= 1e-15)

    def test_soft_evolution_rejects_channel_error(self, desk_channel, qam4):
        with pytest.raises(ValueError):
            state_evolution(desk_channel, 1e-3, qam4, "soft", 0.01)

    @pytest.mark.parametrize("sz2", [0.0, -0.01])
    def test_soft_evolution_rejects_zero_noise(self, sz2, desk_channel, qam4, monkeypatch):
        def never(ch):
            raise AssertionError("the spectrum was built")

        monkeypatch.setattr(an, "soft_spectrum", never)
        with pytest.raises(ValueError, match=f"sigma_z2 > 0, got {sz2!r}"):
            state_evolution(desk_channel, 0.0, qam4, "soft", sz2)

    def test_unknown_kind(self, desk_channel, qam4):
        with pytest.raises(ValueError):
            state_evolution(desk_channel, 0.0, qam4, "mpa", 0.01)


class TestMeasurement:
    def test_mse_basics(self, desk_channel, desk_perfect, qam4):
        # the detector's MSE trace is the mean squared distance of its
        # time-domain estimates from the transmitted samples
        from oddmsim import DDGrid, DetectorConfig, apply_channel, dd_to_time, run_detector

        params = desk_channel.params
        rng = np.random.default_rng(60)
        sz2 = 10 ** (-1.4)
        bits = rng.integers(0, 2, params.frame_len * 2)
        grid = DDGrid(qam4.map_bits(bits).reshape(params.n_delay, params.n_doppler), params)
        seq = dd_to_time(grid)
        received = apply_channel(desk_channel, seq, float(np.sqrt(sz2)), rng)
        res = run_detector(
            received,
            desk_perfect,
            DetectorConfig(kind="hard_sicmmse", n_ite=3),
            qam4,
            sigma_z2=sz2,
            sent=grid,
            collect_equalized=True,
        )
        # hard_sicmmse starts from all-zero estimates
        assert res.mse_init == float(np.mean(np.abs(seq.samples) ** 2))
        decided = dd_to_time(DDGrid(qam4.points[res.index_grid], params)).samples
        expected = float(np.mean(np.abs(decided - seq.samples) ** 2))
        assert res.mse_trace.shape == (3,)
        assert res.mse_trace[-1] == pytest.approx(expected, rel=1e-9, abs=1e-20)

    def test_sinr_caps_when_noiseless(self):
        sig = np.full(10, 4.0)
        rip = np.zeros(10)
        assert sinr_from_powers(sig, rip, 4) == pytest.approx(10 ** 30.0)

    def test_sinr_of_known_ratio(self):
        rng = np.random.default_rng(61)
        psi = np.ones((2000, 8))
        eta = np.sqrt(0.1 / 2) * (
            rng.standard_normal((2000, 8)) + 1j * rng.standard_normal((2000, 8))
        )
        sig = np.sum(np.abs(psi) ** 2, axis=0)
        rip = np.sum(np.abs(eta) ** 2, axis=0)
        assert sinr_from_powers(sig, rip, 2000) == pytest.approx(10.0, rel=0.05)


class TestMrcSdBound:
    def test_bound_exceeds_converged_dithered_sinr(self, desk_channel, desk_perfect, qam4):
        # run the dithered detector to convergence and compare the measured
        # post-equalization SINR against the asymptotic bound
        from oddmsim import DDGrid, DetectorConfig, apply_channel, dd_to_time, run_detector

        params = desk_channel.params
        rng = np.random.default_rng(62)
        sz2 = 10 ** (-2.2)
        delta = qam4.d_min / 9.4
        mn = params.frame_len
        psi_p = np.zeros(mn)
        eta_p = np.zeros(mn)
        for _ in range(20):
            bits = rng.integers(0, 2, mn * 2)
            grid = DDGrid(qam4.map_bits(bits).reshape(params.n_delay, params.n_doppler), params)
            seq = dd_to_time(grid)
            received = apply_channel(desk_channel, seq, float(np.sqrt(sz2)), rng)
            res = run_detector(
                received,
                desk_perfect,
                DetectorConfig(kind="mrc_sd", n_ite=10),
                qam4,
                rng,
                sigma_z2=sz2,
                collect_equalized=True,
            )
            rec = res.records[-1]
            psi, eta = an.decompose_equalized(rec.equalized, rec.normalizer, seq.samples)
            psi_p += np.abs(psi) ** 2
            eta_p += np.abs(eta) ** 2
        measured = np.mean(psi_p / eta_p)
        # the MRC form with the dither (variance delta^2/3 per axis) as the
        # only symbol error, on the current and previous interferers alike
        d2 = delta**2 / 3
        bounds = sinr_mrc_profile(desk_channel, ErrorState(d2, d2, 0.0, 1.0, sz2))[::64]
        assert measured < bounds.mean()

"""Detector ops (against the per-symbol forms in oracles.py) and the shared
engine, including property tests of its running-residual invariant, of its
dirty-row schedule and of its fixed-point exit, and the engine surface
perfbench/tracing.py wraps."""

import copy
import importlib.util
import inspect
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oddmsim import (
    DDGrid,
    DetectorConfig,
    EstimatedChannel,
    apply_channel,
    dd_to_time,
    make_constellation,
    run_detector,
    sample_channel,
)
from oddmsim import analysis, detectors, harness
from oddmsim.channel import (
    ChannelProfile,
    DDPath,
    DiscreteChannel,
    band_columns,
)
from oddmsim.detectors import DETECTORS, KINDS, SWEEPS, init_estimates, run_iteration
from oddmsim.modem import ModemParams, TimeSequence
from oddmsim.pilot import (
    data_cell_count,
    embed_pilot,
    estimate_channel,
    guard_rows,
    perturb_channel,
)
from oddmsim.modem import time_to_dd

from oracles import (
    copy_state,
    dd_posterior,
    dithered_ml_slice,
    full_matrix,
    lanes_in_sample_order,
    ml_slice,
    mmse_combine,
    mrc_combine,
    run_every_sweep,
    spreading_stack,
    stack_branches,
    time_gain,
)


def _frame(params, const, rng):
    bits = rng.integers(0, 2, params.frame_len * const.bits_per_symbol)
    grid = DDGrid(
        const.map_bits(bits).reshape(params.n_delay, params.n_doppler), params
    )
    return grid, dd_to_time(grid)


def _residual_oracle(state):
    est = state.est
    resid = state.r.copy()
    for l in est.support:
        resid -= est.gains[l] * np.roll(state.shat, l)
    return resid


class TestRowDft:
    """Each row's forward and inverse DFT call numpy's pocketfft gufuncs
    directly; they must be np.fft's unitary DFTs bit for bit."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 64), seed=st.integers(0, 2**16))
    # Doppler lengths the tests and presets run: 8, desk's 16 and paper's 32
    @example(n=8, seed=0)
    @example(n=16, seed=1)
    @example(n=32, seed=2)
    def test_matches_np_fft_ortho(self, n, seed):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-8, 8, (2, n))
        x = scale[0] * rng.standard_normal(n) + 1j * scale[1] * rng.standard_normal(n)
        unit = detectors._unit_scale(n)
        for direct, reference in (
            (detectors._pocketfft.fft, np.fft.fft),
            (detectors._pocketfft.ifft, np.fft.ifft),
        ):
            out = np.empty(n, dtype=np.complex128)
            got = direct(x, unit, out=out)
            assert got is out
            want = reference(x, norm="ortho")
            # compare the bits, so that even the sign of a zero must agree
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestInit:
    def test_zeros_mode(self, desk_params, desk_perfect, qam4):
        rng = np.random.default_rng(0)
        _, seq = _frame(desk_params, qam4, rng)
        state = init_estimates(seq, desk_perfect, "zeros", 0.1, 1.0)
        assert np.all(state.shat == 0)
        assert np.all(state.row_var == 1.0)
        np.testing.assert_array_equal(state.resid, seq.samples)

    def test_zeros_mode_residual_is_the_received_signal_bit_for_bit(
        self, desk_channel, desk_perfect, qam4
    ):
        # the residual is built by subtracting every tap's gain times an
        # all-zero estimate; on a noisy signal that leaves r unchanged
        rng = np.random.default_rng(31)
        _, seq = _frame(desk_channel.params, qam4, rng)
        received = apply_channel(desk_channel, seq, 0.05, rng)
        state = init_estimates(received, desk_perfect, "zeros", 0.05)
        assert state.resid is not state.r
        assert np.array_equal(state.resid.view(np.uint64), state.r.view(np.uint64))

    def test_freq_mmse_flat_channel_noiseless(self, qam4):
        p = ModemParams(n_delay=16, n_doppler=8, max_delay=2)
        ch = DiscreteChannel([DDPath(0, 0, 1.0)], p)
        rng = np.random.default_rng(1)
        _, seq = _frame(p, qam4, rng)
        state = init_estimates(seq, EstimatedChannel.from_true(ch), "freq_mmse", 0.0)
        assert np.abs(state.shat - seq.samples).max() < 1e-10

    def test_freq_mmse_shrinks_to_zero_in_heavy_noise(self, desk_params, desk_perfect, qam4):
        rng = np.random.default_rng(2)
        _, seq = _frame(desk_params, qam4, rng)
        state = init_estimates(seq, desk_perfect, "freq_mmse", 1e9, 1.0)
        assert np.abs(state.shat).max() < 1e-6

    def test_unknown_mode(self, desk_params, desk_perfect, qam4):
        rng = np.random.default_rng(3)
        _, seq = _frame(desk_params, qam4, rng)
        with pytest.raises(ValueError):
            init_estimates(seq, desk_perfect, "nonsense")

    @pytest.mark.parametrize("mode", ["zeros", "freq_mmse"])
    def test_known_rows_start_pinned(self, mode, desk_channel, qam4):
        # a desk pilot frame: the guard rows are pinned before the first sweep
        params = desk_channel.params
        rng = np.random.default_rng(29)
        sz2 = 0.02
        bits = rng.integers(0, 2, data_cell_count(params) * qam4.bits_per_symbol)
        grid = embed_pilot(qam4.map_bits(bits), 30.0, params)
        received = apply_channel(desk_channel, dd_to_time(grid), float(np.sqrt(sz2)), rng)
        est = estimate_channel(time_to_dd(received), 30.0)
        known_rows = np.zeros(params.n_delay, dtype=bool)
        known_rows[guard_rows(params)] = True
        state = init_estimates(
            received, est, mode, sz2, qam4.power,
            known_rows=known_rows, known_grid=grid.entries,
        )
        rows = np.flatnonzero(known_rows)
        pinned = state.shat.reshape(params.n_doppler, params.n_delay)[:, rows].T
        np.testing.assert_array_equal(
            pinned, np.fft.ifft(grid.entries[rows], axis=1, norm="ortho")
        )
        np.testing.assert_array_equal(state.frozen_rows, known_rows)
        np.testing.assert_array_equal(
            state.row_var, np.where(known_rows, 0.0, qam4.power)
        )
        np.testing.assert_allclose(
            state.resid, _residual_oracle(state), rtol=0, atol=1e-12
        )
        assert state.dirty.all()


class TestStackBranches:
    def test_exact_priors_leave_pure_signal(self, desk_channel, desk_perfect, qam4):
        params = desk_channel.params
        rng = np.random.default_rng(4)
        _, seq = _frame(params, qam4, rng)
        received = apply_channel(desk_channel, seq, 0.0)
        state = init_estimates(received, desk_perfect, "zeros")
        state.shat[:] = seq.samples
        state.resid[:] = _residual_oracle(state)
        mn = params.frame_len
        for q in (0, 17, mn - 1):
            branches = stack_branches(state, q)
            g_q = np.array(
                [time_gain(desk_channel, l, (q + l) % mn) for l in range(desk_channel.l_max + 1)]
            )
            assert np.abs(branches - g_q * seq.samples[q]).max() < 1e-12

    def test_zero_priors_return_raw_slice(self, desk_channel, desk_perfect, qam4):
        params = desk_channel.params
        rng = np.random.default_rng(5)
        _, seq = _frame(params, qam4, rng)
        received = apply_channel(desk_channel, seq, 0.0)
        state = init_estimates(received, desk_perfect, "zeros")
        mn = params.frame_len
        q = 100
        expected = np.array(
            [received.samples[(q + l) % mn] for l in range(desk_channel.l_max + 1)]
        )
        np.testing.assert_allclose(stack_branches(state, q), expected, atol=1e-15)

    def test_running_residual_matches_direct_cancellation(
        self, desk_channel, desk_perfect, qam4
    ):
        # after two noisy iterations the incremental residual still reproduces
        # the from-scratch interference cancellation at random symbols
        params = desk_channel.params
        rng = np.random.default_rng(6)
        _, seq = _frame(params, qam4, rng)
        received = apply_channel(desk_channel, seq, 0.15, rng)
        state = init_estimates(received, desk_perfect, "freq_mmse", 0.0225)
        for _ in range(2):
            run_iteration(state, "mrc", "ml", qam4, 0.0225)
        mn = params.frame_len
        gains = desk_perfect.gains
        lm = desk_perfect.l_max
        for q in rng.integers(0, mn, 100):
            direct = np.empty(lm + 1, dtype=complex)
            for l in range(lm + 1):
                idx = (q + l) % mn
                acc = received.samples[idx]
                for lp in desk_perfect.support:
                    if lp != l:
                        acc -= gains[lp, idx] * state.shat[(idx - lp) % mn]
                direct[l] = acc
            assert np.abs(stack_branches(state, q) - direct).max() <= 1e-12

    def test_residual_invariant_after_full_run(self, desk_channel, desk_perfect, qam4):
        params = desk_channel.params
        rng = np.random.default_rng(7)
        _, seq = _frame(params, qam4, rng)
        received = apply_channel(desk_channel, seq, 0.2, rng)
        state = init_estimates(received, desk_perfect, "zeros", 0.04)
        for combine, slicer in (("mmse", "posterior"), ("mrc", "ml"), ("mrc", "ml")):
            run_iteration(state, combine, slicer, qam4, 0.04)
        assert np.abs(state.resid - _residual_oracle(state)).max() <= 1e-10


class TestCombiners:
    def test_mrc_single_branch_zero_forcing(self):
        g = np.array([0.5 - 0.5j])
        z = 0.01 + 0.02j
        s = 1 - 1j
        out = mrc_combine(g * s + z, g)
        assert abs(out - (s + z / g[0])) < 1e-14

    def test_mrc_exact_on_clean_branches(self):
        rng = np.random.default_rng(8)
        g = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        s = 0.7 + 0.7j
        assert abs(mrc_combine(g * s, g) - s) < 1e-13

    def test_mrc_weights_normalized(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            g = rng.standard_normal(7) + 1j * rng.standard_normal(7)
            w = np.conj(g) / np.vdot(g, g).real
            assert abs(w @ g - 1.0) <= 1e-14

    def test_mrc_degenerate_vector(self):
        with pytest.raises(ValueError, match="degenerate"):
            mrc_combine(np.ones(3, dtype=complex), np.zeros(3, dtype=complex))

    def test_mmse_own_only_covariance_equals_scalar_form(self):
        # covariance with power only on the own symbol reduces the matrix
        # filter to the scalar form
        rng = np.random.default_rng(10)
        lm = 4
        sub = rng.standard_normal((lm + 1, 2 * lm + 1)) + 1j * rng.standard_normal(
            (lm + 1, 2 * lm + 1)
        )
        v = np.zeros(2 * lm + 1)
        v[lm] = 1.0
        r_t = rng.standard_normal(lm + 1) + 1j * rng.standard_normal(lm + 1)
        sz2 = 0.3
        s_mat, mu_mat, _ = mmse_combine(r_t, sub, v, sz2)
        g = sub[:, lm]
        w_scalar = np.conj(g) / (np.vdot(g, g).real + sz2)
        mu_scalar = (w_scalar @ g).real
        s_scalar = w_scalar @ r_t / mu_scalar
        assert abs(s_mat - s_scalar) <= 1e-12
        assert abs(mu_mat - mu_scalar) <= 1e-12

    def test_mmse_tends_to_mrc_as_noise_vanishes(self):
        rng = np.random.default_rng(11)
        lm = 3
        sub = rng.standard_normal((lm + 1, 2 * lm + 1)) + 1j * rng.standard_normal(
            (lm + 1, 2 * lm + 1)
        )
        v = np.zeros(2 * lm + 1)
        v[lm] = 1.0
        r_t = rng.standard_normal(lm + 1) + 1j * rng.standard_normal(lm + 1)
        s_mmse, mu, _ = mmse_combine(r_t, sub, v, 1e-6)
        g = sub[:, lm]
        s_mrc = mrc_combine(r_t, g)
        assert abs(s_mmse - s_mrc) < 1e-4
        assert mu < 1.0

    def test_mmse_mu_between_zero_and_one(self):
        # verified against a direct eigen-decomposition oracle
        rng = np.random.default_rng(12)
        lm = 5
        for _ in range(50):
            sub = rng.standard_normal((lm + 1, 2 * lm + 1)) + 1j * rng.standard_normal(
                (lm + 1, 2 * lm + 1)
            )
            v = rng.uniform(0.0, 1.0, 2 * lm + 1)
            v[lm] = 1.0
            sz2 = rng.uniform(0.01, 1.0)
            _, mu, post = mmse_combine(np.zeros(lm + 1, dtype=complex), sub, v, sz2)
            a = (sub * v) @ sub.conj().T + sz2 * np.eye(lm + 1)
            evals, evecs = np.linalg.eigh(a)
            g = sub[:, lm]
            proj = evecs.conj().T @ g
            mu_oracle = float(np.sum(np.abs(proj) ** 2 / evals).real)
            assert abs(mu - mu_oracle) < 1e-10
            assert 0.0 < mu <= 1.0
            assert post >= 0.0

    def test_mmse_validation(self):
        sub = np.ones((3, 5), dtype=complex)
        with pytest.raises(ValueError):
            mmse_combine(np.zeros(3), sub, np.full(5, -1.0), 0.1)
        v = np.ones(5)
        v[2] = 0.0
        with pytest.raises(ValueError):
            mmse_combine(np.zeros(3), sub, v, 0.1)

    def test_mmse_singular_when_noiseless_and_rank_deficient(self):
        sub = np.zeros((3, 7), dtype=complex)
        sub[:, 3] = [1.0, 1.0, 1.0]
        v = np.zeros(7)
        v[3] = 1.0
        with pytest.raises(np.linalg.LinAlgError):
            mmse_combine(np.zeros(3, dtype=complex), sub, v, 0.0)


class TestSlicers:
    def test_ml_nearest_point(self, qam4):
        assert ml_slice(0.9 + 0.2j, qam4) == pytest.approx((1 + 1j) / np.sqrt(2))

    def test_ml_idempotent_on_alphabet(self, qam4):
        for a in qam4.points:
            assert ml_slice(complex(a), qam4) == complex(a)

    def test_ml_tie_breaks_to_lowest_index(self, qam4):
        # 0.5 is equidistant to (1+j)/sqrt(2) and (1-j)/sqrt(2)
        out = ml_slice(0.5 + 0.0j, qam4)
        tied = [a for a in qam4.points if abs(a.real - 1 / np.sqrt(2)) < 1e-12]
        first = min(
            (np.flatnonzero(qam4.points == t)[0] for t in tied),
        )
        assert out == qam4.points[first]

    def test_dither_zero_matches_ml(self, qam4):
        rng = np.random.default_rng(13)
        for _ in range(50):
            x = complex(rng.standard_normal(), rng.standard_normal())
            assert dithered_ml_slice(x, qam4, 0.0) == ml_slice(x, qam4)

    def test_dither_on_exact_point_returns_coset(self, qam4):
        delta = qam4.d_min / 9.4
        d = delta * (0.3 - 0.8j)
        a = qam4.points[2]
        assert dithered_ml_slice(complex(a), qam4, d) == pytest.approx(a - d)

    def test_posterior_limits(self, qam4):
        x = 0.4 + 0.3j
        mean_small, var_small = dd_posterior(x, 1e-9, qam4)
        assert mean_small == pytest.approx(ml_slice(x, qam4))
        assert var_small < 1e-6
        mean_big, var_big = dd_posterior(x, 1e9, qam4)
        assert abs(mean_big) < 1e-6
        assert var_big == pytest.approx(qam4.power, rel=1e-6)

    def test_posterior_symmetric_input(self, qam4):
        mean, var = dd_posterior(0.0 + 0.0j, 0.5, qam4)
        assert abs(mean) < 1e-12
        assert var == pytest.approx(qam4.power)

    def test_posterior_rejects_nonpositive_variance(self, qam4):
        with pytest.raises(ValueError):
            dd_posterior(0.1, 0.0, qam4)

    @pytest.mark.parametrize("var", [1e-13, 1e-9, 1e-3, 0.5, 1e9])
    def test_engine_posterior_matches_oracle(self, qam4, var):
        # carries the limit checks above over to the engine's batched form
        # (var 1e-13 takes its hard-decision branch)
        rng = np.random.default_rng(17)
        values = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        if var > 1e-12:
            # the symmetric input (a four-way tie under the hard branch)
            values = np.append(values, 0.0)
        means, post_var, nearest = detectors._posterior_batch(values, var, qam4)
        # the decision comes from the posterior's own distance table
        np.testing.assert_array_equal(nearest, qam4.nearest_index(values))
        for x, mean, pvar in zip(values, means, post_var):
            ref_mean, ref_var = dd_posterior(x, var, qam4)
            assert abs(mean - ref_mean) < 1e-12
            assert abs(pvar - ref_var) < 1e-12

    @pytest.mark.parametrize("slicer", ["ml", "dither", "posterior"])
    def test_slice_contract(self, qam4, slicer):
        # feedback is what the row cancels, decision what it is scored on
        rng = np.random.default_rng(18)
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        bound = qam4.d_min / detectors.DITHER_RATIO
        d = rng.uniform(-bound, bound, 16) + 1j * rng.uniform(-bound, bound, 16)
        post_var = rng.uniform(0.0, 0.4, 16)
        feedback, decision, var = detectors._slice(slicer, x, qam4, d, post_var)
        points = qam4.points
        if slicer == "dither":
            np.testing.assert_array_equal(decision, qam4.nearest_index(x + d))
            np.testing.assert_array_equal(feedback, points[decision] - d)
        else:
            np.testing.assert_array_equal(decision, qam4.nearest_index(x))
        if slicer == "posterior":
            means, pvars, _ = detectors._posterior_batch(x, np.mean(post_var), qam4)
            np.testing.assert_array_equal(feedback, means)
            assert var == np.mean(pvars) > 0.0
        else:
            assert var == 0.0
        if slicer == "ml":
            np.testing.assert_array_equal(feedback, points[decision])


class TestEngine:
    @pytest.mark.parametrize(
        "kind", ["mrc", "mrc_sd", "hard_sicmmse", "soft_sicmmse", "ssmi_mrc"]
    )
    def test_noiseless_perfect_csi_is_error_free(
        self, kind, desk_channel, desk_perfect, qam4
    ):
        params = desk_channel.params
        rng = np.random.default_rng(14)
        grid, seq = _frame(params, qam4, rng)
        received = apply_channel(desk_channel, seq, 0.0)
        res = run_detector(
            received,
            desk_perfect,
            DetectorConfig(kind=kind, n_ite=10),
            qam4,
            np.random.default_rng(15),
            sigma_z2=0.0,
            sent=grid,
        )
        assert res.bit_error_trace[-1] == 0

    def test_pilot_frame_rows_stay_pinned(self, desk_channel, qam4):
        params = desk_channel.params
        rng = np.random.default_rng(19)
        sz2 = 0.02
        data_bits = rng.integers(0, 2, data_cell_count(params) * qam4.bits_per_symbol)
        grid = embed_pilot(qam4.map_bits(data_bits), 30.0, params)
        seq = dd_to_time(grid)
        received = apply_channel(desk_channel, seq, float(np.sqrt(sz2)), rng)
        est = estimate_channel(time_to_dd(received), 30.0)
        known_rows = np.zeros(params.n_delay, dtype=bool)
        known_rows[guard_rows(params)] = True
        res = run_detector(
            received,
            est,
            DetectorConfig(kind="soft_sicmmse", n_ite=3),
            qam4,
            rng,
            sigma_z2=sz2,
            known_rows=known_rows,
            sent=grid,
        )
        assert res.bit_error_trace[-1] < 40
        # decisions on data rows are constellation points
        assert np.all(np.isin(res.index_grid, np.arange(4)))

    def test_row_update_touches_only_reachable_samples(
        self, desk_channel, desk_perfect, qam4
    ):
        params = desk_channel.params
        rng = np.random.default_rng(20)
        _, seq = _frame(params, qam4, rng)
        received = apply_channel(desk_channel, seq, 0.1, rng)
        state = init_estimates(received, desk_perfect, "freq_mmse", 0.01)
        state.frozen_rows[:] = True
        state.frozen_rows[10] = False
        before = state.resid.copy()
        run_iteration(state, "mrc", "ml", qam4, 0.01)
        changed = np.flatnonzero(np.abs(state.resid - before) > 0)
        n_sup = len(desk_perfect.support)
        assert changed.size <= n_sup * params.n_doppler
        for idx in changed:
            offset = (idx - 10) % params.n_delay
            assert offset in desk_perfect.support

    def test_ssmi_first_iteration_matches_soft(self, desk_channel, desk_perfect, qam4):
        params = desk_channel.params
        rng = np.random.default_rng(21)
        grid, seq = _frame(params, qam4, rng)
        sz2 = 0.05
        received = apply_channel(desk_channel, seq, float(np.sqrt(sz2)), rng)
        kw = dict(sigma_z2=sz2, sent=grid)
        res_ssmi = run_detector(
            received, desk_perfect, DetectorConfig(kind="ssmi_mrc", n_ite=1), qam4, rng, **kw
        )
        res_soft = run_detector(
            received, desk_perfect, DetectorConfig(kind="soft_sicmmse", n_ite=1), qam4, rng, **kw
        )
        np.testing.assert_array_equal(res_ssmi.index_grid, res_soft.index_grid)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DetectorConfig(kind="turbo")
        with pytest.raises(ValueError):
            DetectorConfig(kind="mrc", n_ite=0)
        with pytest.raises(ValueError):
            DetectorConfig(kind="mrc_sd", delta_d_ratio=2.0)  # bound d_min/2

    @pytest.mark.parametrize(
        "name, known_rows, sent_shape",
        [
            ("known_rows", np.arange(16) < 3, (64, 16)),
            ("sent", None, (64, 8)),
            ("sent", None, (16, 64)),
            # checked before init_estimates pins known_rows from it
            ("sent", np.arange(64) < 3, (64, 8)),
        ],
        # fixed ids, so that no case's id shifts when another case goes
        ids=["known_rows-bad3", "sent-bad6", "sent-bad7", "sent-bad8"],
    )
    def test_oracle_inputs_must_match_the_frame(
        self, name, known_rows, sent_shape, desk_perfect, qam4
    ):
        _, seq = _frame(desk_perfect.params, qam4, np.random.default_rng(28))
        m_count, n = sent_shape
        params = ModemParams(n_delay=m_count, n_doppler=n, max_delay=2)
        sent = DDGrid(np.zeros(sent_shape), params)
        with pytest.raises(ValueError, match=name):
            run_detector(
                seq,
                desk_perfect,
                DetectorConfig(kind="mrc", n_ite=1),
                qam4,
                sigma_z2=0.01,
                known_rows=known_rows,
                sent=sent,
            )

    def test_mrc_sd_requires_rng(self, desk_channel, desk_perfect, qam4, monkeypatch):
        params = desk_channel.params
        rng = np.random.default_rng(22)
        grid, seq = _frame(params, qam4, rng)
        received = apply_channel(desk_channel, seq, 0.1, rng)

        def never(*args, **kwargs):
            raise AssertionError("init_estimates ran before the rng check")

        # the frame's state is not built for a call that cannot run
        monkeypatch.setattr(detectors, "init_estimates", never)
        with pytest.raises(ValueError, match="rng"):
            run_detector(
                received,
                desk_perfect,
                DetectorConfig(kind="mrc_sd"),
                qam4,
                None,
                sigma_z2=0.01,
                sent=grid,
            )

    def test_mrc_sd_rejects_a_bit_generator_without_advance(
        self, desk_channel, desk_perfect, qam4, monkeypatch
    ):
        # the imaginary dither parts come from an advanced copy of the
        # generator's bit generator; MT19937 cannot advance
        params = desk_channel.params
        rng = np.random.default_rng(25)
        grid, seq = _frame(params, qam4, rng)
        received = apply_channel(desk_channel, seq, 0.1, rng)

        def never(*args, **kwargs):
            raise AssertionError("init_estimates ran before the rng check")

        monkeypatch.setattr(detectors, "init_estimates", never)
        with pytest.raises(ValueError, match="advance.*MT19937"):
            run_detector(
                received,
                desk_perfect,
                DetectorConfig(kind="mrc_sd"),
                qam4,
                np.random.Generator(np.random.MT19937(25)),
                sigma_z2=0.01,
                sent=grid,
            )

    def test_dither_grids_match_the_up_front_draw(
        self, desk_channel, desk_perfect, qam4, monkeypatch
    ):
        # each sweep draws its grid when it runs, and the grids are those of
        # drawing every real part, then every imaginary part, before the first
        params = desk_channel.params
        rng = np.random.default_rng(26)
        grid, seq = _frame(params, qam4, rng)
        received = apply_channel(desk_channel, seq, 0.3, rng)
        cfg = DetectorConfig(kind="mrc_sd", n_ite=5)
        grids = []
        sweep = detectors.run_iteration

        def recording(*args, dither=None, **kwargs):
            grids.append(dither.copy())
            sweep(*args, dither=dither, **kwargs)

        monkeypatch.setattr(detectors, "run_iteration", recording)
        run_detector(
            received, desk_perfect, cfg, qam4, np.random.default_rng(27),
            sigma_z2=0.09, sent=grid,
        )
        ref = np.random.default_rng(27)
        delta = cfg.resolved_delta(qam4)
        shape = (cfg.n_ite, params.n_delay, params.n_doppler)
        expected = ref.uniform(-delta, delta, shape) + 1j * ref.uniform(
            -delta, delta, shape
        )
        # compared as raw bits, so even the sign of a zero must agree
        assert np.array_equal(np.array(grids).view(np.uint64), expected.view(np.uint64))

    def test_mrc_sd_peak_stays_near_mrc(self, paper_frame):
        # drawn up front, the n_ite dither grids of a paper frame added about
        # 4 MB to mrc_sd's traced peak; drawn per sweep, one grid is alive
        ch, grid, seq, qam4 = paper_frame
        est = EstimatedChannel.from_true(ch)
        sz2 = 10.0 ** (-1.4)
        received = apply_channel(ch, seq, float(np.sqrt(sz2)), np.random.default_rng(37))
        peaks = {}
        for kind in ("mrc", "mrc_sd"):
            tracemalloc.start()
            try:
                run_detector(
                    received, est, DetectorConfig(kind), qam4,
                    np.random.default_rng(38), sigma_z2=sz2, sent=grid,
                )
                peaks[kind] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["mrc_sd"] - peaks["mrc"] <= 0.5 * 2**20, peaks


def _row_oracle(state, combine, m, sigma_z2):
    """Per-symbol equalizer outputs of row m, from the oracles, before a sweep."""
    est = state.est
    m_count, lm = est.params.n_delay, est.l_max
    taps = np.arange(lm + 1)
    v_diag = state.row_var[(m + np.arange(-lm, lm + 1)) % m_count]
    v_diag[lm] = state.power
    out = []
    for q in np.arange(est.params.n_doppler) * m_count + m:
        branches = stack_branches(state, q)
        if combine == "mrc":
            g_q = est.gains[taps, (q + taps) % est.params.frame_len]
            out.append(mrc_combine(branches, g_q))
        else:
            sub = spreading_stack(est.gains, [q])[0]
            out.append(mmse_combine(branches, sub, v_diag, sigma_z2, state.power)[0])
    return np.array(out)


class TestRowWindows:
    """Rows read and patch their (l_max+1, N) window; the last l_max rows'
    windows wrap past the frame end."""

    @pytest.mark.parametrize("estimated", [False, True])
    @pytest.mark.parametrize("m_0_at_end", [False, True])
    def test_single_row_matches_oracles(
        self, estimated, m_0_at_end, desk_channel, desk_perfect, qam4
    ):
        params = desk_channel.params
        m_count, mn = params.n_delay, params.frame_len
        rng = np.random.default_rng(29)
        est = perturb_channel(desk_channel, 1e-3, rng) if estimated else desk_perfect
        lm = est.l_max
        _, seq = _frame(params, qam4, rng)
        sz2 = 0.05
        received = apply_channel(desk_channel, seq, float(np.sqrt(sz2)), rng)
        delta = DetectorConfig("mrc_sd").resolved_delta(qam4)
        shape = (m_count, params.n_doppler)
        dither = rng.uniform(-delta, delta, shape) + 1j * rng.uniform(-delta, delta, shape)
        m_0 = m_count - lm if m_0_at_end else 0
        sweeps = [("mrc", "ml"), ("mrc", "dither"), ("mmse", "posterior")]
        start = init_estimates(received, est, "freq_mmse", sz2)
        for m in (0, m_count - lm - 1, m_count - lm, m_count - 1):
            state = copy_state(start)
            state.frozen_rows[:] = True
            state.frozen_rows[m] = False
            for combine, slicer in sweeps:
                expected = _row_oracle(state, combine, m, sz2)
                run_iteration(state, combine, slicer, qam4, sz2, m_0=m_0, dither=dither)
                got = state.equalized.reshape(params.n_doppler, m_count)[:, m]
                np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
                np.testing.assert_allclose(
                    state.resid, _residual_oracle(state), rtol=0, atol=1e-12
                )
            # only row m was estimated
            others = np.ones(mn, dtype=bool)
            others[m::m_count] = False
            assert np.array_equal(state.shat[others], start.shat[others])

    def test_degenerate_row_raises_before_any_row_runs(self, desk_channel, qam4):
        params = desk_channel.params
        m_count, mn = params.n_delay, params.frame_len
        rng = np.random.default_rng(30)
        gains = perturb_channel(desk_channel, 1e-3, rng).gains.copy()
        taps = np.arange(gains.shape[0])
        m = 3  # rows 0..2 come first in the sweep
        q = 5 * m_count + m
        gains[taps, (q + taps) % mn] = 0.0
        est = EstimatedChannel(gains, support=taps, params=params)
        _, seq = _frame(params, qam4, rng)
        state = init_estimates(apply_channel(desk_channel, seq, 0.1, rng), est, "zeros")
        shat, resid = state.shat.copy(), state.resid.copy()
        with pytest.raises(ValueError, match="degenerate"):
            run_iteration(state, "mrc", "ml", qam4, 0.01)
        assert np.array_equal(state.shat, shat)
        assert np.array_equal(state.resid, resid)
        state.frozen_rows[m] = True
        run_iteration(state, "mrc", "ml", qam4, 0.01)
        # with the degenerate row frozen the sweep runs and moves the estimates
        assert not np.array_equal(state.shat, shat)

    def test_taps_must_not_reach_past_the_delay_axis(self):
        # a row's window would reach some received sample through two taps;
        # the frame's max_delay < M/2 bounds every channel and estimate
        p = ModemParams(n_delay=8, n_doppler=4, max_delay=2)
        with pytest.raises(ValueError, match="max_delay=2"):
            DiscreteChannel([DDPath(0, 0, 1.0), DDPath(8, 0, 0.5)], p)
        gains = np.zeros((9, p.frame_len), dtype=np.complex128)
        gains[0] = 1.0
        with pytest.raises(ValueError, match="max_delay"):
            EstimatedChannel(gains, support=(0,), params=p)


@pytest.fixture(scope="module")
def paper_frame():
    """One paper-scale frame: its channel, transmitted grid and time samples."""
    cfg = harness.paper_preset()
    rng = np.random.default_rng(33)
    qam4 = make_constellation(4)
    ch = sample_channel(cfg.profile, cfg.params, rng)
    grid, seq = _frame(cfg.params, qam4, rng)
    return ch, grid, seq, qam4


# (perturbed table, SNR in dB, m_0, pilot rows frozen, sweeps); m_0 = -1 is M-1
SOFT, HARD = ("mmse", "posterior"), ("mmse", "ml")
LANE_CASES = {
    "true-17dB-m0": (False, 17.0, 0, False, [SOFT, SOFT]),
    "perturbed-14dB-m5-pilot": (True, 14.0, 5, True, [HARD, SOFT]),
    "true-30dB-mlast-pilot": (False, 30.0, -1, True, [SOFT, HARD]),
    "perturbed-30dB-m0": (True, 30.0, 0, False, [SOFT, HARD]),
}


class TestLaneWindows:
    """MMSE rows slide banded covariance windows from row to row. Whole
    paper-scale sweeps check every processed row, the wrapping rows
    m >= M - l_max among them: its window against the covariance built from
    spreading_stack, and its outputs against the per-symbol MMSE oracle."""

    @pytest.mark.parametrize("case", sorted(LANE_CASES))
    def test_every_row_matches_the_stack_covariance_and_oracle(
        self, case, paper_frame, monkeypatch
    ):
        perturbed, snr_db, m_0, pilot, sweeps = LANE_CASES[case]
        ch, grid, seq, qam4 = paper_frame
        params = ch.params
        m_count, n = params.n_delay, params.n_doppler
        rng = np.random.default_rng(34)
        if perturbed:
            est = perturb_channel(ch, 1e-3, rng)
        else:
            est = EstimatedChannel.from_true(ch)
        lm = est.l_max
        sz2 = 10.0 ** (-snr_db / 10.0)
        received = apply_channel(ch, seq, float(np.sqrt(sz2)), rng)
        known = None
        if pilot:
            known = np.zeros(m_count, dtype=bool)
            known[guard_rows(params)] = True
        state = init_estimates(
            received, est, "zeros", sz2, known_rows=known, known_grid=grid.entries
        )
        combine = detectors._combine_mmse
        seen = []

        def checked(lanes, g, branches):
            m = lanes.m
            q = np.arange(n) * m_count + m
            stack = spreading_stack(est.gains, q)
            v_diag = state.row_var[(m + np.arange(-lm, lm + 1)) % m_count]
            cov = np.matmul(stack * v_diag, np.conj(stack.transpose(0, 2, 1)))
            cov += sz2 * np.eye(lm + 1)
            window = lanes_in_sample_order(lanes)
            assert np.max(np.abs(window - cov)) <= 1e-12 * np.max(np.abs(cov)), m
            v_diag[lm] = state.power  # the filter gives its own symbol full power
            expected = [
                mmse_combine(stack_branches(state, qi), sub, v_diag, sz2, state.power)
                for qi, sub in zip(q, stack)
            ]
            s_tilde, mu, post_var = combine(lanes, g, branches)
            for got, want in zip((s_tilde, mu, post_var), zip(*expected)):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
            seen.append(m)
            return s_tilde, mu, post_var

        monkeypatch.setattr(detectors, "_combine_mmse", checked)
        m_0 %= m_count
        order = (m_0 + np.arange(m_count)) % m_count
        for combine_kind, slicer in sweeps:
            seen.clear()
            run_iteration(state, combine_kind, slicer, qam4, sz2, m_0=m_0)
            assert seen == [m for m in order if not state.frozen_rows[m]]

    @pytest.mark.parametrize("kind", ["hard_sicmmse", "soft_sicmmse"])
    def test_noise_too_weak_to_factor_uses_the_pseudo_inverse(
        self, kind, desk_channel, desk_perfect, qam4
    ):
        # at sigma_z2 = 1e-20 the windows are numerically singular: the
        # Cholesky factorization fails and the rows take the pinv filter
        rng = np.random.default_rng(36)
        grid, seq = _frame(desk_channel.params, qam4, rng)
        received = apply_channel(desk_channel, seq, 1e-10, rng)
        res = run_detector(
            received,
            desk_perfect,
            DetectorConfig(kind, n_ite=3),
            qam4,
            sigma_z2=1e-20,
            sent=grid,
        )
        assert res.bit_error_trace[-1] == 0

    def test_band_columns_match_the_dense_covariance(self):
        params = ModemParams(n_delay=12, n_doppler=4, max_delay=3)
        prof = ChannelProfile(delays=(0, 1, 3), powers=(0.5, 0.3, 0.2), k_max=1)
        rng = np.random.default_rng(35)
        ch = sample_channel(prof, params, rng)
        mn, lm = params.frame_len, ch.l_max
        v = rng.uniform(0.0, 1.0, params.n_delay)
        sz2 = 0.1
        g_mat = full_matrix(ch)
        cov = (g_mat * v[np.arange(mn) % params.n_delay]) @ g_mat.conj().T
        cov += sz2 * np.eye(mn)
        p = np.arange(mn)
        ks = np.arange(lm + 1)
        # block[i, d, k] = g[d, p_i - k]
        block = ch.gain_table()[ks[:, None], (p[:, None, None] - ks) % mn]
        for i in p:
            col = band_columns(block[i : i + 1], v[(i - ks) % params.n_delay], sz2)[0]
            np.testing.assert_allclose(col, cov[(i - ks) % mn, i], rtol=0, atol=1e-14)


class TestDetectorTable:
    @pytest.mark.parametrize("kind", KINDS)
    def test_plan_is_first_sweep_then_later_sweeps(self, kind):
        init, first, later = DETECTORS[kind]
        cfg = DetectorConfig(kind, n_ite=4)
        assert cfg.initializer == init
        assert cfg.plan() == [first, later, later, later]
        assert DetectorConfig(kind, n_ite=1).plan() == [first]

    @pytest.mark.parametrize(
        "combine, slicer",
        [("bogus", "ml"), ("mrc", "nonsense"), ("mrc", "posterior"), ("hard_scalar", "ml")],
    )
    def test_unknown_sweep_rejected_before_any_row(
        self, combine, slicer, desk_params, desk_perfect, qam4
    ):
        _, seq = _frame(desk_params, qam4, np.random.default_rng(23))
        state = init_estimates(seq, desk_perfect, "zeros", 0.1)
        shat, resid = state.shat.copy(), state.resid.copy()
        with pytest.raises(ValueError, match="sweep"):
            run_iteration(state, combine, slicer, qam4, 0.1)
        assert np.array_equal(state.shat, shat)
        assert np.array_equal(state.resid, resid)

    def test_dither_sweep_needs_dither_grid(self, desk_params, desk_perfect, qam4):
        _, seq = _frame(desk_params, qam4, np.random.default_rng(24))
        state = init_estimates(seq, desk_perfect, "zeros", 0.1)
        shat, resid = state.shat.copy(), state.resid.copy()
        with pytest.raises(ValueError, match="dither"):
            run_iteration(state, "mrc", "dither", qam4, 0.1)
        assert np.array_equal(state.shat, shat)
        assert np.array_equal(state.resid, resid)


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestTracingContract:
    """The names and signatures perfbench/tracing.py wraps from outside."""

    def test_traced_names_resolve(self):
        tracing = _load_tracing()
        modules = {"harness": harness, "detectors": detectors, "analysis": analysis}
        for mod_name, names in tracing.TRACED.items():
            for name in names:
                assert callable(getattr(modules[mod_name], name)), (mod_name, name)

    def test_run_iteration_leads_with_state_and_combine(self):
        params = list(inspect.signature(run_iteration).parameters)
        assert params[:2] == ["state", "combine"]

    def test_every_planned_combine_is_classified(self):
        tracing = _load_tracing()
        for kind in KINDS:
            for combine, _ in DetectorConfig(kind, n_ite=2).plan():
                assert combine == "mmse" or combine in tracing.MRC_COMBINES

    @pytest.mark.parametrize("kind", KINDS)
    def test_wrappers_trace_a_ber_point(self, kind, monkeypatch):
        tracing = _load_tracing()
        tracer = tracing.Tracer()
        cfg = harness.desk_preset(max_frames=2, chunk=2, min_frame_errors=3)
        modules = {"harness": harness, "detectors": detectors, "analysis": analysis}
        saved = tracing.install(tracer, modules)
        try:
            # undone before the tracer's wrappers are restored
            with monkeypatch.context() as patch:
                calls = _count_sweeps(patch)
                per_frame = []
                detect = harness.run_detector

                def frame(*args, **kwargs):
                    before = len(calls)
                    result = detect(*args, **kwargs)
                    per_frame.append(len(calls) - before)
                    return result

                patch.setattr(harness, "run_detector", frame)
                harness.run_ber_point(cfg, kind, 14.0)
        finally:
            tracing.restore(saved)
        for mod_name, names in tracing.TRACED.items():
            for name in names:
                assert not hasattr(getattr(modules[mod_name], name), "__wrapped__")
        spans = tracer.spans
        names = {s["id"]: s["name"] for s in spans}
        sweeps = [s for s in spans if s["name"] == "detectors.run_iteration"]
        assert all(names.get(s["parent"]) == "detectors.run_detector" for s in sweeps)
        frames = [s["id"] for s in spans if s["name"] == "detectors.run_detector"]
        assert len(per_frame) == len(frames) == 2
        assert [sum(s["parent"] == f for s in sweeps) for f in frames] == per_frame
        metrics = tracing.layer_metrics(spans, rounds=1, units_per_point=2)
        assert metrics["detectors.sweeps"] == sum(per_frame) > 0
        assert metrics["detectors.rows"] > 0


# every (combine, slicer) step some detector's plan uses
PLAN_STEPS = sorted(SWEEPS)
TINY = ModemParams(n_delay=8, n_doppler=4, max_delay=2)


def _random_sweep_state(seed, frozen, init, estimated):
    """A noisy TINY frame's starting state, its dither grid and noise variance."""
    rng = np.random.default_rng(seed)
    qam4 = make_constellation(4)
    prof = ChannelProfile(delays=(0, 1, 2), powers=(0.5, 0.3, 0.2), k_max=1)
    ch = sample_channel(prof, TINY, rng)
    if estimated:
        est = perturb_channel(ch, 1e-3, rng)
    else:
        est = EstimatedChannel.from_true(ch)
    _, seq = _frame(TINY, qam4, rng)
    sz2 = 0.05
    received = apply_channel(ch, seq, float(np.sqrt(sz2)), rng)
    state = init_estimates(received, est, init, sz2)
    state.frozen_rows[:] = frozen
    delta = DetectorConfig("mrc_sd").resolved_delta(qam4)
    shape = (TINY.n_delay, TINY.n_doppler)
    dither = rng.uniform(-delta, delta, shape) + 1j * rng.uniform(
        -delta, delta, shape
    )
    return state, dither, qam4, sz2


def any_plan(max_steps):
    """Any sequence of up to max_steps plan steps from any starting state."""
    return given(
        seed=st.integers(0, 2**16),
        steps=st.lists(st.sampled_from(PLAN_STEPS), min_size=1, max_size=max_steps),
        m_0=st.integers(0, TINY.n_delay - 1),
        frozen=st.lists(st.booleans(), min_size=TINY.n_delay, max_size=TINY.n_delay),
        init=st.sampled_from(["zeros", "freq_mmse"]),
        estimated=st.booleans(),
    )


PLAN_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


class TestResidualInvariant:
    @PLAN_SETTINGS
    @any_plan(max_steps=4)
    def test_any_plan_keeps_resid_equal_to_r_minus_g_shat(
        self, seed, steps, m_0, frozen, init, estimated
    ):
        state, dither, qam4, sz2 = _random_sweep_state(seed, frozen, init, estimated)
        for combine, slicer in steps:
            run_iteration(state, combine, slicer, qam4, sz2, m_0=m_0, dither=dither)
            np.testing.assert_allclose(
                state.resid, _residual_oracle(state), rtol=0, atol=1e-10
            )


def _full_sweep(run_iteration_fn):
    """run_iteration that first marks every row dirty: no row is skipped."""

    def sweep(state, *args, **kwargs):
        state.dirty[:] = True
        return run_iteration_fn(state, *args, **kwargs)

    return sweep


class TestDirtyRowSchedule:
    """Skipping the clean rows of an ('mrc', 'ml') sweep changes no output."""

    @PLAN_SETTINGS
    @any_plan(max_steps=8)
    def test_any_plan_matches_full_sweeps(self, seed, steps, m_0, frozen, init, estimated):
        state, dither, qam4, sz2 = _random_sweep_state(seed, frozen, init, estimated)
        # MRC sweeps after the plan make sure clean rows come up to be skipped
        for combine, slicer in steps + [("mrc", "ml")] * 4:
            full = copy_state(state)
            kw = dict(m_0=m_0, dither=dither)
            run_iteration(state, combine, slicer, qam4, sz2, **kw)
            _full_sweep(run_iteration)(full, combine, slicer, qam4, sz2, **kw)
            assert np.array_equal(state.shat, full.shat)
            assert np.array_equal(state.resid, full.resid)
            assert np.array_equal(state.decision, full.decision)
            assert np.array_equal(state.equalized, full.equalized, equal_nan=True)
            assert np.array_equal(state.normalizer, full.normalizer, equal_nan=True)

    def test_only_dirty_rows_are_equalized(
        self, monkeypatch, desk_channel, desk_perfect, qam4
    ):
        params = desk_channel.params
        rows = []
        combine = detectors._combine_mrc

        def counting(state, m, *args):
            rows.append(m)
            return combine(state, m, *args)

        monkeypatch.setattr(detectors, "_combine_mrc", counting)
        rng = np.random.default_rng(25)
        _, seq = _frame(params, qam4, rng)
        sz2 = 0.02
        received = apply_channel(desk_channel, seq, float(np.sqrt(sz2)), rng)
        state = init_estimates(received, desk_perfect, "freq_mmse", sz2)

        def sweep(combine, slicer="ml"):
            rows.clear()
            before = state.shat.copy()
            run_iteration(state, combine, slicer, qam4, sz2)
            return len(rows), not np.array_equal(before, state.shat)

        counts = []
        changed = True
        while changed and len(counts) < 10:
            count, changed = sweep("mrc")
            counts.append(count)
        assert not changed, "MRC did not reach a fixed point in 10 sweeps"
        assert counts[0] == params.n_delay
        assert min(counts[1:]) < params.n_delay
        # at the fixed point every row is clean
        assert sweep("mrc") == (0, False)
        # an MMSE sweep leaves every row it processes dirty
        sweep("mmse")
        assert sweep("mrc")[0] == params.n_delay

    @pytest.mark.parametrize("m_0", [0, 5])
    @pytest.mark.parametrize("kind", KINDS)
    def test_run_detector_matches_full_sweeps(
        self, kind, m_0, monkeypatch, desk_channel, qam4
    ):
        params = desk_channel.params
        rng = np.random.default_rng(26)
        grid, seq = _frame(params, qam4, rng)
        sz2 = 0.05
        received = apply_channel(desk_channel, seq, float(np.sqrt(sz2)), rng)
        est = perturb_channel(desk_channel, 1e-3, rng)

        def run():
            stream, observe = _recorder()
            res = run_detector(
                received,
                est,
                DetectorConfig(kind, n_ite=10, m_0=m_0),
                qam4,
                np.random.default_rng(27),
                sigma_z2=sz2,
                sent=grid,
                observe=observe,
            )
            return res, stream

        res, stream = run()
        monkeypatch.setattr(detectors, "run_iteration", _full_sweep(run_iteration))
        ref, ref_stream = run()
        _assert_same_detection(res, ref)
        _assert_same_stream(stream, ref_stream)


def _same_bits(a, b):
    """Equal as raw bits: equal NaNs match, -0.0 and 0.0 do not."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_detection(res, ref):
    for name in ("index_grid", "bit_error_trace"):
        assert _same_bits(getattr(res, name), getattr(ref, name)), name


# the state arrays a recording observer copies at every call
OBSERVED = ("decision", "equalized", "normalizer", "shat", "row_var", "resid")


def _recorder():
    """(stream, observe): observe(i, state) appends i and copies of the
    OBSERVED arrays to stream."""
    stream = []

    def observe(i, state):
        stream.append((i, *(getattr(state, name).copy() for name in OBSERVED)))

    return stream, observe


def _assert_same_stream(stream, ref):
    assert [call[0] for call in stream] == [call[0] for call in ref]
    for (i, *arrays), (_, *ref_arrays) in zip(stream, ref):
        for name, a, b in zip(OBSERVED, arrays, ref_arrays):
            assert _same_bits(a, b), (i, name)


def _count_sweeps(monkeypatch, then=None):
    """The combine of every detectors.run_iteration call, in call order;
    then(state), when given, runs after each call."""
    calls = []
    sweep = detectors.run_iteration

    def counting(state, combine, *args, **kwargs):
        calls.append(combine)
        sweep(state, combine, *args, **kwargs)
        if then is not None:
            then(state)

    monkeypatch.setattr(detectors, "run_iteration", counting)
    return calls


class _Handed(Exception):
    pass


def _harness_inputs(cfg, kind, snr_db, monkeypatch):
    """What harness hands run_detector for frame 0 of a BER point."""
    handed = {}

    def capture(*args, **kwargs):
        handed.update(args=args, kwargs=kwargs)
        raise _Handed

    with monkeypatch.context() as patch:
        patch.setattr(harness, "run_detector", capture)
        with pytest.raises(_Handed):
            harness._ber_frame(cfg, kind, snr_db, 0, 0)
    return handed["args"], handed["kwargs"]


def _pin_every_row(cfg, kwargs):
    """Pin every row of a perfect-CSI frame from _harness_inputs to the sent
    grid: then no sweep changes anything."""
    kwargs["known_rows"] = np.ones(cfg.n_delay, dtype=bool)


class TestFixedPointExit:
    """run_detector stops at an exact fixed point and reports the remaining
    sweeps as copies of the last one: every output, and every state its
    observer sees, equals, bit for bit, that of running every sweep of the
    plan (oracles.run_every_sweep)."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from(KINDS),
        n_ite=st.integers(1, 8),
        m_0=st.integers(0, TINY.n_delay - 1),
        seed=st.integers(0, 2**16),
        snr_db=st.sampled_from([10.0, 20.0, 30.0]),
        estimated=st.booleans(),
        frozen=st.lists(st.booleans(), min_size=TINY.n_delay, max_size=TINY.n_delay),
        observed=st.booleans(),
    )
    def test_tiny_frames_match_every_sweep(
        self, kind, n_ite, m_0, seed, snr_db, estimated, frozen, observed
    ):
        rng = np.random.default_rng(seed)
        qam4 = make_constellation(4)
        prof = ChannelProfile(delays=(0, 1, 2), powers=(0.5, 0.3, 0.2), k_max=1)
        ch = sample_channel(prof, TINY, rng)
        if estimated:
            est = perturb_channel(ch, 1e-3, rng)
        else:
            est = EstimatedChannel.from_true(ch)
        grid, seq = _frame(TINY, qam4, rng)
        sz2 = 10.0 ** (-snr_db / 10.0)
        received = apply_channel(ch, seq, float(np.sqrt(sz2)), rng)
        args = (received, est, DetectorConfig(kind, n_ite=n_ite, m_0=m_0), qam4)
        kwargs = dict(sigma_z2=sz2, known_rows=np.array(frozen), sent=grid)
        stream, observe = _recorder()
        ref_stream, ref_observe = _recorder()
        res = run_detector(
            *args, np.random.default_rng(seed), **kwargs,
            observe=observe if observed else None,
        )
        ref = run_every_sweep(
            *args, np.random.default_rng(seed), **kwargs,
            observe=ref_observe if observed else None,
        )
        _assert_same_detection(res, ref)
        _assert_same_stream(stream, ref_stream)
        assert len(stream) == (n_ite + 1 if observed else 0)

    @pytest.mark.parametrize("pilot_mode", ["perfect_csi", "estimated"])
    @pytest.mark.parametrize("scale", ["desk", "paper"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_harness_frames_match_every_sweep(
        self, kind, scale, pilot_mode, monkeypatch
    ):
        # paper frames run 6 sweeps: soft SIC-MMSE at 17 dB is fixed by the
        # 4th on most frames, and every oracle sweep costs a paper MMSE sweep
        cfg = harness.PRESETS[scale](
            pilot_mode=pilot_mode, snr_pilot_db=40.0, n_ite=10 if scale == "desk" else 6
        )
        (*inputs, rng), kwargs = _harness_inputs(cfg, kind, 17.0, monkeypatch)
        stream, observe = _recorder()
        ref_stream, ref_observe = _recorder()
        res = run_detector(*inputs, copy.deepcopy(rng), **kwargs, observe=observe)
        ref = run_every_sweep(*inputs, rng, **kwargs, observe=ref_observe)
        _assert_same_detection(res, ref)
        _assert_same_stream(stream, ref_stream)

    def test_high_snr_soft_frame_stops_early(self, monkeypatch):
        cfg = harness.desk_preset()
        args, kwargs = _harness_inputs(cfg, "soft_sicmmse", 20.0, monkeypatch)
        calls = _count_sweeps(monkeypatch)
        seen = []
        res = run_detector(*args, **kwargs, observe=lambda i, state: seen.append(i))
        assert 1 <= len(calls) < cfg.n_ite
        assert seen == list(range(cfg.n_ite + 1))
        assert len(res.bit_error_trace) == cfg.n_ite

    @pytest.mark.parametrize("kind", KINDS)
    def test_observer_sees_every_iteration(self, kind, monkeypatch):
        # the 20 dB soft_sicmmse frame is the one that stops early above
        cfg = harness.desk_preset()
        (*inputs, rng), kwargs = _harness_inputs(cfg, kind, 20.0, monkeypatch)
        plain = run_detector(*inputs, copy.deepcopy(rng), **kwargs)
        calls = _count_sweeps(monkeypatch)
        stream, observe = _recorder()
        res = run_detector(*inputs, rng, **kwargs, observe=observe)
        _assert_same_detection(res, plain)
        assert [call[0] for call in stream] == list(range(cfg.n_ite + 1))
        assert len(calls) <= cfg.n_ite
        if kind == "soft_sicmmse":
            assert len(calls) < cfg.n_ite
        # the last call sees the decisions the result reports
        assert np.array_equal(stream[-1][1], res.index_grid)

    @pytest.mark.parametrize("all_frozen", [False, True])
    @pytest.mark.parametrize("kind", KINDS)
    def test_only_a_sweep_the_rest_of_the_plan_repeats_can_stop(
        self, kind, all_frozen, monkeypatch
    ):
        n_ite = 6
        cfg = harness.desk_preset(n_ite=n_ite)
        args, kwargs = _harness_inputs(cfg, kind, 20.0, monkeypatch)
        if all_frozen:
            # only the plan can keep the detector sweeping
            _pin_every_row(cfg, kwargs)
        calls = _count_sweeps(monkeypatch)
        run_detector(*args, **kwargs)
        _, first, later = DETECTORS[kind]
        if later[1] == "dither":
            # a fresh dither grid every sweep
            assert len(calls) == n_ite
        else:
            # MMSE-first plans run their first MRC sweep whatever the MMSE
            # sweep left
            repeated_from = 1 if first == later else 2
            assert repeated_from <= len(calls) <= n_ite
            if all_frozen:
                assert len(calls) == repeated_from

    @pytest.mark.parametrize("name", ["shat", "row_var", "resid"])
    def test_any_bit_a_sweep_changes_keeps_it_sweeping(self, name, monkeypatch):
        cfg = harness.desk_preset(n_ite=6)
        args, kwargs = _harness_inputs(cfg, "soft_sicmmse", 20.0, monkeypatch)
        _pin_every_row(cfg, kwargs)

        def change_one_bit(state):
            # the pinned rows' variances are 0.0, so this flips the sign of a
            # zero there: a change only a bitwise comparison sees
            x = getattr(state, name).view(np.float64)
            x[0] = -x[0] if x[0] == 0.0 else np.nextafter(x[0], np.inf)

        calls = _count_sweeps(monkeypatch, then=change_one_bit)
        run_detector(*args, **kwargs)
        assert len(calls) == cfg.n_ite

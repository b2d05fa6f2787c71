"""Acceptance suite.

Criteria 1-9 run on the desk-scale preset in a few minutes and are part of
the default pytest run. Criteria 10-15 reproduce the full-scale published
numbers; they take hours and carry the `paper` marker (run them with
`pytest -m paper`, ideally with workers configured).

Each test prints one `[criterion N] PASS ...` line (visible with -rP / -s).
"""

import dataclasses

import numpy as np
import pytest

import oddmsim as o
from oddmsim import analysis as an
from oddmsim import harness as h
from oddmsim.channel import DDPath, DiscreteChannel
from oddmsim.detectors import init_estimates, run_iteration
from oddmsim.harness import _ROLE_DETECTOR, _ROLE_FRAME, _frame_rng

from oracles import (
    copy_state,
    dd_reference_output,
    full_matrix,
    mmse_combine,
    stack_branches,
    subchannel,
)

DESK = h.desk_preset(seed=0)
QAM4 = o.make_constellation(4)


def _desk_channel(seed):
    return o.sample_channel(DESK.profile, DESK.params, np.random.default_rng(seed))


def _random_frame(params, rng):
    bits = rng.integers(0, 2, params.frame_len * QAM4.bits_per_symbol)
    grid = o.DDGrid(
        QAM4.map_bits(bits).reshape(params.n_delay, params.n_doppler), params
    )
    return grid, o.dd_to_time(grid)


def test_criterion_1_transform_identities():
    params = DESK.params
    rng = np.random.default_rng(100)
    worst_rt = worst_uni = 0.0
    for _ in range(20):
        x = rng.standard_normal((64, 16)) + 1j * rng.standard_normal((64, 16))
        grid = o.DDGrid(x, params)
        seq = o.dd_to_time(grid)
        back = o.time_to_dd(seq)
        worst_rt = max(worst_rt, float(np.abs(back.entries - x).max()))
        worst_uni = max(
            worst_uni,
            abs(np.linalg.norm(seq.samples) - np.linalg.norm(x)) / np.linalg.norm(x),
        )
    assert worst_rt <= 1e-12
    assert worst_uni <= 1e-12
    print(f"[criterion 1] PASS round-trip {worst_rt:.2e}, unitarity {worst_uni:.2e}")


def test_criterion_2_oracle_equivalence():
    params = DESK.params
    rng = np.random.default_rng(101)
    ch = _desk_channel(101)
    grid, seq = _random_frame(params, rng)
    received = o.apply_channel(ch, seq, 0.0)
    dense = full_matrix(ch)
    gap_apply = float(np.abs(dense @ seq.samples - received.samples).max())
    assert gap_apply <= 1e-12

    mn = params.frame_len
    lm = ch.l_max
    r_vec = dense @ seq.samples
    gap_sub = 0.0
    for q in range(mn):
        sc = subchannel(ch, q)
        r_q = r_vec[(q + np.arange(lm + 1)) % mn]
        s_q = seq.samples[(q + np.arange(-lm, lm + 1)) % mn]
        gap_sub = max(gap_sub, float(np.abs(sc @ s_q - r_q).max()))
    assert gap_sub <= 1e-12

    via_time = o.time_to_dd(received)
    direct = dd_reference_output(ch, grid)
    gap_dd = float(np.abs(via_time.entries - direct.entries).max())
    assert gap_dd <= 1e-10
    print(
        f"[criterion 2] PASS apply {gap_apply:.2e}, sub-slices {gap_sub:.2e}, "
        f"dd-reference {gap_dd:.2e}"
    )


def test_criterion_3_filter_identity():
    # scalar-form filter vs matrix-form filter under the own-symbol-only
    # covariance, on real sub-channel matrices
    ch = _desk_channel(102)
    rng = np.random.default_rng(102)
    mn = ch.params.frame_len
    lm = ch.l_max
    worst = 0.0
    for _ in range(200):
        q = int(rng.integers(0, mn))
        sub = subchannel(ch, q)
        v = np.zeros(2 * lm + 1)
        v[lm] = 1.0
        sz2 = float(rng.uniform(0.01, 1.0))
        r_t = rng.standard_normal(lm + 1) + 1j * rng.standard_normal(lm + 1)
        s_mat, mu_mat, _ = mmse_combine(r_t, sub, v, sz2)
        g = sub[:, lm]
        w = np.conj(g) / (np.vdot(g, g).real + sz2)
        mu_scalar = (w @ g).real
        s_scalar = (w @ r_t) / mu_scalar
        worst = max(worst, abs(s_mat - s_scalar), abs(mu_mat - mu_scalar))
    assert worst <= 1e-12
    print(f"[criterion 3] PASS max filter difference {worst:.2e}")


def test_criterion_4_hard_mmse_equals_mrc_from_second_iteration():
    params = DESK.params
    sz2 = 10 ** (-1.4)
    rng = np.random.default_rng(103)
    worst_imag = 0.0
    for trial in range(100):
        ch = _desk_channel(1000 + trial)
        est = o.EstimatedChannel.from_true(ch)
        grid, seq = _random_frame(params, rng)
        received = o.apply_channel(ch, seq, float(np.sqrt(sz2)), rng)
        hard = o.run_detector(
            received,
            est,
            o.DetectorConfig("hard_sicmmse", n_ite=2),
            QAM4,
            sent=grid,
            sigma_z2=sz2,
        )
        state = init_estimates(received, est, "zeros", sz2, QAM4.power)
        run_iteration(state, "mmse", "ml", QAM4, sz2)
        mrc_state = copy_state(state)
        run_iteration(mrc_state, "mrc", "ml", QAM4, sz2)
        assert np.array_equal(hard.index_grid, mrc_state.decision)
        for q in rng.integers(0, params.frame_len, 5):
            branches = stack_branches(state, int(q))
            ls = np.arange(est.l_max + 1)
            g_q = est.gains[ls, (int(q) + ls) % params.frame_len]
            v = np.vdot(g_q, g_q).real
            num = np.vdot(g_q, branches)
            ratio = (num / (v + sz2)) / (num / v)
            worst_imag = max(worst_imag, abs(ratio.imag))
            assert ratio.real > 0
    assert worst_imag <= 1e-10
    print(f"[criterion 4] PASS 100 frames, max |imag ratio| {worst_imag:.2e}")


def test_criterion_5_gaussian_moment_closed_forms():
    lm = DESK.params.max_delay
    sigma2 = 0.02
    rng = np.random.default_rng(104)
    n = 100_000
    dg = np.sqrt(sigma2 / 2) * (
        rng.standard_normal((n, lm + 1)) + 1j * rng.standard_normal((n, lm + 1))
    )
    g = rng.standard_normal(lm + 1) + 1j * rng.standard_normal(lm + 1)
    energy = np.sum(np.abs(dg) ** 2, axis=1)
    checks = {
        "E[dg^H dg]": (float(np.mean(energy)), (lm + 1) * sigma2),
        "E[(dg^H dg)^2]": (
            float(np.mean(energy**2)),
            (lm**2 + 3 * lm + 2) * sigma2**2,
        ),
        "E[g^H dg dg^H g]": (
            float(np.mean(np.abs(dg @ np.conj(g)) ** 2)),
            sigma2 * float(np.vdot(g, g).real),
        ),
    }
    for name, (emp, expected) in checks.items():
        assert abs(emp - expected) <= 0.01 * expected, name
    print(
        "[criterion 5] PASS "
        + ", ".join(f"{k}: {e:.4g}~{t:.4g}" for k, (e, t) in checks.items())
    )


def test_criterion_6_estimation_error_law():
    params = DESK.params
    sz2 = 0.05
    amp = o.pilot_amplitude_for_snr(30.0, sz2, params)
    frame = o.embed_pilot(np.zeros(o.data_cell_count(params)), amp, params)
    clean = o.dd_to_time(frame)
    rng = np.random.default_rng(105)
    ch = _desk_channel(105)
    true_gains = ch.gain_table()
    acc = 0.0
    count = 0
    trials = 10_000
    for _ in range(trials):
        received = o.apply_channel(ch, clean, float(np.sqrt(sz2)), rng)
        est = o.estimate_channel(o.time_to_dd(received), amp)
        err = est.gains[:, ::128] - true_gains[:, ::128]
        acc += float(np.sum(np.abs(err) ** 2))
        count += err.size
    emp = acc / count
    expected = sz2 * params.n_doppler / amp**2
    assert abs(emp - expected) <= 0.05 * expected
    print(f"[criterion 6] PASS Var(dg) {emp:.4g} ~ {expected:.4g}")


def test_criterion_7_noiseless_correctness():
    # Plain hard-cancellation MRC has rare metastable fixed points at this
    # frame size (seeded by initializer error, the same mechanism as its
    # finite-SNR floor), so this check runs a fixed set of realizations.
    params = DESK.params
    for kind in ("mrc", "mrc_sd", "hard_sicmmse", "soft_sicmmse", "ssmi_mrc"):
        for f in range(4):
            rng = _frame_rng(DESK, 0, f, _ROLE_FRAME)
            det_rng = _frame_rng(DESK, 0, f, _ROLE_DETECTOR)
            ch = o.sample_channel(DESK.profile, params, rng)
            grid, seq = _random_frame(params, rng)
            received = o.apply_channel(ch, seq, 0.0)
            res = o.run_detector(
                received,
                o.EstimatedChannel.from_true(ch),
                o.DetectorConfig(kind=kind, n_ite=10),
                QAM4,
                det_rng,
                sigma_z2=0.0,
                sent=grid,
            )
            assert res.bit_error_trace[-1] == 0, (kind, f)
    print("[criterion 7] PASS zero errors for all five detectors")


def test_criterion_8_dither_decorrelation():
    dmin = QAM4.d_min
    rng = np.random.default_rng(106)
    trials = 100_000
    sigma = 0.5 * dmin
    corr = {}
    for ratio in (2, 4, 8, 16):
        delta = dmin / ratio
        x = QAM4.points[rng.integers(0, 4, trials)]
        eps = (sigma / np.sqrt(2)) * (
            rng.standard_normal(trials) + 1j * rng.standard_normal(trials)
        )
        int_in = 2 * delta * (
            np.round(eps.real / (2 * delta)) + 1j * np.round(eps.imag / (2 * delta))
        )
        frac_in = eps - int_in
        dith = rng.uniform(-delta, delta, trials) + 1j * rng.uniform(
            -delta, delta, trials
        )
        sliced = QAM4.points[QAM4.nearest_index(x + eps + dith)]
        int_out = sliced - x
        cov = np.mean(int_out * np.conj(frac_in)) - np.mean(int_out) * np.conj(
            np.mean(frac_in)
        )
        corr[ratio] = float(abs(cov) / np.sqrt(np.var(int_out) * np.var(frac_in)))
    assert corr[16] < 0.05
    assert corr[2] > corr[16]
    values = [corr[r] for r in (2, 4, 8, 16)]
    for a, b in zip(values, values[1:]):
        assert b <= a + 0.01  # monotone trend up to estimation noise
    print(
        "[criterion 8] PASS |corr| at d_min/delta in (2,4,8,16): "
        + ", ".join(f"{v:.4f}" for v in values)
    )


def test_criterion_9_tiny_instance_ml_gap():
    params = o.ModemParams(n_delay=4, n_doppler=2, max_delay=1)
    rng = np.random.default_rng(7)
    g1 = (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2)
    g2 = (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2)
    norm = np.sqrt(abs(g1) ** 2 + abs(g2) ** 2)
    ch = DiscreteChannel([DDPath(0, 0, g1 / norm), DDPath(1, -1, g2 / norm)], params)
    dense = full_matrix(ch)
    # exhaustive candidate list over all 4^8 frames
    idx_all = np.arange(4**8)
    digits = (idx_all[:, None] // 4 ** np.arange(8)[None, :]) % 4
    x_all = QAM4.points[digits].reshape(-1, 4, 2)
    s_all = np.fft.ifft(x_all, axis=2, norm="ortho").transpose(0, 2, 1).reshape(-1, 8)
    candidates = s_all @ dense.T
    cand_norm = np.sum(np.abs(candidates) ** 2, axis=1)
    perfect = o.EstimatedChannel.from_true(ch)
    snr_db = 10.0
    sz2 = 10 ** (-snr_db / 10)
    n_frames = 4000
    ml_err = soft_err = 0
    for f in range(n_frames):
        frng = np.random.default_rng((900_000 + f,))
        didx = frng.integers(0, 4, 8)
        grid = o.DDGrid(QAM4.points[didx].reshape(4, 2), params)
        seq = o.dd_to_time(grid)
        received = o.apply_channel(ch, seq, float(np.sqrt(sz2)), frng)
        scores = cand_norm - 2 * np.real(candidates @ np.conj(received.samples))
        ml_choice = digits[int(np.argmin(scores))]
        ml_err += int(not np.array_equal(ml_choice, didx))
        res = o.run_detector(
            received,
            perfect,
            o.DetectorConfig(kind="soft_sicmmse", n_ite=6),
            QAM4,
            frng,
            sent=grid,
            sigma_z2=sz2,
        )
        soft_err += int(not np.array_equal(res.index_grid.reshape(-1), didx))
    ml_fer = ml_err / n_frames
    soft_fer = soft_err / n_frames
    assert 0.004 <= ml_fer <= 0.03  # operating point near FER 1e-2
    assert soft_err >= ml_err  # exhaustive search is optimal
    assert soft_fer <= 2.0 * ml_fer
    print(f"[criterion 9] PASS ML FER {ml_fer:.4f}, soft FER {soft_fer:.4f}")


# ---------------------------------------------------------------------------
# full-scale quantitative reproduction (hours; pytest -m paper)

PAPER = h.paper_preset(seed=0, workers=2)


def _paper_cfg(**kw):
    return dataclasses.replace(PAPER, **kw)


@pytest.mark.paper
def test_criterion_10_sinr_agreement():
    cases = []
    for kind in ("mrc", "hard_sicmmse"):
        cases.append((kind, "perfect_csi", None))
        cases.append((kind, "synthetic", 35.0))
        cases.append((kind, "synthetic", 30.0))
    cases.append(("soft_sicmmse", "perfect_csi", None))
    report = []
    failures = []
    for kind, mode, spdb in cases:
        cfg = _paper_cfg(
            snr_db=(16.0,),
            pilot_mode=mode,
            snr_pilot_db=spdb,
            n_ite=5,
            sinr_frames=100,
        )
        rows = h.sinr_point(cfg, kind, 16.0, 0)
        gaps = {it: abs(sim - th) for it, sim, th in rows if 2 <= it <= 5}
        worst = max(gaps.values())
        report.append(f"{kind}/{mode}{spdb or ''}: max gap {worst:.3f} dB")
        if worst > 0.3:
            failures.append((kind, mode, spdb, gaps))
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion 10] {status} " + "; ".join(report))
    assert not failures, failures


@pytest.mark.paper
def test_criterion_11_sinr_upper_bound():
    snrs = (8.0, 10.0, 12.0, 14.0, 16.0, 18.0)
    cfg = _paper_cfg(snr_db=snrs, n_ite=8, sinr_frames=32)
    report = []
    failures = []
    for kind in ("mrc", "hard_sicmmse", "soft_sicmmse"):
        for pi, snr in enumerate(snrs):
            rows = h.sinr_point(cfg, kind, snr, pi)
            sim_db = rows[-1][1]  # converged iteration
            # the bound is conditional on the same realization sinr_point uses
            ch = o.sample_channel(cfg.profile, cfg.params, _frame_rng(cfg, pi, 0, 2))
            sz2 = 10 ** (-snr / 10)
            bound = np.mean(
                an.sinr_mrc_profile(
                    an.channel_moments(ch), an.ErrorState(0.0, 0.0, 0.0, 1.0, sz2)
                )
            )
            bound_db = 10 * np.log10(float(bound))
            gap = bound_db - sim_db
            report.append(f"{kind}@{snr:g}: {gap:+.2f}")
            if not -0.1 <= gap <= 0.5:
                failures.append((kind, snr, bound_db, sim_db))
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion 11] {status} bound-sim gaps(dB) " + ", ".join(report))
    assert not failures, failures


def _ber_point_parallel(cfg, kind, snr, pi):
    from concurrent.futures import ProcessPoolExecutor

    if cfg.workers <= 1:
        return h.run_ber_point(cfg, kind, snr, pi)
    with ProcessPoolExecutor(max_workers=cfg.workers) as executor:
        return h.run_ber_point(cfg, kind, snr, pi, executor)


def _ber_curve(cfg, kind, snrs):
    return np.array(
        [_ber_point_parallel(cfg, kind, snr, pi).ber for pi, snr in enumerate(snrs)]
    )


def _threshold_crossing(snrs, bers, target):
    """SNR where the log-BER curve crosses the target (linear in log-domain)."""
    logs = np.log10(np.maximum(bers, 1e-12))
    t = np.log10(target)
    for i in range(len(snrs) - 1):
        if logs[i] >= t >= logs[i + 1]:
            frac = (logs[i] - t) / (logs[i] - logs[i + 1])
            return snrs[i] + frac * (snrs[i + 1] - snrs[i])
    raise AssertionError(f"target {target} not bracketed by {list(zip(snrs, bers))}")


@pytest.mark.paper
def test_criterion_12_perfect_csi_thresholds():
    targets = {
        "soft_sicmmse": 17.0,
        "ssmi_mrc": 17.1,
        "hard_sicmmse": 17.3,
        "mrc_sd": 18.0,
    }
    report = []
    for kind, expected in targets.items():
        snrs = (expected - 0.6, expected, expected + 0.6)
        cfg = _paper_cfg(snr_db=snrs, min_frame_errors=500, max_frames=40_000)
        bers = _ber_curve(cfg, kind, snrs)
        found = _threshold_crossing(np.array(snrs), bers, 1e-5)
        report.append(f"{kind}: {found:.2f} (target {expected})")
        assert abs(found - expected) <= 0.5, (kind, snrs, bers)
    # plain MRC floors above 1e-5 within the plotted range
    cfg = _paper_cfg(snr_db=(20.0,), min_frame_errors=500, max_frames=60_000)
    rec = _ber_point_parallel(cfg, "mrc", 20.0, 0)
    assert rec.ber > 1e-5, rec
    report.append(f"mrc@20dB floor: {rec.ber:.2e}")
    print("[criterion 12] PASS " + "; ".join(report))


@pytest.mark.paper
def test_criterion_13_estimated_csi_thresholds():
    targets = {
        "mrc": 13.4,
        "mrc_sd": 13.7,
        "hard_sicmmse": 13.1,
        "ssmi_mrc": 13.0,
        "soft_sicmmse": 12.8,
    }
    found = {}
    for kind, expected in targets.items():
        snrs = (expected - 0.7, expected, expected + 0.7)
        cfg = _paper_cfg(
            snr_db=snrs,
            pilot_mode="estimated",
            snr_pilot_db=40.0,
            min_frame_errors=500,
            max_frames=10_000,
        )
        bers = _ber_curve(cfg, kind, snrs)
        found[kind] = _threshold_crossing(np.array(snrs), bers, 1e-3)
        assert abs(found[kind] - expected) <= 0.5, (kind, snrs, bers)
    assert (
        found["soft_sicmmse"]
        < found["ssmi_mrc"]
        < found["hard_sicmmse"]
        < found["mrc"]
        < found["mrc_sd"]
    )
    print(
        "[criterion 13] PASS "
        + "; ".join(f"{k}: {v:.2f}" for k, v in found.items())
    )


def _iteration_ber(cfg, kind, snr_db, n_frames):
    params = cfg.params
    const = QAM4
    sz2 = 10 ** (-snr_db / 10)
    errs = np.zeros(cfg.n_ite, dtype=np.int64)
    bits = 0
    for f in range(n_frames):
        rng = _frame_rng(cfg, 0, f, _ROLE_FRAME)
        det_rng = _frame_rng(cfg, 0, f, _ROLE_DETECTOR)
        ch = o.sample_channel(cfg.profile, params, rng)
        frame_bits = rng.integers(0, 2, params.frame_len * 2)
        grid = o.DDGrid(
            const.map_bits(frame_bits).reshape(params.n_delay, params.n_doppler),
            params,
        )
        seq = o.dd_to_time(grid)
        received = o.apply_channel(ch, seq, float(np.sqrt(sz2)), rng)
        res = o.run_detector(
            received,
            o.EstimatedChannel.from_true(ch),
            cfg.detector_config(kind),
            const,
            det_rng,
            sigma_z2=sz2,
            sent=grid,
        )
        errs += res.bit_error_trace
        bits += params.frame_len * 2
    return errs / bits


@pytest.mark.paper
def test_criterion_14_convergence_profile():
    cfg = _paper_cfg(n_ite=12)
    report = []
    failures = []

    def settled(ber):
        """First iteration within 5% of the one before, or None."""
        return next(
            (
                i + 1
                for i in range(1, cfg.n_ite)
                if abs(ber[i] - ber[i - 1]) <= 0.05 * max(ber[i - 1], 1e-12)
            ),
            None,
        )

    def check(ok, label, detail):
        report.append(label + ("" if ok else " FAIL"))
        if not ok:
            failures.append(detail)

    for snr in (16.0, 18.0):
        curves = {
            kind: _iteration_ber(cfg, kind, snr, 300)
            for kind in ("mrc", "mrc_sd", "hard_sicmmse", "soft_sicmmse")
        }
        for kind in ("mrc", "hard_sicmmse", "soft_sicmmse"):
            conv = settled(curves[kind])
            check(
                conv is not None and conv <= 5,
                f"{kind}@{snr:g}: it{conv}",
                (kind, snr, curves[kind]),
            )
        sd, mrc = curves["mrc_sd"], curves["mrc"]
        conv_sd = settled(sd)
        check(
            conv_sd is not None and 6 <= conv_sd <= 12,
            f"mrc_sd@{snr:g}: it{conv_sd}",
            (snr, sd),
        )
        # dither hurts the first iterations and wins from the third onward
        check(
            bool(np.all(sd[:2] > mrc[:2])),
            f"mrc_sd@{snr:g} above mrc at it1-2",
            (snr, sd, mrc),
        )
        check(
            bool(np.all(sd[2:] < mrc[2:])),
            f"mrc_sd@{snr:g} below mrc from it3",
            (snr, sd, mrc),
        )
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion 14] {status} " + "; ".join(report))
    assert not failures, failures


@pytest.mark.paper
def test_criterion_15_state_evolution_vs_monte_carlo():
    conditions = [
        ("perfect_csi", None),
        ("synthetic", 35.0),
        ("synthetic", 30.0),
    ]
    report = []
    for mode, spdb in conditions:
        for kind, ev_kind in (("hard_sicmmse", "mrc_hard"), ("soft_sicmmse", "soft")):
            if ev_kind == "soft" and mode != "perfect_csi":
                continue  # the soft closed form requires exact CSI
            cfg = _paper_cfg(
                snr_db=tuple(np.arange(10.0, 17.0, 1.0)),
                pilot_mode=mode,
                snr_pilot_db=spdb,
                min_frame_errors=150,
                max_frames=4000,
                evolve_chans=6,
            )
            sigma_dg2 = 0.0 if spdb is None else 10 ** (-spdb / 10)
            for pi, snr in enumerate(cfg.snr_db):
                sz2 = 10 ** (-snr / 10)
                preds = []
                for c in range(cfg.evolve_chans):
                    ch = o.sample_channel(
                        cfg.profile, cfg.params, _frame_rng(cfg, pi, c, 2)
                    )
                    preds.append(
                        an.state_evolution(ch, sigma_dg2, QAM4, ev_kind, sz2).ber[-1]
                    )
                pred = float(np.mean(preds))
                if not 1e-4 <= pred <= 1e-1:
                    continue
                rec = _ber_point_parallel(cfg, kind, snr, pi)
                ratio = max(pred, rec.ber) / max(min(pred, rec.ber), 1e-12)
                report.append(f"{kind}/{mode}{spdb or ''}@{snr:g}: x{ratio:.2f}")
                assert ratio <= 3.0, (kind, mode, snr, pred, rec.ber)
    # the plain-MRC floor is a Monte-Carlo fact the prediction does not capture
    cfg = _paper_cfg(snr_db=(20.0,), min_frame_errors=150, max_frames=60_000)
    ch = o.sample_channel(cfg.profile, cfg.params, _frame_rng(cfg, 0, 0, 2))
    pred_floor = an.state_evolution(ch, 0.0, QAM4, "mrc_hard", 10 ** (-2.0)).ber[-1]
    rec = _ber_point_parallel(cfg, "mrc", 20.0, 0)
    assert rec.ber > 1e-5
    assert rec.ber > 10 * pred_floor
    report.append(f"mrc floor {rec.ber:.2e} >> prediction {pred_floor:.2e}")
    print("[criterion 15] PASS " + "; ".join(report))

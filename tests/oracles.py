"""Per-symbol reference forms of the channel and of the detector engine's
row operations, and the engine's every-sweep loop.

The package builds tap-gain tables and sub-channel stacks for many symbols
at once, and the engine in oddmsim.detectors equalizes and slices a whole
delay row at a time; these functions do the same for one symbol, written as
directly as the paper states them, so tests can check the engine and the
analysis against them. run_every_sweep is run_detector without its
fixed-point exit.
"""

import numpy as np

from oddmsim.analysis import ChannelMoments
from oddmsim.channel import DiscreteChannel
from oddmsim.detectors import DetectionResult, init_estimates, run_iteration
from oddmsim.modem import Constellation


def time_gain(ch: DiscreteChannel, l: int, q: int) -> complex:
    """Tap gain g[l, q] summed over the paths; zero when none sits at delay l."""
    mn = ch.params.frame_len
    acc = 0.0 + 0.0j
    for p in ch.paths:
        if p.delay == l:
            acc += p.gain * np.exp(2j * np.pi * p.doppler * (q - l) / mn)
    return acc


def subchannel(ch: DiscreteChannel, q: int) -> np.ndarray:
    """The (l_max+1) x (2*l_max+1) sub-channel matrix of the symbol at q.

    Column c holds the truncated spreading vector of the interferer at offset
    c - l_max: entry [l, c] = g[l - (c - l_max), (q + l) mod MN], zero off the
    support. The middle column is the symbol's own spreading vector.
    """
    mn = ch.params.frame_len
    if not 0 <= q < mn:
        raise ValueError("time index out of range")
    table = ch.gain_table()
    lm = ch.l_max
    sup = set(ch.support)
    mat = np.zeros((lm + 1, 2 * lm + 1), dtype=np.complex128)
    for l in range(lm + 1):
        for c, dl in enumerate(range(-lm, lm + 1)):
            if (l - dl) in sup:
                mat[l, c] = table[l - dl, (q + l) % mn]
    return mat


def channel_moments(ch: DiscreteChannel) -> ChannelMoments:
    """analysis.channel_moments summed over every tap row, on the support or
    not, in the same order: the reference its support-only loop must equal
    bit for bit."""
    table = ch.gain_table()
    mn = ch.params.frame_len
    lm = ch.l_max
    own = np.empty_like(table)
    for l in range(lm + 1):
        own[l] = np.roll(table[l], -l)
    abs_own2 = np.abs(own) ** 2
    cross = {s: np.zeros(mn) for s in (-1, 1)}
    branch = {s: np.zeros(mn) for s in (-1, 1)}
    for dl in range(-lm, lm + 1):
        if dl == 0:
            continue
        side = 1 if dl > 0 else -1
        c_acc = np.zeros(mn, dtype=np.complex128)
        for l in range(max(0, dl), min(lm, lm + dl) + 1):
            vec = np.roll(table[l - dl], -l)  # g_{q,dl}[l] over q
            c_acc += np.conj(own[l]) * vec
            branch[side] += np.abs(vec) ** 2
        cross[side] += np.abs(c_acc) ** 2
    taps = np.arange(lm + 1)
    return ChannelMoments(
        l_max=lm,
        energy=abs_own2.sum(axis=0),
        cross_neg=cross[-1],
        cross_pos=cross[1],
        branch_neg=branch[-1],
        branch_pos=branch[1],
        mask_neg=(lm - taps) @ abs_own2,
        mask_pos=taps @ abs_own2,
    )


def stack_branches(state, q: int) -> np.ndarray:
    """Channel-impaired branch vector for the symbol at time index q.

    Adds the symbol's own contribution back onto the running residual:
    r_tilde_q[l] = e[(q+l) mod MN] + g_hat_q[l] * s_hat[q] for l = 0..l_max.
    """
    est = state.est
    mn = est.params.frame_len
    ls = np.arange(est.l_max + 1)
    idx = (q + ls) % mn
    g_q = est.gains[ls, idx]
    return state.resid[idx] + g_q * state.shat[q]


def mrc_combine(r_tilde: np.ndarray, g_q: np.ndarray) -> complex:
    """Combine delay branches with weights g_q^H / (g_q^H g_q)."""
    energy = float(np.vdot(g_q, g_q).real)
    if energy == 0.0:
        raise ValueError("degenerate channel: all-zero spreading vector")
    return complex(np.vdot(g_q, r_tilde) / energy)


def mmse_combine(
    r_tilde: np.ndarray,
    sub_matrix: np.ndarray,
    v_diag: np.ndarray,
    sigma_z2: float,
    power: float = 1.0,
):
    """Reduced-dimension MMSE filter for one symbol.

    Returns (normalized estimate, mu, post-MMSE variance) where
    w = g_q^H (G_q V G_q^H + sigma_z^2 I)^{-1}, mu = w g_q, and the variance
    is P_t (1 - mu) / mu. The own-symbol column is the middle one.
    """
    v_diag = np.asarray(v_diag, dtype=np.float64)
    if np.any(v_diag < 0):
        raise ValueError("prior variances must be non-negative")
    center = sub_matrix.shape[1] // 2
    if v_diag[center] <= 0:
        raise ValueError("own-symbol prior variance must be positive")
    g_q = sub_matrix[:, center]
    a = (sub_matrix * v_diag) @ sub_matrix.conj().T
    a[np.diag_indices_from(a)] += sigma_z2
    y = np.linalg.solve(a, g_q)
    mu = float(np.vdot(y, g_q).real)
    s_tilde = complex(np.vdot(y, r_tilde) / mu)
    post_var = power * (1.0 - mu) / mu
    return s_tilde, mu, post_var


def ml_slice(value: complex, constellation: Constellation) -> complex:
    """Nearest alphabet point; ties resolve to the lowest index."""
    idx = constellation.nearest_index(np.asarray([value]))[0]
    return complex(constellation.points[idx])


def dithered_ml_slice(
    value: complex, constellation: Constellation, dither: complex
) -> complex:
    """Subtractively dithered slicer: slice (value + d), then subtract d.

    The output lies on a dither-shifted coset of the alphabet; feeding it
    back breaks the correlation between slicing errors and the slicer input.
    """
    idx = constellation.nearest_index(np.asarray([value + dither]))[0]
    return complex(constellation.points[idx] - dither)


def dd_posterior(value: complex, var: float, constellation: Constellation):
    """A-posteriori symbol mean and variance under constellation constraints,
    for a Gaussian likelihood of variance var."""
    if var <= 0:
        raise ValueError("posterior variance must be positive")
    points = constellation.points
    logp = -np.abs(value - points) ** 2 / var
    p = np.exp(logp - logp.max())
    p /= p.sum()
    mean = p @ points
    return complex(mean), float(np.sum(p * np.abs(points - mean) ** 2))


def lanes_in_sample_order(lanes) -> np.ndarray:
    """(N, l_max+1, l_max+1) copy of an MMSE sweep's lane windows, offset 0
    first: the windows' ring-buffer slots put back in sample order."""
    order = (lanes.phase + np.arange(lanes.size)) % lanes.size
    return lanes.window[:, order][:, :, order]


def run_every_sweep(
    seq,
    est,
    cfg,
    constellation,
    rng,
    *,
    sigma_z2,
    truth,
    true_indices,
    known_rows=None,
    known_grid=None,
    collect_equalized=False,
) -> DetectionResult:
    """run_detector with no fixed-point exit: the same starting state and
    dither grid, then one run_iteration sweep for every entry of the plan."""
    state = init_estimates(
        seq,
        est,
        cfg.initializer,
        sigma_z2,
        constellation.power,
        known_rows=known_rows,
        known_grid=known_grid,
    )
    plan = cfg.plan()
    dither = [None] * len(plan)
    if plan[0][1] == "dither":  # a dither kind dithers every sweep
        delta = cfg.resolved_delta(constellation)
        shape = (cfg.n_ite, *state.decision.shape)
        dither = rng.uniform(-delta, delta, shape) + 1j * rng.uniform(
            -delta, delta, shape
        )
    mse = [float(np.mean(np.abs(state.shat - truth) ** 2))]
    records = []
    for (combine, slicer), d in zip(plan, dither):
        records.append(
            run_iteration(
                state,
                combine,
                slicer,
                constellation,
                sigma_z2,
                m_0=cfg.m_0,
                dither=d,
                collect=collect_equalized,
            )
        )
        mse.append(float(np.mean(np.abs(state.shat - truth) ** 2)))
    free = ~state.frozen_rows
    labels = constellation.labels
    sent_labels = labels[true_indices[free]]
    bits = [
        int(np.bitwise_count(labels[rec.decision_idx[free]] ^ sent_labels).sum())
        for rec in records
    ]
    index_grid = records[-1].decision_idx.copy()
    if not free.all():
        index_grid[~free] = constellation.nearest_index(known_grid[~free])
    return DetectionResult(
        index_grid=index_grid,
        mse_trace=np.array(mse[1:]),
        mse_init=mse[0],
        bit_error_trace=np.array(bits),
        records=records if collect_equalized else [],
    )

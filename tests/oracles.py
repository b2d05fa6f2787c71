"""Per-symbol reference forms of the channel and of the detector engine's
row operations, the sub-channel stack, the dense channel oracles, and the
engine's every-sweep loop.

The package builds tap-gain tables for many symbols at once, fills its
covariances by lag sums over the support taps, and the engine in
oddmsim.detectors equalizes and slices a whole delay row at a time; these
functions do the same for one symbol, written as directly as the paper
states them, so tests can check the engine and the analysis against them.
spreading_stack gathers the sub-channel matrices of many symbols, and
stack_covariance multiplies them out: they are the reference for the
detectors' sliding windows (_LaneWindows), the analysis's Grams
(_interferer_grams) and its soft SINR. full_matrix (the dense channel
matrix) and dd_reference_output (the closed-form DD-domain output) check the
sample-wise channel application. soft_spectrum_eigen is the soft SINR table by
eigendecomposition, the reference for the analysis's Lanczos quadrature.
run_every_sweep is run_detector without its fixed-point exit, and copy_state
lets a test run a sweep on a copy of an engine state.
"""

from dataclasses import dataclass

import numpy as np

from oddmsim.analysis import ChannelMoments
from oddmsim.channel import DiscreteChannel
from oddmsim.detectors import (
    DetectionResult,
    SymbolState,
    init_estimates,
    run_iteration,
)
from oddmsim.modem import Constellation, DDGrid


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


def spreading_stack(gains: np.ndarray, q_idx: np.ndarray) -> np.ndarray:
    """Sub-channel matrices for many time indices at once.

    gains is an (l_max+1, MN) tap-gain table; the result is a C-contiguous
    array of shape (len(q_idx), l_max+1, 2*l_max+1) with
    stack[i, l, c] = gains[l-(c-l_max), (q_i+l) mod MN], zero where
    l-(c-l_max) leaves 0..l_max. For a true channel, stack[i] equals
    tests/oracles.subchannel(ch, q_i).
    """
    lm, mn = gains.shape[0] - 1, gains.shape[1]
    rows, cols = lm + 1, 2 * lm + 1
    q_idx = np.asarray(q_idx, dtype=np.int64)
    stack = np.zeros((q_idx.size, rows, cols), dtype=np.complex128)
    # Row l is nonzero only in columns l..l+l_max, where column l+k reads tap
    # l_max-k. Stepping cols+1 elements per row walks that band, so band[i, l, k]
    # is stack[i, l, l+k]; its last element, l = k = l_max, lies inside stack[i].
    isz = stack.itemsize
    band = np.ndarray(
        (q_idx.size, rows, rows),
        stack.dtype,
        buffer=stack,
        strides=(rows * cols * isz, (cols + 1) * isz, isz),
    )
    time_idx = (q_idx[:, None] + np.arange(rows)) % mn
    band[...] = np.take(gains, (lm - np.arange(rows)) * mn + time_idx[:, :, None])
    return stack


def stack_covariance(stack: np.ndarray, v: np.ndarray, sigma_z2: float) -> np.ndarray:
    """Covariances G diag(v) G^H + sigma_z2 I for every G = stack[i].

    One batched matmul, through the identity G V G^H = conj(conj(G V) G^T)
    for real v: conj(stack * v) times stack.transpose(0, 2, 1), conjugated in
    place. For a C-contiguous stack (as spreading_stack builds it) the
    transposed view is a BLAS operand as it stands, so no conjugated or
    contiguous copy of the stack is made.
    """
    sv = stack * v
    np.conj(sv, out=sv)
    a = np.matmul(sv, stack.transpose(0, 2, 1))
    np.conj(a, out=a)
    diag = np.arange(stack.shape[1])
    a[:, diag, diag] += sigma_z2
    return a


# the dense oracle's largest frame, in samples
_DENSE_CAP = 4096


def full_matrix(ch: DiscreteChannel) -> np.ndarray:
    """Dense MN x MN channel matrix G[q, (q-l) mod MN] = g[l, q].

    Refuses frames larger than _DENSE_CAP samples.
    """
    mn = ch.params.frame_len
    if mn > _DENSE_CAP:
        raise ValueError(
            f"dense oracle refused: frame of {mn} samples exceeds cap {_DENSE_CAP}"
        )
    table = ch.gain_table()
    mat = np.zeros((mn, mn), dtype=np.complex128)
    q = np.arange(mn)
    for l in ch.support:
        mat[q, (q - l) % mn] = table[l]
    return mat


def dd_reference_output(ch: DiscreteChannel, grid: DDGrid) -> DDGrid:
    """Noiseless DD-domain channel output, including the CP phase correction.

    Independent of the time-domain pipeline; used to validate it end to end.
    """
    p = grid.params
    m_ax = np.arange(p.n_delay)[:, None]
    n_ax = np.arange(p.n_doppler)[None, :]
    mn = p.frame_len
    out = np.zeros_like(grid.entries)
    for path in ch.paths:
        shifted = np.roll(grid.entries, (path.delay, path.doppler), axis=(0, 1))
        phase = np.exp(2j * np.pi * (m_ax - path.delay) * path.doppler / mn)
        cp_rows = m_ax < path.delay
        alpha = np.where(
            cp_rows,
            np.exp(-2j * np.pi * ((n_ax - path.doppler) % p.n_doppler) / p.n_doppler),
            1.0,
        )
        out += path.gain * phase * alpha * shifted
    return DDGrid(out, p)


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


_EIGEN_CHUNK = 256


@dataclass(frozen=True)
class EigenSpectrum:
    """Eigenvalues lam (clipped at zero) of every symbol's unit-variance
    interferer Gram matrix W_q, and c2 = |U_q^H g_q|^2, the own vector's power
    along each eigenvector, one row per symbol q."""

    lam: np.ndarray
    c2: np.ndarray

    def sinr(self, off_var: float, sigma_z2: float, power: float = 1.0) -> np.ndarray:
        """P g_q^H (sigma_z2 I + off_var W_q)^{-1} g_q as a sum of positive terms."""
        return power * np.sum(self.c2 / (sigma_z2 + off_var * self.lam), axis=1)


def soft_spectrum_eigen(ch: DiscreteChannel) -> EigenSpectrum:
    """The soft SINR table by one eigendecomposition per symbol: the reference
    for analysis.soft_spectrum's Lanczos quadrature, with the same sinr."""
    table = ch.gain_table()
    lm = ch.l_max
    mn = ch.params.frame_len
    v = np.ones(2 * lm + 1)
    v[lm] = 0.0
    lam = np.empty((mn, lm + 1))
    c2 = np.empty((mn, lm + 1))
    for start in range(0, mn, _EIGEN_CHUNK):  # a whole paper frame's stack is 200 MB
        sel = np.arange(start, min(start + _EIGEN_CHUNK, mn))
        stack = spreading_stack(table, sel)
        lam_q, u = np.linalg.eigh(stack_covariance(stack, v, 0.0))
        lam[sel] = np.maximum(lam_q, 0.0)
        c2[sel] = np.abs(np.einsum("nji,nj->ni", np.conj(u), stack[:, :, lm])) ** 2
    return EigenSpectrum(lam=lam, c2=c2)


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


def copy_state(state: SymbolState) -> SymbolState:
    """A copy a sweep can run on without touching state: every array a sweep
    writes is copied; r, est and the read-only energy table are shared."""
    return SymbolState(
        r=state.r,
        est=state.est,
        shat=state.shat.copy(),
        resid=state.resid.copy(),
        row_var=state.row_var.copy(),
        frozen_rows=state.frozen_rows.copy(),
        power=state.power,
        energy=state.energy,
        dirty=state.dirty.copy(),
        decision=state.decision.copy(),
        equalized=state.equalized.copy(),
        normalizer=state.normalizer.copy(),
    )


def run_every_sweep(
    seq,
    est,
    cfg,
    constellation,
    rng=None,
    *,
    sent,
    sigma_z2=0.0,
    known_rows=None,
    observe=None,
) -> DetectionResult:
    """run_detector with no fixed-point exit: the same starting state and
    dither grid, then one run_iteration sweep for every entry of the plan.

    Like run_detector, it scores the frame against sent, the transmitted
    grid, and calls observe(i, state) with the starting state (i = 0) and
    after each sweep i. Its bit counts are taken here from the state's
    decisions, not by the package."""
    state = init_estimates(
        seq,
        est,
        cfg.initializer,
        sigma_z2,
        constellation.power,
        known_rows=known_rows,
        known_grid=sent.entries,
    )
    plan = cfg.plan()
    dither = [None] * len(plan)
    if plan[0][1] == "dither":  # a dither kind dithers every sweep
        delta = cfg.resolved_delta(constellation)
        shape = (cfg.n_ite, *state.decision.shape)
        dither = rng.uniform(-delta, delta, shape) + 1j * rng.uniform(
            -delta, delta, shape
        )
    free = ~state.frozen_rows
    labels = constellation.labels
    sent_labels = labels[constellation.nearest_index(sent.entries[free])]
    bits = []
    if observe is not None:
        observe(0, state)
    for i, ((combine, slicer), d) in enumerate(zip(plan, dither), 1):
        run_iteration(
            state, combine, slicer, constellation, sigma_z2, m_0=cfg.m_0, dither=d
        )
        xor = labels[state.decision[free]] ^ sent_labels
        bits.append(int(np.bitwise_count(xor).sum()))
        if observe is not None:
            observe(i, state)
    index_grid = state.decision.copy()
    index_grid[~free] = constellation.nearest_index(sent.entries[~free])
    return DetectionResult(index_grid=index_grid, bit_error_trace=np.array(bits))

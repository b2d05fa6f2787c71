"""Iterative detectors over the sub-input-output relation.

Five detector kinds share one engine: maximum-ratio combining (mrc), MRC with
a subtractive-dither slicer (mrc_sd), hard and soft successive-cancellation
MMSE (hard_sicmmse, soft_sicmmse), and soft-initialized MRC (ssmi_mrc).

All of them follow the cross-domain cancellation schedule: delay rows are
processed one at a time, the N symbols of a row are equalized in parallel,
sliced in the DD domain, and the updated estimates are fed back into the
running residual immediately. The residual vector e = r - G_hat @ s_hat is
maintained incrementally; each symbol update touches only the received
samples its delay taps reach. MMSE rows build their filters with the same
sub-channel primitive as the soft-cancellation analysis
(channel.spreading_stack and channel.mmse_filters).

Each kind is defined by one row of DETECTORS: its initializer, its first
sweep and the sweep it repeats afterwards, a sweep being a (combine, slicer)
pair. Hard SIC-MMSE is one MMSE sweep followed by MRC sweeps, since from the
second iteration on its normalized filter output is exactly the MRC output.
"""

from dataclasses import dataclass, field

import numpy as np

from .channel import mmse_filters, spreading_stack
from .modem import Constellation, DDGrid, TimeSequence
from .pilot import EstimatedChannel

__all__ = [
    "DetectorConfig",
    "SymbolState",
    "DetectionResult",
    "init_estimates",
    "stack_branches",
    "mrc_combine",
    "mmse_combine",
    "ml_slice",
    "dithered_ml_slice",
    "dd_posterior",
    "run_detector",
    "run_iteration",
]

# kind -> (initializer, first sweep, later sweeps); a sweep is (combine, slicer)
DETECTORS = {
    "mrc": ("freq_mmse", ("mrc", "ml"), ("mrc", "ml")),
    "mrc_sd": ("freq_mmse", ("mrc", "dither"), ("mrc", "dither")),
    "hard_sicmmse": ("zeros", ("mmse", "ml"), ("mrc", "ml")),
    "soft_sicmmse": ("zeros", ("mmse", "posterior"), ("mmse", "posterior")),
    "ssmi_mrc": ("zeros", ("mmse", "posterior"), ("mrc", "ml")),
}
KINDS = tuple(DETECTORS)
SWEEPS = frozenset(sweep for _, *sweeps in DETECTORS.values() for sweep in sweeps)

# default dither bound ratio d_min / delta_d for mrc_sd
DITHER_RATIO = 9.4


@dataclass
class DetectorConfig:
    """Detector selection and iteration controls.

    delta_d defaults to d_min/9.4 (resolved against the constellation at run
    time). The initializer and the sweeps come from the kind's DETECTORS row.
    """

    kind: str
    n_ite: int = 10
    m_0: int = 0
    delta_d: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown detector kind {self.kind!r}")
        if self.n_ite < 1:
            raise ValueError("n_ite must be at least 1")
        if self.m_0 < 0:
            raise ValueError("m_0 must be non-negative")

    @property
    def initializer(self) -> str:
        return DETECTORS[self.kind][0]

    def plan(self) -> list:
        """(combine, slicer) per iteration: the first sweep, then the later one."""
        _, first, later = DETECTORS[self.kind]
        return [first] + [later] * (self.n_ite - 1)

    def resolved_delta(self, constellation: Constellation) -> float:
        delta = self.delta_d
        if delta is None:
            delta = constellation.d_min / DITHER_RATIO
        if not 0.0 < delta < constellation.d_min / 2.0:
            raise ValueError("dither bound must lie in (0, d_min/2)")
        return delta


@dataclass
class SymbolState:
    """Mutable per-frame detection state.

    The residual invariant resid == r - G_hat @ shat is maintained through
    every feedback update; row_var holds one error variance per delay row
    (the DD->time variance transform is row-constant).
    """

    r: np.ndarray
    est: EstimatedChannel
    shat: np.ndarray
    resid: np.ndarray
    row_var: np.ndarray
    frozen_rows: np.ndarray
    power: float
    iteration: int = 0

    def copy(self) -> "SymbolState":
        return SymbolState(
            r=self.r,
            est=self.est,
            shat=self.shat.copy(),
            resid=self.resid.copy(),
            row_var=self.row_var.copy(),
            frozen_rows=self.frozen_rows.copy(),
            power=self.power,
            iteration=self.iteration,
        )


@dataclass
class IterationRecord:
    """Per-iteration outputs collected by the engine."""

    decision_idx: np.ndarray  # (M, N) alphabet indices
    equalized: np.ndarray | None = None  # (MN,) pre-slicing outputs
    normalizer: np.ndarray | None = None  # (MN,) signal-component multipliers


@dataclass
class DetectionResult:
    """Hard decisions plus optional per-iteration traces."""

    decisions: DDGrid
    index_grid: np.ndarray
    iterations: int
    mse_trace: np.ndarray | None = None
    mse_init: float | None = None  # MSE of the state the first sweep starts from
    bit_error_trace: np.ndarray | None = None
    records: list = field(default_factory=list)


def _residual_from_scratch(r, est, shat):
    resid = r.copy()
    gains = est.gains
    for l in est.support:
        resid -= gains[l] * np.roll(shat, l)
    return resid


def _freq_mmse_equalize(r, est, sigma_z2, power):
    """Block-wise single-tap MMSE initializer in the time-frequency domain.

    Each multicarrier symbol (M samples) gets its own frequency response from
    the block-averaged tap gains; averaging over a whole frame instead would
    cancel every tap with a nonzero Doppler index exactly. The single-tap
    model ignores the within-block tap variation, so this initializer is
    deliberately coarse; bins where the response (and the regularizer)
    vanishes are treated as erased rather than amplified.
    """
    params = est.params
    m_count, n = params.n_delay, params.n_doppler
    blocks = r.reshape(n, m_count)
    per_block = est.gains.reshape(est.l_max + 1, n, m_count)
    gains_blocks = per_block.mean(axis=2)
    out = np.empty_like(blocks)
    for nd in range(n):
        taps = np.zeros(m_count, dtype=np.complex128)
        taps[: est.l_max + 1] = gains_blocks[:, nd]
        freq_resp = np.fft.fft(taps)
        spectrum = np.fft.fft(blocks[nd])
        denom = np.abs(freq_resp) ** 2 + sigma_z2 / power
        floor = 1e-9 * float(np.mean(np.abs(freq_resp) ** 2))
        with np.errstate(divide="ignore", invalid="ignore"):
            eq = np.where(denom > floor, np.conj(freq_resp) * spectrum / denom, 0.0)
        out[nd] = np.fft.ifft(eq)
    return out.reshape(-1)


def init_estimates(
    seq: TimeSequence,
    est: EstimatedChannel,
    mode: str,
    sigma_z2: float = 0.0,
    power: float = 1.0,
) -> SymbolState:
    """Build the starting state: zero priors, or the frequency-domain
    single-tap MMSE initializer (both carry an initial error variance of P_t).
    """
    if mode not in ("zeros", "freq_mmse"):
        raise ValueError(f"unknown init mode {mode!r}")
    params = est.params
    r = np.asarray(seq.samples, dtype=np.complex128)
    if mode == "zeros":
        shat = np.zeros_like(r)
        resid = r.copy()
    else:
        shat = _freq_mmse_equalize(r, est, sigma_z2, power)
        resid = _residual_from_scratch(r, est, shat)
    return SymbolState(
        r=r,
        est=est,
        shat=shat,
        resid=resid,
        row_var=np.full(params.n_delay, power),
        frozen_rows=np.zeros(params.n_delay, dtype=bool),
        power=power,
    )


def stack_branches(state: SymbolState, q: int) -> np.ndarray:
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


def _posterior_batch(values: np.ndarray, var: float, constellation: Constellation):
    """Gaussian-likelihood posterior over the alphabet, for a shared variance."""
    points = constellation.points
    d2 = np.abs(values[:, None] - points[None, :]) ** 2
    if var < 1e-12:
        idx = np.argmin(d2, axis=1)
        return points[idx].copy(), np.zeros(values.shape[0])
    logp = -d2 / var
    logp -= logp.max(axis=1, keepdims=True)
    p = np.exp(logp)
    p /= p.sum(axis=1, keepdims=True)
    means = p @ points
    post_var = np.sum(p * np.abs(points[None, :] - means[:, None]) ** 2, axis=1)
    return means, post_var


def dd_posterior(value: complex, var: float, constellation: Constellation):
    """A-posteriori symbol mean and variance under constellation constraints."""
    if var <= 0:
        raise ValueError("posterior variance must be positive")
    means, post_var = _posterior_batch(np.asarray([value]), var, constellation)
    return complex(means[0]), float(post_var[0])


def _declare_row_vars(state, m):
    """Interferer variance per sub-channel column for the symbol row m."""
    lm = state.est.l_max
    rows = (m + np.arange(-lm, lm + 1)) % state.est.params.n_delay
    v = state.row_var[rows].copy()
    v[lm] = state.power  # own symbol carries full prior power
    return v


def _support_taps(state, sup, q_vec):
    """Received-sample indices and gains of the support taps of one row."""
    idx = (q_vec[None, :] + sup[:, None]) % state.est.params.frame_len
    return idx, state.est.gains[sup[:, None], idx]


def _process_row_mrc(state, q_vec, idx, g_rows):
    branches = state.resid[idx] + g_rows * state.shat[q_vec][None, :]
    energy = np.sum(np.abs(g_rows) ** 2, axis=0)
    if np.any(energy == 0.0):
        raise ValueError("degenerate channel: all-zero spreading vector")
    s_tilde = np.sum(np.conj(g_rows) * branches, axis=0) / energy
    return s_tilde, energy


def _process_row_mmse(state, q_vec, v_diag, sigma_z2):
    lm = state.est.l_max
    stack = spreading_stack(state.est.gains, q_vec)  # (N, rows, cols)
    y, mu = mmse_filters(stack, v_diag, sigma_z2)
    idx = (q_vec[None, :] + np.arange(lm + 1)[:, None]) % state.est.params.frame_len
    g_q = stack[:, :, lm].T  # own spreading vectors, (rows, N)
    branches = state.resid[idx] + g_q * state.shat[q_vec][None, :]
    wr = np.einsum("nj,jn->n", np.conj(y), branches)
    s_tilde = wr / mu
    post_var = state.power * (1.0 - mu) / mu
    return s_tilde, mu, np.maximum(post_var, 0.0)


def _feedback(state, q_vec, idx, g_rows, new_time):
    """Apply updated time-domain estimates and patch the running residual."""
    delta = new_time - state.shat[q_vec]
    state.shat[q_vec] = new_time
    state.resid[idx] -= g_rows * delta[None, :]


def run_iteration(
    state: SymbolState,
    combine: str,
    slicer: str,
    constellation: Constellation,
    sigma_z2: float,
    m_0: int = 0,
    dither: np.ndarray | None = None,
    collect: bool = False,
) -> IterationRecord:
    """One full sweep over the delay rows under the cancellation schedule.

    combine: 'mrc' | 'mmse'
    slicer : 'ml' | 'dither' | 'posterior'

    (combine, slicer) must be a sweep some kind in DETECTORS runs; 'dither'
    needs the (M, N) dither grid of this sweep.
    """
    if (combine, slicer) not in SWEEPS:
        raise ValueError(f"no detector runs the sweep ({combine!r}, {slicer!r})")
    if slicer == "dither" and dither is None:
        raise ValueError("dither slicing needs a dither grid")
    params = state.est.params
    m_count, n = params.n_delay, params.n_doppler
    sup = np.asarray(state.est.support, dtype=np.int64)
    pts = constellation.points
    decision_idx = np.zeros((m_count, n), dtype=np.int64)
    equalized = np.full(params.frame_len, np.nan, dtype=np.complex128) if collect else None
    normalizer = np.full(params.frame_len, np.nan) if collect else None

    for dm in range(m_count):
        m = (m_0 + dm) % m_count
        if state.frozen_rows[m]:
            continue
        q_vec = np.arange(n, dtype=np.int64) * m_count + m
        idx, g_rows = _support_taps(state, sup, q_vec)

        if combine == "mrc":
            s_tilde, norm = _process_row_mrc(state, q_vec, idx, g_rows)
        else:
            v_diag = _declare_row_vars(state, m)
            s_tilde, norm, post_var = _process_row_mmse(state, q_vec, v_diag, sigma_z2)

        x_tilde = np.fft.fft(s_tilde, norm="ortho")
        nearest = constellation.nearest_index(x_tilde)

        if slicer == "ml":
            decision = nearest
            feedback_dd = pts[nearest]
        elif slicer == "dither":
            d = dither[m]
            decision = constellation.nearest_index(x_tilde + d)
            feedback_dd = pts[decision] - d
        else:
            var_dd = float(np.mean(post_var))
            means, pvars = _posterior_batch(x_tilde, var_dd, constellation)
            decision = nearest
            feedback_dd = means
            state.row_var[m] = float(np.mean(pvars))

        if combine == "mmse" and slicer != "posterior":
            # hard-decision cancellation: row treated as perfectly cancelled
            state.row_var[m] = 0.0

        new_time = np.fft.ifft(feedback_dd, norm="ortho")
        _feedback(state, q_vec, idx, g_rows, new_time)
        decision_idx[m] = decision
        if collect:
            equalized[q_vec] = s_tilde
            normalizer[q_vec] = norm

    state.iteration += 1
    return IterationRecord(decision_idx, equalized, normalizer)


def _apply_known_rows(state, known_rows, known_grid):
    """Pin pilot/guard rows to their known transmitted values."""
    params = state.est.params
    m_count, n = params.n_delay, params.n_doppler
    rows = np.flatnonzero(known_rows)
    if rows.size == 0:
        return
    known_time = np.fft.ifft(known_grid[rows, :], axis=1, norm="ortho")
    for j, m in enumerate(rows):
        state.shat[m::m_count] = known_time[j]
    state.frozen_rows[rows] = True
    state.row_var[rows] = 0.0
    state.resid[:] = _residual_from_scratch(state.r, state.est, state.shat)


def _count_bit_errors(constellation, dec_idx, true_idx, mask):
    xor = constellation.labels[dec_idx[mask]] ^ constellation.labels[true_idx[mask]]
    k = constellation.bits_per_symbol
    total = 0
    for b in range(k):
        total += int(np.count_nonzero((xor >> b) & 1))
    return total


def run_detector(
    seq: TimeSequence,
    est: EstimatedChannel,
    cfg: DetectorConfig,
    constellation: Constellation,
    rng: np.random.Generator | None = None,
    *,
    sigma_z2: float = 0.0,
    known_rows: np.ndarray | None = None,
    known_grid: np.ndarray | None = None,
    truth: np.ndarray | None = None,
    true_indices: np.ndarray | None = None,
    data_mask: np.ndarray | None = None,
    collect_equalized: bool = False,
) -> DetectionResult:
    """Detect one frame: run the detector's iteration plan, one run_iteration
    sweep per iteration.

    Pilot/guard rows, when declared via known_rows/known_grid, are pinned to
    their transmitted values and excluded from estimation. Passing the true
    time sequence and/or true alphabet indices enables the per-iteration MSE
    (plus the starting state's MSE) and bit-error traces; collect_equalized
    keeps each sweep's pre-slicing outputs and normalizers in records.
    """
    params = est.params
    if seq.params.frame_len != params.frame_len:
        raise ValueError("sequence and channel estimate sizes differ")
    if cfg.m_0 >= params.n_delay:
        raise ValueError("m_0 outside the delay axis")
    power = constellation.power

    state = init_estimates(seq, est, cfg.initializer, sigma_z2, power)
    if known_rows is not None:
        _apply_known_rows(state, known_rows, known_grid)
        if data_mask is None:
            data_mask = np.broadcast_to(
                ~np.asarray(known_rows, dtype=bool)[:, None],
                (params.n_delay, params.n_doppler),
            )

    plan = cfg.plan()
    dither = None
    if any(slicer == "dither" for _, slicer in plan):
        delta = cfg.resolved_delta(constellation)
        if rng is None:
            raise ValueError(f"{cfg.kind} requires an rng for the dither stream")
        shape = (cfg.n_ite, params.n_delay, params.n_doppler)
        dither = rng.uniform(-delta, delta, shape) + 1j * rng.uniform(
            -delta, delta, shape
        )

    def shat_mse():
        return float(np.mean(np.abs(state.shat - truth) ** 2))

    mse = [shat_mse()] if truth is not None else None
    records = []
    for i, (combine, slicer) in enumerate(plan):
        records.append(
            run_iteration(
                state,
                combine,
                slicer,
                constellation,
                sigma_z2,
                m_0=cfg.m_0,
                dither=dither[i] if dither is not None else None,
                collect=collect_equalized,
            )
        )
        if mse is not None:
            mse.append(shat_mse())

    bit_trace = None
    if true_indices is not None:
        mask = (
            data_mask
            if data_mask is not None
            else np.ones_like(true_indices, dtype=bool)
        )
        bit_trace = np.array(
            [
                _count_bit_errors(constellation, rec.decision_idx, true_indices, mask)
                for rec in records
            ]
        )

    decision_idx = records[-1].decision_idx.copy()
    if known_rows is not None and known_grid is not None:
        rows = np.flatnonzero(known_rows)
        if rows.size:
            decision_idx[rows] = constellation.nearest_index(known_grid[rows, :])
    decisions = DDGrid(constellation.points[decision_idx], params)
    return DetectionResult(
        decisions=decisions,
        index_grid=decision_idx,
        iterations=cfg.n_ite,
        mse_trace=np.array(mse[1:]) if mse is not None else None,
        mse_init=mse[0] if mse is not None else None,
        bit_error_trace=bit_trace,
        records=records if collect_equalized else [],
    )

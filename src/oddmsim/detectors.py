"""Iterative detectors over the sub-input-output relation.

Five detector kinds share one engine: maximum-ratio combining (mrc), MRC with
a subtractive-dither slicer (mrc_sd), hard and soft successive-cancellation
MMSE (hard_sicmmse, soft_sicmmse), and soft-initialized MRC (ssmi_mrc).

All of them follow the cross-domain cancellation schedule: delay rows are
processed one at a time, the N symbols of a row are equalized in parallel,
sliced in the DD domain, and the updated estimates are fed back into the
running residual immediately. The residual vector e = r - G_hat @ s_hat is
maintained incrementally; each symbol update touches only the received
samples its delay taps reach.

An MMSE row's covariance is a principal (l_max+1)-square window of the
banded R = sigma_z2 I + G_hat diag(v) G_hat^H, and consecutive rows of one
Doppler lane share all but one of its samples. So an MMSE sweep keeps one
window per lane and slides it from row to row (_LaneWindows): one fresh band
column in (channel.band_columns), a rank-1 patch when the slicer changes a
row's variance, and one batched Cholesky factorization of the bordered
windows per row. The analysis takes its filters' Grams from lag sums over
the support taps (analysis._interferer_grams), and the tests check the
windows against the sub-channel stack of tests/oracles.py and the
per-symbol MMSE combiner.

Row m reads and patches one (l_max+1, N) window: the gains
g_hat[l, nM+m+l] and the residual samples e[nM+m+l] for every tap l and
Doppler index n, whatever the support (off-support gain rows are exact
zeros, so they add nothing to a sum and patch nothing). For the first
M - l_max rows the window is a zero-copy strided view of the gain table and
of the residual, and the feedback writes the patched samples through it;
only the last l_max rows, whose windows wrap past the frame end, gather
theirs and scatter it back. The MRC energies sum_l |g_hat[l, q+l]|^2 depend on the
estimate alone, so SymbolState.energy holds them for the whole frame.

Each kind is defined by one row of DETECTORS: its initializer, its first
sweep and the sweep it repeats afterwards, a sweep being a (combine, slicer)
pair. Hard SIC-MMSE is one MMSE sweep followed by MRC sweeps, since from the
second iteration on its normalized filter output is exactly the MRC output.

An ("mrc", "ml") sweep re-equalizes only the dirty rows. Row m reads the
residual at delay rows (m + l) mod M for the support taps l, plus its own
estimates, and its feedback writes those same samples; two rows therefore
interact only when their cyclic delay distance is at most l_max. A row whose
feedback changes any estimate marks every row within l_max of it dirty,
itself included; any other sweep leaves every row dirty; a new frame starts
with every row dirty. A clean row was last processed by an
("mrc", "ml") sweep that left its estimates unchanged, and nothing it reads
has changed since, so processing it again would repeat that computation bit
for bit: a skipped row reports the decision, equalized output and normalizer
of its last processing.

run_detector stops sweeping at an exact fixed point: once a sweep leaves
shat, row_var and resid bitwise as it found them, provided every sweep left
in the plan is that same (combine, slicer) pair and slices without dither.
A sweep's outputs and final state are a deterministic function of those
three arrays (an ("mrc", "ml") sweep that changes nothing leaves every row
clean, and a skipped row reports what processing it would give), so each
remaining sweep would repeat the last one bit for bit. Every iteration is
scored against the transmitted grid from the state, and handed to the
caller's observer, so the remaining ones repeat the last sweep's entries and
the bit-error trace keeps its n_ite entries. A dither plan never stops
early. Each sweep draws its dither grid as it runs, the real parts from the
frame's generator and the imaginary parts from a copy of its bit generator
advanced past all n_ite real parts: the grids of one up-front draw.

Each row's forward and inverse unitary N-point DFTs call numpy's pocketfft
gufuncs directly with np.fft's own 1/sqrt(N) factor, formed once per sweep:
the same kernel and factor give the same bits, without the Python np.fft runs
per call, which at N = 32 is about a fifth of an MRC row's cost.
"""

import copy
from dataclasses import dataclass

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

from .channel import band_columns
from .modem import Constellation, DDGrid, TimeSequence
from .pilot import EstimatedChannel

__all__ = [
    "DetectorConfig",
    "SymbolState",
    "DetectionResult",
    "init_estimates",
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

    The mrc_sd dither bound is delta_d = d_min / delta_d_ratio, resolved
    against the constellation at run time. The initializer and the sweeps
    come from the kind's DETECTORS row.
    """

    kind: str
    n_ite: int = 10
    m_0: int = 0
    delta_d_ratio: float = DITHER_RATIO

    def __post_init__(self):
        if self.kind not in KINDS:
            known = ", ".join(KINDS)
            raise ValueError(f"unknown detector {self.kind!r} (known: {known})")
        if self.n_ite < 1:
            raise ValueError("n_ite must be at least 1")
        if self.m_0 < 0:
            raise ValueError("m_0 must be non-negative")
        if not 2.0 < self.delta_d_ratio < float("inf"):
            # keeps the dither bound d_min / ratio inside (0, d_min/2)
            raise ValueError("delta_d_ratio must be finite and above 2")

    @property
    def initializer(self) -> str:
        return DETECTORS[self.kind][0]

    def plan(self) -> list:
        """(combine, slicer) per iteration: the first sweep, then the later one."""
        _, first, later = DETECTORS[self.kind]
        return [first] + [later] * (self.n_ite - 1)

    def resolved_delta(self, constellation: Constellation) -> float:
        return constellation.d_min / self.delta_d_ratio


@dataclass
class SymbolState:
    """Mutable per-frame detection state.

    The residual invariant resid == r - G_hat @ shat is maintained through
    every feedback update; row_var holds one error variance per delay row
    (the DD->time variance transform is row-constant). energy[m, n] is the
    MRC energy sum_l |g_hat[l, q+l]|^2 of the symbol at q = nM + m; it
    depends on the estimate alone, so it is built once per frame and never
    written.

    dirty marks the rows an ("mrc", "ml") sweep must re-equalize; decision,
    equalized and normalizer hold each row's outputs from its last
    processing (a skipped row reports them again; a frozen row keeps
    decision 0 and NaN outputs), and run_detector scores them after every
    sweep. Code that changes shat or resid between sweeps must mark the rows
    that read them dirty.
    """

    r: np.ndarray
    est: EstimatedChannel
    shat: np.ndarray
    resid: np.ndarray
    row_var: np.ndarray
    frozen_rows: np.ndarray
    power: float
    energy: np.ndarray  # (M, N) MRC energies, read-only
    dirty: np.ndarray  # (M,) bool
    decision: np.ndarray  # (M, N) alphabet indices
    equalized: np.ndarray  # (MN,) pre-slicing outputs
    normalizer: np.ndarray  # (MN,) signal-component multipliers


@dataclass
class DetectionResult:
    """A frame's hard decisions (alphabet indices, pinned rows at their sent
    values) and its bit errors against the sent grid after each iteration."""

    index_grid: np.ndarray  # (M, N)
    bit_error_trace: np.ndarray  # (n_ite,)


def _residual_from_scratch(r, est, shat):
    resid = r.copy()
    gains = est.gains
    for l in est.support:
        resid -= gains[l] * np.roll(shat, l)
    return resid


def _energy_table(est):
    """(M, N) table of sum_l |g_hat[l, (q+l) mod MN]|^2 at q = nM + m.

    Accumulated one tap at a time, in tap order, so each entry is the same
    sum an MRC row would form over its window, with no (l_max+1, MN)
    temporary.
    """
    params = est.params
    acc = np.zeros(params.frame_len)
    for l, row in enumerate(est.gains):
        acc += np.abs(np.roll(row, -l)) ** 2
    return np.ascontiguousarray(acc.reshape(params.n_doppler, params.n_delay).T)


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
    freq_resp = np.fft.fft(per_block.mean(axis=2).T, n=m_count, axis=1)
    resp2 = np.abs(freq_resp) ** 2
    denom = resp2 + sigma_z2 / power
    floor = 1e-9 * np.mean(resp2, axis=1, keepdims=True)
    # in place: the whole frame's (N, M) spectra are alive at once
    eq = np.conj(freq_resp, out=freq_resp)
    eq *= np.fft.fft(blocks, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        eq /= denom
    eq[~(denom > floor)] = 0.0
    return np.fft.ifft(eq, axis=1).reshape(-1)


def init_estimates(
    seq: TimeSequence,
    est: EstimatedChannel,
    mode: str,
    sigma_z2: float = 0.0,
    power: float = 1.0,
    *,
    known_rows: np.ndarray | None = None,
    known_grid: np.ndarray | None = None,
) -> SymbolState:
    """Build the starting state: zero priors, or the frequency-domain
    single-tap MMSE initializer (both carry an initial error variance of P_t).

    The rows marked in known_rows (pilot and guard rows) are pinned to the
    unitary IDFT of their known_grid rows, frozen, and given variance 0. The
    residual is then computed once from the finished estimates, and every
    row starts dirty.
    """
    if mode not in ("zeros", "freq_mmse"):
        raise ValueError(f"unknown init mode {mode!r}")
    params = est.params
    m_count, n = params.n_delay, params.n_doppler
    if known_rows is not None:
        if np.shape(known_rows) != (m_count,):
            raise ValueError(
                f"known_rows has shape {np.shape(known_rows)}, not the delay axis's "
                f"({m_count},)"
            )
        if known_grid is None:
            raise ValueError("known_rows needs known_grid, the transmitted (M, N) grid")
    if known_grid is not None and np.shape(known_grid) != (m_count, n):
        raise ValueError(
            f"known_grid has shape {np.shape(known_grid)}, not the grid's {(m_count, n)}"
        )
    r = np.asarray(seq.samples, dtype=np.complex128)
    if mode == "zeros":
        shat = np.zeros_like(r)
    else:
        shat = _freq_mmse_equalize(r, est, sigma_z2, power)
    frozen = np.zeros(m_count, dtype=bool)
    row_var = np.full(m_count, power)
    if known_rows is not None:
        rows = np.flatnonzero(known_rows)
        known_time = np.fft.ifft(known_grid[rows, :], axis=1, norm="ortho")
        shat.reshape(n, m_count)[:, rows] = known_time.T
        frozen[rows] = True
        row_var[rows] = 0.0
    return SymbolState(
        r=r,
        est=est,
        shat=shat,
        resid=_residual_from_scratch(r, est, shat),
        row_var=row_var,
        frozen_rows=frozen,
        power=power,
        energy=_energy_table(est),
        dirty=np.ones(m_count, dtype=bool),
        decision=np.zeros((m_count, n), dtype=np.int64),
        equalized=np.full(params.frame_len, np.nan, dtype=np.complex128),
        normalizer=np.full(params.frame_len, np.nan),
    )


def _posterior_batch(values: np.ndarray, var: float, constellation: Constellation):
    """Gaussian-likelihood posterior means and variances over the alphabet, for
    a shared variance, and nearest_index(values) from the same distance table."""
    points = constellation.points
    d2 = np.abs(values[:, None] - points[None, :]) ** 2
    idx = d2.argmin(axis=1)
    if var < 1e-12:
        return points[idx].copy(), np.zeros(values.shape[0]), idx
    # the ufunc reductions are what .max, .sum and np.sum call, without
    # their Python-level dispatch
    logp = -d2 / var
    logp -= np.maximum.reduce(logp, axis=1, keepdims=True)
    p = np.exp(logp)
    p /= np.add.reduce(p, axis=1, keepdims=True)
    means = p @ points
    post_var = np.add.reduce(p * np.abs(points[None, :] - means[:, None]) ** 2, axis=1)
    return means, post_var, idx


def _unit_scale(n: int) -> np.float64:
    """1/sqrt(n), np.fft's norm="ortho" factor, computed as np.fft computes it."""
    return np.reciprocal(np.sqrt(n, dtype=np.float64))


def _combine_mrc(state, m, g, branches):
    """MRC outputs and energies of row m from its window's gains and branches."""
    energy = state.energy[m]
    # np.add.reduce is np.sum without its Python-level dispatch
    return np.add.reduce(np.conj(g) * branches, axis=0) / energy, energy


def _sq_norms(x):
    """Row sums of |x|^2 for a complex array whose rows are contiguous."""
    re_im = x.view(np.float64)
    return np.einsum("nj,nj->n", re_im, re_im)


class _LaneWindows:
    """The MMSE covariance windows of the N Doppler lanes, slid row by row.

    At delay row m, lane n holds the window R[q+a, q+b], a, b <= l_max, at
    q = nM + m, of the banded R = sigma_z2 I + G_hat diag(v) G_hat^H, where
    v gives every symbol its row's current variance. The window is the
    covariance the row's MMSE filter needs, except that the own symbol
    enters at row_var[m] rather than at full power.

    Sliding to the next row drops the window's first sample and appends the
    next one: its band column R[p-k, p], k <= l_max, is computed fresh by
    channel.band_columns with the current row_var. The windows are ring
    buffers: the sample at offset l of the current row sits in slot
    (phase + l) mod (l_max+1), so the appended sample takes the dropped one's
    slot and nothing else moves. Every quadratic form the filter needs is
    unchanged by that simultaneous permutation of rows, columns and vectors.
    When the slicer changes row_var[m], the symbol at q changes the window
    by the rank-1 term dv g g^H, g its spreading vector over q..q+l_max; no
    other window holds a sample it reaches. Past row M-1 the next row is
    row 0 of the next lane, so the lanes roll by one Doppler index.

    A sweep starts l_max+1 rows before m_0 and slides over frozen rows too,
    so every entry has been written with current variances (or patched
    since) by the time a row reads it.
    """

    def __init__(self, state: SymbolState, sigma_z2: float, m_0: int):
        est = state.est
        gains, lm = est.gains, est.l_max
        m_count, n = est.params.n_delay, est.params.n_doppler
        mn = est.params.frame_len
        size = lm + 1
        self.state = state
        self.sigma_z2 = sigma_z2
        self.size = size
        # each row's solve borders the windows with rows and columns for g
        # and the branches, so the windows live in the bordered buffer's
        # top-left corner and the factorization reads them in place
        self._bordered = np.zeros((n, size + 2, size + 2), dtype=np.complex128)
        self.window = self._bordered[:, :size, :size]
        # a patch's spreading vectors, zero-padded to the bordered size
        self._padded = np.zeros((n, size + 2), dtype=np.complex128)
        self._outer = np.empty_like(self._bordered)
        # rot[j, s] = (j + s) mod size: the slot of offset s at phase j, and,
        # at phase -j, the offset held in slot s
        rot = (np.arange(size)[:, None] + np.arange(size)) % size
        self._rot = rot
        # a column appended at phase j, in slot order: slot s holds offset
        # (s - j) mod size, which is entry k = l_max - offset of the column
        self._column_order = lm - rot[(-np.arange(size)) % size]
        # rows of the symbols p - t, t <= l_max, reaching row m's last sample p
        ahead = lm - np.arange(size)
        self._column_rows = (np.arange(m_count)[:, None] + ahead) % m_count
        # block[n, d, k] = gains[d, nM + m + l_max - k], the taps of row m's
        # appended column: a zero-copy view while no index wraps past MN
        isz = gains.itemsize
        self._blocks = np.ndarray(
            (m_count - lm, n, size, size),
            gains.dtype,
            buffer=gains,
            offset=lm * isz,
            strides=(isz, m_count * isz, mn * isz, -isz),
        )
        self._wrap_index = (
            np.arange(size)[:, None] * mn,  # tap d
            np.arange(n)[:, None, None] * m_count + ahead,  # sample, less m
        )
        self.phase = 0
        self.m = (m_0 - size) % m_count
        for _ in range(size):
            self._slide()

    def _slide(self):
        gains = self.state.est.gains
        m_count = self.state.row_var.shape[0]
        m = (self.m + 1) % m_count
        if m == 0:
            # lane n's next window is lane n+1's first
            self.window[...] = np.roll(self.window, 1, axis=0)
        if m < self._blocks.shape[0]:
            block = self._blocks[m]
        else:
            taps, samples = self._wrap_index
            block = np.take(gains, taps + (samples + m) % gains.shape[1])
        v = self.state.row_var[self._column_rows[m]]
        col = band_columns(block, v, self.sigma_z2)
        slot = self.phase  # the dropped sample's slot
        self.phase = (self.phase + 1) % self.size
        col = col[:, self._column_order[self.phase]]
        self.window[:, :, slot] = col
        self.window[:, slot, :] = np.conj(col)
        self.m = m

    def advance(self, m: int):
        """Slide the windows on to row m."""
        while self.m != m:
            self._slide()

    def filter(self, g, branches):
        """s_tilde and mu of every lane, with the own symbol at full power.

        With sigma_z2 > 0, one Cholesky factorization of the window R
        bordered by g^H and b^H (b the branches) and a corner tau I gives,
        in its last two rows, (L^-1 g)^H and (L^-1 b)^H. Those rows do not
        depend on tau; tau only has to keep the corner's pivots positive,
        which tau > (|g|^2 + |b|^2) / sigma_z2, the largest their Gram
        matrix can be, does in exact arithmetic. tau is twice that, plus 1,
        so that the factorization's rounding at high SNR cannot use it up.
        The own symbol's full power P then enters by Sherman-Morrison: with
        gx = g^H R^-1 g and c = P - row_var[m], s_tilde = g^H R^-1 b / gx
        and mu = gx / (1 + c gx).

        Without noise the window can be singular, and the filter is the
        pseudo-inverse one on the explicit covariance; so it is when the
        noise is too weak for the factorization to succeed.
        """
        size = self.size
        slots = self._rot[(-self.phase) % size]  # offset held in each slot
        gs = g[slots].T.copy()  # (N, size), slot order, C-contiguous
        bs = branches[slots].T.copy()
        v_own = self.state.row_var[self.m]
        c = self.state.power - v_own
        self._gs, self._v_own = gs, v_own
        if self.sigma_z2 > 0.0:
            bd = self._bordered
            bd[:, size, :size] = np.conj(gs)
            bd[:, :size, size] = gs
            bd[:, size + 1, :size] = np.conj(bs)
            bd[:, :size, size + 1] = bs
            tau = 2.0 * (_sq_norms(gs) + _sq_norms(bs)) / self.sigma_z2 + 1.0
            bd[:, size, size] = tau
            bd[:, size + 1, size + 1] = tau
            try:
                low = np.linalg.cholesky(bd)
            except np.linalg.LinAlgError:
                low = None
            if low is not None:
                u, w = low[:, size, :size], low[:, size + 1, :size]
                gx = _sq_norms(u)
                gb = np.einsum("nj,nj->n", u, np.conj(w))
                return gb / gx, gx / (1.0 + c * gx)
        cov = self.window + c * (gs[:, :, None] * np.conj(gs[:, None, :]))
        y = np.einsum("njk,nk->nj", np.linalg.pinv(cov, hermitian=True), gs)
        mu = np.einsum("nj,nj->n", np.conj(y), gs).real
        return np.einsum("nj,nj->n", np.conj(y), bs) / mu, mu

    def patch(self, var: float):
        """Set row_var[m] to var, carrying its change since filter() into the
        windows."""
        self.state.row_var[self.m] = var
        dv = var - self._v_own
        if dv != 0.0:
            gp = self._padded
            gp[:, : self.size] = self._gs
            # the outer product is zero on the border, so one add over the
            # whole contiguous bordered buffer patches the windows and adds
            # only zeros elsewhere: numpy takes several times longer to add
            # into the strided window view itself
            np.multiply((dv * gp)[:, :, None], np.conj(gp)[:, None, :], out=self._outer)
            np.add(self._bordered, self._outer, out=self._bordered)


def _combine_mmse(lanes, g, branches):
    """Normalized MMSE outputs, mu and post-MMSE variances of one row."""
    s_tilde, mu = lanes.filter(g, branches)
    post_var = lanes.state.power * (1.0 - mu) / mu
    return s_tilde, mu, np.maximum(post_var, 0.0)


def _slice(slicer, x, constellation, dither, post_var):
    """(feedback, decision, variance) of one row's DD outputs x: what the row
    cancels, the alphabet indices it is scored on, and the error variance an
    MMSE sweep declares for it. 'ml' feeds back its decisions with variance
    0 (hard cancellation); 'dither' decides Q(x + d) and feeds back Q(x + d)
    - d; 'posterior' feeds back the posterior means, decides Q(x) and
    declares the mean posterior variance."""
    points = constellation.points
    if slicer == "ml":
        decision = constellation.nearest_index(x)
        return points[decision], decision, 0.0
    if slicer == "dither":
        decision = constellation.nearest_index(x + dither)
        return points[decision] - dither, decision, 0.0
    n = x.shape[0]
    # np.mean's arithmetic: one add.reduce, one division
    means, pvars, decision = _posterior_batch(
        x, np.add.reduce(post_var) / n, constellation
    )
    return means, decision, np.add.reduce(pvars) / n


def run_iteration(
    state: SymbolState,
    combine: str,
    slicer: str,
    constellation: Constellation,
    sigma_z2: float,
    m_0: int = 0,
    dither: np.ndarray | None = None,
) -> None:
    """One full sweep over the delay rows under the cancellation schedule.

    combine: 'mrc' | 'mmse'
    slicer : 'ml' | 'dither' | 'posterior'

    (combine, slicer) must be a sweep some kind in DETECTORS runs; 'dither'
    needs the (M, N) dither grid of this sweep. Its outputs stay in the
    state. An ('mrc', 'ml') sweep skips the rows that are not dirty (see the
    module docstring); every other sweep processes all non-frozen rows and
    leaves every row dirty.

    The skip trusts state.dirty. init_estimates builds the whole starting
    state, pinned rows included, with every row dirty, and run_detector
    writes nothing between sweeps; a caller that writes state.shat or
    state.resid between sweeps must set state.dirty[:] = True, or an
    ('mrc', 'ml') sweep reuses stale rows.
    """
    if (combine, slicer) not in SWEEPS:
        raise ValueError(f"no detector runs the sweep ({combine!r}, {slicer!r})")
    if slicer == "dither" and dither is None:
        raise ValueError("dither slicing needs a dither grid")
    if combine == "mrc" and np.any(state.energy[~state.frozen_rows] == 0.0):
        raise ValueError("degenerate channel: all-zero spreading vector")
    est = state.est
    gains, lm = est.gains, est.l_max
    m_count, n = est.params.n_delay, est.params.n_doppler
    mn = est.params.frame_len
    skip_clean = (combine, slicer) == ("mrc", "ml")
    if not skip_clean:
        # covers the rows this sweep processes and every row they feed
        state.dirty[:] = True
    # delay rows within l_max of each row, cyclically: the variances an MMSE
    # row declares and the rows a changed row marks dirty
    around = (np.arange(m_count)[:, None] + np.arange(-lm, lm + 1)) % m_count
    # Row m's window is gains[l, nM+m+l] and resid[nM+m+l] for l <= l_max,
    # n < N. For the first M - l_max rows no index wraps past the frame end,
    # so row m's window is element m of these zero-copy strided stacks.
    n_inner = m_count - lm
    shape = (n_inner, lm + 1, n)
    isz = gains.itemsize  # gains and resid are both complex128
    gain_windows = np.ndarray(
        shape, gains.dtype, buffer=gains, strides=(isz, (mn + 1) * isz, m_count * isz)
    )
    resid_windows = np.ndarray(
        shape, gains.dtype, buffer=state.resid, strides=(isz, isz, m_count * isz)
    )
    taps = np.arange(lm + 1)[:, None]
    window_offsets = taps + np.arange(n) * m_count  # (l_max+1, N)
    spectrum = np.empty(n, dtype=np.complex128)
    new_time = np.empty(n, dtype=np.complex128)
    unit = _unit_scale(n)
    equalized_rows = state.equalized.reshape(n, m_count)
    normalizer_rows = state.normalizer.reshape(n, m_count)

    lanes = _LaneWindows(state, sigma_z2, m_0) if combine == "mmse" else None

    order = (m_0 + np.arange(m_count)) % m_count
    for m in order[~state.frozen_rows[order]].tolist():
        if skip_clean and not state.dirty[m]:
            continue
        if m < n_inner:
            gather = None
            g, e = gain_windows[m], resid_windows[m]
        else:
            # the last l_max rows wrap past the frame end: gather the window,
            # write it back after the feedback
            gather = (window_offsets + m) % mn
            g, e = gains[taps, gather], state.resid[gather]
        s = state.shat[m::m_count]
        branches = e + g * s

        if combine == "mrc":
            s_tilde, norm = _combine_mrc(state, m, g, branches)
            post_var = None
        else:
            lanes.advance(m)
            s_tilde, norm, post_var = _combine_mmse(lanes, g, branches)

        x_tilde = _pocketfft.fft(s_tilde, unit, out=spectrum)
        d = None if dither is None else dither[m]
        feedback_dd, decision, var = _slice(slicer, x_tilde, constellation, d, post_var)
        if lanes is not None:
            lanes.patch(var)

        # feed the new estimates back: off-support gains are exact zeros, so
        # patching the whole window leaves the samples no tap reaches as they were
        _pocketfft.ifft(feedback_dd, unit, out=new_time)
        delta = new_time - s
        s[...] = new_time
        patched = e - g * delta
        if gather is None:
            # assigned, not subtracted in place: numpy's in-place path on this
            # strided view costs about twice as much for the same arithmetic
            e[...] = patched
        else:
            state.resid[gather] = patched
        if skip_clean:
            state.dirty[m] = False
            if delta.any():
                # every row within l_max reads received samples this row patched
                state.dirty[around[m]] = True
        state.decision[m] = decision
        equalized_rows[:, m] = s_tilde
        normalizer_rows[:, m] = norm


def _bit_errors(constellation, decision, sent_idx, rows):
    xor = constellation.labels[decision[rows]] ^ constellation.labels[sent_idx[rows]]
    return int(np.bitwise_count(xor).sum())


def run_detector(
    seq: TimeSequence,
    est: EstimatedChannel,
    cfg: DetectorConfig,
    constellation: Constellation,
    rng: np.random.Generator | None = None,
    *,
    sent: DDGrid,
    sigma_z2: float = 0.0,
    known_rows: np.ndarray | None = None,
    observe=None,
) -> DetectionResult:
    """Detect one frame: run the detector's iteration plan, one run_iteration
    sweep per iteration, up to an exact fixed point.

    After a sweep that left state.shat, state.row_var and state.resid
    bitwise unchanged, when every remaining sweep of the plan is the same
    (combine, slicer) pair and its slicer is not 'dither', no later sweep
    can change any output (see the module docstring): the sweeping stops,
    and each remaining iteration is scored on the unchanged state.

    sent, the transmitted grid, is what the frame is scored against: the
    result carries the bit errors of every iteration on the rows not marked
    in known_rows. Those rows (pilot and guard rows) are pinned to sent's
    rows and excluded from estimation. observe, when given, is called as
    observe(i, state) with the starting state (i = 0) and after each
    iteration i = 1..n_ite, those after the stop included; it must not write
    to the state.
    """
    params = est.params
    grid_shape = (params.n_delay, params.n_doppler)
    if seq.params.frame_len != params.frame_len:
        raise ValueError("sequence and channel estimate sizes differ")
    if cfg.m_0 >= params.n_delay:
        raise ValueError("m_0 outside the delay axis")
    if sent.entries.shape != grid_shape:
        raise ValueError(
            f"sent has shape {sent.entries.shape}, not the grid's {grid_shape}"
        )
    plan = cfg.plan()
    dithered = any(slicer == "dither" for _, slicer in plan)
    if dithered and rng is None:
        raise ValueError(f"{cfg.kind} requires an rng for the dither stream")
    if dithered and not hasattr(rng.bit_generator, "advance"):
        name = type(rng.bit_generator).__name__
        raise ValueError(f"{cfg.kind} needs a bit generator with advance, not {name}")
    # before the frame's state exists, so the slicing temporaries add no peak
    sent_idx = constellation.nearest_index(sent.entries)

    state = init_estimates(
        seq,
        est,
        cfg.initializer,
        sigma_z2,
        constellation.power,
        known_rows=known_rows,
        known_grid=sent.entries,
    )
    frozen = state.frozen_rows

    dither = None
    if dithered:
        # the imaginary parts: the stream after all n_ite grids' real parts
        delta = cfg.resolved_delta(constellation)
        imag_rng = np.random.Generator(copy.deepcopy(rng.bit_generator))
        imag_rng.bit_generator.advance(cfg.n_ite * params.frame_len)
        dither = np.empty(grid_shape, dtype=np.complex128)

    if observe is not None:
        observe(0, state)
    bits = []
    # sweeps write these in place; the snapshot holds the state a sweep
    # starts from, taken only where the exit may follow it
    watched = (state.shat, state.row_var, state.resid)
    snapshot = [np.empty_like(x) for x in watched]
    fixed = False
    for i, (combine, slicer) in enumerate(plan):
        if not fixed:
            rest = plan[i + 1 :]
            repeated = rest == [plan[i]] * len(rest)
            may_stop = bool(rest) and slicer != "dither" and repeated
            if may_stop:
                for buf, x in zip(snapshot, watched):
                    np.copyto(buf, x)
            if dither is not None:
                dither.real = rng.uniform(-delta, delta, grid_shape)
                dither.imag = imag_rng.uniform(-delta, delta, grid_shape)
            run_iteration(
                state,
                combine,
                slicer,
                constellation,
                sigma_z2,
                m_0=cfg.m_0,
                dither=dither,
            )
            # compared as raw bits: by value, -0.0 would equal 0.0
            fixed = may_stop and all(
                np.array_equal(buf.view(np.uint64), x.view(np.uint64))
                for buf, x in zip(snapshot, watched)
            )
        bits.append(_bit_errors(constellation, state.decision, sent_idx, ~frozen))
        if observe is not None:
            observe(i + 1, state)

    index_grid = state.decision.copy()
    index_grid[frozen] = sent_idx[frozen]
    return DetectionResult(index_grid=index_grid, bit_error_trace=np.array(bits))

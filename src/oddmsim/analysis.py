"""Closed-form post-equalization SINR, empirical SINR extraction, and
state-evolution BER prediction.

All SINR expressions are conditional on one channel realization and are
evaluated for every symbol index q at once. The MRC form (which also covers
hard-cancellation MMSE from the second iteration onward) averages over symbol
errors of known variance and over the dense Gaussian channel-estimation
error; with both symbol-error variances at zero it is the ideal-cancellation
upper bound shared by all detectors. The soft-cancellation form holds only
under perfect channel knowledge. With one error variance v on every
interferer, its SINR at symbol q is P g_q^H (sigma_z2 I + v W_q)^{-1} g_q,
W_q being the Gram matrix of q's interferer columns. Every W_q is a
principal window of the frame's unit-variance banded covariance G G^H, less
g_q g_q^H; soft_spectrum fills that band per chunk of symbols by lag sums
over the support taps and tridiagonalizes every window once per channel by
Lanczos from g_q, after which each v costs one continued fraction per
symbol, exact as a Gauss quadrature; the soft state evolution evaluates only
this table. sinr_soft_profile, which the SINR sweep uses for its split
current/previous variances, takes the same W_q and g_q from the same lag
sums, solves one filter per symbol against sigma_z2 I + v W_q + P g_q g_q^H,
and splits the filter's gains on the interferers by their offset. The
detectors' soft MMSE rows form the same filter from sliding covariance
windows. The dithered-MRC bound needs no evaluator of its own: it is the MRC
form with the dither (variance delta_d^2/3 per axis) as the only symbol
error.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import DiscreteChannel
from .modem import Constellation

__all__ = [
    "ErrorState",
    "EvolutionTrace",
    "ChannelMoments",
    "channel_moments",
    "SoftSpectrum",
    "soft_spectrum",
    "sinr_mrc_profile",
    "sinr_soft_profile",
    "ser_union_bound",
    "state_evolution",
    "decompose_equalized",
    "sinr_from_powers",
]

SINR_CAP_DB = 300.0
_CHUNK = 256  # symbols per batched solve or Lanczos run; keeps its temporaries small
_EVOLUTION_STEPS = 20  # state_evolution's fixed horizon


@dataclass(frozen=True)
class ErrorState:
    """Variance inputs to the SINR formulas.

    sigma_e2_cur / sigma_e2_prev: symbol-error variances of the estimates fed
    back in the current and previous iteration. sigma_dg2 is the per-sample
    time-domain channel-error variance.
    """

    sigma_e2_cur: float
    sigma_e2_prev: float
    sigma_dg2: float = 0.0
    power: float = 1.0
    sigma_z2: float = 0.0

    def __post_init__(self):
        for name in ("sigma_e2_cur", "sigma_e2_prev", "sigma_dg2", "sigma_z2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if max(self.sigma_e2_cur, self.sigma_e2_prev) > self.power * (1 + 1e-9):
            raise ValueError("symbol-error variance cannot exceed the symbol power")


@dataclass
class EvolutionTrace:
    """Per-iteration state-evolution quantities (fixed 20-step horizon)."""

    sinr_mean: np.ndarray
    ser: np.ndarray
    mse: np.ndarray
    ber: np.ndarray


@dataclass
class ChannelMoments:
    """Per-symbol structural sums of one realization's spreading vectors.

    With g_q the own spreading vector and g_{q,dl} the offset-dl truncated
    spreading vector (true channel), the fields hold, for every q:

    energy        = ||g_q||^2
    cross_neg/pos = sum over dl<0 / dl>0 of |g_q^H g_{q,dl}|^2
    branch_neg/pos= sum over dl<0 / dl>0 of ||g_{q,dl}||^2
    mask_neg/pos  = sum over dl<0 / dl>0 of sum_l |g_q[l]|^2 [l-dl in 0..l_max]
    """

    l_max: int
    energy: np.ndarray
    cross_neg: np.ndarray
    cross_pos: np.ndarray
    branch_neg: np.ndarray
    branch_pos: np.ndarray
    mask_neg: np.ndarray
    mask_pos: np.ndarray

    @property
    def pair_count_one_side(self) -> int:
        """sum over dl>0 of #{l: l-dl in [0, l_max]} (same for dl<0)."""
        return self.l_max * (self.l_max + 1) // 2


def channel_moments(ch: DiscreteChannel) -> ChannelMoments:
    """Precompute the per-q sums the closed-form SINR expressions consume.

    g_q[l] = g[l, (q+l) mod MN]: each product is formed on rows of the channel's
    gain table and then rolled by -l, so no rolled copy of the table is held.
    """
    table = ch.gain_table()
    mn = ch.params.frame_len
    lm = ch.l_max
    abs_own2 = np.empty(table.shape)
    for l in range(lm + 1):
        abs_own2[l] = np.abs(np.roll(table[l], -l)) ** 2
    energy = abs_own2.sum(axis=0)

    # tap rows off the support are exact zeros, so the terms they would add
    # are exact zeros too: skipping them leaves every sum bit for bit as it was
    support = set(ch.support)
    cross = {s: np.zeros(mn) for s in (-1, 1)}
    branch = {s: np.zeros(mn) for s in (-1, 1)}
    for dl in range(-lm, lm + 1):
        if dl == 0:
            continue
        side = 1 if dl > 0 else -1
        c_acc = np.zeros(mn, dtype=np.complex128)
        for l in range(max(0, dl), min(lm, lm + dl) + 1):
            if l - dl not in support:
                continue
            # g_q[l]^* g_{q,dl}[l] and |g_{q,dl}[l]|^2 over q
            c_acc += np.roll(np.conj(table[l]) * table[l - dl], -l)
            branch[side] += np.roll(np.abs(table[l - dl]) ** 2, -l)
        cross[side] += np.abs(c_acc) ** 2
    # tap l is paired with the l_max - l offsets dl < 0 and the l offsets dl > 0
    taps = np.arange(lm + 1)
    return ChannelMoments(
        l_max=lm,
        energy=energy,
        cross_neg=cross[-1],
        cross_pos=cross[1],
        branch_neg=branch[-1],
        branch_pos=branch[1],
        mask_neg=(lm - taps) @ abs_own2,
        mask_pos=taps @ abs_own2,
    )


@dataclass(frozen=True)
class SoftSpectrum:
    """Per-symbol Lanczos tridiagonals of the unit-variance interferer Grams.

    With G'_q the sub-channel of symbol q without its own column and g_q the
    own spreading vector, W_q = G'_q G'_q^H. Lanczos from g_q / ||g_q|| turns
    W_q into the tridiagonal Jacobi matrix T_q with diagonal alpha_q and
    squared off-diagonal beta2_q, and g_q^H f(W_q) g_q = ||g_q||^2 e_1^T
    f(T_q) e_1 exactly (Gauss quadrature with as many nodes as W_q has
    rows). The fields hold, for every q:

    alpha  = the diagonal of T_q, alpha[j, q], shape (l_max+1, MN)
    beta2  = the squared off-diagonal of T_q, beta2[j, q], shape (l_max, MN)
    energy = ||g_q||^2, shape (MN,)

    Symbols run along the last axis, so each step of the continued fraction
    reads contiguous rows.
    """

    alpha: np.ndarray
    beta2: np.ndarray
    energy: np.ndarray

    def sinr(self, off_var: float, sigma_z2: float, power: float = 1.0) -> np.ndarray:
        """Soft-cancellation SINR for every q with off_var on every interferer.

        The unbiased MMSE SINR P g_q^H (sigma_z2 I + off_var W_q)^{-1} g_q,
        as the continued fraction P ||g_q||^2 / t_0 with t_n = sigma_z2 +
        v alpha_n and t_j = sigma_z2 + v alpha_j - v^2 beta2_j / t_{j+1}.
        The t_j are the bottom-up pivots of the positive definite tridiagonal
        sigma_z2 I + v T_q, so none is below sigma_z2, which must be positive.
        """
        v = off_var
        t = sigma_z2 + v * self.alpha[-1]
        for j in range(self.beta2.shape[0] - 1, -1, -1):
            t = sigma_z2 + v * self.alpha[j] - v * v * self.beta2[j] / t
        return power * self.energy / t


def soft_spectrum(ch: DiscreteChannel) -> SoftSpectrum:
    """Tridiagonalize every symbol's interferer Gram matrix once per channel.

    With uniform interferer variance the soft SINR depends on the variance
    only through SoftSpectrum.sinr, so a state evolution reuses one table
    across its iterations. Each chunk of _CHUNK symbols takes its Grams from
    _interferer_grams, then runs l_max+1 batched Lanczos steps from the
    normalized own vector. Every new vector is orthogonalized against all
    earlier ones in one classical Gram-Schmidt pass, not through the
    three-term recurrence alone, whose loss of orthogonality moved
    paper-scale SINRs by up to 8e-10 relative. A breakdown (beta = 0, as
    when W_q g_q = 0) leaves the next vector zero, so every later alpha and
    beta is zero and the decoupled block they form adds nothing to the
    quadrature.
    """
    table = ch.gain_table()
    lm = ch.l_max
    n = lm + 1
    mn = ch.params.frame_len
    alpha = np.empty((n, mn))
    beta2 = np.empty((lm, mn))
    energy = np.empty(mn)
    for start in range(0, mn, _CHUNK):
        stop = min(start + _CHUNK, mn)
        gram, g_own = _interferer_grams(table, ch.support, start, stop)
        basis = np.zeros((stop - start, n, n), dtype=np.complex128)  # q_j = basis[:, j]
        e = np.vecdot(g_own, g_own).real
        energy[start:stop] = e
        np.multiply(g_own, _inverse_norm(e)[:, None], out=basis[:, 0])
        for j in range(n):
            kept = basis[:, : j + 1]
            w = np.matmul(gram, basis[:, j, :, None])
            # q_k^H w for k <= j, conjugating w rather than a strided basis slice
            coef = np.conj(np.matmul(kept, np.conj(w)))
            alpha[j, start:stop] = coef[:, j, 0].real
            if j == lm:
                break
            w -= np.matmul(kept.transpose(0, 2, 1), coef)
            b2 = np.vecdot(w[:, :, 0], w[:, :, 0]).real
            beta2[j, start:stop] = b2
            np.multiply(w[:, :, 0], _inverse_norm(b2)[:, None], out=basis[:, j + 1])
    return SoftSpectrum(alpha=alpha, beta2=beta2, energy=energy)


def _interferer_grams(table: np.ndarray, support, start: int, stop: int):
    """Unit-variance interferer Grams W_q and own vectors g_q for q = start..stop-1.

    soft_spectrum tridiagonalizes these W_q, and sinr_soft_profile solves its
    filters against them; neither builds a sub-channel stack.

    Every W_q is the window R[q..q+l_max, q..q+l_max] of the banded
    covariance R = G G^H of the whole frame at unit symbol variance, less
    the own term g_q g_q^H. A band entry is a lag sum over the support taps,

        R[t, t+dl] = sum_d g[d, t] conj(g[d+dl, t+dl])   (dl >= 0),

    and R[t, t-dl] = conj(R[t-dl, t]). Tap rows off the support are exact
    zeros, so skipping them drops only exact-zero terms. The band is filled
    for the chunk's samples start .. stop+l_max-1 (mod MN), the windows are
    a strided view of it, and g_q g_q^H is formed in a contiguous buffer and
    subtracted from them in place. Returns gram, C-contiguous of shape
    (stop-start, l_max+1, l_max+1), and g_own[i, l] = g[l, (q_i+l) mod MN].
    """
    lm, mn = table.shape[0] - 1, table.shape[1]
    count = stop - start
    width = 2 * lm + 1
    rows = count + lm
    # cols[:, k] holds the gains at sample start + k
    cols = np.take(table, np.arange(start, stop + 2 * lm) % mn, axis=1)
    conj_cols = np.conj(cols)
    # band[k, l_max+dl] = R[start+k, start+k+dl]
    band = np.zeros((rows, width), dtype=np.complex128)
    for i, d in enumerate(support):
        for e in support[i:]:
            band[:, lm + e - d] += cols[d, :rows] * conj_cols[e, e - d : e - d + rows]
    # row k < dl's entry at -dl lies before the chunk; no window reads it
    for dl in range(1, lm + 1):
        band[dl:, lm - dl] = np.conj(band[: rows - dl, lm + dl])
    # win[i, a, b] = band[i+a, l_max+b-a] = R[q_i+a, q_i+b]
    isz = band.itemsize
    win = np.ndarray(
        (count, lm + 1, lm + 1),
        band.dtype,
        buffer=band,
        offset=lm * isz,
        strides=(width * isz, (width - 1) * isz, isz),
    )
    # g_own[i, l] = cols[l, i+l]
    g_own = np.ndarray(
        (count, lm + 1),
        cols.dtype,
        buffer=cols,
        strides=(isz, (cols.shape[1] + 1) * isz),
    ).copy()
    gram = np.empty((count, lm + 1, lm + 1), dtype=np.complex128)
    np.multiply(g_own[:, :, None], np.conj(g_own)[:, None, :], out=gram)
    np.subtract(win, gram, out=gram)
    return gram, g_own


def _inverse_norm(norm2: np.ndarray) -> np.ndarray:
    """1 / sqrt(norm2), and 0 where norm2 is 0 (a breakdown)."""
    inv = np.zeros_like(norm2)
    np.divide(1.0, np.sqrt(norm2), out=inv, where=norm2 > 0)
    return inv


def sinr_mrc_profile(mom: ChannelMoments, errs: ErrorState) -> np.ndarray:
    """Linear post-equalization SINR of MRC for every symbol index q, from
    the channel's channel_moments mom.

    Also the SINR of hard-cancellation MMSE from the second iteration onward
    (the two outputs differ only by a positive scale). With both symbol-error
    variances at zero it is the ideal-cancellation upper bound shared by MRC
    and both MMSE variants.
    """
    lm = mom.l_max
    lm1 = lm + 1
    quart = lm * lm + 3 * lm + 2  # (l_max+1)(l_max+2)
    pt, dg2, z2 = errs.power, errs.sigma_dg2, errs.sigma_z2
    se_c, se_p = errs.sigma_e2_cur, errs.sigma_e2_prev
    a = mom.energy

    signal = pt * (a**2 + 2 * lm1 * dg2 * a + 2 * dg2 * a + quart * dg2**2)

    npairs = mom.pair_count_one_side
    t1 = (
        se_c * mom.cross_neg
        + se_p * mom.cross_pos
        + dg2 * (se_c * mom.mask_neg + se_p * mom.mask_pos)
        + pt * dg2 * (mom.mask_neg + mom.mask_pos)
        + z2 * a
    )
    t2 = (
        lm1 * dg2 * z2
        + dg2 * (se_c * mom.branch_neg + se_p * mom.branch_pos)
        + dg2**2 * npairs * (se_c + se_p)
        + pt * dg2**2 * 2 * npairs
    ) * np.ones_like(a)
    t3 = pt * dg2 * a
    t4 = pt * quart * dg2**2 * np.ones_like(a)
    # noiseless with no symbol error, the denominator is 0: inf is the limit
    with np.errstate(divide="ignore"):
        return signal / (t1 + t2 + t3 + t4)


def sinr_soft_profile(ch: DiscreteChannel, errs: ErrorState) -> np.ndarray:
    """Linear soft-cancellation SINR for every q with uniform-variance filters.

    Each filter is the MMSE filter with errs.sigma_e2_prev on every
    interferer column and the full symbol power on the own column, the
    mean-field filter of the state evolution. The residual counts
    sigma_e2_cur on the interferers already re-estimated in this sweep and
    sigma_e2_prev on the rest; this split is what the SINR sweep needs and
    what soft_spectrum cannot express. With all three variances equal,
    soft_spectrum(ch).sinr gives the same values without a solve per symbol.
    Valid only under perfect channel knowledge and with noise: a nonzero
    sigma_dg2 or a zero sigma_z2 is rejected before anything is built.

    Each chunk of _CHUNK symbols takes W_q and g_q from _interferer_grams and
    solves (sigma_e2_prev W_q + P g_q g_q^H + sigma_z2 I) y = g_q, the filter
    being w = conj(y). The symbol at offset j reaches window row a through
    tap d = a - j, so the filter's gain on it is the sum of w[j+d] g[d, q+j+d]
    over the support taps d with 0 <= j+d <= l_max. Offsets j < 0 are the
    interferers already re-estimated, j > 0 the rest, and j = 0 is the own
    symbol. No sub-channel stack is built.
    """
    if errs.sigma_dg2 != 0.0:
        raise ValueError("soft-cancellation SINR is only defined for exact CSI")
    if not errs.sigma_z2 > 0.0:
        raise ValueError(
            f"soft-cancellation SINR requires sigma_z2 > 0, got {errs.sigma_z2!r}"
        )
    table = ch.gain_table()
    lm = ch.l_max
    mn = ch.params.frame_len
    diag = np.arange(lm + 1)
    out = np.empty(mn)
    for start in range(0, mn, _CHUNK):
        stop = min(start + _CHUNK, mn)
        gram, g_own = _interferer_grams(table, ch.support, start, stop)
        cov = errs.sigma_e2_prev * gram
        cov += errs.power * g_own[:, :, None] * np.conj(g_own)[:, None, :]
        cov[:, diag, diag] += errs.sigma_z2
        w = np.conj(np.linalg.solve(cov, g_own[:, :, None])[:, :, 0])
        # proj[i, l_max+j] is the filter's gain on offset j; hank[d, i, a] =
        # g[d, q_i+a], and window row a reaches offset a - d through tap d
        cols = np.take(table, np.arange(start, stop + lm) % mn, axis=1)
        hank = np.lib.stride_tricks.sliding_window_view(cols, lm + 1, axis=1)
        proj = np.zeros((stop - start, 2 * lm + 1), dtype=np.complex128)
        for d in ch.support:
            proj[:, lm - d : 2 * lm + 1 - d] += w * hank[d]
        proj2 = np.abs(proj) ** 2
        signal = errs.power * proj2[:, lm]
        ripn = (
            errs.sigma_z2 * np.einsum("nj,nj->n", w, np.conj(w)).real
            + errs.sigma_e2_cur * proj2[:, :lm].sum(axis=1)
            + errs.sigma_e2_prev * proj2[:, lm + 1 :].sum(axis=1)
        )
        out[start:stop] = signal / ripn
    return out


def ser_union_bound(sinr_mean: float, constellation: Constellation) -> float:
    """Union-bound symbol error rate at the given mean SINR, clipped to [0, 1]."""
    if sinr_mean < 0:
        raise ValueError("SINR must be non-negative")
    a = constellation.order
    arg = np.sqrt(sinr_mean * constellation.d_min**2 / (2.0 * constellation.power))
    q_val = 0.5 * math.erfc(arg / np.sqrt(2.0))
    return float(min((a - 1) * q_val, 1.0))


def state_evolution(
    ch: DiscreteChannel,
    sigma_dg2: float,
    constellation: Constellation,
    kind: str,
    sigma_z2: float,
) -> EvolutionTrace:
    """Fixed-point recursion variance -> SINR -> SER -> variance.

    kind 'mrc_hard' uses the MRC closed form (valid for MRC and for
    hard-cancellation MMSE); kind 'soft' evaluates the uniform-variance soft
    filters from one soft_spectrum table and requires sigma_dg2 = 0 and
    sigma_z2 > 0. Both error-variance slots are fed the previous iteration's
    mean-square error.
    """
    if kind not in ("mrc_hard", "soft"):
        raise ValueError(f"unknown state-evolution kind {kind!r}")
    if kind == "soft" and sigma_dg2 != 0.0:
        raise ValueError("soft-cancellation evolution requires exact CSI")
    if kind == "soft" and not sigma_z2 > 0.0:
        raise ValueError(
            f"soft-cancellation evolution requires sigma_z2 > 0, got {sigma_z2!r}"
        )
    power = constellation.power
    if kind == "mrc_hard":
        mom = channel_moments(ch)
    else:
        spectrum = soft_spectrum(ch)
    var = power
    sinr_means, sers, mses, bers = [], [], [], []
    bits = constellation.bits_per_symbol
    for _ in range(_EVOLUTION_STEPS):
        if kind == "mrc_hard":
            errs = ErrorState(var, var, sigma_dg2, power, sigma_z2)
            profile = sinr_mrc_profile(mom, errs)
        else:
            profile = spectrum.sinr(var, sigma_z2, power)
        sinr_mean = float(np.mean(profile))
        ser = ser_union_bound(sinr_mean, constellation)
        mse = min(constellation.d_min**2 * ser, power)
        ber = ser / bits
        sinr_means.append(sinr_mean)
        sers.append(ser)
        mses.append(mse)
        bers.append(ber)
        var = mse
    return EvolutionTrace(
        sinr_mean=np.asarray(sinr_means),
        ser=np.asarray(sers),
        mse=np.asarray(mses),
        ber=np.asarray(bers),
    )


def decompose_equalized(
    equalized: np.ndarray, normalizer: np.ndarray, truth: np.ndarray
):
    """Split equalized outputs into signal and RIPN components.

    The engine's normalized output is s_tilde = (psi + eta) / v with
    psi = v * s; hence psi = normalizer * truth and
    eta = normalizer * (equalized - truth).
    """
    psi = normalizer * truth
    eta = normalizer * equalized - psi
    return psi, eta


def sinr_from_powers(sig: np.ndarray, rip: np.ndarray, n_obs: int) -> float:
    """Empirical mean SINR from per-symbol signal and RIPN powers.

    sig and rip hold each symbol's signal and residual-interference-plus-noise
    power, summed (or averaged, alike) over n_obs observations; they are
    ratioed per symbol, then averaged over symbols. The reciprocal of an
    n-sample mean of Gaussian powers is biased by n/(n-1), so the ratio
    carries the matching (n-1)/n correction. A zero RIPN power, or a ratio
    above the cap, is reported as the SINR_CAP_DB cap.
    """
    correction = (n_obs - 1) / n_obs if n_obs >= 2 else 1.0
    cap = 10.0 ** (SINR_CAP_DB / 10.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(rip > 0, correction * sig / np.maximum(rip, 1e-300), cap)
    return float(np.mean(np.minimum(ratio, cap)))

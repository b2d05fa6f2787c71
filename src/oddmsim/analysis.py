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
W_q being the Gram matrix of q's interferer columns. soft_spectrum
tridiagonalizes every W_q once per channel by Lanczos from g_q
(channel.stack_covariance over channel.spreading_stack), after which each v
costs one continued fraction per symbol, exact as a Gauss quadrature; the
soft state evolution evaluates only this table. sinr_soft_profile, which the
SINR sweep uses for its split current/previous variances, solves each filter
against the same stack_covariance build; the detectors' soft MMSE rows form
the same filter from sliding covariance windows. The dithered-MRC bound needs
no evaluator of its own: it is the MRC form with the dither (variance
delta_d^2/3 per axis) as the only symbol error.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import DiscreteChannel, spreading_stack, stack_covariance
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


def _own_vectors(table: np.ndarray) -> np.ndarray:
    """own[l, q] = g[l, (q+l) mod MN] for l = 0..l_max."""
    lm1 = table.shape[0]
    own = np.empty_like(table)
    for l in range(lm1):
        own[l] = np.roll(table[l], -l)
    return own


def channel_moments(ch: DiscreteChannel) -> ChannelMoments:
    """Precompute the per-q sums the closed-form SINR expressions consume."""
    table = ch.gain_table()
    mn = ch.params.frame_len
    lm = ch.l_max
    own = _own_vectors(table)
    abs_own2 = np.abs(own) ** 2
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
            vec = np.roll(table[l - dl], -l)  # g_{q,dl}[l] over q
            c_acc += np.conj(own[l]) * vec
            branch[side] += np.abs(vec) ** 2
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
    rows). The fields hold, for every q (rows):

    alpha  = the diagonal of T_q, shape (MN, l_max+1)
    beta2  = the squared off-diagonal of T_q, shape (MN, l_max)
    energy = ||g_q||^2
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
        t = sigma_z2 + v * self.alpha[:, -1]
        for j in range(self.beta2.shape[1] - 1, -1, -1):
            t = sigma_z2 + v * self.alpha[:, j] - v * v * self.beta2[:, j] / t
        return power * self.energy / t


def soft_spectrum(ch: DiscreteChannel) -> SoftSpectrum:
    """Tridiagonalize every symbol's interferer Gram matrix once per channel.

    With uniform interferer variance the soft SINR depends on the variance
    only through SoftSpectrum.sinr, so a state evolution reuses one table
    across its iterations. Each chunk runs l_max+1 batched Lanczos steps
    from the normalized own vector. Every new vector is orthogonalized
    against all earlier ones in one classical Gram-Schmidt pass, not through
    the three-term recurrence alone, whose loss of orthogonality moved
    paper-scale SINRs by up to 8e-10 relative. A breakdown (beta = 0, as
    when W_q g_q = 0) leaves the next vector zero, so every later alpha and
    beta is zero and the decoupled block they form adds nothing to the
    quadrature.
    """
    table = ch.gain_table()
    lm = ch.l_max
    n = lm + 1
    mn = ch.params.frame_len
    v = np.ones(2 * lm + 1)
    v[lm] = 0.0
    alpha = np.empty((mn, n))
    beta2 = np.empty((mn, lm))
    energy = np.empty(mn)
    for start in range(0, mn, _CHUNK):
        stop = min(start + _CHUNK, mn)
        stack = spreading_stack(table, np.arange(start, stop))
        # a copy, not a view, so the stack is freed before the recurrence
        g_own = stack[:, :, lm].copy()
        gram = stack_covariance(stack, v, 0.0)
        del stack
        basis = np.zeros((stop - start, n, n), dtype=np.complex128)  # q_j = basis[:, j]
        e = np.vecdot(g_own, g_own).real
        energy[start:stop] = e
        np.multiply(g_own, _inverse_norm(e)[:, None], out=basis[:, 0])
        for j in range(n):
            kept = basis[:, : j + 1]
            w = np.matmul(gram, basis[:, j, :, None])
            # q_k^H w for k <= j, conjugating w rather than a strided basis slice
            coef = np.conj(np.matmul(kept, np.conj(w)))
            alpha[start:stop, j] = coef[:, j, 0].real
            if j == lm:
                break
            w -= np.matmul(kept.transpose(0, 2, 1), coef)
            b2 = np.vecdot(w[:, :, 0], w[:, :, 0]).real
            beta2[start:stop, j] = b2
            np.multiply(w[:, :, 0], _inverse_norm(b2)[:, None], out=basis[:, j + 1])
    return SoftSpectrum(alpha=alpha, beta2=beta2, energy=energy)


def _inverse_norm(norm2: np.ndarray) -> np.ndarray:
    """1 / sqrt(norm2), and 0 where norm2 is 0 (a breakdown)."""
    inv = np.zeros_like(norm2)
    np.divide(1.0, np.sqrt(norm2), out=inv, where=norm2 > 0)
    return inv


def sinr_mrc_profile(
    ch: DiscreteChannel, errs: ErrorState, mom: ChannelMoments | None = None
) -> np.ndarray:
    """Linear post-equalization SINR of MRC for every symbol index q.

    Also the SINR of hard-cancellation MMSE from the second iteration onward
    (the two outputs differ only by a positive scale). With both symbol-error
    variances at zero it is the ideal-cancellation upper bound shared by MRC
    and both MMSE variants. mom, when given, must be channel_moments(ch).
    """
    if mom is None:
        mom = channel_moments(ch)
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
    sigma_dg2 or a zero sigma_z2 is rejected.
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
    v = np.full(2 * lm + 1, errs.sigma_e2_prev)
    v[lm] = errs.power
    out = np.empty(mn)
    for start in range(0, mn, _CHUNK):
        sel = np.arange(start, min(start + _CHUNK, mn))
        stack = spreading_stack(table, sel)
        cov = stack_covariance(stack, v, errs.sigma_z2)
        w = np.conj(np.linalg.solve(cov, stack[:, :, lm, None])[:, :, 0])
        proj2 = np.abs(np.matmul(w[:, None, :], stack)[:, 0, :]) ** 2
        signal = errs.power * proj2[:, lm]
        ripn = (
            errs.sigma_z2 * np.einsum("nj,nj->n", w, np.conj(w)).real
            + errs.sigma_e2_cur * proj2[:, :lm].sum(axis=1)
            + errs.sigma_e2_prev * proj2[:, lm + 1 :].sum(axis=1)
        )
        out[sel] = signal / ripn
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
            profile = sinr_mrc_profile(ch, errs, mom)
        else:
            profile = spectrum.sinr(var, sigma_z2, power)
        with np.errstate(divide="ignore"):
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

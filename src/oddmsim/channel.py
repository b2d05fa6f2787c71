"""Discrete doubly-selective channel: sampling, tap gains, and the sub-channel
stack.

A channel realization is a set of on-grid paths (delay index, Doppler index,
complex gain). Its l_max is the frame's ModemParams.max_delay, the one delay
spread that also sizes the frame's cyclic extension and the pilot's guard
band; a path delay past it is rejected. The receive path applies the channel
sample by sample; the dense channel matrix and the delay-Doppler-domain
reference output it is checked against are test oracles in tests/oracles.py.
The sub-channel around one symbol comes in a batched form (spreading_stack,
with its covariance stack_covariance) that the analysis solves its
split-variance soft filters against and the detector and analysis tests
check against; its per-symbol form is tests/oracles.subchannel. The
analysis's soft spectrum builds its unit-variance Grams from lag sums over
the support taps instead, and the detectors' MMSE rows slide windows of the
banded covariance, appending one column from band_columns per row.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .modem import ModemParams, TimeSequence

__all__ = [
    "DDPath",
    "ChannelProfile",
    "DiscreteChannel",
    "eva_profile",
    "sample_channel",
    "apply_channel",
    "spreading_stack",
    "stack_covariance",
    "band_columns",
]

# 3GPP Extended Vehicular A power delay profile
EVA_DELAYS_NS = (0.0, 30.0, 150.0, 310.0, 370.0, 710.0, 1090.0, 1730.0, 2510.0)
EVA_POWERS_DB = (0.0, -1.5, -1.4, -3.6, -0.6, -9.1, -7.0, -12.0, -16.9)

# seconds per delay tap: the paper's resolution T/512 at T = 66.67 us, on
# which every configuration places the EVA taps, whatever n_delay is
_DELAY_RES = 66.67e-6 / 512


@dataclass(frozen=True)
class DDPath:
    """One resolvable path with integer delay/Doppler taps and a complex gain."""

    delay: int
    doppler: int
    gain: complex


@dataclass(frozen=True)
class ChannelProfile:
    """Average power per integer delay tap, plus the Doppler spread.

    Powers are linear and normalized to unit sum; duplicate delay entries are
    allowed and kept as separate paths.
    """

    delays: tuple
    powers: tuple
    k_max: int

    def __post_init__(self):
        if len(self.delays) == 0:
            raise ValueError("channel profile must contain at least one tap")
        if len(self.delays) != len(self.powers):
            raise ValueError("delay and power lists must have equal length")
        if any(p <= 0 for p in self.powers):
            raise ValueError("tap powers must be positive")
        if self.k_max < 0:
            raise ValueError("k_max must be non-negative")
        total = float(sum(self.powers))
        object.__setattr__(self, "powers", tuple(p / total for p in self.powers))
        object.__setattr__(self, "delays", tuple(int(d) for d in self.delays))

    @property
    def max_delay(self) -> int:
        return max(self.delays)


def eva_profile(k_max: int, max_tap: int | None = None) -> ChannelProfile:
    """EVA profile sampled at the paper's delay resolution T/512.

    max_tap, when given, drops taps whose integer delay exceeds it (the
    desk-scale preset truncates the profile this way).
    """
    delays = [round(d * 1e-9 / _DELAY_RES) for d in EVA_DELAYS_NS]
    powers = [10.0 ** (p / 10.0) for p in EVA_POWERS_DB]
    if max_tap is not None:
        kept = [(d, p) for d, p in zip(delays, powers) if d <= max_tap]
        delays = [d for d, _ in kept]
        powers = [p for _, p in kept]
    return ChannelProfile(delays=tuple(delays), powers=tuple(powers), k_max=k_max)


class DiscreteChannel:
    """Immutable set of on-grid paths plus cached per-tap time-varying gains.

    The frame's params.max_delay is the channel's l_max: it sizes the gain
    table, the frame's cyclic extension and the pilot's guard band alike, so
    every path delay must lie in [0, params.max_delay].
    """

    def __init__(self, paths: Sequence[DDPath], params: ModemParams):
        if any(not 0 <= p.delay <= params.max_delay for p in paths):
            raise ValueError(f"path delay outside [0, max_delay={params.max_delay}]")
        self.paths = tuple(paths)
        self.params = params
        self.support = tuple(sorted({p.delay for p in paths}))
        self._table = None

    @property
    def l_max(self) -> int:
        return self.params.max_delay

    def gain_table(self) -> np.ndarray:
        """Dense (l_max+1, MN) table of g[l, q]; rows off the support are zero."""
        if self._table is None:
            mn = self.params.frame_len
            q = np.arange(mn)
            table = np.zeros((self.l_max + 1, mn), dtype=np.complex128)
            for p in self.paths:
                table[p.delay] += p.gain * np.exp(
                    2j * np.pi * p.doppler * (q - p.delay) / mn
                )
            self._table = table
        return self._table


def sample_channel(
    profile: ChannelProfile, params: ModemParams, rng: np.random.Generator
) -> DiscreteChannel:
    """Draw one channel realization: Rayleigh tap gains, Jakes-law Doppler taps.

    Gains are circularly-symmetric complex Gaussian with the profile's tap
    power; each path's Doppler index is round(k_max*cos(theta)) with theta
    uniform, drawn independently per path. The channel's l_max is
    params.max_delay, so a profile with a tap past it raises.
    """
    n = len(profile.delays)
    gains = np.sqrt(np.array(profile.powers) / 2.0) * (
        rng.standard_normal(n) + 1j * rng.standard_normal(n)
    )
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    dopplers = np.rint(profile.k_max * np.cos(theta)).astype(int)
    paths = [
        DDPath(delay=d, doppler=int(k), gain=complex(g))
        for d, k, g in zip(profile.delays, dopplers, gains)
    ]
    return DiscreteChannel(paths, params)


def apply_channel(
    ch: DiscreteChannel,
    seq: TimeSequence,
    sigma_z: float,
    rng: np.random.Generator | None = None,
) -> TimeSequence:
    """Pass a frame through the channel with frame-wise cyclic extension.

    r[q] = sum_l g[l,q] * s[(q-l) mod MN] + z[q] with z ~ CN(0, sigma_z^2).
    """
    if seq.params.frame_len != ch.params.frame_len:
        raise ValueError("sequence and channel frame sizes differ")
    if sigma_z < 0:
        raise ValueError("noise std must be non-negative")
    s = seq.samples
    table = ch.gain_table()
    r = np.zeros_like(s)
    for l in ch.support:
        r += table[l] * np.roll(s, l)
    if sigma_z > 0:
        if rng is None:
            raise ValueError("rng required when sigma_z > 0")
        mn = s.shape[0]
        r = r + (sigma_z / np.sqrt(2.0)) * (
            rng.standard_normal(mn) + 1j * rng.standard_normal(mn)
        )
    return TimeSequence(r, seq.params)


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


def band_columns(block: np.ndarray, v: np.ndarray, sigma_z2: float) -> np.ndarray:
    """Band columns of the covariance R = sigma_z2 I + G diag(v) G^H.

    block[i, d, k] = g[d, p_i - k] is the (l_max+1) x (l_max+1) block of
    tap gains over the samples p_i - l_max..p_i, and v[t] is the variance of
    the symbol at p_i - t (shared by every i). Returns col[i, k] = R[p_i - k,
    p_i] for k = 0..l_max: the column at sample p_i, from its diagonal up.
    Symbol p - t reaches samples p - k and p through taps t - k and t, so

        col[i, k] = sum_{d=0}^{l_max-k} g[d, p-k] v[d+k] conj(g[d+k, p])

    (with sigma_z2 added at k = 0). The products v[t] conj(g[t, p]) are laid
    out with l_max trailing zeros, and a Hankel view of them, w[i, d, k] =
    that product at t = d+k, turns the sum into one elementwise product and
    one reduction over d.
    """
    count, rows = block.shape[0], block.shape[1]
    padded = np.zeros((count, 2 * rows - 1), dtype=np.complex128)
    np.multiply(np.conj(block[:, :, 0]), v, out=padded[:, :rows])
    isz = padded.itemsize
    hankel = np.ndarray(
        (count, rows, rows),
        padded.dtype,
        buffer=padded,
        strides=((2 * rows - 1) * isz, isz, isz),
    )
    col = np.add.reduce(block * hankel, axis=1)
    # the diagonal is real: drop the rounding residue of its imaginary part
    col[:, 0] = col[:, 0].real + sigma_z2
    return col

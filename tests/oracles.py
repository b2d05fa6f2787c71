"""Per-symbol reference forms of the channel and of the detector engine's
row operations.

The package builds tap-gain tables and sub-channel stacks for many symbols
at once, and the engine in oddmsim.detectors equalizes and slices a whole
delay row at a time; these functions do the same for one symbol, written as
directly as the paper states them, so tests can check the engine and the
analysis against them.
"""

import numpy as np

from oddmsim.channel import DiscreteChannel
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

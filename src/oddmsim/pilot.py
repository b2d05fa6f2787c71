"""Embedded-pilot frames, read-off channel estimation, and the Gaussian
estimation-error model.

A pilot is its amplitude; the frame fixes the rest. It sits in the middle of
the DD grid with full guard rows on the delay axis (guard_rows), wide enough
that channel-spread pilot and data never overlap. The estimator reads the
dense (l_max+1) x N block of responses around the pilot; no thresholding is
applied, so the estimate matches the additive Gaussian error model used by
the SINR analysis. l_max is the frame's ModemParams.max_delay throughout:
the guard half-width, the read-off window and every estimate's tap table
take it from the frame, and since the frame requires M > 2 max_delay, the
guard band and the window always fit the grid.
"""

import numpy as np

from .channel import DiscreteChannel
from .modem import DDGrid, ModemParams

__all__ = [
    "EstimatedChannel",
    "guard_rows",
    "data_cell_count",
    "pilot_amplitude_for_snr",
    "embed_pilot",
    "estimate_channel",
    "perturb_channel",
    "channel_taps",
    "gains_from_estimate",
]


def _pilot_cell(params: ModemParams) -> tuple:
    """(delay, Doppler) index of the pilot: the middle of the grid."""
    return params.n_delay // 2, params.n_doppler // 2


def guard_rows(params: ModemParams) -> np.ndarray:
    """Delay rows of the pilot and its guards (no data): its row +- max_delay."""
    mp, _ = _pilot_cell(params)
    return np.arange(mp - params.max_delay, mp + params.max_delay + 1)


def data_cell_count(params: ModemParams) -> int:
    """Number of data symbols a pilot frame carries."""
    return params.frame_len - params.n_doppler * (2 * params.max_delay + 1)


def pilot_amplitude_for_snr(
    snr_pilot_db: float, sigma_z2: float, params: ModemParams
) -> float:
    """Real pilot amplitude giving the requested effective pilot SNR."""
    p_dd = params.n_doppler * 10.0 ** (snr_pilot_db / 10.0) * sigma_z2
    return float(np.sqrt(p_dd))


def embed_pilot(data: np.ndarray, amplitude: complex, params: ModemParams) -> DDGrid:
    """Place a pilot of the given amplitude, its guards, and data symbols
    onto a DD grid.

    Data symbols fill the rows off the guard band in row-major order
    (delay-major), which fixes the bit accounting for BER measurements.
    """
    data = np.asarray(data, dtype=np.complex128).ravel()
    expected = data_cell_count(params)
    if data.shape[0] != expected:
        raise ValueError(f"expected {expected} data symbols, got {data.shape[0]}")
    grid = np.zeros((params.n_delay, params.n_doppler), dtype=np.complex128)
    data_rows = np.ones(params.n_delay, dtype=bool)
    data_rows[guard_rows(params)] = False
    grid[data_rows] = data.reshape(-1, params.n_doppler)
    grid[_pilot_cell(params)] = amplitude
    return DDGrid(grid, params)


class EstimatedChannel:
    """Receiver-side channel knowledge: per-tap gains over the whole frame.

    gains is a dense, C-contiguous (l_max+1, MN) table, l_max the frame's
    params.max_delay; support lists its delay rows that may be nonzero (all
    rows for a pilot-based estimate, the true sparse support under perfect
    CSI), and the rows off it must be zero. The detectors read every row, so
    the zeros keep their sums exactly those over the support. taps is the
    dense (l_max+1, N) DD tap table a pilot or synthetic estimate was built
    from (None under perfect CSI); the estimation-statistics sweep
    (harness.est_stats_point) reads it to measure the DD-domain error.
    """

    def __init__(
        self,
        gains: np.ndarray,
        support,
        params: ModemParams,
        taps: np.ndarray | None = None,
    ):
        self.gains = np.ascontiguousarray(gains, dtype=np.complex128)
        self.support = tuple(int(l) for l in support)
        self.params = params
        self.taps = taps
        self.l_max = params.max_delay
        if self.gains.shape != (self.l_max + 1, params.frame_len):
            raise ValueError(
                f"gain table has shape {self.gains.shape}, not (max_delay+1, MN) = "
                f"{(self.l_max + 1, params.frame_len)}"
            )
        off_support = set(range(self.l_max + 1)) - set(self.support)
        if any(self.gains[l].any() for l in off_support):
            raise ValueError("gain table rows off the support must be zero")

    @classmethod
    def from_true(cls, ch: DiscreteChannel) -> "EstimatedChannel":
        """Perfect-CSI view of a channel realization."""
        return cls(ch.gain_table(), support=ch.support, params=ch.params)


def _doppler_axis(params: ModemParams) -> np.ndarray:
    n = params.n_doppler
    return np.arange(-(n // 2), n - n // 2)


def channel_taps(ch: DiscreteChannel) -> np.ndarray:
    """The channel's dense (l_max+1, N) DD tap table, Doppler k at column
    k + N//2; paths add into their cell in path order."""
    n = ch.params.n_doppler
    taps = np.zeros((ch.l_max + 1, n), dtype=np.complex128)
    half = n // 2
    for p in ch.paths:
        if not -half <= p.doppler < n - half:
            raise ValueError("path Doppler outside the dense estimation window")
        taps[p.delay, p.doppler + half] += p.gain
    return taps


def gains_from_estimate(taps: np.ndarray, params: ModemParams) -> EstimatedChannel:
    """Dense DD taps (l_max+1, N) -> per-tap time gains via one MN-point IDFT per row.

    g_hat[l, q] = sum_k h_hat[l, k] * exp(j*2*pi*k*(q-l)/(MN)) over the dense
    Doppler window k in [-N/2, N/2).
    """
    taps = np.asarray(taps, dtype=np.complex128)
    n_rows, n = taps.shape
    if n != params.n_doppler:
        raise ValueError("tap table Doppler width must equal n_doppler")
    mn = params.frame_len
    ks = _doppler_axis(params)
    gains = np.zeros((n_rows, mn), dtype=np.complex128)
    # fold each row's (q - l) shift into its coefficients
    gains[:, ks % mn] = taps * np.exp(-2j * np.pi * ks * np.arange(n_rows)[:, None] / mn)
    # in place, so no second (l_max+1, MN) array is alive
    np.fft.ifft(gains, axis=1, out=gains)
    gains *= mn
    return EstimatedChannel(gains, support=range(n_rows), params=params, taps=taps)


def estimate_channel(grid: DDGrid, amplitude: complex) -> EstimatedChannel:
    """Read the dense channel response off the received block of a pilot of
    the given amplitude.

    Every cell in the (l_max+1) x N window is divided by the pilot's phase-
    rotated amplitude, so the result is the true response plus white Gaussian
    error of per-entry variance sigma_z2 / |x_pilot|^2.
    """
    params = grid.params
    mp, npil = _pilot_cell(params)
    lm = params.max_delay
    ks = _doppler_axis(params)
    cols = (npil + ks) % params.n_doppler
    block = grid.entries[mp : mp + lm + 1][:, cols]
    divisor = amplitude * np.exp(2j * np.pi * mp * ks / params.frame_len)
    taps = block / divisor[None, :]
    return gains_from_estimate(taps, params)


def perturb_channel(
    ch: DiscreteChannel, sigma2: float, rng: np.random.Generator | None = None
) -> EstimatedChannel:
    """Synthetic estimate: true dense taps plus i.i.d. CN(0, sigma2) error.

    sigma2 is the per-DD-entry error variance (sigma_z^2 / P_pilot_dd in the
    pilot-based scheme); the time-domain error variance is N times larger.
    """
    if sigma2 < 0:
        raise ValueError("error variance must be non-negative")
    taps = channel_taps(ch)
    if sigma2 > 0:
        if rng is None:
            raise ValueError("rng required when sigma2 > 0")
        taps = taps + np.sqrt(sigma2 / 2.0) * (
            rng.standard_normal(taps.shape) + 1j * rng.standard_normal(taps.shape)
        )
    return gains_from_estimate(taps, ch.params)

"""Embedded-pilot frames, read-off channel estimation, and the Gaussian
estimation-error model.

The pilot sits in the middle of the DD grid with full guard rows on the delay
axis, wide enough that channel-spread pilot and data never overlap. The
estimator reads the dense (l_max+1) x N block of responses around the pilot;
no thresholding is applied, so the estimate matches the additive Gaussian
error model used by the SINR analysis.
"""

from dataclasses import dataclass

import numpy as np

from .channel import DiscreteChannel
from .modem import DDGrid, ModemParams

__all__ = [
    "PilotConfig",
    "EstimatedChannel",
    "pilot_amplitude_for_snr",
    "embed_pilot",
    "estimate_channel",
    "perturb_channel",
    "gains_from_estimate",
    "serialize_estimate",
    "deserialize_estimate",
]


@dataclass(frozen=True)
class PilotConfig:
    """Pilot amplitude and guard extent (half-width max_delay on the delay axis)."""

    amplitude: complex
    max_delay: int

    def m_pilot(self, params: ModemParams) -> int:
        return params.n_delay // 2

    def n_pilot(self, params: ModemParams) -> int:
        return params.n_doppler // 2

    @property
    def dd_power(self) -> float:
        """DD-domain pilot power |x_pilot|^2."""
        return abs(self.amplitude) ** 2

    def effective_power(self, params: ModemParams) -> float:
        """Pilot power after time-domain spreading over N samples."""
        return self.dd_power / params.n_doppler

    def guard_rows(self, params: ModemParams) -> np.ndarray:
        """Delay rows reserved for pilot plus guards (no data)."""
        mp = self.m_pilot(params)
        lo, hi = mp - self.max_delay, mp + self.max_delay
        if lo < 0 or hi >= params.n_delay:
            raise ValueError("guard band does not fit the grid; need M > 2*l_max")
        return np.arange(lo, hi + 1)

    def data_mask(self, params: ModemParams) -> np.ndarray:
        """Boolean (M, N) mask of cells that carry data symbols."""
        mask = np.ones((params.n_delay, params.n_doppler), dtype=bool)
        mask[self.guard_rows(params), :] = False
        return mask

    def data_cell_count(self, params: ModemParams) -> int:
        return params.frame_len - params.n_doppler * (2 * self.max_delay + 1)


def pilot_amplitude_for_snr(
    snr_pilot_db: float, sigma_z2: float, params: ModemParams
) -> float:
    """Real pilot amplitude giving the requested effective pilot SNR."""
    p_dd = params.n_doppler * 10.0 ** (snr_pilot_db / 10.0) * sigma_z2
    return float(np.sqrt(p_dd))


def embed_pilot(data: np.ndarray, cfg: PilotConfig, params: ModemParams) -> DDGrid:
    """Place pilot, guards, and data symbols onto a DD grid.

    Data symbols fill the non-guard cells in row-major order (delay-major),
    which fixes the bit accounting for BER measurements.
    """
    data = np.asarray(data, dtype=np.complex128).ravel()
    expected = cfg.data_cell_count(params)
    if data.shape[0] != expected:
        raise ValueError(f"expected {expected} data symbols, got {data.shape[0]}")
    grid = np.zeros((params.n_delay, params.n_doppler), dtype=np.complex128)
    mask = cfg.data_mask(params)
    grid[mask] = data  # row-major assignment over the masked cells
    grid[cfg.m_pilot(params), cfg.n_pilot(params)] = cfg.amplitude
    return DDGrid(grid, params)


class EstimatedChannel:
    """Receiver-side channel knowledge: per-tap gains over the whole frame.

    gains is a dense, C-contiguous (l_max+1, MN) table; support lists its
    delay rows that may be nonzero (all rows for a pilot-based estimate, the
    true sparse support under perfect CSI), and the rows off it must be zero.
    The detectors read every row, so the zeros keep their sums exactly those
    over the support.
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
        self.l_max = self.gains.shape[0] - 1
        if self.gains.shape[1] != params.frame_len:
            raise ValueError("gain table length does not match the frame")
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
    gains = np.empty((n_rows, mn), dtype=np.complex128)
    for l in range(n_rows):
        buf = np.zeros(mn, dtype=np.complex128)
        # fold the (q - l) shift into the coefficients
        buf[ks % mn] = taps[l] * np.exp(-2j * np.pi * ks * l / mn)
        gains[l] = np.fft.ifft(buf) * mn
    return EstimatedChannel(gains, support=range(n_rows), params=params, taps=taps)


def estimate_channel(grid: DDGrid, cfg: PilotConfig) -> EstimatedChannel:
    """Read the dense channel response off the received pilot block.

    Every cell in the (l_max+1) x N window is divided by the pilot's phase-
    rotated amplitude, so the result is the true response plus white Gaussian
    error of per-entry variance sigma_z2 / |x_pilot|^2.
    """
    params = grid.params
    mp, npil = cfg.m_pilot(params), cfg.n_pilot(params)
    lm = cfg.max_delay
    if mp + lm >= params.n_delay:
        raise ValueError("read-off window exceeds the grid")
    ks = _doppler_axis(params)
    cols = (npil + ks) % params.n_doppler
    block = grid.entries[mp : mp + lm + 1][:, cols]
    divisor = cfg.amplitude * np.exp(2j * np.pi * mp * ks / params.frame_len)
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
    params = ch.params
    n = params.n_doppler
    taps = np.zeros((ch.l_max + 1, n), dtype=np.complex128)
    half = n // 2
    for p in ch.paths:
        if not -half <= p.doppler < n - half:
            raise ValueError("path Doppler outside the dense estimation window")
        taps[p.delay, p.doppler + half] += p.gain
    if sigma2 > 0:
        if rng is None:
            raise ValueError("rng required when sigma2 > 0")
        taps = taps + np.sqrt(sigma2 / 2.0) * (
            rng.standard_normal(taps.shape) + 1j * rng.standard_normal(taps.shape)
        )
    return gains_from_estimate(taps, params)


def serialize_estimate(est: EstimatedChannel) -> str:
    """Dense-support text dump, one `l k re im` line per DD tap."""
    if est.taps is None:
        raise ValueError("estimate carries no DD tap table")
    ks = _doppler_axis(est.params)
    lines = []
    for l in range(est.taps.shape[0]):
        for j, k in enumerate(ks):
            h = est.taps[l, j]
            lines.append(f"{l} {k} {h.real:.17g} {h.imag:.17g}")
    return "\n".join(lines) + "\n"


def deserialize_estimate(text: str, params: ModemParams) -> EstimatedChannel:
    """Parse the dense text format written by :func:`serialize_estimate`."""
    rows = {}
    for line in text.strip().splitlines():
        f = line.split()
        if len(f) != 4:
            raise ValueError(f"malformed tap line: {line!r}")
        rows[(int(f[0]), int(f[1]))] = float(f[2]) + 1j * float(f[3])
    l_max = max(l for l, _ in rows)
    taps = np.zeros((l_max + 1, params.n_doppler), dtype=np.complex128)
    half = params.n_doppler // 2
    for (l, k), h in rows.items():
        taps[l, k + half] = h
    return gains_from_estimate(taps, params)

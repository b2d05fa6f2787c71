"""Delay-Doppler grid transforms, frame parameters, and QAM constellations.

Symbols live on an (n_delay x n_doppler) grid. Each delay row is carried by
N-point IDFT into the delay-time domain, and the delay-time matrix is
column-stacked into the MN-sample transmit sequence. All transforms use the
normalized (unitary) DFT convention.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModemParams",
    "DDGrid",
    "TimeSequence",
    "Constellation",
    "dd_to_time",
    "time_to_dd",
    "make_constellation",
]


@dataclass(frozen=True)
class ModemParams:
    """Fixed per-run frame geometry.

    n_delay  : number of delay bins (M), also the multicarrier symbol count
    n_doppler: number of Doppler bins (N), subcarriers per symbol
    max_delay: maximum channel delay index (also the CP length)
    """

    n_delay: int
    n_doppler: int
    max_delay: int = 0

    def __post_init__(self):
        if self.max_delay < 0:
            raise ValueError(f"max_delay must be non-negative, got {self.max_delay}")
        if self.n_delay <= 2 * self.max_delay:
            raise ValueError(
                f"n_delay={self.n_delay} must exceed twice max_delay={self.max_delay}"
            )
        if self.n_doppler < 2:
            raise ValueError("n_doppler must be at least 2")

    @property
    def frame_len(self) -> int:
        """Total number of time samples per frame (M*N)."""
        return self.n_delay * self.n_doppler


@dataclass
class DDGrid:
    """Complex symbol grid in the delay-Doppler domain, shape (M, N)."""

    entries: np.ndarray
    params: ModemParams

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.complex128)
        expect = (self.params.n_delay, self.params.n_doppler)
        if self.entries.shape != expect:
            raise ValueError(f"grid shape {self.entries.shape} != expected {expect}")


@dataclass
class TimeSequence:
    """Length-MN complex sample vector; index map s[nd*M + m] = X_dt[m, nd]."""

    samples: np.ndarray
    params: ModemParams

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.complex128)
        if self.samples.shape != (self.params.frame_len,):
            raise ValueError(
                f"sequence length {self.samples.shape} != expected ({self.params.frame_len},)"
            )


def dd_to_time(grid: DDGrid) -> TimeSequence:
    """Transmit transform: per-row unitary IDFT, then column-stacking."""
    dt = np.fft.ifft(grid.entries, axis=1, norm="ortho")
    return TimeSequence(dt.ravel(order="F"), grid.params)


def time_to_dd(seq: TimeSequence) -> DDGrid:
    """Receive transform, exact inverse of :func:`dd_to_time`."""
    p = seq.params
    dt = seq.samples.reshape((p.n_delay, p.n_doppler), order="F")
    return DDGrid(np.fft.fft(dt, axis=1, norm="ortho"), p)


def _gray(x: np.ndarray) -> np.ndarray:
    return x ^ (x >> 1)


@dataclass(frozen=True)
class Constellation:
    """Gray-labeled square QAM alphabet with unit mean power.

    Points are ordered row-major over the I/Q lattice (top row = largest
    imaginary part, columns by increasing real part), so the ordering is
    deterministic and ties in nearest-point searches resolve to the lowest
    index.
    """

    points: np.ndarray
    labels: np.ndarray  # labels[j] = integer bit pattern of points[j]
    order: int

    @property
    def bits_per_symbol(self) -> int:
        return int(np.log2(self.order))

    @property
    def power(self) -> float:
        """Mean symbol power P_t over the alphabet."""
        return float(np.mean(np.abs(self.points) ** 2))

    @property
    def d_min(self) -> float:
        """Minimum pairwise distance, computed by brute force."""
        diff = self.points[:, None] - self.points[None, :]
        d = np.abs(diff)
        d[np.diag_indices_from(d)] = np.inf
        return float(d.min())

    def nearest_index(self, values: np.ndarray) -> np.ndarray:
        """Index of the closest alphabet point; ties go to the lowest index."""
        v = np.asarray(values, dtype=np.complex128)
        d2 = np.abs(v[..., None] - self.points) ** 2
        # the method, not np.argmin: same kernel, no Python-level dispatch
        return d2.argmin(axis=-1)

    def map_bits(self, bits: np.ndarray) -> np.ndarray:
        """Map a flat 0/1 array (length divisible by bits_per_symbol) to symbols."""
        k = self.bits_per_symbol
        bits = np.asarray(bits, dtype=np.int64).reshape(-1, k)
        weights = 1 << np.arange(k - 1, -1, -1)
        patterns = bits @ weights
        lut = np.empty(self.order, dtype=np.int64)
        lut[self.labels] = np.arange(self.order)
        return self.points[lut[patterns]]


def make_constellation(order: int) -> Constellation:
    """Build a unit-power Gray-labeled square QAM alphabet (order 4, 16, or 64)."""
    if order not in (4, 16, 64):
        raise ValueError(f"unsupported constellation order {order}; use 4, 16, or 64")
    side = int(np.sqrt(order))
    levels = 2 * np.arange(side) - side + 1  # ascending odd integers
    scale = np.sqrt(2.0 * np.sum(levels.astype(float) ** 2) / side)
    rows, cols = np.divmod(np.arange(order), side)
    i_idx = cols
    q_idx = side - 1 - rows  # top row carries the largest Q level
    points = (levels[i_idx] + 1j * levels[q_idx]) / scale
    bits_axis = int(np.log2(side))
    labels = (_gray(i_idx) << bits_axis) | _gray(q_idx)
    return Constellation(points=points, labels=labels.astype(np.int64), order=order)

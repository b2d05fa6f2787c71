"""Monte-Carlo experiment orchestration and CSV emission.

Every frame draws its randomness from a counter-based seed sequence
(master seed, SNR-grid index, frame index, role), so results are bit-identical
for a given configuration regardless of worker count or scheduling, and all
detectors at one SNR point see the same channel/noise/data realizations.
"""

import contextlib
import functools
import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import analysis
from .channel import ChannelProfile, apply_channel, eva_profile, sample_channel
from .detectors import DITHER_RATIO, DetectorConfig, run_detector
from .modem import DDGrid, ModemParams, dd_to_time, make_constellation, time_to_dd
from .pilot import (
    EstimatedChannel,
    PilotConfig,
    channel_taps,
    embed_pilot,
    estimate_channel,
    perturb_channel,
    pilot_amplitude_for_snr,
)

__all__ = [
    "SimConfig",
    "RunRecord",
    "desk_preset",
    "paper_preset",
    "load_config",
    "apply_config_text",
    "run_ber_point",
    "run_sweep",
    "SWEEP_MODES",
    "BER_HEADER",
    "SINR_HEADER",
    "EVOLVE_HEADER",
    "EST_HEADER",
]

BER_HEADER = "snr_db,pilot_mode,detector,frames,frame_errors,bit_errors,ber,mean_iterations"
SINR_HEADER = "snr_db,detector,iteration,sinr_sim_db,sinr_theory_db"
EVOLVE_HEADER = "snr_db,kind,iteration,sinr_db,ser,mse,ber"
EST_HEADER = "snr_db,snr_pilot_db,trials,var_dh_emp,var_dh_theory,var_dg_emp,var_dg_theory"

PILOT_MODES = ("perfect_csi", "estimated", "synthetic")

# seed-sequence role tags
_ROLE_FRAME = 0
_ROLE_DETECTOR = 1
_ROLE_CHANNEL = 2


@dataclass(frozen=True)
class SimConfig:
    """Fully resolved experiment description; the defaults are the paper preset.

    n_delay x n_doppler is the grid (M x N); k_max and max_tap (None keeps
    every EVA tap) shape the channel profile.
    """

    n_delay: int = 512
    n_doppler: int = 32
    k_max: int = 5
    max_tap: int | None = None
    qam: int = 4
    detectors: tuple = ("soft_sicmmse",)
    n_ite: int = 10
    m_0: int = 0
    delta_d_ratio: float = DITHER_RATIO
    snr_db: tuple = ()
    pilot_mode: str = "perfect_csi"
    snr_pilot_db: float | None = None
    min_frame_errors: int = 500
    max_frames: int = 2_000_000
    seed: int = 1
    workers: int = 1
    chunk: int = 16
    sinr_frames: int = 200
    evolve_chans: int = 8
    est_trials: int = 10_000

    def __post_init__(self):
        for key in (
            "min_frame_errors", "max_frames", "n_ite", "chunk", "sinr_frames",
            "evolve_chans", "est_trials", "workers",
        ):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.pilot_mode not in PILOT_MODES:
            raise ValueError(f"unknown pilot mode {self.pilot_mode!r}")
        if self.pilot_mode != "perfect_csi" and self.snr_pilot_db is None:
            raise ValueError(f"pilot mode {self.pilot_mode!r} needs snr_pilot_db")
        self.params  # a grid the channel profile does not fit fails here
        if 2 * self.k_max + 1 > self.n_doppler:
            # the Doppler taps -k_max..k_max must fit the N-wide Doppler axis,
            # or the pilot read-off window cannot hold them
            raise ValueError(
                f"k_max={self.k_max} needs 2*k_max+1 <= n_doppler={self.n_doppler}"
            )
        make_constellation(self.qam)
        if self.m_0 >= self.n_delay:
            raise ValueError(f"m0={self.m_0} must be below n_delay={self.n_delay}")
        for kind in self.detectors:
            self.detector_config(kind)

    @functools.cached_property
    def profile(self) -> ChannelProfile:
        return eva_profile(self.k_max, self.max_tap)

    @functools.cached_property
    def params(self) -> ModemParams:
        return ModemParams(self.n_delay, self.n_doppler, self.profile.max_delay)

    @property
    def sigma_dg2(self) -> float:
        """Channel-estimate error variance implied by the pilot mode."""
        if self.pilot_mode == "perfect_csi":
            return 0.0
        return 10.0 ** (-self.snr_pilot_db / 10.0)

    def link(self, snr_db: float):
        """(constellation, noise variance sigma_z^2) at one SNR point."""
        const = make_constellation(self.qam)
        return const, const.power * 10.0 ** (-snr_db / 10.0)

    def detector_config(self, kind: str) -> DetectorConfig:
        return DetectorConfig(
            kind=kind,
            n_ite=self.n_ite,
            m_0=self.m_0,
            delta_d_ratio=self.delta_d_ratio,
        )


@dataclass
class RunRecord:
    """Aggregates for one (SNR, detector) point."""

    snr_db: float
    pilot_mode: str
    detector: str
    frames: int
    frame_errors: int
    bit_errors: int
    bits_total: int
    mean_iterations: float
    wall_time: float

    @property
    def ber(self) -> float:
        return self.bit_errors / self.bits_total if self.bits_total else 0.0

    def csv_row(self) -> str:
        return (
            f"{self.snr_db:g},{self.pilot_mode},{self.detector},{self.frames},"
            f"{self.frame_errors},{self.bit_errors},{self.ber:.10g},"
            f"{self.mean_iterations:g}"
        )


# ---------------------------------------------------------------------------
# presets and configuration


def desk_preset(**overrides) -> SimConfig:
    """Fast small-frame setup: 64x16 grid, EVA taps up to delay 9, k_max=3."""
    desk = dict(n_delay=64, n_doppler=16, k_max=3, max_tap=9)
    return SimConfig(**(desk | overrides))


def paper_preset(**overrides) -> SimConfig:
    """Full-scale setup: 512x32 grid, nine EVA taps, k_max=5."""
    return SimConfig(**overrides)


PRESETS = {"desk": desk_preset, "paper": paper_preset}


def parse_config_text(text: str) -> dict:
    """Parse the flat key=value format (comments with '#', blank lines ok)."""
    out = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {ln}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key] = value
    return out


def _list_of(parse):
    """Parser of a comma-separated list of values."""
    return lambda text: tuple(parse(v.strip()) for v in text.split(",") if v.strip())


# configuration key -> (SimConfig field, parser of the value text)
_KEYS = {
    "m": ("n_delay", int),
    "n": ("n_doppler", int),
    "kmax": ("k_max", int),
    "max_tap": ("max_tap", int),
    "qam": ("qam", int),
    "detector": ("detectors", _list_of(str)),
    "n_ite": ("n_ite", int),
    "m0": ("m_0", int),
    "delta_d_ratio": ("delta_d_ratio", float),
    "snr_db": ("snr_db", _list_of(float)),
    "pilot_mode": ("pilot_mode", str),
    "snr_pilot_db": ("snr_pilot_db", float),
    "min_frame_errors": ("min_frame_errors", int),
    "max_frames": ("max_frames", int),
    "seed": ("seed", int),
    "workers": ("workers", int),
    "chunk": ("chunk", int),
    "sinr_frames": ("sinr_frames", int),
    "evolve_chans": ("evolve_chans", int),
    "est_trials": ("est_trials", int),
}


def apply_config_text(cfg: SimConfig, text: str) -> SimConfig:
    """Overlay key=value settings onto a preset configuration."""
    changes = {}
    for key, value in parse_config_text(text).items():
        if key not in _KEYS:
            raise ValueError(f"unknown configuration key {key!r}")
        field, parse = _KEYS[key]
        changes[field] = parse(value)
    return replace(cfg, **changes)


def load_config(path, base: SimConfig) -> SimConfig:
    """Overlay the key=value file at path onto base."""
    with open(path) as fh:
        text = fh.read()
    return apply_config_text(base, text)


# ---------------------------------------------------------------------------
# per-frame work


def _frame_rng(cfg: SimConfig, point_idx: int, frame_idx: int, role: int):
    seq = np.random.SeedSequence((cfg.seed, point_idx, frame_idx, role))
    return np.random.default_rng(seq)


def _pilot_config(cfg: SimConfig, sigma_z2: float) -> PilotConfig:
    """Embedded pilot sized for cfg.snr_pilot_db at noise variance sigma_z2."""
    params = cfg.params
    amp = pilot_amplitude_for_snr(cfg.snr_pilot_db, sigma_z2, params)
    return PilotConfig(amplitude=amp, max_delay=params.max_delay)


def _transmit(cfg: SimConfig, ch, const, sigma_z2: float, rng, pcfg=None):
    """Draw, map and send one frame through ch; estimate ch by the pilot mode.

    The data fill the whole grid, or, when pcfg is given, the cells around
    its embedded pilot. Returns (grid, seq, received, est, n_bits).
    """
    params = cfg.params
    n_data = params.frame_len if pcfg is None else pcfg.data_cell_count(params)
    bits = rng.integers(0, 2, n_data * const.bits_per_symbol)
    data = const.map_bits(bits)
    if pcfg is None:
        grid = DDGrid(data.reshape(params.n_delay, params.n_doppler), params)
    else:
        grid = embed_pilot(data, pcfg, params)
    seq = dd_to_time(grid)
    received = apply_channel(ch, seq, float(np.sqrt(sigma_z2)), rng)
    if cfg.pilot_mode == "perfect_csi":
        est = EstimatedChannel.from_true(ch)
    elif cfg.pilot_mode == "synthetic":
        est = perturb_channel(ch, cfg.sigma_dg2 / params.n_doppler, rng)
    else:
        est = estimate_channel(time_to_dd(received), pcfg)
    return grid, seq, received, est, bits.size


def _ber_frame(cfg: SimConfig, kind: str, snr_db: float, point_idx: int, frame_idx: int):
    """Simulate one frame; returns (bit_errors, data_bits, frame_error)."""
    params = cfg.params
    const, sigma_z2 = cfg.link(snr_db)
    rng = _frame_rng(cfg, point_idx, frame_idx, _ROLE_FRAME)
    det_rng = _frame_rng(cfg, point_idx, frame_idx, _ROLE_DETECTOR)

    ch = sample_channel(cfg.profile, params, rng)
    pcfg = _pilot_config(cfg, sigma_z2) if cfg.pilot_mode == "estimated" else None
    grid, _, received, est, n_bits = _transmit(cfg, ch, const, sigma_z2, rng, pcfg)
    known_rows = known_grid = None
    if pcfg is not None:
        known_rows = np.zeros(params.n_delay, dtype=bool)
        known_rows[pcfg.guard_rows(params)] = True
        known_grid = grid.entries

    result = run_detector(
        received,
        est,
        cfg.detector_config(kind),
        const,
        det_rng,
        sigma_z2=sigma_z2,
        known_rows=known_rows,
        known_grid=known_grid,
        true_indices=const.nearest_index(grid.entries),
    )
    errors = int(result.bit_error_trace[-1])
    return errors, n_bits, errors > 0


def run_ber_point(
    cfg: SimConfig,
    kind: str,
    snr_db: float,
    point_idx: int = 0,
    executor: ProcessPoolExecutor | None = None,
) -> RunRecord:
    """Accumulate frames until the frame-error or frame-count budget is hit.

    Frames are processed in fixed-size chunks with the stop rule evaluated at
    chunk boundaries, so the stopping frame count does not depend on the
    worker pool.
    """
    start = time.perf_counter()
    frame = functools.partial(_ber_frame, cfg, kind, snr_db, point_idx)
    run = map if executor is None else executor.map
    frames = frame_errors = bit_errors = bits_total = 0
    while frame_errors < cfg.min_frame_errors and frames < cfg.max_frames:
        n_chunk = int(min(cfg.chunk, cfg.max_frames - frames))
        for errs, bits, is_err in run(frame, range(frames, frames + n_chunk)):
            bit_errors += errs
            bits_total += bits
            frame_errors += int(is_err)
        frames += n_chunk
    return RunRecord(
        snr_db=snr_db,
        pilot_mode=cfg.pilot_mode,
        detector=kind,
        frames=frames,
        frame_errors=frame_errors,
        bit_errors=bit_errors,
        bits_total=bits_total,
        mean_iterations=float(cfg.n_ite),
        wall_time=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# SINR sweep (simulated vs closed form, per iteration)

_SINR_KINDS = ("mrc", "hard_sicmmse", "soft_sicmmse")


def sinr_point(cfg: SimConfig, kind: str, snr_db: float, point_idx: int = 0):
    """Per-iteration simulated and theoretical SINR for one channel draw.

    Returns a list of (iteration, sinr_sim_db, sinr_theory_db). The error
    variances entering the closed forms are extracted from the simulation
    itself (mean-square error of the fed-back estimates).
    """
    _check_sweep(cfg, "sinr", (kind,))
    params = cfg.params
    const, sigma_z2 = cfg.link(snr_db)
    sigma_dg2 = cfg.sigma_dg2

    ch_rng = _frame_rng(cfg, point_idx, 0, _ROLE_CHANNEL)
    ch = sample_channel(cfg.profile, params, ch_rng)
    dcfg = cfg.detector_config(kind)
    mn = params.frame_len

    sig_pow = np.zeros((cfg.n_ite, mn))
    rip_pow = np.zeros((cfg.n_ite, mn))
    mse_acc = np.zeros(cfg.n_ite)
    init_mse_acc = 0.0
    for t in range(cfg.sinr_frames):
        rng = _frame_rng(cfg, point_idx, t, _ROLE_FRAME)
        det_rng = _frame_rng(cfg, point_idx, t, _ROLE_DETECTOR)
        _, seq, received, est, _ = _transmit(cfg, ch, const, sigma_z2, rng)
        res = run_detector(
            received,
            est,
            dcfg,
            const,
            det_rng,
            sigma_z2=sigma_z2,
            truth=seq.samples,
            collect_equalized=True,
        )
        init_mse_acc += res.mse_init
        mse_acc += res.mse_trace
        for i, rec in enumerate(res.records):
            psi, eta = analysis.decompose_equalized(
                rec.equalized, rec.normalizer, seq.samples
            )
            sig_pow[i] += np.abs(psi) ** 2
            rip_pow[i] += np.abs(eta) ** 2

    mse = mse_acc / cfg.sinr_frames
    init_mse = init_mse_acc / cfg.sinr_frames
    mom = None if kind == "soft_sicmmse" else analysis.channel_moments(ch)
    rows = []
    for i in range(cfg.n_ite):
        sim = analysis.sinr_from_powers(sig_pow[i], rip_pow[i], cfg.sinr_frames)
        sim_db = 10.0 * np.log10(sim)
        cur = mse[i]
        prev = mse[i - 1] if i > 0 else init_mse
        errs = analysis.ErrorState(
            min(cur, const.power),
            min(prev, const.power),
            sigma_dg2,
            const.power,
            sigma_z2,
        )
        if kind == "soft_sicmmse":
            theory = analysis.sinr_soft_profile(ch, errs)
        else:
            theory = analysis.sinr_mrc_profile(ch, errs, mom)
        theory_db = 10.0 * np.log10(float(np.mean(theory)))
        rows.append((i + 1, sim_db, theory_db))
    return rows


# ---------------------------------------------------------------------------
# state-evolution sweep

_EVOLVE_KIND = {
    "mrc": "mrc_hard",
    "mrc_sd": "mrc_hard",
    "hard_sicmmse": "mrc_hard",
    "ssmi_mrc": "mrc_hard",
    "soft_sicmmse": "soft",
}


def evolve_point(cfg: SimConfig, kind: str, snr_db: float, point_idx: int = 0):
    """State-evolution trace averaged over evolve_chans channel draws."""
    params = cfg.params
    const, sigma_z2 = cfg.link(snr_db)
    sigma_dg2 = cfg.sigma_dg2
    traces = []
    for c in range(cfg.evolve_chans):
        rng = _frame_rng(cfg, point_idx, c, _ROLE_CHANNEL)
        ch = sample_channel(cfg.profile, params, rng)
        traces.append(
            analysis.state_evolution(ch, sigma_dg2, const, kind, sigma_z2)
        )
    n_iter = traces[0].ber.shape[0]
    rows = []
    for i in range(n_iter):
        sinr_mean = float(np.mean([t.sinr_mean[i] for t in traces]))
        ser = float(np.mean([t.ser[i] for t in traces]))
        mse = float(np.mean([t.mse[i] for t in traces]))
        ber = float(np.mean([t.ber[i] for t in traces]))
        rows.append((i + 1, 10.0 * np.log10(sinr_mean), ser, mse, ber))
    return rows


# ---------------------------------------------------------------------------
# estimation-error statistics

# est_stats_point averages the time-domain gain error over every
# _GAIN_ERROR_STRIDE-th sample of the frame
_GAIN_ERROR_STRIDE = 64


def est_stats_point(cfg: SimConfig, snr_db: float, point_idx: int = 0):
    """Empirical vs predicted estimation-error variances (DD and time domain)."""
    params = cfg.params
    _, sigma_z2 = cfg.link(snr_db)
    pcfg = _pilot_config(cfg, sigma_z2)
    # a pilot-only frame: the same transmitted sequence in every trial
    data = np.zeros(pcfg.data_cell_count(params), dtype=np.complex128)
    sent = dd_to_time(embed_pilot(data, pcfg, params))
    sigma_z = float(np.sqrt(sigma_z2))
    dh_acc = 0.0
    dg_acc = 0.0
    n_cells = 0
    n_gcells = 0
    for t in range(cfg.est_trials):
        rng = _frame_rng(cfg, point_idx, t, _ROLE_FRAME)
        ch = sample_channel(cfg.profile, params, rng)
        received = apply_channel(ch, sent, sigma_z, rng)
        est = estimate_channel(time_to_dd(received), pcfg)
        dh = est.taps - channel_taps(ch)
        dh_acc += float(np.sum(np.abs(dh) ** 2))
        n_cells += dh.size
        dg = est.gains - ch.gain_table()
        dg_sub = dg[:, ::_GAIN_ERROR_STRIDE]
        dg_acc += float(np.sum(np.abs(dg_sub) ** 2))
        n_gcells += dg_sub.size
    var_dh_theory = sigma_z2 / pcfg.dd_power
    var_dg_theory = sigma_z2 * params.n_doppler / pcfg.dd_power
    return (
        cfg.est_trials,
        dh_acc / n_cells,
        var_dh_theory,
        dg_acc / n_gcells,
        var_dg_theory,
    )


# ---------------------------------------------------------------------------
# sweep driver


def _check_sweep(cfg: SimConfig, mode: str, kinds) -> None:
    """Raise ValueError if sweep mode cannot run every detector in kinds.

    run_sweep calls this for the whole detector list before it writes the
    CSV header, so a bad sweep fails before its first row; sinr_point calls
    it for its one detector.
    """
    if mode == "sinr" and cfg.pilot_mode == "estimated":
        raise ValueError("sinr mode uses perfect_csi or synthetic pilot modes")
    if mode == "est-stats" and cfg.snr_pilot_db is None:
        raise ValueError("est-stats mode needs snr_pilot_db")
    exact_csi = cfg.sigma_dg2 == 0.0
    for kind in kinds:
        if mode == "sinr" and kind not in _SINR_KINDS:
            raise ValueError(f"sinr mode supports {_SINR_KINDS}, not {kind!r}")
        if mode == "sinr" and kind == "soft_sicmmse" and not exact_csi:
            raise ValueError("soft-cancellation SINR analysis requires perfect CSI")
        if mode == "evolve" and _EVOLVE_KIND[kind] == "soft" and not exact_csi:
            raise ValueError("soft-cancellation evolution requires perfect CSI")


def _ber_rows(cfg: SimConfig):
    executor = None
    if cfg.workers > 1:
        executor = ProcessPoolExecutor(max_workers=cfg.workers)
    try:
        for pi, snr in enumerate(cfg.snr_db):
            for kind in cfg.detectors:
                yield run_ber_point(cfg, kind, snr, pi, executor).csv_row()
    finally:
        if executor is not None:
            executor.shutdown()


def _sinr_rows(cfg: SimConfig):
    for pi, snr in enumerate(cfg.snr_db):
        for kind in cfg.detectors:
            for it, sim_db, th_db in sinr_point(cfg, kind, snr, pi):
                yield f"{snr:g},{kind},{it},{sim_db:.10g},{th_db:.10g}"


def _evolve_rows(cfg: SimConfig):
    for pi, snr in enumerate(cfg.snr_db):
        for kind in dict.fromkeys(_EVOLVE_KIND[det] for det in cfg.detectors):
            for it, sinr_db, ser, mse, ber in evolve_point(cfg, kind, snr, pi):
                yield f"{snr:g},{kind},{it},{sinr_db:.10g},{ser:.10g},{mse:.10g},{ber:.10g}"


def _est_rows(cfg: SimConfig):
    for pi, snr in enumerate(cfg.snr_db):
        trials, dh_e, dh_t, dg_e, dg_t = est_stats_point(cfg, snr, pi)
        yield (
            f"{snr:g},{cfg.snr_pilot_db:g},{trials},{dh_e:.10g},{dh_t:.10g},"
            f"{dg_e:.10g},{dg_t:.10g}"
        )


# sweep mode -> (CLI help, CSV header, row generator over a configuration)
SWEEP_MODES = {
    "ber": ("Monte-Carlo bit error rate sweep", BER_HEADER, _ber_rows),
    "sinr": ("simulated vs theoretical per-iteration SINR", SINR_HEADER, _sinr_rows),
    "evolve": ("state-evolution BER prediction traces", EVOLVE_HEADER, _evolve_rows),
    "est-stats": ("channel estimation error statistics", EST_HEADER, _est_rows),
}


def run_sweep(cfg: SimConfig, mode: str = "ber", out=None) -> str:
    """Iterate the SNR grid (x detector list) and emit CSV text.

    out, when given, is a writable text stream; rows are flushed as they are
    produced so long runs can be monitored.
    """
    if mode not in SWEEP_MODES:
        raise ValueError(f"unknown sweep mode {mode!r}")
    _check_sweep(cfg, mode, cfg.detectors)
    _, header, make_rows = SWEEP_MODES[mode]
    lines = []
    # closing shuts a BER sweep's worker pool down even if writing a row fails
    with contextlib.closing(make_rows(cfg)) as rows:
        for line in itertools.chain([header], rows):
            lines.append(line)
            if out is not None:
                out.write(line + "\n")
                out.flush()
    return "\n".join(lines) + "\n"

"""Sweep orchestration: determinism, accounting, config parsing, CLI."""

import dataclasses
import io
import re
from pathlib import Path

import numpy as np
import pytest

from oddmsim import harness as h
from oddmsim.cli import main as cli_main


def _tiny_cfg(**kw):
    base = dict(
        snr_db=(10.0,),
        detectors=("mrc",),
        min_frame_errors=4,
        max_frames=24,
        n_ite=4,
        chunk=8,
    )
    base.update(kw)
    return h.desk_preset(**base)


class TestPresets:
    def test_paper_preset_matches_published_parameters(self):
        cfg = h.paper_preset()
        assert cfg.params.n_delay == 512
        assert cfg.params.n_doppler == 32
        assert cfg.qam == 4
        assert cfg.profile.delays == (0, 0, 1, 2, 3, 5, 8, 13, 19)
        assert cfg.profile.k_max == 5
        assert cfg.params.max_delay == 19
        assert cfg.min_frame_errors == 500

    def test_desk_preset_truncates_taps(self):
        cfg = h.desk_preset()
        assert cfg.params.n_delay == 64
        assert cfg.profile.delays == (0, 0, 1, 2, 3, 5, 8)
        assert cfg.profile.k_max == 3

    def test_derived_geometry_follows_replace(self):
        cfg = h.desk_preset()
        assert cfg.profile.delays == (0, 0, 1, 2, 3, 5, 8)  # fill both caches
        assert cfg.params.n_delay == 64
        assert dataclasses.replace(cfg, max_tap=5).profile.delays == (0, 0, 1, 2, 3, 5)
        assert dataclasses.replace(cfg, max_tap=5).params.max_delay == 5
        assert dataclasses.replace(cfg, n_delay=32).params.n_delay == 32
        assert dataclasses.replace(cfg, k_max=1).profile.k_max == 1


def _readme_config():
    """README's fenced configuration block and its "Extra keys" names."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    intro = "The configuration file is flat `key = value` text"
    block = readme.split(intro, 1)[1].split("```", 2)[1]
    extra_line = readme.split("Extra keys:", 1)[1].split("\n\n", 1)[0]
    extra = set(re.findall(r"`(\w+)`", extra_line.split(". ", 1)[0]))
    return block, extra


class TestConfigParsing:
    def test_round_trip_of_documented_keys(self):
        text = """
        # comment line
        m = 32
        n = 8
        qam = 16
        detector = mrc, soft_sicmmse
        n_ite = 6
        m0 = 3
        delta_d_ratio = 8.0
        snr_db = 10, 12.5, 15
        pilot_mode = synthetic
        snr_pilot_db = 35
        min_frame_errors = 7
        max_frames = 99
        seed = 77
        workers = 3
        kmax = 2
        max_tap = 5
        chunk = 5
        sinr_frames = 6
        evolve_chans = 4
        est_trials = 50
        """
        cfg = h.apply_config_text(h.desk_preset(), text)
        expected = dict(
            n_delay=32,
            n_doppler=8,
            qam=16,
            detectors=("mrc", "soft_sicmmse"),
            n_ite=6,
            m_0=3,
            delta_d_ratio=8.0,
            snr_db=(10.0, 12.5, 15.0),
            pilot_mode="synthetic",
            snr_pilot_db=35.0,
            min_frame_errors=7,
            max_frames=99,
            seed=77,
            workers=3,
            k_max=2,
            max_tap=5,
            chunk=5,
            sinr_frames=6,
            evolve_chans=4,
            est_trials=50,
        )
        assert set(h.parse_config_text(text)) == set(h._KEYS)
        assert {field for field, _ in h._KEYS.values()} == set(expected)
        assert {f: getattr(cfg, f) for f in expected} == expected
        assert cfg.profile.delays == (0, 0, 1, 2, 3, 5)
        assert cfg.profile.k_max == 2
        assert (cfg.params.n_delay, cfg.params.n_doppler, cfg.params.max_delay) == (32, 8, 5)

    @pytest.mark.parametrize("preset", sorted(h.PRESETS))
    def test_readme_config_block_parses(self, preset):
        # ties the documented keys to the parser, so a dead key cannot linger
        block, extra = _readme_config()
        cfg = h.apply_config_text(h.PRESETS[preset](), block)
        assert (cfg.params.n_delay, cfg.params.n_doppler) == (512, 32)
        assert set(h.parse_config_text(block)) | extra == set(h._KEYS)

    def test_max_tap_filters_the_full_profile(self):
        cfg = h.apply_config_text(h.desk_preset(), "max_tap = 19")
        assert cfg.profile.delays == (0, 0, 1, 2, 3, 5, 8, 13, 19)
        assert cfg.params.max_delay == 19

    @pytest.mark.parametrize(
        "text", ["m = 16", "n = 1", "m = 32\nmax_tap = 19"], ids=["m16", "n1", "m32-tap19"]
    )
    def test_bad_geometry_rejected_at_config_time(self, text):
        with pytest.raises(ValueError, match="n_delay|n_doppler"):
            h.apply_config_text(h.desk_preset(), text)

    def test_unknown_detector_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="'mrcc'"):
            h.apply_config_text(h.desk_preset(), "detector = mrc, mrcc\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            h.apply_config_text(h.desk_preset(), "bogus = 1\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            h.apply_config_text(h.desk_preset(), "just words\n")

    @pytest.mark.parametrize(
        "key", ["min_frame_errors", "chunk", "sinr_frames", "evolve_chans", "est_trials"]
    )
    def test_counts_below_one_rejected(self, key):
        # each would hang the stop rule or fail deep inside a sweep
        with pytest.raises(ValueError, match=key):
            h.desk_preset(**{key: 0})

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("max_frames", 0, "max_frames"),
            ("n_ite", 0, "n_ite"),
            ("qam", 3, "order 3"),
            ("m_0", 64, "m0=64"),
            ("m_0", -1, "m_0"),
            ("delta_d_ratio", 2.0, "delta_d_ratio"),
            ("delta_d_ratio", 0.0, "delta_d_ratio"),
            ("n_doppler", 4, "k_max=3 .*n_doppler=4"),
        ],
        ids=[
            "max_frames0", "n_ite0", "qam3", "m0-64", "m0-neg", "ratio2", "ratio0",
            "n4-kmax3",
        ],
    )
    def test_bad_value_rejected_before_any_output(self, key, value, message):
        # each used to pass the config and fail at the first frame, after the
        # CSV header, or to print a BER measured on zero frames
        out = io.StringIO()
        with pytest.raises(ValueError, match=message):
            h.run_sweep(_tiny_cfg(**{key: value}), "ber", out=out)
        assert out.getvalue() == ""

    def test_estimated_mode_needs_pilot_snr(self):
        with pytest.raises(ValueError, match="snr_pilot_db"):
            h.desk_preset(pilot_mode="estimated")


# the detectors whose MRC sweeps skip clean rows, under a stop rule held fixed:
# min_frame_errors above max_frames never stops a point early
FIXED_STOP = dict(
    snr_db=(12.0,),
    detectors=("mrc", "hard_sicmmse", "ssmi_mrc"),
    pilot_mode="estimated",
    snr_pilot_db=40.0,
    max_frames=4,
    min_frame_errors=5,
)


class TestBerSweep:
    def test_deterministic_output(self):
        cfg = _tiny_cfg(detectors=("mrc", "hard_sicmmse"))
        assert h.run_sweep(cfg, "ber") == h.run_sweep(cfg, "ber")

    def test_header_only_for_empty_detectors(self):
        cfg = _tiny_cfg(detectors=())
        assert h.run_sweep(cfg, "ber") == h.BER_HEADER + "\n"

    def test_row_count(self):
        cfg = _tiny_cfg(
            detectors=("mrc", "hard_sicmmse"),
            snr_db=(8.0, 10.0, 12.0),
            min_frame_errors=1,
            max_frames=8,
        )
        lines = h.run_sweep(cfg, "ber").strip().splitlines()
        assert lines[0] == h.BER_HEADER
        assert len(lines) == 1 + 6

    def test_noiseless_perfect_csi_runs_to_cap_with_zero_ber(self):
        # exercises the stop rule: no frame errors, so the run ends at the cap
        # (soft cancellation here; plain MRC has rare noiseless metastable
        # fixed points at this frame size, covered by the acceptance suite)
        cfg = _tiny_cfg(
            snr_db=(float("inf"),), max_frames=8, min_frame_errors=1, n_ite=10
        )
        rec = h.run_ber_point(cfg, "soft_sicmmse", float("inf"), 0)
        assert rec.ber == 0.0
        assert rec.frames == 8
        assert rec.frame_errors == 0

    def test_accounting_bounds(self):
        cfg = _tiny_cfg(snr_db=(6.0,), min_frame_errors=3, max_frames=16)
        rec = h.run_ber_point(cfg, "mrc", 6.0, 0)
        bits_per_frame = cfg.params.frame_len * 2
        assert rec.bit_errors <= rec.frames * bits_per_frame
        assert 0.0 <= rec.ber <= 1.0
        assert rec.frame_errors <= rec.frames
        assert rec.mean_iterations == cfg.n_ite

    def test_estimated_mode_counts_only_data_bits(self):
        cfg = _tiny_cfg(
            pilot_mode="estimated",
            snr_pilot_db=35.0,
            min_frame_errors=1,
            max_frames=8,
        )
        rec = h.run_ber_point(cfg, "mrc", 10.0, 0)
        params = cfg.params
        data_cells = params.frame_len - params.n_doppler * (2 * params.max_delay + 1)
        assert rec.bits_total == rec.frames * data_cells * 2

    def test_detectors_share_frame_realizations(self):
        # common random numbers: the stop rule sees the same channels/noise
        cfg = _tiny_cfg(min_frame_errors=1, max_frames=8)
        rec_a = h.run_ber_point(cfg, "mrc", 30.0, 0)
        rec_b = h.run_ber_point(cfg, "soft_sicmmse", 30.0, 0)
        assert rec_a.frames == rec_b.frames

    @pytest.mark.slow
    def test_worker_pool_matches_serial(self):
        cfg = _tiny_cfg(min_frame_errors=2, max_frames=16)
        serial = h.run_sweep(cfg, "ber")
        assert h.run_sweep(dataclasses.replace(cfg, workers=2), "ber") == serial
        # under a fixed stop rule no detector state (such as the dirty-row
        # schedule) leaks across frames, chunks or workers
        fixed = h.desk_preset(**FIXED_STOP)
        reference = h.run_sweep(dataclasses.replace(fixed, workers=1, chunk=1), "ber")
        for workers, chunk in [(1, 3), (1, 16), (2, 1), (2, 3), (2, 16)]:
            run = dataclasses.replace(fixed, workers=workers, chunk=chunk)
            assert h.run_sweep(run, "ber") == reference, (workers, chunk)


SYNTHETIC = dict(pilot_mode="synthetic", snr_pilot_db=30.0)


class TestOtherModes:
    def test_sinr_rows_and_determinism(self):
        cfg = _tiny_cfg(detectors=("mrc",), snr_db=(14.0,), sinr_frames=4, n_ite=3)
        out = h.run_sweep(cfg, "sinr")
        lines = out.strip().splitlines()
        assert lines[0] == h.SINR_HEADER
        assert len(lines) == 1 + 3
        assert out == h.run_sweep(cfg, "sinr")

    def test_sinr_rejects_estimated_mode(self):
        cfg = _tiny_cfg(pilot_mode="estimated", snr_pilot_db=30.0, sinr_frames=2)
        with pytest.raises(ValueError):
            h.sinr_point(cfg, "mrc", 10.0)

    def test_sinr_rejects_unsupported_detector(self):
        cfg = _tiny_cfg(sinr_frames=2)
        with pytest.raises(ValueError):
            h.sinr_point(cfg, "mrc_sd", 10.0)

    @pytest.mark.parametrize(
        "mode, overrides",
        [
            ("sinr", dict(detectors=("mrc", "mrc_sd"))),
            ("sinr", dict(detectors=("mrc", "soft_sicmmse"), **SYNTHETIC)),
            ("evolve", dict(detectors=("mrc", "soft_sicmmse"), **SYNTHETIC)),
            ("est-stats", dict()),  # the desk preset has no snr_pilot_db
        ],
        ids=["sinr-mrc_sd", "sinr-soft-synthetic", "evolve-soft-synthetic", "est-stats"],
    )
    def test_bad_sweep_fails_before_first_row(self, mode, overrides):
        cfg = _tiny_cfg(sinr_frames=2, n_ite=2, evolve_chans=1, est_trials=2, **overrides)
        out = io.StringIO()
        with pytest.raises(ValueError):
            h.run_sweep(cfg, mode, out=out)
        assert out.getvalue() == ""

    def test_evolve_rows_dedupe_kinds(self):
        cfg = _tiny_cfg(
            detectors=("mrc", "hard_sicmmse", "soft_sicmmse"),
            snr_db=(12.0,),
            evolve_chans=2,
        )
        out = h.run_sweep(cfg, "evolve")
        lines = out.strip().splitlines()
        assert lines[0] == h.EVOLVE_HEADER
        kinds = {ln.split(",")[1] for ln in lines[1:]}
        assert kinds == {"mrc_hard", "soft"}
        assert len(lines) == 1 + 2 * 20

    def test_est_stats_matches_theory(self):
        cfg = _tiny_cfg(snr_db=(10.0,), snr_pilot_db=30.0, est_trials=400)
        out = h.run_sweep(cfg, "est-stats")
        lines = out.strip().splitlines()
        assert lines[0] == h.EST_HEADER
        (_, _, _, dh_e, dh_t, dg_e, dg_t) = map(float, lines[1].split(","))
        assert abs(dh_e - dh_t) < 0.1 * dh_t
        assert abs(dg_e - dg_t) < 0.1 * dg_t

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            h.run_sweep(_tiny_cfg(), "plot")


class TestCli:
    def test_ber_to_file(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "snr_db = 10\ndetector = mrc\nmin_frame_errors = 1\nmax_frames = 8\nn_ite = 2\n"
        )
        outfile = tmp_path / "out.csv"
        rc = cli_main(
            ["ber", "--config", str(cfgfile), "--out", str(outfile), "--seed", "3"]
        )
        assert rc == 0
        lines = outfile.read_text().strip().splitlines()
        assert lines[0] == h.BER_HEADER
        assert len(lines) == 2

    def test_empty_grid_fails(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("detector = mrc\n")
        rc = cli_main(["ber", "--config", str(cfgfile)])
        assert rc == 2

    def test_stdout_output(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "snr_db = 8\ndetector = mrc\nmin_frame_errors = 1\nmax_frames = 8\nn_ite = 2\n"
        )
        rc = cli_main(["ber", "--config", str(cfgfile)])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out.startswith(h.BER_HEADER)

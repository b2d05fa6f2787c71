"""Grid transforms and constellation construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddmsim import (
    DDGrid,
    ModemParams,
    TimeSequence,
    dd_to_time,
    make_constellation,
    time_to_dd,
)


def _params(m=8, n=4):
    return ModemParams(n_delay=m, n_doppler=n, max_delay=2)


class TestTransforms:
    def test_zero_grid_maps_to_zero_sequence(self):
        p = _params()
        out = dd_to_time(DDGrid(np.zeros((8, 4)), p))
        assert np.all(out.samples == 0)

    def test_unit_sample_spreads_over_doppler_slots(self):
        # a zero-Doppler unit sample occupies every slot of its delay row
        p = _params()
        x = np.zeros((8, 4), dtype=complex)
        x[0, 0] = 1.0
        s = dd_to_time(DDGrid(x, p)).samples
        expected = np.zeros(32, dtype=complex)
        expected[0::8] = 1.0 / 2.0  # 1/sqrt(N) with N = 4
        np.testing.assert_allclose(s, expected, atol=1e-15)

    def test_matches_explicit_idft_matrix(self):
        # row-by-row multiplication by the 4-point inverse DFT matrix
        p = ModemParams(n_delay=4, n_doppler=4, max_delay=1)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        k = np.arange(4)
        idft = np.exp(2j * np.pi * np.outer(k, k) / 4) / 2.0
        expected_dt = x @ idft.T
        s = dd_to_time(DDGrid(x, p)).samples
        for m in range(4):
            for nd in range(4):
                assert abs(s[nd * 4 + m] - expected_dt[m, nd]) < 1e-12

    def test_receive_delta_gives_flat_doppler_row(self):
        p = _params()
        r = np.zeros(32, dtype=complex)
        r[3] = 1.0  # q = 3 -> delay row 3, slot 0
        y = time_to_dd(TimeSequence(r, p)).entries
        np.testing.assert_allclose(y[3], np.full(4, 0.5), atol=1e-15)
        y[3] = 0
        assert np.all(y == 0)

    def test_zero_sequence_maps_to_zero_grid(self):
        p = _params()
        assert np.all(time_to_dd(TimeSequence(np.zeros(32), p)).entries == 0)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_round_trip_and_unitarity(self, seed):
        p = _params()
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        grid = DDGrid(x, p)
        seq = dd_to_time(grid)
        assert abs(np.linalg.norm(seq.samples) - np.linalg.norm(x)) <= 1e-12 * np.linalg.norm(x)
        back = time_to_dd(seq)
        assert np.abs(back.entries - x).max() <= 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(m=st.integers(1, 40), n=st.integers(2, 40), seed=st.integers(0, 2**16))
    def test_round_trip_and_unitarity_on_any_grid_shape(self, m, n, seed):
        p = ModemParams(n_delay=m, n_doppler=n)
        rng = np.random.default_rng(seed)
        x, z = rng.standard_normal((2, m, n)) + 1j * rng.standard_normal((2, m, n))
        sx, sz = dd_to_time(DDGrid(x, p)).samples, dd_to_time(DDGrid(z, p)).samples
        assert sx.shape == (m * n,)
        # inner products (so norms) are preserved, and time_to_dd inverts dd_to_time
        assert abs(np.vdot(sz, sx) - np.vdot(z, x)) <= 1e-12 * m * n
        assert np.abs(time_to_dd(TimeSequence(sx, p)).entries - x).max() <= 1e-12

    def test_output_depends_only_on_own_delay_row(self):
        p = _params()
        rng = np.random.default_rng(4)
        x = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        s1 = dd_to_time(DDGrid(x, p)).samples
        x2 = x.copy()
        x2[5] = rng.standard_normal(4)  # perturb a different row
        s2 = dd_to_time(DDGrid(x2, p)).samples
        m = 2
        np.testing.assert_array_equal(s1[m::8], s2[m::8])

    def test_dimension_mismatch_rejected(self):
        p = _params()
        with pytest.raises(ValueError):
            DDGrid(np.zeros((4, 8)), p)
        with pytest.raises(ValueError):
            TimeSequence(np.zeros(31), p)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ModemParams(n_delay=8, n_doppler=4, max_delay=4)  # M must exceed 2*l_max
        with pytest.raises(ValueError):
            ModemParams(n_delay=8, n_doppler=1)

    def test_negative_max_delay_rejected(self):
        # max_delay sizes the channel, the guard band and the pilot's data
        # cells alike, so a negative one must fail here, not inside a pilot
        with pytest.raises(ValueError, match="max_delay must be non-negative, got -1"):
            ModemParams(n_delay=8, n_doppler=4, max_delay=-1)


class TestConstellation:
    def test_qpsk_points_and_geometry(self):
        c = make_constellation(4)
        expected = {(1 + 1j), (1 - 1j), (-1 + 1j), (-1 - 1j)}
        got = {complex(np.round(v * np.sqrt(2))) for v in c.points}
        assert got == expected
        assert abs(c.d_min - np.sqrt(2)) < 1e-15
        assert abs(c.power - 1.0) < 1e-15

    def test_16qam_normalization(self):
        c = make_constellation(16)
        assert abs(c.power - 1.0) < 1e-12
        assert abs(c.d_min - 2 / np.sqrt(10)) < 1e-12

    def test_64qam_normalization(self):
        c = make_constellation(64)
        assert abs(c.power - 1.0) < 1e-12

    def test_dmin_matches_brute_force(self):
        for order in (4, 16, 64):
            c = make_constellation(order)
            best = min(
                abs(a - b)
                for i, a in enumerate(c.points)
                for j, b in enumerate(c.points)
                if i != j
            )
            assert abs(c.d_min - best) < 1e-14

    def test_unsupported_order_rejected(self):
        with pytest.raises(ValueError):
            make_constellation(8)

    def test_gray_labels_differ_by_one_bit_between_neighbors(self):
        for order in (4, 16, 64):
            c = make_constellation(order)
            side = int(np.sqrt(order))
            labels = c.labels.reshape(side, side)
            for r in range(side):
                for col in range(side - 1):
                    assert bin(labels[r, col] ^ labels[r, col + 1]).count("1") == 1
            for r in range(side - 1):
                for col in range(side):
                    assert bin(labels[r, col] ^ labels[r + 1, col]).count("1") == 1

    def test_bit_mapping_round_trip(self):
        rng = np.random.default_rng(9)
        for order in (4, 16, 64):
            c = make_constellation(order)
            bits = rng.integers(0, 2, 30 * c.bits_per_symbol)
            syms = c.map_bits(bits)
            patterns = bits.reshape(-1, c.bits_per_symbol) @ (
                1 << np.arange(c.bits_per_symbol - 1, -1, -1)
            )
            np.testing.assert_array_equal(c.labels[c.nearest_index(syms)], patterns)

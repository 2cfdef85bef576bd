import struct
import threading

import numpy as np
import pytest

from sqglab.errors import ConfigurationError
from sqglab.fields import (SpectralField, dealias, field_to_csv, full_coefficients, load_field,
                           save_field)
from sqglab.grid import Grid2D, operator_table
from sqglab.norms import sobolev_norm

from conftest import random_real_field


class TestGrid2D:
    def test_basic_properties(self):
        g = Grid2D(64, 2 * np.pi)
        assert g.spacing == pytest.approx(2 * np.pi / 64)
        assert g.k_fundamental == pytest.approx(1.0)
        assert g.k_nyquist == pytest.approx(32.0)
        assert g.dealias_index_cutoff == 21

    @pytest.mark.parametrize("bad", [7, 12, 48, 4])
    def test_rejects_non_power_of_two(self, bad):
        with pytest.raises(ConfigurationError):
            Grid2D(bad)

    @pytest.mark.parametrize("bad", [64.9, 64.0, np.float64(64.0), True, "64"])
    def test_rejects_non_integer(self, bad):
        # a float is refused, not truncated: the package's error, not a TypeError
        with pytest.raises(ConfigurationError, match="n_side must be an integer"):
            Grid2D(bad)

    def test_accepts_numpy_integer(self):
        assert Grid2D(np.int64(64)) == Grid2D(64)

    def test_wavenumber_lattice(self):
        g = Grid2D(16, 4.0)
        ops = operator_table(g)
        k1, k2 = ops.k1, ops.k2
        assert k1[1, 0] == pytest.approx(2 * np.pi / 4.0)
        assert k1[8, 0] == pytest.approx(-8 * 2 * np.pi / 4.0)  # Nyquist index n/2
        assert k2.shape == (1, 9)  # the rfft2 layout: columns 0..n/2
        assert k2[0, 8] == pytest.approx(-8 * 2 * np.pi / 4.0)

    def test_centered_coords_wrap(self):
        g = Grid2D(8, 8.0)
        x1, _ = g.coords_centered()
        assert x1.min() == pytest.approx(-4.0)
        assert x1.max() == pytest.approx(3.0)


class TestTransform:
    def test_constant_field(self, grid64):
        c = 3.7
        f = SpectralField.from_values(grid64, np.full((64, 64), c))
        coeffs = f.coefficients
        assert coeffs[0, 0] == pytest.approx(c * grid64.box_length)
        others = np.abs(coeffs).ravel()[1:]
        assert others.max() == 0.0

    def test_plane_wave_two_modes(self, grid64):
        X, _ = grid64.coords()
        f = SpectralField.from_values(grid64, np.cos(X))
        nz = np.argwhere(np.abs(f.coefficients) > 1e-10)
        assert {tuple(i) for i in nz} == {(1, 0), (63, 0)}
        assert f.coefficients[1, 0] == pytest.approx(grid64.box_length / 2, rel=1e-13)

    def test_round_trip(self, grid64):
        f = random_real_field(grid64, seed=1)
        back = SpectralField.from_values(
            grid64, SpectralField.from_coefficients(grid64, f.coefficients).values)
        err = np.abs(back.values - f.values).max() / np.abs(f.values).max()
        assert err <= 1e-12

    def test_parseval(self, grid128):
        # the L^2 norm from samples against the spectral one (the H^0 norm)
        f = random_real_field(grid128, seed=2)
        phys, spec = f.l2() ** 2, sobolev_norm(f, 0.0).value ** 2
        assert abs(phys - spec) / phys <= 1e-10

    def test_linearity(self, grid64):
        f = random_real_field(grid64, seed=3)
        g = random_real_field(grid64, seed=4)
        lhs = SpectralField.from_values(grid64, 2.5 * f.values - 1.25 * g.values).coefficients
        rhs = 2.5 * f.coefficients - 1.25 * g.coefficients
        scale = np.abs(f.coefficients).max()
        assert np.abs(lhs - rhs).max() / scale <= 1e-12

    def test_conjugate_symmetry(self, grid64):
        c = full_coefficients(random_real_field(grid64, seed=5))
        flipped = np.conj(np.roll(c[::-1, ::-1], 1, axis=(0, 1)))
        assert np.abs(c - flipped).max() <= 1e-10 * np.abs(c).max()

    def test_shape_mismatch_rejected(self, grid64):
        with pytest.raises(ConfigurationError):
            SpectralField.from_values(grid64, np.zeros((32, 32)))


class TestInverseTransformBuffer:
    """``OperatorTable.values`` copies its input into a buffer kept per lead
    shape and per thread, and transforms it there."""

    def test_threads_get_the_serial_bits(self, grid128):
        # two threads share the table, one lead shape and the widths that leave
        # stale columns behind: a buffer shared between them would mix fields
        ops = operator_table(grid128)
        n = grid128.n_side
        rng = np.random.default_rng(7)

        def coefficients(m):
            return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))

        work = [[(coefficients(n // 2 + 1), ops.dealias), (coefficients(9), None)],
                [(coefficients(n // 2 + 1), None), (coefficients(30), None)]]
        serial = [[ops.values(c, mask=mask).tobytes() for c, mask in calls] for calls in work]
        start = threading.Barrier(2)
        matches = [[], []]

        def run(i):
            start.wait()
            for _ in range(50):
                for (c, mask), expected in zip(work[i], serial[i]):
                    matches[i].append(ops.values(c, mask=mask).tobytes() == expected)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert matches == [[True] * 100, [True] * 100]

    @pytest.mark.parametrize("shape, masked", [((2, 256, 129), True), ((256, 9), False)])
    def test_makes_no_array_but_the_samples(self, grid256, shape, masked, traced_peak):
        ops = operator_table(grid256)
        rng = np.random.default_rng(11)
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        mask = ops.dealias if masked else None
        ops.values(c, mask=mask)  # this thread's buffer for the lead shape is made here
        out, peak, _ = traced_peak(lambda: ops.values(c, mask=mask))
        assert peak <= 1.1 * out.nbytes


class TestOwnership:
    def test_from_values_leaves_caller_array_writeable(self, grid64):
        a = np.zeros((64, 64))
        f = SpectralField.from_values(grid64, a)
        a[0, 0] = 1.0
        assert f.values[0, 0] == 0.0
        assert not f.values.flags.writeable

    def test_from_coefficients_leaves_caller_array_writeable(self, grid64):
        c = np.zeros((2, 64, 33), dtype=np.complex128)
        f = SpectralField.from_coefficients(grid64, c)
        c[0, 0, 0] = 1.0
        assert f.coefficients[0, 0, 0] == 0.0
        assert np.all(f.values == 0.0)

    def test_read_only_input_is_shared(self, grid64):
        f = random_real_field(grid64, seed=3)
        assert SpectralField.from_values(grid64, f.values).values is f.values


class TestComponent:
    def test_slices_cached_coefficients(self, grid64, count_planes):
        # a coefficients-only vector field: selecting a component transforms nothing
        f = SpectralField.from_coefficients(
            grid64, random_real_field(grid64, seed=5, components=2).coefficients)
        planes = count_planes()
        comp = f.component(1)
        assert sum(planes) == 0
        assert np.array_equal(comp.values, f.values[1])


class TestDealias:
    def test_band_limited_unchanged(self, grid64):
        X, _ = grid64.coords()
        f = SpectralField.from_values(grid64, np.cos(5 * X))
        assert (dealias(f) - f).linf() <= 1e-14

    def test_nyquist_mode_zeroed(self, grid64):
        n = grid64.n_side
        X, _ = grid64.coords()
        f = SpectralField.from_values(grid64, np.cos((n // 2) * X))
        assert dealias(f).linf() <= 1e-14

    def test_idempotent(self, grid64):
        f = random_real_field(grid64, seed=6)
        once = dealias(f)
        assert (dealias(once) - once).linf() <= 1e-14

    def test_orthogonal_projection(self, grid64):
        # <Pf, g> = <f, Pg> in the spectral inner product
        f = random_real_field(grid64, seed=7)
        g = random_real_field(grid64, seed=8)
        lhs = np.vdot(dealias(f).coefficients, g.coefficients)
        rhs = np.vdot(f.coefficients, dealias(g).coefficients)
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs + 1e-300)


class TestSerialization:
    def test_binary_round_trip(self, tmp_path, grid64):
        f = random_real_field(grid64, seed=9)
        path = tmp_path / "f.fld"
        save_field(f, path)
        g = load_field(path)
        assert g.grid.n_side == 64
        assert g.grid.box_length == pytest.approx(grid64.box_length)
        np.testing.assert_array_equal(g.values, f.values)

    def test_vector_round_trip(self, tmp_path, grid64):
        f = random_real_field(grid64, seed=10, components=2)
        path = tmp_path / "v.fld"
        save_field(f, path)
        g = load_field(path)
        assert g.components == 2
        np.testing.assert_array_equal(g.values, f.values)

    def test_header_layout(self, tmp_path, grid64):
        f = random_real_field(grid64, seed=11)
        path = tmp_path / "h.fld"
        save_field(f, path)
        raw = path.read_bytes()
        assert raw[:4] == b"SQGF"
        n = int.from_bytes(raw[4:12], "little")
        assert n == 64

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.fld"
        p.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ConfigurationError):
            load_field(p)

    @pytest.mark.parametrize("cut", [4 + 10, 28 + 8 * 64 * 64 - 1])
    def test_truncated_file_rejected(self, tmp_path, grid64, cut):
        path = tmp_path / "t.fld"
        save_field(random_real_field(grid64, seed=13), path)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(ConfigurationError):
            load_field(path)

    @pytest.mark.parametrize("n, L, comps", [(2**40, 1.0, 1), (12, 1.0, 1), (64, np.nan, 1),
                                             (64, 1.0, 3)])
    def test_absurd_header_rejected(self, tmp_path, n, L, comps):
        path = tmp_path / "a.fld"
        path.write_bytes(b"SQGF" + struct.pack("<QdQ", n, L, comps) + b"\x00" * 64)
        with pytest.raises(ConfigurationError):
            load_field(path)

    def test_csv_export(self, tmp_path, grid64):
        f = random_real_field(grid64, seed=12)
        path = tmp_path / "f.csv"
        field_to_csv(f, path)
        text = path.read_text()
        assert text.startswith("# component 0")
        assert len(text.splitlines()) == 65

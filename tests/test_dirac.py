"""Continuum reference solver: spectral grid, Dirac right-hand side, RK2
time stepping, plane-wave spinors, Gaussian packets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugewalk import cli
from gaugewalk import dirac as dr
from gaugewalk import experiments as ex
from gaugewalk import lattice as lat
from gaugewalk import unitary as un


def free_params(dim=2, mass=0.1):
    count = dim * dim
    zero = lambda t, x: np.zeros(count)
    return dr.DiracParams(mass, zero, zero, un.generators_u(dim))


def grid64():
    return dr.SpectralGrid(64, -3.2, 0.1)


def plane_wave_hamiltonian(k, m):
    """H(k) = [[-k, m], [m, k]] on the (psi^-, psi^+) amplitudes of e^{ikx}."""
    return np.array([[-k, m], [m, k]], dtype=complex)


class TestSpectralGrid:
    def test_from_lattice_shares_sites(self):
        spec = lat.LatticeSpec(0.25, 6, 4)
        grid = dr.SpectralGrid.from_lattice(spec)
        assert grid.n_points == spec.n_sites
        assert np.allclose(grid.positions(), spec.positions())

    def test_validation(self):
        with pytest.raises(ValueError):
            dr.SpectralGrid(4, 0.0, 0.1)
        with pytest.raises(ValueError):
            dr.SpectralGrid(16, 0.0, -0.1)

    @pytest.mark.parametrize("dx", [np.nan, np.inf])
    def test_non_finite_dx_refused(self, dx):
        with pytest.raises(ValueError, match="dx must be positive and finite"):
            dr.SpectralGrid(16, 0.0, dx)

    @pytest.mark.parametrize("x_min", [np.nan, np.inf, -np.inf])
    def test_non_finite_x_min_refused(self, x_min):
        with pytest.raises(ValueError, match="x_min must be finite"):
            dr.SpectralGrid(16, x_min, 0.1)

    def test_nyquist_derivative_zeroed(self):
        grid = grid64()
        sym = grid.spinor_symbols(1)[0][:, 0]
        assert sym[32] == 0.0
        assert sym[1] == pytest.approx(1j * 2 * np.pi / grid.length)

    def test_synthesize_single_mode(self):
        grid = grid64()
        k = grid.wavenumbers()[3]
        coeffs = np.zeros(grid.n_points, dtype=complex)
        coeffs[3] = 1.0
        assert np.max(np.abs(grid.synthesize(coeffs) - np.exp(1j * k * grid.positions()))) <= 1e-12


class TestSpectralDerivative:
    def test_constant(self):
        grid = grid64()
        f = dr.SpinorField(grid, 1, np.ones((64, 2), dtype=complex))
        assert np.max(np.abs(dr.spectral_derivative(f).values)) <= 1e-12

    def test_sine(self):
        grid = grid64()
        k = 4 * 2 * np.pi / grid.length
        x = grid.positions()
        vals = np.stack([np.sin(k * x), np.cos(k * x)], axis=1).astype(complex)
        d = dr.spectral_derivative(dr.SpinorField(grid, 1, vals))
        want = np.stack([k * np.cos(k * x), -k * np.sin(k * x)], axis=1)
        assert np.max(np.abs(d.values - want)) <= 1e-10


class TestDiracRhs:
    def test_free_plane_wave_matches_hamiltonian(self):
        # for psi = e^{ikx} v: d/dt psi = -i H(k) psi
        grid = grid64()
        k = grid.wavenumbers()[5]
        m = 0.3
        v = np.array([0.7, -0.2j])
        vals = np.exp(1j * k * grid.positions())[:, None] * v
        f = dr.SpinorField(grid, 1, vals)
        rhs = dr.dirac_rhs(f, free_params(dim=1, mass=m), 0.0)
        want = vals @ (-1j * plane_wave_hamiltonian(k, m)).T
        assert np.max(np.abs(rhs.values - want)) <= 1e-11

    def test_potential_coupling(self):
        # uniform B0, B1: rhs gains +i(B0 -+ B1) on the -/+ blocks
        grid = grid64()
        gens = un.generators_u(2)
        c0 = np.array([0.1, 0.4, -0.2, 0.3])
        c1 = np.array([-0.5, 0.2, 0.0, 0.1])
        params = dr.DiracParams(0.0, lambda t, x: c0, lambda t, x: c1, gens)
        rng = np.random.default_rng(3)
        vals = rng.standard_normal((64, 4)) + 1j * rng.standard_normal((64, 4))
        f = dr.SpinorField(grid, 2, vals)
        rhs = dr.dirac_rhs(f, params, 0.0)
        d = dr.spectral_derivative(f)
        b0, b1 = gens.assemble(c0), gens.assemble(c1)
        want_minus = d.values[:, :2] + 1j * f.values[:, :2] @ (b0 - b1).T
        want_plus = -d.values[:, 2:] + 1j * f.values[:, 2:] @ (b0 + b1).T
        assert np.max(np.abs(rhs.values[:, :2] - want_minus)) <= 1e-12
        assert np.max(np.abs(rhs.values[:, 2:] - want_plus)) <= 1e-12

    def test_dimension_check(self):
        grid = grid64()
        f = dr.SpinorField(grid, 1, np.ones((64, 2), dtype=complex))
        with pytest.raises(un.DimensionError):
            dr.dirac_rhs(f, free_params(dim=2), 0.0)


class TestPotentialSamples:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 4), st.sampled_from(["count+1", "n+1", "scalar", "transposed", "3d"]),
           st.booleans())
    def test_wrong_shape_refused(self, dim, kind, in_b1):
        grid = grid64()
        n, count = grid.n_points, dim * dim
        shape = {"count+1": (count + 1,), "n+1": (n + 1, count), "scalar": (),
                 "transposed": (count, n), "3d": (n, count, 1)}[kind]
        if shape == (count, n) and count == n:
            shape = (count, n + 1)
        bad = lambda t, x: np.zeros(shape)
        ok = lambda t, x: np.zeros(count)
        params = dr.DiracParams(0.1, ok, bad, un.generators_u(dim)) if in_b1 else \
            dr.DiracParams(0.1, bad, ok, un.generators_u(dim))
        x = grid.positions()
        with pytest.raises(un.DimensionError):
            params.potential_matrices(0.5, x)
        with pytest.raises(un.DimensionError):
            dr.solve(random_field(grid, dim, seed=dim), params, 0.1, 0.05)

    def test_non_finite_sample_names_t_and_x(self):
        grid = grid64()
        x = grid.positions()
        per_point = np.zeros((grid.n_points, 1))
        per_point[5] = np.nan
        params = dr.DiracParams(0.1, lambda t, xx: np.zeros(1), lambda t, xx: per_point,
                                un.generators_u(1))
        with pytest.raises(ValueError, match=rf"non-finite potential sample at t=0\.5, x={x[5]}$"):
            params.potential_matrices(0.5, x)
        params = dr.DiracParams(0.1, lambda t, xx: np.array([np.inf if t else 0.0]),
                                lambda t, xx: np.zeros(1), un.generators_u(1))
        with pytest.raises(ValueError, match=r"at t=0\.5$"):
            params.potential_matrices(0.5, x)


class TestRk2:
    def test_free_mode_second_order(self):
        # exact: e^{-i H(k) t}; the global error over fixed t drops ~4x per halving
        grid = grid64()
        k = grid.wavenumbers()[2]
        m = 0.5
        params = free_params(dim=1, mass=m)
        v = dr.u_plus(k, m)
        vals0 = np.exp(1j * k * grid.positions())[:, None] * v
        e = np.sqrt(k * k + m * m)
        t_final = 1.0
        exact = vals0 * np.exp(-1j * e * t_final)

        def error(dt):
            f = dr.SpinorField(grid, 1, vals0)
            f = dr.solve(f, params, t_final, dt)
            return np.max(np.abs(f.values - exact))

        ratio = error(0.02) / error(0.01)
        assert 3.2 <= ratio <= 4.8

    def test_dt_validated(self):
        grid = grid64()
        f = dr.SpinorField(grid, 1, np.ones((64, 2), dtype=complex))
        with pytest.raises(ValueError):
            dr.rk2_step(f, free_params(dim=1), 0.0, -0.1)
        for dt in (np.nan, np.inf):
            with pytest.raises(ValueError, match="dt must be positive and finite"):
                dr.rk2_step(f, free_params(dim=1), 0.0, dt)

    @pytest.mark.parametrize("mass", [np.nan, np.inf])
    def test_non_finite_mass_refused(self, mass):
        with pytest.raises(ValueError, match="mass must be >= 0 and finite"):
            free_params(dim=1, mass=mass)


class TestPlaneWaveSpinors:
    def test_u_plus_rest_frame(self):
        assert np.allclose(dr.u_plus(0.0, 1.0), np.array([1, 1]) / np.sqrt(2))

    def test_u_plus_eigenvector(self):
        for k in (-3.0, -0.1, 0.0, 0.7, 12.0):
            m = 0.1
            u = dr.u_plus(k, m)
            e = np.sqrt(k * k + m * m)
            assert np.max(np.abs(plane_wave_hamiltonian(k, m) @ u - e * u)) <= 1e-12
            assert np.linalg.norm(u) == pytest.approx(1.0)

    def test_u_plus_needs_mass(self):
        with pytest.raises(ValueError):
            dr.u_plus(1.0, 0.0)


class TestGaussianPacket:
    def test_unit_norm(self):
        grid = dr.SpectralGrid(256, -12.8, 0.1)
        pk = dr.gaussian_packet(1.0, 0.5, np.array([1.0, 1.0]), grid, 0.1)
        assert np.sum(np.abs(pk.values) ** 2) * grid.dx == pytest.approx(1.0)

    def test_color_direction(self):
        # color (1, 0): the second internal component stays empty
        grid = dr.SpectralGrid(256, -12.8, 0.1)
        pk = dr.gaussian_packet(0.0, 0.5, np.array([2.0, 0.0]), grid, 0.1)
        assert np.max(np.abs(pk.values[:, 1])) == 0.0
        assert np.max(np.abs(pk.values[:, 3])) == 0.0

    def test_group_velocity(self):
        # free evolution moves the packet at k0 / E(k0)
        grid = dr.SpectralGrid(512, -25.6, 0.1)
        k0, m = 1.0, 0.1
        pk = dr.gaussian_packet(k0, 0.5, np.array([1.0]), grid, m)
        t_final = 4.0
        out = dr.solve(pk, free_params(dim=1, mass=m), t_final, 0.002)
        x = grid.positions()
        mean0 = np.sum(x[:, None] * np.abs(pk.values) ** 2) * grid.dx
        mean1 = np.sum(x[:, None] * np.abs(out.values) ** 2) * grid.dx
        vg = k0 / np.sqrt(k0 * k0 + m * m)
        # the packet-averaged velocity differs from vg(k0) by a spread
        # correction of order sigma^2 * vg''
        assert mean1 - mean0 == pytest.approx(vg * t_final, abs=0.06)

    def test_under_resolved_warns(self):
        grid = dr.SpectralGrid(16, -0.8, 0.1)  # length 1.6, sigma*L < 4 pi
        with pytest.warns(UserWarning):
            dr.gaussian_packet(0.0, 1.0, np.array([1.0]), grid, 0.1)

    def test_sigma_validated(self):
        grid = grid64()
        with pytest.raises(ValueError):
            dr.gaussian_packet(0.0, -1.0, np.array([1.0]), grid, 0.1)


class TestSolve:
    def test_zero_time(self):
        grid = grid64()
        f = dr.SpinorField(grid, 1, np.ones((64, 2), dtype=complex))
        out = dr.solve(f, free_params(dim=1), 0.0, 0.01)
        assert np.array_equal(out.values, f.values)

    @pytest.mark.parametrize("t_max, dt, message", [
        (np.nan, 0.01, "t_max must be >= 0 and finite"), (np.inf, 0.01, "t_max must be >= 0 and finite"),
        (1.0, np.nan, "dt must be positive and finite"), (1.0, np.inf, "dt must be positive and finite")])
    def test_non_finite_time_refused_before_any_step(self, monkeypatch, t_max, dt, message):
        def stepped(*args, **kwargs):
            raise AssertionError("a step was taken")

        monkeypatch.setattr(dr, "rk2_step", stepped)
        f = dr.SpinorField(grid64(), 1, np.ones((64, 2), dtype=complex))
        with pytest.raises(ValueError, match=message):
            dr.solve(f, free_params(dim=1), t_max, dt)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spectral", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_initial_field_refused_before_any_transform(self, monkeypatch, bad, spectral):
        def stepped(*args, **kwargs):
            raise AssertionError("a step was taken")

        monkeypatch.setattr(dr, "rk2_step", stepped)
        values = np.ones((64, 2), dtype=complex)
        values[9, 1] = values[40, 0] = bad
        f = dr.SpinorField(grid64(), 1, values, spectral)
        with pytest.raises(ValueError, match=r"^initial field is not finite at row 9$"):
            dr.solve(f, free_params(dim=1), 1.0, 0.01)
        assert cli.report_failures(lambda: dr.solve(f, free_params(dim=1), 1.0, 0.01)) == 1

    def test_lands_exactly_on_t_max(self):
        grid = grid64()
        k = grid.wavenumbers()[1]
        m = 0.4
        v = dr.u_plus(k, m)
        vals = np.exp(1j * k * grid.positions())[:, None] * v
        f = dr.SpinorField(grid, 1, vals)
        t_final = 0.25  # not a multiple of dt = 0.1
        out = dr.solve(f, free_params(dim=1, mass=m), t_final, 0.1)
        e = np.sqrt(k * k + m * m)
        # the RK2 error at dt = 0.1 is ~5e-4; landing at the wrong time
        # (0.2 or 0.3) would be off by ~e * 0.05 ~ 5e-2
        assert np.max(np.abs(out.values - vals * np.exp(-1j * e * t_final))) <= 1e-3

    def test_norm_conserved_at_stable_dt(self):
        grid = dr.SpectralGrid(256, -12.8, 0.1)
        pk = dr.gaussian_packet(0.0, 0.5, np.array([1.0]), grid, 0.1)
        out = dr.solve(pk, free_params(dim=1, mass=0.1), 10.0, 0.002)
        drift = abs(np.sum(np.abs(out.values) ** 2) * grid.dx - 1.0)
        assert drift <= 1e-8

    def test_unstable_dt_aborts(self):
        # a near-Nyquist mode under a too-large step grows until it overflows;
        # the march must stop with NumericalAbort instead of returning junk
        grid = grid64()
        k = grid.wavenumbers()[30]
        vals = np.exp(1j * k * grid.positions())[:, None] * np.array([1.0, 0.0])
        f = dr.SpinorField(grid, 1, vals)
        with pytest.raises(dr.NumericalAbort):
            with np.errstate(all="ignore"):
                dr.solve(f, free_params(dim=1, mass=0.1), 200.0, 0.5)


def random_uniform_params(dim, seed, mass=0.3):
    """Time-dependent coordinates, uniform in x: c(t) = a + b t + d sin(w t)."""
    rng = np.random.default_rng(seed)
    count = dim * dim
    coef = rng.normal(0, 0.5, (2, 3, count))
    w = rng.uniform(0.5, 3.0, 2)

    def coords(i):
        return lambda t, x: coef[i, 0] + coef[i, 1] * t + coef[i, 2] * np.sin(w[i] * t)

    return dr.DiracParams(mass, coords(0), coords(1), un.generators_u(dim))


def broadcast_params(params, n_points):
    """The same potential handed over as one coordinate vector per point."""
    def per_point(fn):
        return lambda t, x: np.broadcast_to(fn(t, x), (n_points, len(params.gens.gens)))

    return dr.DiracParams(params.mass, per_point(params.b0), per_point(params.b1), params.gens)


def x_space_march(f, params, t_max, dt):
    """solve's time stepping written out, with x-space rk2_step calls only."""
    t = 0.0
    while t < t_max - 1e-12:
        h = min(dt, t_max - t)
        f = dr.rk2_step(f, params, t, h)
        t += h
    return f


def per_point_params(dim, seed=0):
    """A potential that varies in x and t, one coordinate vector per point."""
    gens = un.generators_u(dim)
    coef = np.random.default_rng(dim + seed).normal(0, 0.5, (2, len(gens)))
    return dr.DiracParams(0.3, lambda t, x: np.sin(x)[:, None] * coef[0],
                          lambda t, x: np.cos(0.5 * x + t)[:, None] * coef[1], gens)


def random_field(grid, dim, seed):
    rng = np.random.default_rng(seed)
    shape = (grid.n_points, 2 * dim)
    return dr.SpinorField(grid, dim, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


class TestSpectralMarch:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([1, 2, 3]), st.integers(8, 41), st.integers(0, 10_000))
    def test_matches_x_space_rk2(self, dim, n_points, seed):
        grid = dr.SpectralGrid(n_points, -0.25 * n_points, 0.5)
        params = random_uniform_params(dim, seed)
        f = random_field(grid, dim, seed + 1)
        want = x_space_march(f, params, 0.53, 0.02)
        got = dr.solve(f, params, 0.53, 0.02)
        assert not got.spectral
        assert np.max(np.abs(got.values - want.values)) <= 1e-13

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_even_grid_nyquist_mode(self, dim):
        grid = dr.SpectralGrid(32, -8.0, 0.5)
        nyquist = np.cos(np.pi * grid.positions() / grid.dx)  # (-1)^i
        f = random_field(grid, dim, seed=dim)
        f = dr.SpinorField(grid, dim, f.values + 3.0 * nyquist[:, None])
        assert np.min(np.abs(f.to_spectral().values[16])) > 1.0
        params = random_uniform_params(dim, seed=10 + dim)
        want = x_space_march(f, params, 0.6, 0.02)
        got = dr.solve(f, params, 0.6, 0.02)
        assert np.max(np.abs(got.values - want.values)) <= 1e-13

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from([1, 2, 3]), st.integers(8, 41), st.integers(0, 10_000))
    def test_per_point_potential_matches_uniform_solve(self, dim, n_points, seed):
        grid = dr.SpectralGrid(n_points, -0.25 * n_points, 0.5)
        params = random_uniform_params(dim, seed)
        per_point = broadcast_params(params, n_points)
        f = random_field(grid, dim, seed + 1)
        got = dr.solve(f, per_point, 0.3, 0.02)
        want = dr.solve(f, params, 0.3, 0.02)
        assert np.max(np.abs(got.values - want.values)) <= 1e-13

    @pytest.mark.parametrize("n_points", [33, 64])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_per_point_rhs_on_spectral_field_is_refused(self, dim, n_points):
        grid = dr.SpectralGrid(n_points, -0.25 * n_points, 0.5)
        params = per_point_params(dim)
        f = random_field(grid, dim, seed=n_points)
        with pytest.raises(un.DimensionError, match=r"^potential sample at t=0\.4 has shapes .*, "
                                                   r"as the pair is uniform in x$"):
            dr.dirac_rhs(f.to_spectral(), params, 0.4)
        assert not dr.dirac_rhs(f, params, 0.4).spectral

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from([1, 2, 3]), st.integers(8, 41), st.integers(0, 10_000), st.booleans())
    def test_per_point_solve_is_the_x_space_march_bit_for_bit(self, dim, n_points, seed, spectral):
        grid = dr.SpectralGrid(n_points, -0.25 * n_points, 0.5)
        params = per_point_params(dim, seed)
        f = random_field(grid, dim, seed + 1)
        want = x_space_march(f, params, 0.53, 0.02)
        got = dr.solve(f.to_spectral() if spectral else f, params, 0.53, 0.02)
        assert not got.spectral
        if spectral:  # one transform in and one out
            assert np.max(np.abs(got.values - want.values)) <= 1e-13
        else:
            assert np.array_equal(got.values, want.values)

    @pytest.mark.parametrize("n_points", [31, 32])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_potential_per_point_only_after_t0_is_refused(self, dim, n_points):
        # uniform at t = 0, one coordinate vector per point afterwards: a
        # random field fills the grid, so the march is on the whole grid's
        # coefficients, and the first step's midpoint meets the per-point sample
        grid = dr.SpectralGrid(n_points, -0.25 * n_points, 0.5)
        params = random_uniform_params(dim, seed=dim)
        per_point = broadcast_params(params, n_points)
        later = dr.DiracParams(params.mass, params.b0,
                               lambda t, x: per_point.b1(t, x) if t > 0 else params.b1(t, x), params.gens)
        f = random_field(grid, dim, seed=n_points)
        with pytest.raises(un.DimensionError, match=rf"^potential sample at t=0\.01 has shapes \({dim * dim},\) "
                                                   rf"and \({n_points}, {dim * dim}\): .*uniform in x$"):
            dr.solve(f, later, 0.3, 0.02)

    def test_round_trip(self):
        f = random_field(grid64(), 2, seed=6)
        spec = f.to_spectral()
        assert spec.spectral and spec.to_spectral() is spec
        assert f.to_physical() is f
        assert np.max(np.abs(spec.to_physical().values - f.values)) <= 1e-14
        assert np.allclose(np.abs(spec.to_physical().values) ** 2, np.abs(f.values) ** 2, atol=1e-14)


def marched(monkeypatch):
    """(rows, spectral): the row count and the spectral flag of every field
    rk2_step is handed, in call order."""
    rows, spectral = [], []
    step = dr.rk2_step

    def recording(f, *args):
        rows.append(f.values.shape[0])
        spectral.append(f.spectral)
        return step(f, *args)

    monkeypatch.setattr(dr, "rk2_step", recording)
    return rows, spectral


def packet(dim, n_points, k0):
    """A Gaussian packet whose band (~40 modes) is well inside the grid."""
    grid = dr.SpectralGrid(n_points, -0.05 * n_points, 0.1)
    color = np.arange(1, dim + 1) * np.exp(0.4j * np.arange(dim))
    return dr.gaussian_packet(k0, 1.0, color, grid, 0.3)


def x_dependent_after(params, t_switch):
    """params' b1 until t_switch, then b1(t) + sin(x) times fixed coordinates."""
    coef = np.random.default_rng(7).normal(0, 0.5, len(params.gens))

    def b1(t, x):
        c = params.b1(t, x)
        return c if t < t_switch else c + np.sin(x)[:, None] * coef

    return dr.DiracParams(params.mass, params.b0, b1, params.gens)


class TestBandMarch:
    @pytest.mark.parametrize("k0", [0.0, 1.0])
    @pytest.mark.parametrize("n_points", [127, 128])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_band_march_matches_x_space_rk2(self, monkeypatch, dim, n_points, k0):
        f = packet(dim, n_points, k0)
        params = random_uniform_params(dim, seed=dim)
        want = x_space_march(f, params, 0.53, 0.02)
        rows, spectral = marched(monkeypatch)
        got = dr.solve(f, params, 0.53, 0.02)
        assert len(rows) == 27 and max(rows) < n_points // 2 and all(spectral)
        assert not got.spectral and got.grid is f.grid
        assert np.max(np.abs(got.values - want.values)) <= 1e-13

    def test_nyquist_heavy_field_marches_the_whole_grid(self, monkeypatch):
        f = packet(2, 128, 0.0)
        nyquist = np.cos(np.pi * f.grid.positions() / f.grid.dx)
        f = dr.SpinorField(f.grid, 2, f.values + 0.1 * nyquist[:, None])
        params = random_uniform_params(2, seed=5)
        want = x_space_march(f, params, 0.3, 0.02)
        rows, spectral = marched(monkeypatch)
        got = dr.solve(f, params, 0.3, 0.02)
        # the band fills the grid: its coefficients, not its point values
        assert rows == [128] * 15 and all(spectral)
        assert np.max(np.abs(got.values - want.values)) <= 1e-13

    @pytest.mark.parametrize("t_switch", [0.0, 0.255])
    @pytest.mark.parametrize("n_points", [127, 128])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_per_point_potential_moves_the_march_to_the_whole_grid(self, monkeypatch, capsys, dim,
                                                                   n_points, t_switch):
        f = packet(dim, n_points, 1.0)
        params = x_dependent_after(random_uniform_params(dim, seed=dim), t_switch)
        if t_switch == 0.0:
            # per point at t = 0: the whole grid from the first step
            want = x_space_march(f, params, 0.53, 0.02)
            rows, spectral = marched(monkeypatch)
            got = dr.solve(f, params, 0.53, 0.02)
            assert rows == [n_points] * 27 and not any(spectral)
            assert np.array_equal(got.values, want.values)
            return
        # uniform at t = 0, so solve marches the band, which refuses the
        # first per-point sample: the step from t = 0.26 meets it
        rows, _ = marched(monkeypatch)
        with pytest.raises(un.DimensionError, match=rf"^potential sample at t=0\.26 has shapes \({dim * dim},\) "
                                                   rf"and \(\d+, {dim * dim}\): .*uniform in x$"):
            dr.solve(f, params, 0.53, 0.02)
        assert rows == [rows[0]] * 14 and rows[0] < n_points // 2
        assert cli.report_failures(lambda: dr.solve(f, params, 0.53, 0.02)) == 1
        assert capsys.readouterr().err.startswith("config error: potential sample at t=0.26 has shapes")

    def test_criterion_06_packet_marches_on_its_band(self, monkeypatch):
        cfg = ex.ExperimentConfig(experiment="convergence", dim=2, mass=0.1, e_ym=0.08,
                                  epsilons=(0.4, 0.2, 0.1, 0.05), sigma=0.5, k0=0.0,
                                  x_max=100.0, t_max=50.0)
        params, _, f, _, _, _ = ex._electric_walk(cfg, 0.05)
        rows, spectral = marched(monkeypatch)
        dr.solve(f, params, 2 * ex.DIRAC_DT, ex.DIRAC_DT)
        assert f.grid.n_points == 4001
        assert len(rows) == 2 and max(rows) <= 300 and all(spectral)

    def test_unstable_band_march_aborts(self, monkeypatch):
        # test_unstable_dt_aborts's near-Nyquist mode, alone in its band
        grid = grid64()
        k = grid.wavenumbers()[30]
        f = dr.SpinorField(grid, 1, np.exp(1j * k * grid.positions())[:, None] * np.array([1.0, 0.0]))
        rows, _ = marched(monkeypatch)
        with pytest.raises(dr.NumericalAbort):
            with np.errstate(all="ignore"):
                dr.solve(f, free_params(dim=1, mass=0.1), 200.0, 0.5)
        assert set(rows) == {61}


# The broadcast formulas the lean kernels replaced, kept here as references:
# they broadcast an (n,) symbol and a (2N,) sign over the spinor's columns
# and build the coupling with np.block.
def reference_symbol(grid):
    ik = 1j * 2 * np.pi * np.fft.fftfreq(grid.n_points, d=grid.dx)
    if grid.n_points % 2 == 0:
        ik[grid.n_points // 2] = 0.0
    return ik


def reference_derivative(f):
    hat = np.fft.fft(f.values, axis=0) if not f.spectral else f.values
    hat = hat * reference_symbol(f.grid)[:, None]
    return hat if f.spectral else np.fft.ifft(hat, axis=0)


def reference_coupling(b0, b1, mass):
    n = b0.shape[-1]
    b0, b1 = np.broadcast_arrays(b0, b1)
    lead = b0.shape[:-2]
    off = np.broadcast_to(-mass * np.eye(n), lead + (n, n))
    return 1j * np.block([[b0 - b1, off], [off, b0 + b1]])


def reference_rhs(f, params, t):
    b0, b1 = params.potential_matrices(t, f.grid.positions())
    c = reference_coupling(b0, b1, params.mass)
    out = f.values @ c.T if c.ndim == 2 else np.einsum("pij,pj->pi", c, f.values)
    out += reference_derivative(f) * np.repeat((1.0, -1.0), f.dim)
    return out


def hermitian_stack(gens, lead, rng):
    return gens.assemble(rng.normal(0, 1.5, lead + (len(gens),)))


@st.composite
def grids_and_fields(draw):
    """(dim, field, seed): a field on an odd or even grid, in x space or
    spectral; an even grid may carry a strong Nyquist mode."""
    dim = draw(st.sampled_from([1, 2, 3]))
    n_points = draw(st.integers(8, 41))
    seed = draw(st.integers(0, 10_000))
    grid = dr.SpectralGrid(n_points, -0.25 * n_points, draw(st.sampled_from([0.5, 0.1, 0.0375])))
    f = random_field(grid, dim, seed)
    if n_points % 2 == 0 and draw(st.booleans()):
        nyquist = np.cos(np.pi * grid.positions() / grid.dx)
        f = dr.SpinorField(grid, dim, f.values + 3.0 * nyquist[:, None])
    return dim, (f.to_spectral() if draw(st.booleans()) else f), seed


class TestLeanKernels:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.sampled_from(["single", "stack", "mixed"]),
           st.sampled_from([0.0, 0.1, 2.75]), st.integers(0, 10_000))
    def test_coupling_matrix_equals_block_form(self, dim, kind, mass, seed):
        rng = np.random.default_rng(seed)
        gens = un.generators_u(dim)
        lead0, lead1 = {"single": ((), ()), "stack": ((7,), (7,)), "mixed": ((), (7,))}[kind]
        b0, b1 = hermitian_stack(gens, lead0, rng), hermitian_stack(gens, lead1, rng)
        # B0 and B1 come at one shape: a uniform B0 beside a per-point B1 as a
        # stride-0 view
        b0 = np.broadcast_to(b0, b1.shape)
        got = dr.coupling_matrix(b0, b1, mass)
        want = reference_coupling(b0, b1, mass)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        got = dr.coupling_matrix(b1, b0, mass)
        assert np.array_equal(got, reference_coupling(b1, b0, mass))

    @settings(max_examples=60, deadline=None)
    @given(grids_and_fields())
    def test_spectral_derivative_equals_broadcast_formula(self, case):
        _, f, _ = case
        d = dr.spectral_derivative(f)
        assert d.spectral == f.spectral
        assert np.array_equal(d.values, reference_derivative(f))

    @settings(max_examples=60, deadline=None)
    @given(grids_and_fields(), st.sampled_from(["uniform", "per-point", "mixed"]))
    def test_dirac_rhs_equals_broadcast_formula(self, case, kind):
        dim, f, seed = case
        params = random_uniform_params(dim, seed)
        if kind != "uniform":
            if f.spectral:
                f = f.to_physical()
            per_point = broadcast_params(params, f.grid.n_points)
            b0 = params.b0 if kind == "mixed" else per_point.b0
            params = dr.DiracParams(params.mass, b0, per_point.b1, params.gens)
        rhs = dr.dirac_rhs(f, params, 0.37)
        assert rhs.spectral == f.spectral
        assert np.array_equal(rhs.values, reference_rhs(f, params, 0.37))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.sampled_from(["uniform", "per-point", "uniform+per-point",
                                               "per-point+uniform"]), st.integers(0, 10_000))
    def test_potential_matrices(self, dim, kind, seed):
        grid = grid64()
        x = grid.positions()
        rng = np.random.default_rng(seed)
        gens = un.generators_u(dim)
        shapes = {"uniform": "uu", "per-point": "pp", "uniform+per-point": "up",
                  "per-point+uniform": "pu"}[kind]
        c0, c1 = (rng.normal(0, 1, (len(gens),) if s == "u" else (grid.n_points, len(gens)))
                  for s in shapes)
        params = dr.DiracParams(0.2, lambda t, xx: c0, lambda t, xx: c1, gens)
        b0, b1 = params.potential_matrices(0.5, x)
        # one shape for both, per point if either sample is
        assert b0.shape == b1.shape == ((grid.n_points,) if "p" in shapes else ()) + (dim, dim)
        for got, coords in ((b0, c0), (b1, c1)):
            want = np.einsum("...k,kij->...ij", coords, gens.gens)
            assert np.max(np.abs(got - want)) <= 1e-14
        # equal to assembling the broadcast coordinates
        want = gens.assemble(np.array(np.broadcast_arrays(c0, c1)))
        assert np.array_equal(b0, want[0]) and np.array_equal(b1, want[1])

    def test_spinor_symbols_are_cached_read_only_and_per_grid_and_dim(self):
        grids = [dr.SpectralGrid(32, -8.0, 0.5), dr.SpectralGrid(32, -8.0, 0.5),
                 dr.SpectralGrid(33, -8.0, 0.5), dr.SpectralGrid(32, -8.0, 0.25)]
        seen = []
        for grid in grids:
            for dim in (1, 2, 3):
                ik, sign = grid.spinor_symbols(dim)
                assert grid.spinor_symbols(dim)[0] is ik and grid.spinor_symbols(dim)[1] is sign
                assert ik.shape == sign.shape == (grid.n_points, 2 * dim)
                assert np.array_equal(ik, np.repeat(reference_symbol(grid)[:, None], 2 * dim, axis=1))
                assert np.array_equal(sign, np.tile(np.repeat((1.0, -1.0), dim), (grid.n_points, 1)))
                for a in (ik, sign):
                    assert not a.flags.writeable
                    with pytest.raises(ValueError):
                        a[0, 0] = 5.0
                    assert not any(np.shares_memory(a, b) for b in seen)
                    seen.append(a)

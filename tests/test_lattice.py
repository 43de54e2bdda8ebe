"""Lattice gauge fields, gauge transformations, holonomies, curvature."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugewalk import lattice as lat
from gaugewalk import unitary as un


def small_spec(eps=0.1, p_max=5, j_max=8):
    return lat.LatticeSpec(eps, p_max, j_max)


class TestLatticeSpec:
    def test_geometry(self):
        spec = lat.LatticeSpec(0.5, 3, 4)
        assert spec.n_sites == 7
        assert np.allclose(spec.positions(), 0.5 * np.arange(-3, 4))
        assert spec.time(4) == pytest.approx(2.0)

    def test_site_index_wrap(self):
        spec = lat.LatticeSpec(0.5, 3, 4)
        assert spec.site_index(0) == 3
        assert spec.site_index(-3) == 0
        assert spec.site_index(3) == 6
        assert spec.site_index(4) == 0  # periodic wrap

    def test_validation(self):
        with pytest.raises(ValueError):
            lat.LatticeSpec(-0.1, 5, 5)
        with pytest.raises(ValueError):
            lat.LatticeSpec(0.1, 1, 5)


class TestGaugeField:
    def test_identity_field(self):
        spec = small_spec()
        f = lat.GaugeField.identity(spec, 2)
        assert np.allclose(f.P(3), np.eye(2))
        assert np.allclose(f.Q(0), np.eye(2))

    def test_from_potentials_zero(self):
        spec = small_spec()
        gens = un.generators_u(2)
        zero = lambda t, x: np.zeros(4)
        f = lat.GaugeField.from_potentials(zero, zero, spec, gens)
        assert np.allclose(f.P(2), np.eye(2), atol=1e-14)

    def test_from_potentials_scalar(self):
        spec = small_spec(eps=0.2)
        gens = un.generators_u(1)
        f = lat.GaugeField.from_potentials(lambda t, x: np.array([0.7]),
                                           lambda t, x: np.array([-0.3]),
                                           spec, gens)
        assert np.allclose(f.P(1), np.exp(1j * 0.2 * 0.7) * np.ones((spec.n_sites, 1, 1)))
        assert np.allclose(f.Q(1), np.exp(-1j * 0.2 * 0.3) * np.ones((spec.n_sites, 1, 1)))

    def test_electric_field_q_matches_closed_form(self):
        # Q_{j,p} = exp(i eps E t_j sigma_1 / 2), uniform in p
        eps, e_ym = 0.1, 0.3
        spec = small_spec(eps=eps)
        gens = un.generators_u(2)
        b1 = lambda t, x: np.array([0.0, e_ym * t, 0.0, 0.0])
        b_p = lambda t, x: -b1(t, x)
        f = lat.GaugeField.from_potentials(b_p, b1, spec, gens)
        j = 4
        want = un.su2_closed_form(np.array([eps * e_ym * spec.time(j), 0.0, 0.0]))
        assert np.max(np.abs(f.Q(j) - want)) <= 1e-13
        assert np.max(np.abs(f.P(j) - want.conj().T)) <= 1e-13

    def test_random_field_deterministic(self):
        spec = small_spec()
        a = lat.GaugeField.random(spec, 2, seed=11)
        b = lat.GaugeField.random(spec, 2, seed=11)
        assert np.array_equal(a.P(5), b.P(5))
        # cache eviction must rebuild identical slices
        p3 = a.P(3).copy()
        for j in range(spec.j_max + 1):
            a.P(j)
        assert np.array_equal(a.P(3), p3)

    def test_time_range_checked(self):
        spec = small_spec()
        f = lat.GaugeField.identity(spec, 2)
        with pytest.raises(lat.SiteRangeError):
            f.P(spec.j_max + 1)
        with pytest.raises(lat.SiteRangeError):
            f.Q(-1)

    def test_rejects_non_unitary_slice(self):
        spec = small_spec()
        bad = np.full((spec.n_sites, 1, 1), 2.0, dtype=complex)
        f = lat.GaugeField(spec, 1, lambda j: (bad, bad))
        with pytest.raises(ValueError):
            f.P(0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 10_000))
    def test_uniform_slice_is_a_read_only_view_of_one_matrix(self, dim, seed):
        spec = small_spec()
        gens = un.generators_u(dim)
        coords = np.random.default_rng(seed).normal(0, 2, (2, len(gens)))
        uniform = lat.GaugeField.from_potentials(lambda t, x: (1 + t) * coords[0],
                                                 lambda t, x: (1 - t) * coords[1], spec, gens)
        per_site = lat.GaugeField.from_potentials(
            lambda t, x: np.tile((1 + t) * coords[0], (len(x), 1)),
            lambda t, x: np.tile((1 - t) * coords[1], (len(x), 1)), spec, gens)
        for j in (0, 3):
            for a, b in ((uniform.P(j), per_site.P(j)), (uniform.Q(j), per_site.Q(j))):
                assert a.shape == b.shape == (spec.n_sites, dim, dim)
                assert np.max(np.abs(a - b)) <= 1e-13
                assert a.strides[0] == 0
                assert not a.flags.writeable and not b.flags.writeable

    def test_broadcast_slice_is_still_validated(self):
        spec = small_spec()
        shape = (spec.n_sites, 2, 2)
        scaled = np.broadcast_to(2 * np.eye(2, dtype=complex), shape)
        bad = np.eye(2, dtype=complex)
        bad[1, 0] = np.nan
        eye = np.broadcast_to(np.eye(2, dtype=complex), shape)
        with pytest.raises(ValueError, match="not unitary"):
            lat.GaugeField(spec, 2, lambda j: (scaled, eye)).P(0)
        with pytest.raises(ValueError, match="non-finite Q entry"):
            lat.GaugeField(spec, 2, lambda j: (eye, np.broadcast_to(bad, shape))).P(0)
        with pytest.raises(ValueError, match="non-finite G entry"):
            lat.GaugeTransformation(spec, 2, lambda j: np.broadcast_to(bad, shape)).G(0)
        # a per-site slice is checked at every site, not only the first
        one_bad = eye.copy()
        one_bad[-1] *= 2
        with pytest.raises(ValueError, match="not unitary"):
            lat.GaugeTransformation(spec, 2, lambda j: one_bad).G(0)

    def test_potential_samples_checked(self):
        spec = small_spec()
        gens = un.generators_u(1)
        ok = lambda t, x: np.array([0.3])

        def build(fn):
            return lat.GaugeField.from_potentials(fn, ok, spec, gens).P(2)

        with pytest.raises(un.DimensionError):
            build(lambda t, x: np.zeros((spec.n_sites + 1, 1)))
        with pytest.raises(un.DimensionError):
            build(lambda t, x: np.zeros(2))
        with pytest.raises(ValueError, match=r"non-finite potential sample at t=0\.2$"):
            build(lambda t, x: np.array([np.inf]))
        per_site = np.zeros((spec.n_sites, 1))
        per_site[spec.site_index(1)] = np.nan
        with pytest.raises(ValueError, match=r"at t=0\.2, x=0\.1"):
            build(lambda t, x: per_site)

    def test_at_uses_lattice_labels(self):
        spec = small_spec()
        f = lat.GaugeField.random(spec, 2, seed=3)
        p, q = f.at(2, -spec.p_max)
        assert np.array_equal(p, f.P(2)[0])
        assert np.array_equal(q, f.Q(2)[0])


class TestGaugeTransformation:
    def test_identity_transform_fixes_field(self):
        spec = small_spec()
        f = lat.GaugeField.random(spec, 2, seed=4)
        g = lat.GaugeTransformation.identity(spec, 2)
        ft = lat.transform_potentials(f, g)
        assert np.max(np.abs(ft.P(3) - f.P(3))) <= 1e-14

    def test_inverse_transform_recovers(self):
        spec = small_spec()
        f = lat.GaugeField.random(spec, 3, seed=5)
        g = lat.GaugeTransformation.random(spec, 3, seed=6)
        back = lat.transform_potentials(lat.transform_potentials(f, g), g.inverse())
        for j in (0, 4, spec.j_max):
            assert np.max(np.abs(back.P(j) - f.P(j))) <= 1e-12
            assert np.max(np.abs(back.Q(j) - f.Q(j))) <= 1e-12

    def test_domain_extends_one_slice(self):
        spec = small_spec()
        g = lat.GaugeTransformation.random(spec, 2, seed=1)
        g.G(spec.j_max + 1)  # needed to transform the last field slice
        with pytest.raises(lat.SiteRangeError):
            g.G(spec.j_max + 2)


class TestHolonomies:
    def test_identity_field(self):
        spec = small_spec()
        f = lat.GaugeField.identity(spec, 2)
        assert np.allclose(lat.holonomy_u_slice(f, 2), np.eye(2))
        assert np.allclose(lat.holonomy_v_slice(f, 2), np.eye(2))

    def test_scalar_values(self):
        # P = e^{i(y0 - y1)}, Q = e^{i(y0 + y1)} constant: U = e^{-2i y1},
        # V = e^{2i y0}
        spec = small_spec()
        y0, y1 = 0.4, -0.9
        shape = (spec.j_max + 1, spec.n_sites)
        y = lat.AbelianPotential(spec, np.full(shape, y0), np.full(shape, y1))
        f = lat.abelian_field(y)
        assert np.allclose(lat.holonomy_u(f, 2, 1), np.exp(-2j * y1))
        assert np.allclose(lat.holonomy_v(f, 2, 1), np.exp(2j * y0))

    def test_v_needs_previous_slice(self):
        spec = small_spec()
        f = lat.GaugeField.identity(spec, 2)
        with pytest.raises(lat.SiteRangeError):
            lat.holonomy_v_slice(f, 0)

    def test_u_transforms_by_same_site_pair(self):
        # U'_{j,p} = G_{j+1,p} U_{j,p} G^-1_{j+1,p} would be wrong; the law is
        # U' = G_{j+1,p} Q† P G^-1... checked through the curvature law below.
        # Here: U stays unitary under any transformation.
        spec = small_spec()
        f = lat.GaugeField.random(spec, 2, seed=8)
        g = lat.GaugeTransformation.random(spec, 2, seed=9)
        ft = lat.transform_potentials(f, g)
        assert un.unitarity_defect(lat.holonomy_u_slice(ft, 3)) <= 1e-12


class TestDiscreteCurvature:
    def test_identity_field_flat(self):
        spec = small_spec()
        f = lat.GaugeField.identity(spec, 3)
        assert np.max(np.abs(lat.curvature_slice(f, 3) - np.eye(3))) <= 1e-14

    def test_pure_gauge_flat(self):
        spec = small_spec()
        g = lat.GaugeTransformation.random(spec, 2, seed=13)
        f = lat.transform_potentials(lat.GaugeField.identity(spec, 2), g)
        assert np.max(np.abs(lat.curvature_slice(f, 4) - np.eye(2))) <= 1e-12

    def test_range_checked(self):
        spec = small_spec()
        f = lat.GaugeField.identity(spec, 2)
        with pytest.raises(lat.SiteRangeError):
            lat.curvature_slice(f, 0)
        with pytest.raises(lat.SiteRangeError):
            lat.curvature_slice(f, spec.j_max)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_unitary_and_covariant(self, seed):
        spec = small_spec()
        f = lat.GaugeField.random(spec, 2, seed=seed, scale=0.6)
        g = lat.GaugeTransformation.random(spec, 2, seed=seed + 1, scale=0.6)
        ft = lat.transform_potentials(f, g)
        j, p = 3, 1
        fc = lat.discrete_curvature(f, j, p).value
        assert un.unitarity_defect(fc) <= 1e-12
        fct = lat.discrete_curvature(ft, j, p).value
        conj = lat.curvature_gauge_conjugator(g, j, p)
        assert np.max(np.abs(fct - conj @ fc @ conj.conj().T)) <= 1e-12

    def test_sample_records_site(self):
        spec = small_spec()
        f = lat.GaugeField.identity(spec, 2)
        assert lat.discrete_curvature(f, 2, -1).site == (2, -1)


class TestContinuousCurvature:
    def test_constant_commuting_field_vanishes(self):
        gens = un.generators_u(2)
        b = lambda t, x: np.array([0.0, 0.5, 0.0, 0.0])
        f10 = lat.continuous_curvature(b, b, gens, 1.0, 0.0)
        assert np.max(np.abs(f10)) <= 1e-9

    def test_electric_field(self):
        # b0 = 0, B1 = E t sigma_1/2: F10 = -E sigma_1/2
        e = 0.37
        gens = un.generators_u(2)
        b0 = lambda t, x: np.zeros(4)
        b1 = lambda t, x: np.array([0.0, e * t, 0.0, 0.0])
        f10 = lat.continuous_curvature(b0, b1, gens, 2.0, 0.5)
        assert np.max(np.abs(f10 + e * un.PAULI[0] / 2)) <= 1e-9

    def test_commutator_term(self):
        # B0 = c x sigma_1/2, B1 = c x sigma_2/2 (static):
        # F10 = (c/2) sigma_1 - (c^2 x^2 / 2) sigma_3
        c, x = 0.8, 1.3
        gens = un.generators_u(2)
        b0 = lambda t, xx: np.array([0.0, c * xx, 0.0, 0.0])
        b1 = lambda t, xx: np.array([0.0, 0.0, c * xx, 0.0])
        f10 = lat.continuous_curvature(b0, b1, gens, 0.0, x)
        want = (c / 2) * un.PAULI[0] - (c * c * x * x / 2) * un.PAULI[2]
        assert np.max(np.abs(f10 - want)) <= 1e-8

    def test_analytic_derivatives_agree(self):
        c = 0.8
        gens = un.generators_u(2)
        b0 = lambda t, xx: np.array([0.0, c * xx, 0.0, 0.0])
        b1 = lambda t, xx: np.array([0.0, 0.0, c * xx, 0.0])
        db0 = lambda t, xx: (np.zeros(4), np.array([0.0, c, 0.0, 0.0]))
        db1 = lambda t, xx: (np.zeros(4), np.array([0.0, 0.0, c, 0.0]))
        numeric = lat.continuous_curvature(b0, b1, gens, 0.3, 0.7)
        exact = lat.continuous_curvature(b0, b1, gens, 0.3, 0.7, db0=db0, db1=db1)
        assert np.max(np.abs(numeric - exact)) <= 1e-8


class TestAbelian:
    def test_potential_shape_checked(self):
        spec = small_spec()
        with pytest.raises(Exception):
            lat.AbelianPotential(spec, np.zeros((2, 2)), np.zeros((2, 2)))

    def test_zero_potential(self):
        spec = small_spec()
        shape = (spec.j_max + 1, spec.n_sites)
        y = lat.AbelianPotential(spec, np.zeros(shape), np.zeros(shape))
        f10, phase = lat.abelian_discrete_curvature(y, 2, 0)
        assert f10 == 0.0
        assert phase == 1.0 + 0.0j

    def test_linear_time_ramp_f10(self):
        # Y1_{j,p} = eps^2 E j gives f10 = -eps^2 E, uniform
        spec = small_spec(eps=0.2)
        e = 0.7
        shape = (spec.j_max + 1, spec.n_sites)
        y1 = (spec.epsilon ** 2) * e * np.arange(spec.j_max + 1)[:, None] * np.ones(shape)
        y = lat.AbelianPotential(spec, np.zeros(shape), y1)
        f10, _ = lat.abelian_discrete_curvature(y, 3, 1)
        assert f10 == pytest.approx(-spec.epsilon ** 2 * e, abs=1e-14)

    def test_pipeline_matches_matrix_curvature(self):
        rng = np.random.default_rng(5)
        spec = small_spec()
        shape = (spec.j_max + 1, spec.n_sites)
        y = lat.AbelianPotential(spec, rng.normal(0, 0.8, shape), rng.normal(0, 0.8, shape))
        f = lat.abelian_field(y)
        worst = 0.0
        for j in range(1, spec.j_max):
            for p in range(-spec.p_max, spec.p_max + 1):
                matrix = lat.discrete_curvature(f, j, p).value[0, 0]
                _, phase = lat.abelian_discrete_curvature(y, j, p)
                worst = max(worst, abs(matrix - phase))
        assert worst <= 1e-12


class TestFactorizationCheck:
    def test_identity_field(self):
        spec = small_spec()
        f = lat.GaugeField.identity(spec, 2)
        residual, branch = lat.curvature_factorization_check(f, 3, 0)
        assert residual <= 1e-14
        assert not branch

    def test_special_field_has_trivial_phase_part(self):
        spec = small_spec()
        gens = un.generators_su(2)
        b = lambda t, x: np.array([0.2 * t, -0.1, 0.3])
        f = lat.GaugeField.from_potentials(b, b, spec, gens)
        residual, branch = lat.curvature_factorization_check(f, 3, 2)
        assert not branch
        assert residual <= 1e-12

    def test_random_field(self):
        spec = small_spec()
        f = lat.GaugeField.random(spec, 2, seed=21, scale=0.5)
        residual, branch = lat.curvature_factorization_check(f, 4, -2)
        if not branch:
            assert residual <= 1e-12

    def test_branch_cut_reported(self):
        # P_{3,p_max} = diag(1, -1) has det = -1, on the branch cut; the check
        # at j reads slices j-1 .. j+1
        spec = small_spec()
        eye = np.broadcast_to(np.eye(2, dtype=complex), (spec.n_sites, 2, 2))
        flipped = eye.copy()
        flipped[-1] = np.diag([1.0, -1.0])
        f = lat.GaugeField(spec, 2, lambda j: (flipped if j == 3 else eye, eye))
        assert [lat.curvature_factorization_check(f, j, 0)[1] for j in range(1, 6)] == \
            [False, True, True, True, False]

    def test_range_checked(self):
        spec = small_spec()
        f = lat.GaugeField.identity(spec, 2)
        for j in (0, spec.j_max):
            with pytest.raises(lat.SiteRangeError):
                lat.curvature_factorization_check(f, j, 0)

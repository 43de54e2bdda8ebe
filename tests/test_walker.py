"""Walk dynamics: coin, transport, probability, gauge covariance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugewalk import lattice as lat
from gaugewalk import unitary as un
from gaugewalk import walker as wk


def spec_and_identity(dim=2, eps=0.1, p_max=5, j_max=8):
    spec = lat.LatticeSpec(eps, p_max, j_max)
    return spec, lat.GaugeField.identity(spec, dim)


def random_state(spec, dim, seed, j=0):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal((spec.n_sites, 2 * dim)) + 1j * rng.standard_normal((spec.n_sites, 2 * dim))
    amps /= np.linalg.norm(amps)
    return wk.WalkState(spec, dim, j, amps)


class TestWalkConfig:
    def test_from_mass(self):
        cfg = wk.WalkConfig.from_mass(2, mass=0.5, epsilon=0.2)
        assert cfg.theta == pytest.approx(-0.1)

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            wk.WalkConfig.from_mass(2, mass=-1.0, epsilon=0.1)

    def test_nonfinite_theta_rejected(self):
        with pytest.raises(ValueError):
            wk.WalkConfig(2, float("nan"))


class TestCoinMatrix:
    def test_theta_zero_block_diagonal(self):
        p = un.su2_closed_form(np.array([0.1, 0.2, 0.3]))
        q = un.su2_closed_form(np.array([-0.4, 0.0, 0.9]))
        b = wk.coin_matrix(0.0, p, q)
        assert np.allclose(b[:2, :2], p)
        assert np.allclose(b[2:, 2:], q)
        assert np.allclose(b[:2, 2:], 0)

    def test_theta_half_pi_off_diagonal(self):
        p, q = np.eye(2), np.eye(2)
        b = wk.coin_matrix(np.pi / 2, p, q)
        assert np.allclose(b[:2, :2], 0, atol=1e-16)
        assert np.allclose(b[:2, 2:], 1j * np.eye(2))
        assert np.allclose(b[2:, :2], 1j * np.eye(2))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000),
           st.floats(-np.pi, np.pi, allow_nan=False))
    def test_unitary(self, seed, theta):
        rng = np.random.default_rng(seed)
        b = wk.coin_matrix(theta, un.random_unitary(2, rng), un.random_unitary(2, rng))
        assert un.unitarity_defect(b) <= 1e-12

    def test_shape_check(self):
        with pytest.raises(un.DimensionError):
            wk.coin_matrix(0.1, np.eye(2), np.eye(3))


class TestStep:
    def test_massless_free_transport(self):
        # theta = 0, identity field: psi^- hops one site left, psi^+ one right
        spec, field = spec_and_identity(dim=1)
        amps = np.zeros((spec.n_sites, 2), dtype=complex)
        i0 = spec.site_index(0)
        amps[i0] = [1.0, 1.0j]
        state = wk.WalkState(spec, 1, 0, amps / np.sqrt(2))
        out = wk.step(state, field, wk.WalkConfig(1, 0.0))
        assert out.j == 1
        assert out.amplitudes[spec.site_index(-1), 0] == pytest.approx(1 / np.sqrt(2))
        assert out.amplitudes[spec.site_index(1), 1] == pytest.approx(1j / np.sqrt(2))
        assert abs(out.amplitudes[i0]).max() == 0.0

    def test_matches_sitewise_coin_oracle(self):
        # independent oracle: build B at every site and apply it to the
        # shifted spinor with explicit loops
        spec = lat.LatticeSpec(0.1, 4, 6)
        field = lat.GaugeField.random(spec, 2, seed=3, scale=0.7)
        state = random_state(spec, 2, seed=4, j=2)
        theta = 0.41
        out = wk.step(state, field, wk.WalkConfig(2, theta))

        n = spec.n_sites
        expected = np.zeros_like(state.amplitudes)
        for i in range(n):
            shifted = np.concatenate([
                state.psi_minus[(i + 1) % n],
                state.psi_plus[(i - 1) % n],
            ])
            b = wk.coin_matrix(theta, field.P(2)[i], field.Q(2)[i])
            expected[i] = b @ shifted
        assert np.max(np.abs(out.amplitudes - expected)) <= 1e-13

    def test_dimension_mismatch(self):
        spec, field = spec_and_identity(dim=2)
        state = random_state(spec, 2, seed=1)
        with pytest.raises(un.DimensionError):
            wk.step(state, field, wk.WalkConfig(3, 0.1))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_probability_conserved(self, seed):
        spec = lat.LatticeSpec(0.1, 4, 12)
        field = lat.GaugeField.random(spec, 2, seed=seed, scale=0.8)
        state = random_state(spec, 2, seed=seed + 1)
        before = wk.total_probability(state)
        after = wk.total_probability(wk.evolve(state, field, wk.WalkConfig(2, -0.2), 10))
        assert abs(after - before) <= 1e-12


def _fields(spec, dim, seed):
    """A random field and a random transformation, and x-uniform ones built
    from broadcast views of one matrix per slice."""
    rng = np.random.default_rng(seed)
    shape = (spec.n_sites, dim, dim)
    p, q, g = (np.broadcast_to(un.random_unitary(dim, rng), shape) for _ in range(3))
    return [(lat.GaugeField.random(spec, dim, seed), lat.GaugeTransformation.random(spec, dim, seed + 1)),
            (lat.GaugeField(spec, dim, lambda j: (p, q)), lat.GaugeTransformation(spec, dim, lambda j: g))]


class TestKernelsMatchEinsum:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 10_000), st.floats(-np.pi, np.pi))
    def test_step_and_transform(self, dim, seed, theta):
        spec = lat.LatticeSpec(0.1, 4, 6)
        state = random_state(spec, dim, seed, j=2)
        minus = np.roll(state.psi_minus, -1, axis=0)
        plus = np.roll(state.psi_plus, 1, axis=0)
        c, s = np.cos(theta), 1j * np.sin(theta)
        for field, g in _fields(spec, dim, seed):
            p_rot = np.einsum("pij,pj->pi", field.P(2), minus)
            q_rot = np.einsum("pij,pj->pi", field.Q(2), plus)
            want = np.hstack([c * p_rot + s * q_rot, s * p_rot + c * q_rot])
            got = wk.step(state, field, wk.WalkConfig(dim, theta))
            assert np.max(np.abs(got.amplitudes - want)) <= 1e-13

            gj = g.G(2)
            want = np.hstack([np.einsum("pij,pj->pi", gj, state.psi_minus),
                              np.einsum("pij,pj->pi", gj, state.psi_plus)])
            got = wk.gauge_transform_state(state, g)
            assert got.j == 2
            assert np.max(np.abs(got.amplitudes - want)) <= 1e-13


class TestEvolve:
    def test_zero_steps(self):
        spec, field = spec_and_identity()
        state = random_state(spec, 2, seed=2)
        out = wk.evolve(state, field, wk.WalkConfig(2, 0.1), 0)
        assert out is state

    def test_negative_steps(self):
        spec, field = spec_and_identity()
        state = random_state(spec, 2, seed=2)
        with pytest.raises(ValueError):
            wk.evolve(state, field, wk.WalkConfig(2, 0.1), -1)

    def test_observer_called_each_step(self):
        spec, field = spec_and_identity()
        state = random_state(spec, 2, seed=2)
        seen = []
        wk.evolve(state, field, wk.WalkConfig(2, 0.1), 5, observer=lambda s: seen.append(s.j))
        assert seen == [1, 2, 3, 4, 5]


class TestGaugeCovariance:
    def test_transform_preserves_probabilities(self):
        spec, _ = spec_and_identity()
        g = lat.GaugeTransformation.random(spec, 2, seed=6)
        state = random_state(spec, 2, seed=7, j=3)
        out = wk.gauge_transform_state(state, g)
        assert np.max(np.abs(out.site_probabilities() - state.site_probabilities())) <= 1e-13

    def test_single_step_commuting_square(self):
        spec = lat.LatticeSpec(0.1, 5, 8)
        field = lat.GaugeField.random(spec, 2, seed=8, scale=0.6)
        g = lat.GaugeTransformation.random(spec, 2, seed=9, scale=0.6)
        field_t = lat.transform_potentials(field, g)
        state = random_state(spec, 2, seed=10)
        cfg = wk.WalkConfig(2, 0.35)
        lhs = wk.step(wk.gauge_transform_state(state, g), field_t, cfg)
        rhs = wk.gauge_transform_state(wk.step(state, field, cfg), g)
        assert np.max(np.abs(lhs.amplitudes - rhs.amplitudes)) <= 1e-12

    def test_mismatch_rejected(self):
        spec, _ = spec_and_identity()
        other = lat.LatticeSpec(0.2, 5, 8)
        g = lat.GaugeTransformation.identity(other, 2)
        state = random_state(spec, 2, seed=1)
        with pytest.raises(un.DimensionError):
            wk.gauge_transform_state(state, g)


class TestWalkState:
    def test_blocks(self):
        spec, _ = spec_and_identity(dim=3)
        state = random_state(spec, 3, seed=1)
        assert state.psi_minus.shape == (spec.n_sites, 3)
        assert state.psi_plus.shape == (spec.n_sites, 3)
        assert np.allclose(
            state.site_probabilities(),
            np.sum(np.abs(state.psi_minus) ** 2 + np.abs(state.psi_plus) ** 2, axis=1),
        )

    def test_shape_and_finiteness_checks(self):
        spec, _ = spec_and_identity()
        with pytest.raises(un.DimensionError):
            wk.WalkState(spec, 2, 0, np.zeros((3, 4)))
        bad = np.zeros((spec.n_sites, 4))
        bad[0, 0] = np.inf
        with pytest.raises(ValueError):
            wk.WalkState(spec, 2, 0, bad)

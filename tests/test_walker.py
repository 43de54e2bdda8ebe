"""Walk dynamics: coin, transport, probability, gauge covariance."""

import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugewalk import experiments as ex
from gaugewalk import lattice as lat
from gaugewalk import unitary as un
from gaugewalk import walker as wk
from references import constant_field, constant_transformation, field_sources, random_unitary, su2_closed_form


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


def _coin_block(theta, p, q):
    """The coin written with np.block, as the reference for coin_matrix."""
    c, s = np.cos(theta), 1j * np.sin(theta)
    return np.block([[c * p, s * q], [s * p, c * q]])


DIMS = st.integers(1, 4)
THETAS = st.one_of(st.sampled_from([0.0, np.pi / 2]), st.floats(-np.pi, np.pi))
SEEDS = st.integers(0, 10_000)


class TestCoinMatrix:
    def test_theta_zero_block_diagonal(self):
        p = su2_closed_form(np.array([0.1, 0.2, 0.3]))
        q = su2_closed_form(np.array([-0.4, 0.0, 0.9]))
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
        b = wk.coin_matrix(theta, random_unitary(2, rng), random_unitary(2, rng))
        assert un.unitarity_defect(b) <= 1e-12

    def test_shape_check(self):
        with pytest.raises(un.DimensionError):
            wk.coin_matrix(0.1, np.eye(2), np.eye(3))

    @pytest.mark.parametrize("link", [np.ones((2, 3)), np.ones(2)], ids=["non-square", "1-d"])
    def test_refuses_links_that_are_not_square_matrices(self, link):
        with pytest.raises(un.DimensionError):
            wk.coin_matrix(0.1, link, link)

    @settings(max_examples=30, deadline=None)
    @given(DIMS, THETAS, SEEDS)
    def test_equals_block_form(self, dim, theta, seed):
        rng = np.random.default_rng(seed)
        p, q = random_unitary(dim, rng), random_unitary(dim, rng)
        assert np.array_equal(wk.coin_matrix(theta, p, q), _coin_block(theta, p, q))


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
    p, q, g = (np.broadcast_to(random_unitary(dim, rng), shape) for _ in range(3))
    return [(lat.GaugeField.random(spec, dim, seed), lat.GaugeTransformation.random(spec, dim, seed + 1)),
            (constant_field(spec, p, q), constant_transformation(spec, g))]


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


def _per_site_formula(state, p, q, theta):
    """The per-site step: one matrix-vector product per site and link."""
    n, amps = state.dim, state.amplitudes
    shifted = np.concatenate((np.roll(amps[:, :n], -1, axis=0), np.roll(amps[:, n:], 1, axis=0)), axis=1)
    p_rot = (p @ shifted[:, :n, None])[..., 0]
    q_rot = (q @ shifted[:, n:, None])[..., 0]
    c, s = np.cos(theta), 1j * np.sin(theta)
    return np.concatenate((c * p_rot + s * q_rot, s * p_rot + c * q_rot), axis=1)


def _uniform_field(spec, dim, seed):
    """A from_potentials field whose coordinates depend on t only, so every
    slice is uniform in x."""
    rng = np.random.default_rng(seed)
    a0, a1, c0, c1 = (3 * rng.standard_normal(dim * dim) for _ in range(4))
    return lat.GaugeField.from_potentials(lambda t, x: a0 + t * a1, lambda t, x: c0 + t * c1,
                                          spec, un.generators_u(dim))


def _per_site_copy(field):
    """The same slices copied into per-site arrays."""
    js = range(field.spec.j_max + 1)
    return lat.GaugeField.from_arrays(field.spec, np.array([field.P(j) for j in js]),
                                      np.array([field.Q(j) for j in js]))


class TestUniformPath:
    @settings(max_examples=30, deadline=None)
    @given(DIMS, THETAS, SEEDS)
    def test_uniform_field_matches_per_site_copy(self, dim, theta, seed):
        spec = lat.LatticeSpec(0.1, 4, 6)
        field = _uniform_field(spec, dim, seed)
        assert lat.uniform_in_x(field.P(0)) and lat.uniform_in_x(field.Q(0))
        copy = _per_site_copy(field)
        assert not lat.uniform_in_x(copy.P(0))
        state, cfg = random_state(spec, dim, seed + 1), wk.WalkConfig(dim, theta)
        for _ in range(spec.j_max):
            got, want = wk.step(state, field, cfg), wk.step(state, copy, cfg)
            assert np.max(np.abs(got.amplitudes - want.amplitudes)) <= 1e-13
            state = want

    @settings(max_examples=30, deadline=None)
    @given(DIMS, THETAS, SEEDS, st.booleans())
    def test_one_uniform_link_takes_per_site_path(self, dim, theta, seed, uniform_p):
        spec = lat.LatticeSpec(0.1, 4, 6)
        rng = np.random.default_rng(seed)
        one = np.broadcast_to(random_unitary(dim, rng), (spec.n_sites, dim, dim))
        sites = np.array([random_unitary(dim, rng) for _ in range(spec.n_sites)])
        p, q = (one, sites) if uniform_p else (sites, one)
        field = constant_field(spec, p, q)
        state = random_state(spec, dim, seed + 1, j=2)
        got = wk.step(state, field, wk.WalkConfig(dim, theta))
        assert np.array_equal(got.amplitudes, _per_site_formula(state, p, q, theta))
        coins = [wk.coin_matrix(theta, p[i], q[i]) for i in range(spec.n_sites)]
        shifted = np.concatenate((np.roll(state.psi_minus, -1, axis=0), np.roll(state.psi_plus, 1, axis=0)),
                                 axis=1)
        want = np.array([b @ v for b, v in zip(coins, shifted)])
        assert np.max(np.abs(got.amplitudes - want)) <= 1e-13

    @settings(max_examples=30, deadline=None)
    @given(DIMS, THETAS, SEEDS)
    def test_per_site_step_is_bit_identical(self, dim, theta, seed):
        spec = lat.LatticeSpec(0.1, 4, 6)
        field = lat.GaugeField.random(spec, dim, seed, scale=0.8)
        state = random_state(spec, dim, seed + 1, j=3)
        got = wk.step(state, field, wk.WalkConfig(dim, theta))
        assert np.array_equal(got.amplitudes, _per_site_formula(state, field.P(3), field.Q(3), theta))


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

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("source", list(field_sources(lat.LatticeSpec(0.1, 3, 4), 1)))
    def test_evolve_is_a_step_loop_bit_for_bit(self, dim, source):
        spec = lat.LatticeSpec(0.1, 3, 2 * lat.RUN + 9)
        make = field_sources(spec, dim, seed=dim)[source]
        state, cfg = random_state(spec, dim, seed=dim, j=3), wk.WalkConfig(dim, 0.4)
        steps = 2 * lat.RUN + 5  # two whole runs and a short one
        got = wk.evolve(state, make(), cfg, steps)
        field, want = make(), state
        for _ in range(steps):
            want = wk.step(want, field, cfg)
        assert got.j == want.j == 3 + steps
        assert np.array_equal(got.amplitudes, want.amplitudes)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_evolve_past_j_max_raises_the_step_loops_error(self, dim):
        spec = lat.LatticeSpec(0.1, 3, lat.RUN + 3)
        state, cfg = random_state(spec, dim, seed=3, j=2), wk.WalkConfig(dim, 0.4)
        field = lat.GaugeField.random(spec, dim, seed=2)
        with pytest.raises(lat.SiteRangeError) as looped:
            for _ in range(lat.RUN + 5):
                state = wk.step(state, field, cfg)
        assert state.j == spec.j_max + 1
        state = random_state(spec, dim, seed=3, j=2)
        with pytest.raises(lat.SiteRangeError) as evolved:
            wk.evolve(state, lat.GaugeField.random(spec, dim, seed=2), cfg, lat.RUN + 5)
        assert str(evolved.value) == str(looped.value) == f"time index {spec.j_max + 1} outside [0, {spec.j_max}]"

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_a_random_field_makes_one_exp_map_and_two_checks_per_run(self, monkeypatch, dim):
        spec = lat.LatticeSpec(0.1, 3, 2 * lat.RUN + 10)
        calls = {"exp_map": [], "unitarity_defect": []}
        for name, counted in calls.items():
            def counter(m, *args, _fn=getattr(lat, name), _calls=counted):
                _calls.append(len(m))
                return _fn(m, *args)
            monkeypatch.setattr(lat, name, counter)
        field = lat.GaugeField.random(spec, dim, seed=1)
        wk.evolve(random_state(spec, dim, seed=1), field, wk.WalkConfig(dim, 0.4), 2 * lat.RUN + 5)
        runs = [lat.RUN, lat.RUN, 5]
        # one check of P, then one of Q, per run
        assert calls == {"exp_map": runs, "unitarity_defect": [n for n in runs for _ in "PQ"]}


class TestWalk:
    """walk yields the states of a step loop and builds every slice inside
    a slice request, RUN slices at a time."""

    SOURCES = list(field_sources(lat.LatticeSpec(0.1, 3, 4), 1))

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("source", SOURCES)
    def test_walk_yields_a_step_loops_states_bit_for_bit(self, dim, source):
        spec = lat.LatticeSpec(0.1, 3, 2 * lat.RUN + 9)
        make = field_sources(spec, dim, seed=dim)[source]
        state, cfg = random_state(spec, dim, seed=dim, j=3), wk.WalkConfig(dim, 0.4)
        steps = 2 * lat.RUN + 5  # two whole runs and a short one
        got = list(wk.walk(state, make(), cfg, steps))
        assert len(got) == steps
        field, want = make(), state
        for n, walked in enumerate(got, 1):
            want = wk.step(want, field, cfg)
            assert walked.j == want.j == 3 + n
            assert np.array_equal(walked.amplitudes, want.amplitudes)
        assert list(wk.walk(state, field, cfg, 0)) == []
        with pytest.raises(ValueError, match="steps must be >= 0"):
            next(wk.walk(state, field, cfg, -1))

    @pytest.mark.parametrize("source", ["random", "transformed", "uniform potentials", "per-site potentials"])
    def test_every_build_of_evolve_runs_inside_a_slice_request(self, monkeypatch, source):
        spec = lat.LatticeSpec(0.1, 3, 2 * lat.RUN + 9)
        field = field_sources(spec, 2, seed=1)[source]()
        depth, depths = [0], {"exp_map": [], "unitarity_defect": []}

        def request(fn):
            def counted(*args):
                depth[0] += 1
                try:
                    return fn(*args)
                finally:
                    depth[0] -= 1
            return counted

        for owner, name in ((lat.GaugeField, "P"), (lat.GaugeField, "Q"), (lat.GaugeTransformation, "G")):
            monkeypatch.setattr(owner, name, request(getattr(owner, name)))
        for name, seen in depths.items():
            def recording(*args, _fn=getattr(lat, name), _seen=seen):
                _seen.append(depth[0])
                return _fn(*args)
            monkeypatch.setattr(lat, name, recording)
        wk.evolve(random_state(spec, 2, seed=1, j=3), field, wk.WalkConfig(2, 0.4), 2 * lat.RUN + 5)
        assert all(seen and min(seen) >= 1 for seen in depths.values())

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_a_walk_over_built_slices_makes_no_exp_map_call(self, monkeypatch, dim):
        # criterion 02's order: the transformed walk requests every plain
        # slice it reads, so the plain walk after it finds them all built
        spec = lat.LatticeSpec(0.1, 8, 52)
        field = lat.GaugeField.random(spec, dim, seed=dim, scale=0.5)
        g = lat.GaugeTransformation.random(spec, dim, seed=dim + 1, scale=0.5)
        state, cfg = random_state(spec, dim, seed=dim), wk.WalkConfig(dim, 0.3)
        wk.evolve(wk.gauge_transform_state(state, g), lat.transform_potentials(field, g), cfg, 50)
        calls = []

        def counting(*args, _fn=lat.exp_map):
            calls.append(len(args[0]))
            return _fn(*args)

        monkeypatch.setattr(lat, "exp_map", counting)
        wk.evolve(state, field, cfg, 50)
        assert calls == []


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

    def test_transformed_walk_first_builds_the_field_in_runs(self, monkeypatch):
        # criterion 02's order: the transformed field is walked first, and its
        # runs ask for the plain field's slices a run at a time, G's one at a time
        spec = lat.LatticeSpec(0.1, 8, 52)
        field = lat.GaugeField.random(spec, 2, seed=3, scale=0.5)
        g = lat.GaugeTransformation.random(spec, 2, seed=4, scale=0.5)
        state = random_state(spec, 2, seed=5)
        cfg = wk.WalkConfig(2, 0.3)
        calls, matrices = [], []

        def counting(coords, gens, _fn=lat.exp_map):
            calls.append(1)
            matrices.append(np.prod(np.shape(coords)[:-1]))
            return _fn(coords, gens)

        monkeypatch.setattr(lat, "exp_map", counting)
        lhs = wk.evolve(wk.gauge_transform_state(state, g), lat.transform_potentials(field, g), cfg, 50)
        rhs = wk.gauge_transform_state(wk.evolve(state, field, cfg, 50), g)
        # 51 G slices of one, and the field's 50 slices as runs of 32 and 18
        assert len(calls) <= 53
        assert sum(matrices) == 51 * spec.n_sites + 50 * 2 * spec.n_sites
        assert np.max(np.abs(lhs.amplitudes - rhs.amplitudes)) <= 1e-12

    def test_mismatch_rejected(self):
        spec, _ = spec_and_identity()
        other = lat.LatticeSpec(0.2, 5, 8)
        g = lat.GaugeTransformation.random(other, 2, seed=0)
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


class TestProbabilityKernel:
    """row_probabilities sums re^2 + im^2 on the float view; the reference
    sums |.|^2 of np.abs, which goes through hypot."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("layout", ["contiguous", "transposed", "column_sliced"])
    def test_matches_sum_of_abs_squared(self, dim, layout):
        spec = lat.LatticeSpec(0.1, 20, 4)
        rng = np.random.default_rng(dim)
        wide = rng.standard_normal((spec.n_sites, 4 * dim)) + 1j * rng.standard_normal((spec.n_sites, 4 * dim))
        amps = {"contiguous": np.ascontiguousarray(wide[:, : 2 * dim]),
                "transposed": np.ascontiguousarray(wide[:, : 2 * dim].T).T,
                "column_sliced": wide[:, ::2]}[layout]
        assert amps.flags.c_contiguous == (layout == "contiguous")
        want = np.sum(np.abs(amps) ** 2, axis=1)
        np.testing.assert_allclose(wk.row_probabilities(amps), want, rtol=1e-15, atol=0)
        state = wk.WalkState(spec, dim, 0, amps)
        assert state.amplitudes.flags.c_contiguous
        np.testing.assert_allclose(state.site_probabilities(), want, rtol=1e-15, atol=0)


class TestWalkStateFinite:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("part", ["real", "imag"])
    def test_refuses_non_finite_part_of_any_component(self, value, part):
        spec, _ = spec_and_identity()
        good = random_state(spec, 2, seed=3).amplitudes
        for site in (0, spec.n_sites - 1):
            for comp in range(4):
                bad = good.copy()
                bad[site, comp] = complex(value, 0.5) if part == "real" else complex(0.5, value)
                with pytest.raises(ValueError, match="non-finite amplitudes"):
                    wk.WalkState(spec, 2, 0, bad)


def benchmark_walk_lattice():
    """The 2801-site lattice and x-uniform SU(2) field of the benchmark's walk."""
    spec = lat.LatticeSpec(0.025, 1400, 800)
    field = lat.GaugeField.from_potentials(*ex.su2_electric_potentials(0.05), spec, un.generators_u(2))
    return spec, field, wk.WalkConfig.from_mass(2, 0.1, spec.epsilon)


def test_uniform_step_allocates_at_most_one_and_a_half_states():
    """One x-uniform step on the 2801-site lattice of the benchmark's walk
    allocates the output and small temporaries; the shifted state goes into
    the thread's gather array.  A step that frees two state-sized arrays
    (the shifted state and the old state) can leave them together at the
    heap top, where they are trimmed and faulted back in on every step."""
    spec, field, config = benchmark_walk_lattice()
    state = wk.step(random_state(spec, 2, seed=0), field, config)  # builds the per-lattice caches
    tracemalloc.start()
    try:
        wk.step(state, field, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * state.amplitudes.nbytes


def test_walks_in_threads_equal_the_serial_walks():
    # every thread gathers into its own array: a shared one would let one
    # thread overwrite another's shifted state while BLAS runs without the GIL
    spec, field, config = benchmark_walk_lattice()
    starts = [random_state(spec, 2, seed=s) for s in range(4)]
    want = [wk.evolve(s, field, config, 40).amplitudes for s in starts]
    got = [None] * len(starts)

    def run(k):
        got[k] = wk.evolve(starts[k], field, config, 40).amplitudes

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(starts))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    for a, b in zip(got, want):
        assert np.array_equal(a, b)

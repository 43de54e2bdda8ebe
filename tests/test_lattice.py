"""Lattice gauge fields, gauge transformations, holonomies, curvature."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugewalk import cli
from gaugewalk import dirac as dr
from gaugewalk import experiments as ex
from gaugewalk import lattice as lat
from gaugewalk import unitary as un
from references import constant_field, constant_transformation, field_sources, su2_closed_form


def small_spec(eps=0.1, p_max=5, j_max=8):
    return lat.LatticeSpec(eps, p_max, j_max)


def long_spec():
    """More time slices than a field or transformation memoises."""
    return small_spec(p_max=3, j_max=lat.SLICE_CACHE + 8)


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

    @pytest.mark.parametrize("epsilon", [np.nan, np.inf, -np.inf])
    def test_non_finite_epsilon_refused(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            lat.LatticeSpec(epsilon, 3, 3)


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
        # b0 - b1 = 0.7, b0 + b1 = -0.3
        f = lat.GaugeField.from_potentials(lambda t, x: np.array([0.2]),
                                           lambda t, x: np.array([-0.5]),
                                           spec, gens)
        assert np.allclose(f.P(1), np.exp(1j * 0.2 * 0.7) * np.ones((spec.n_sites, 1, 1)))
        assert np.allclose(f.Q(1), np.exp(-1j * 0.2 * 0.3) * np.ones((spec.n_sites, 1, 1)))

    def test_electric_field_q_matches_closed_form(self):
        # Q_{j,p} = exp(i eps E t_j sigma_1 / 2), uniform in p
        eps, e_ym = 0.1, 0.3
        spec = small_spec(eps=eps)
        gens = un.generators_u(2)
        b0 = lambda t, x: np.zeros(4)
        b1 = lambda t, x: np.array([0.0, e_ym * t, 0.0, 0.0])
        f = lat.GaugeField.from_potentials(b0, b1, spec, gens)
        j = 4
        want = su2_closed_form(np.array([eps * e_ym * spec.time(j), 0.0, 0.0]))
        assert np.max(np.abs(f.Q(j) - want)) <= 1e-13
        assert np.max(np.abs(f.P(j) - want.conj().T)) <= 1e-13

    def test_random_field_deterministic(self):
        spec = long_spec()
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
        f = constant_field(spec, bad, bad)
        with pytest.raises(ValueError):
            f.P(0)

    @pytest.mark.parametrize("uniform", [True, False])
    def test_non_unitary_slice_is_a_unitarity_error(self, uniform):
        # an invariant failure, non-finite entries included, told apart from
        # config errors (still a ValueError)
        spec = small_spec()
        good = np.broadcast_to(np.eye(2, dtype=complex), (spec.n_sites, 2, 2))
        bad = 1.01 * (good if uniform else np.array(good))
        f = constant_field(spec, good, bad)
        with pytest.raises(un.UnitarityError, match=r"^Q slice j=0 not unitary"):
            f.Q(0)
        nan = np.array(good)
        nan[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite P entry") as info:
            constant_field(spec, nan, good).P(0)
        assert isinstance(info.value, un.UnitarityError)

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

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 10_000), st.booleans(), st.booleans())
    def test_links_are_exp_of_b0_minus_and_plus_b1(self, dim, seed, b0_per_site, b1_per_site):
        spec = small_spec(eps=0.3)
        gens = un.generators_u(dim)
        rng = np.random.default_rng(seed)
        shape = lambda per_site: (spec.n_sites, len(gens)) if per_site else (len(gens),)
        a0, a1 = rng.normal(0, 1, shape(b0_per_site)), rng.normal(0, 1, shape(b1_per_site))
        b0 = lambda t, x: (1 + t) * a0
        b1 = lambda t, x: np.cos(t) * a1
        f = lat.GaugeField.from_potentials(b0, b1, spec, gens)
        for j in (0, 2, spec.j_max):
            c0, c1 = b0(spec.time(j), None), b1(spec.time(j), None)
            want_p = un.exp_map(spec.epsilon * (c0 - c1), gens)
            want_q = un.exp_map(spec.epsilon * (c0 + c1), gens)
            assert np.max(np.abs(f.P(j) - want_p)) <= 1e-13
            assert np.max(np.abs(f.Q(j) - want_q)) <= 1e-13
            uniform = not (b0_per_site or b1_per_site)
            assert (f.P(j).strides[0] == 0) == uniform and (f.Q(j).strides[0] == 0) == uniform

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("b0_per_site, b1_per_site",
                             [(False, False), (True, True), (True, False), (False, True)])
    def test_slices_equal_the_stacked_broadcast_formula(self, dim, b0_per_site, b1_per_site):
        spec = small_spec(eps=0.3)
        gens = un.generators_u(dim)
        rng = np.random.default_rng(dim)
        shape = lambda per_site: (spec.n_sites, len(gens)) if per_site else (len(gens),)
        a0, a1 = rng.normal(0, 1, shape(b0_per_site)), rng.normal(0, 1, shape(b1_per_site))
        b0 = lambda t, x: (1 + t) * a0
        b1 = lambda t, x: np.cos(t) * a1
        f = lat.GaugeField.from_potentials(b0, b1, spec, gens)
        for j in (0, 1, spec.j_max):
            c0, c1 = b0(spec.time(j), None), b1(spec.time(j), None)
            links = un.exp_map(spec.epsilon * np.stack(np.broadcast_arrays(c0 - c1, c0 + c1)), gens)
            site_shape = (spec.n_sites, dim, dim)
            assert np.array_equal(f.P(j), np.broadcast_to(links[0], site_shape))
            assert np.array_equal(f.Q(j), np.broadcast_to(links[1], site_shape))

    def test_broadcast_slice_is_still_validated(self):
        spec = small_spec()
        shape = (spec.n_sites, 2, 2)
        scaled = np.broadcast_to(2 * np.eye(2, dtype=complex), shape)
        bad = np.eye(2, dtype=complex)
        bad[1, 0] = np.nan
        eye = np.broadcast_to(np.eye(2, dtype=complex), shape)
        with pytest.raises(ValueError, match="not unitary"):
            constant_field(spec, scaled, eye).P(0)
        with pytest.raises(ValueError, match="non-finite Q entry"):
            constant_field(spec, eye, np.broadcast_to(bad, shape)).P(0)
        with pytest.raises(ValueError, match="non-finite G entry"):
            constant_transformation(spec, np.broadcast_to(bad, shape)).G(0)
        # a per-site slice is checked at every site, not only the first
        one_bad = eye.copy()
        one_bad[-1] *= 2
        with pytest.raises(ValueError, match="not unitary"):
            constant_transformation(spec, one_bad).G(0)
        # a non-finite entry fails the unitarity test and is named by site
        for value in (np.inf, np.nan):
            at_site = eye.copy()
            at_site[-1, 0, 1] = value
            with pytest.raises(ValueError, match=f"^non-finite P entry at j=0, p={spec.p_max}$"):
                constant_field(spec, at_site, eye).P(0)

    def test_potential_samples_checked(self):
        # the t = 0 sample is taken when the field is made, so a pair bad
        # there fails before any link is built
        spec = small_spec()
        gens = un.generators_u(1)
        ok = lambda t, x: np.array([0.3])

        def build(fn):
            return lat.GaugeField.from_potentials(fn, ok, spec, gens)

        with pytest.raises(un.DimensionError, match=rf"^potential sample at t=0 has shapes \({spec.n_sites + 1}, 1\)"):
            build(lambda t, x: np.zeros((spec.n_sites + 1, 1)))
        with pytest.raises(un.DimensionError, match=r"^potential sample at t=0 has shapes \(2,\) and \(1,\)"):
            build(lambda t, x: np.zeros(2))
        with pytest.raises(ValueError, match=r"non-finite potential sample at t=0$"):
            build(lambda t, x: np.array([np.inf]))
        per_site = np.zeros((spec.n_sites, 1))
        per_site[spec.site_index(1)] = np.nan
        with pytest.raises(ValueError, match=r"at t=0, x=0\.1"):
            build(lambda t, x: per_site)


def smooth_potentials(dim, seed=0):
    """x-uniform b0, b1 whose coordinates vary with t, and their generators."""
    gens = un.generators_u(dim)
    a = np.random.default_rng(seed).normal(0, 1, (4, len(gens)))
    return (lambda t, x: a[0] + t * a[1] + np.sin(3 * t) * a[3],
            lambda t, x: np.cos(2 * t) * a[2] - t * t * a[1], gens)


def spoiled(fn, spec, k, value):
    """fn, except at t_k, where it returns value(fn's uniform sample, x)."""
    return lambda t, x: value(fn(t, x), x) if t == spec.time(k) else fn(t, x)


def exp_map_runs(monkeypatch):
    """The length of every run lattice.exp_map is handed, in call order."""
    runs = []

    def counting(coords, gens, _fn=lat.exp_map):
        runs.append(len(coords))
        return _fn(coords, gens)

    monkeypatch.setattr(lat, "exp_map", counting)
    return runs


class TestSamplePotentials:
    def test_a_pair_of_one_shape_is_returned_as_sampled(self):
        x = small_spec().positions()
        for shape in ((4,), (len(x), 4)):
            a, b = np.arange(np.prod(shape), dtype=float).reshape(shape), np.ones(shape)
            c0, c1 = lat.sample_potentials(lambda t, xx: a, lambda t, xx: b, 0.5, x, 4)
            assert c0 is a and c1 is b

    @pytest.mark.parametrize("uniform", [0, 1])
    def test_a_uniform_member_is_broadcast_to_the_per_point_one(self, uniform):
        x = small_spec().positions()
        u, p = np.arange(4.0), np.cos(x)[:, None] * np.arange(1.0, 5.0)
        fns = [lambda t, xx: p, lambda t, xx: p]
        fns[uniform] = lambda t, xx: u
        pair = lat.sample_potentials(*fns, 0.5, x, 4)
        assert all(c.shape == (len(x), 4) for c in pair)
        assert pair[uniform].strides[0] == 0 and not pair[uniform].flags.writeable
        assert np.array_equal(pair[uniform], np.broadcast_to(u, p.shape))
        assert np.array_equal(pair[1 - uniform], p)

    def test_each_member_is_checked(self):
        x = small_spec().positions()
        ok = lambda t, xx: np.zeros(4)
        with pytest.raises(un.DimensionError, match=r"^potential sample at t=0\.5 has shapes \(4,\) and \(3,\): "
                                                   r"each must be \(4,\) or \(11, 4\)$"):
            lat.sample_potentials(ok, lambda t, xx: np.zeros(3), 0.5, x, 4)
        with pytest.raises(ValueError, match=r"^non-finite potential sample at t=0\.5$"):
            lat.sample_potentials(lambda t, xx: np.full(4, np.nan), ok, 0.5, x, 4)

    def test_a_complex_sample_is_refused_naming_t(self):
        spec = small_spec()
        x = spec.positions()
        ok = lambda t, xx: np.zeros(4)
        for b1 in (lambda t, xx: np.array([0, 1j * t, 0, 0]),
                   lambda t, xx: np.outer(xx, [0, 1j * t, 0, 0])):
            with pytest.raises(ValueError, match=r"^potential sample at t=0\.5 has a nonzero imaginary part$"):
                lat.sample_potentials(ok, b1, 0.5, x, 4)
        field = lat.GaugeField.from_potentials(ok, b1, spec, un.generators_u(2))
        with pytest.raises(ValueError, match=r"^potential sample at t=0\.2 has a nonzero imaginary part$"):
            field.P(2)
        # a complex sample with no imaginary part is its real part
        c0, _ = lat.sample_potentials(lambda t, xx: np.arange(4) + 0j, ok, 0.5, x, 4)
        assert c0.dtype == float and np.array_equal(c0, np.arange(4.0))


def _later_per_point(t, x):
    """Uniform in x at t = 0, one row per point from t = 0.25 on."""
    return np.outer(np.cos(x), [0.0, 1.0, 0.5, 0.0]) if t > 0.25 else np.zeros(4)


# (member, as in _pair; its sample at t = 0.5; exception; message) of each
# refusal of a uniform pair's sample
_REFUSED = {
    **{f"{v}-in-{('b0', 'b1', 'both')[i]}": (i, np.array([0.0, v, 1.0, 2.0]), ValueError,
                                            r"non-finite potential sample at t=0\.5")
       for v in (np.nan, np.inf, -np.inf) for i in (0, 1, 2)},
    "imaginary": (1, np.array([0.0, 1j, 0.0, 0.0]), ValueError,
                  r"potential sample at t=0\.5 has a nonzero imaginary part"),
    "shape": (1, np.zeros(5), un.DimensionError, r"potential sample at t=0\.5 has shapes \(4,\) and \(5,\): "
              r"each must be \(4,\), as the pair is uniform in x"),
    "per-point-later": (1, _later_per_point, un.DimensionError,
                        r"potential sample at t=0\.5 has shapes \(4,\) and \({n}, 4\): "
                        r"each must be \(4,\), as the pair is uniform in x"),
}

# samples the checks accept, and the float values they read them as
_ACCEPTED = {
    "integer": (np.array([1, -2, 3, 0]), np.array([1.0, -2.0, 3.0, 0.0])),
    "zero-imaginary": (np.arange(4) + 0j, np.arange(4.0)),
    "squares-overflow": (np.array([1e200, -3e200, 2e200, 0.0]), np.array([1e200, -3e200, 2e200, 0.0])),
}


def _pair(which, sample):
    """The sample as b0 (which = 0), b1 (1) or both (2), beside a finite float b1 or b0."""
    fn = sample if callable(sample) else (lambda t, x: sample)
    ok = lambda t, x: np.array([0.1, 0.0, -0.2, 0.3])
    return {0: (fn, ok), 1: (ok, fn), 2: (fn, fn)}[which]


class TestTheCommonSample:
    """Two finite float (count,) samples, the common sample of a uniform
    pair, take one test; every other sample meets the same checks, with the
    same exception and message, as before that test existed, and no
    floating-point warning."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", sorted(_REFUSED))
    def test_a_refusal_is_worded_by_the_checks(self, case):
        which, sample, error, message = _REFUSED[case]
        x = small_spec().positions()
        with pytest.raises(error, match="^" + message.format(n=len(x)) + "$"):
            lat.sample_potentials(*_pair(which, sample), 0.5, x, 4, uniform=True)
        grid = dr.SpectralGrid(16, -4.0, 0.5)
        f = dr.SpinorField(grid, 2, np.ones((16, 4)), spectral=True)
        params = dr.DiracParams(0.3, *_pair(which, sample), un.generators_u(2))
        with pytest.raises(error, match="^" + message.format(n=16) + "$"):
            dr.dirac_rhs(f, params, 0.5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("which", [0, 1, 2])
    @pytest.mark.parametrize("case", sorted(_ACCEPTED))
    def test_other_samples_are_read_as_floats(self, case, which):
        sample, floats = _ACCEPTED[case]
        x = small_spec().positions()
        for uniform in (True, None):
            pair = lat.sample_potentials(*_pair(which, sample), 0.5, x, 4, uniform=uniform)
            for c in pair if which == 2 else pair[which : which + 1]:
                assert c.dtype == float and np.array_equal(c, floats)
        grid = dr.SpectralGrid(16, -4.0, 0.5)
        f = dr.SpinorField(grid, 2, np.ones((16, 4)), spectral=True)
        got, want = (dr.dirac_rhs(f, dr.DiracParams(0.3, *_pair(which, s), un.generators_u(2)), 0.5)
                     for s in (sample, floats))
        assert np.all(np.isfinite(got.values)) and np.array_equal(got.values, want.values)


class TestOnePotentialKind:
    """A pair's kind is fixed by its t = 0 sample: uniform in x when both
    samples are (count,), per point otherwise.  Every reader refuses a
    uniform pair that samples per point later, naming t and both shapes; a
    per-point pair takes a member that is uniform later as broadcast rows."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("caller", ["from_potentials", "solve-band-rows", "solve-caller-rows",
                                        "dirac_rhs-spectral"])
    def test_a_uniform_pair_that_turns_per_point_is_refused(self, dim, caller):
        b0, b1, gens = smooth_potentials(dim)
        coef = np.random.default_rng(dim).normal(0, 0.5, len(gens))
        grid = dr.SpectralGrid(128, -6.4, 0.1)
        # from t = 0.255 on, rows that vary in x: one per point sampled, or
        # one per point of the caller's 128-point grid whatever x is
        later = lambda x: np.outer(np.sin(grid.positions() if caller == "solve-caller-rows" else x), coef)
        turning = lambda t, x: b1(t, x) + (later(x) if t > 0.255 else 0)
        params = dr.DiracParams(0.3, b0, turning, gens)
        if caller == "from_potentials":
            spec = small_spec(j_max=12)
            field = lat.GaugeField.from_potentials(b0, turning, spec, gens)
            field.P(0, lat.RUN)  # a run of slices 0 .. 2
            t, rows, refused = 0.3, spec.n_sites, lambda: field.P(3)
        elif caller == "dirac_rhs-spectral":
            f = dr.SpinorField(grid, dim, np.ones((grid.n_points, 2 * dim)), spectral=True)
            dr.dirac_rhs(f, params, 0.25)
            t, rows, refused = 0.3, grid.n_points, lambda: dr.dirac_rhs(f, params, 0.3)
        else:
            # the packet's band is well inside the grid, so solve marches its
            # coefficients on a smaller grid; the step from t = 0.26 meets the turn
            f = dr.gaussian_packet(1.0, 1.0, np.ones(dim), grid, 0.3)
            band = dr._band(f.to_spectral()).grid.n_points
            assert band < grid.n_points // 2
            rows = grid.n_points if caller == "solve-caller-rows" else band
            t, refused = 0.26, lambda: dr.solve(f, params, 0.53, 0.02)
        count = len(gens)
        message = (rf"^potential sample at t={t} has shapes \({count},\) and \({rows}, {count}\): "
                   rf"each must be \({count},\), as the pair is uniform in x$")
        with pytest.raises(un.DimensionError, match=message):
            refused()
        assert cli.report_failures(refused) == 1  # a config error

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("caller", ["from_potentials", "solve", "dirac_rhs"])
    def test_a_per_point_pair_takes_a_later_uniform_member_as_broadcast_rows(self, dim, caller):
        b0, b1, gens = smooth_potentials(dim)
        per_point = lambda fn: lambda t, x: np.cos(x)[:, None] * fn(t, x)
        # b1 per point until t = 0.255, uniform in x from then on
        turning = lambda t, x: b1(t, x) if t > 0.255 else per_point(b1)(t, x)
        rows = lambda t, x: np.broadcast_to(turning(t, x), (len(x), len(gens)))
        pairs = [(per_point(b0), b1_) for b1_ in (turning, rows)]
        if caller == "from_potentials":
            spec = small_spec(j_max=12)
            got, want = (lat.GaugeField.from_potentials(*pair, spec, gens) for pair in pairs)
            for j in range(spec.j_max + 1):
                links = (got.P(j, lat.RUN), got.Q(j))
                assert not any(lat.uniform_in_x(a) for a in links)
                assert all(np.array_equal(a, w) for a, w in zip(links, (want.P(j), want.Q(j))))
            return
        got, want = (dr.DiracParams(0.3, *pair, gens) for pair in pairs)
        f = dr.SpinorField(dr.SpectralGrid(33, -3.3, 0.2), dim, np.ones((33, 2 * dim)))
        if caller == "solve":
            assert np.array_equal(dr.solve(f, got, 0.53, 0.02).values, dr.solve(f, want, 0.53, 0.02).values)
        else:
            assert np.array_equal(dr.dirac_rhs(f, got, 0.4).values, dr.dirac_rhs(f, want, 0.4).values)


class TestPotentialRuns:
    """A potential is built a run of slices at a time."""

    DIMS = [1, 2, 3, 4]

    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("per_site", ["b0", "b1", "both"])
    def test_a_per_site_run_equals_each_slice_of_the_broadcast_pair(self, monkeypatch, dim, per_site):
        spec = small_spec(p_max=3, j_max=12)
        b0, b1, gens = smooth_potentials(dim)
        profile = np.cos(spec.positions())[:, None]
        if per_site in ("b0", "both"):
            b0 = lambda t, x, _fn=b0: profile * _fn(t, x)
        if per_site in ("b1", "both"):
            b1 = lambda t, x, _fn=b1: profile * _fn(t, x)
        runs = exp_map_runs(monkeypatch)
        field = lat.GaugeField.from_potentials(b0, b1, spec, gens)
        got = [(field.P(j, lat.RUN), field.Q(j)) for j in range(spec.j_max + 1)]
        assert runs == [spec.j_max + 1]  # one run holds every slice
        monkeypatch.undo()
        for j, links in enumerate(got):
            t, x = spec.time(j), spec.positions()
            c0, c1 = np.broadcast_arrays(b0(t, x), b1(t, x))
            want = un.exp_map(spec.epsilon * np.stack((c0 - c1, c0 + c1)), gens)
            assert all(np.array_equal(a, w) and not lat.uniform_in_x(a) for a, w in zip(links, want))

    @pytest.mark.parametrize("dim", DIMS)
    def test_slice_equals_its_build_alone_at_any_offset_in_a_run(self, dim):
        spec = long_spec()  # three runs from slice 0, the third clipped at j_max
        b0, b1, gens = smooth_potentials(dim)

        def alone(j):
            f = lat.GaugeField.from_potentials(b0, b1, spec, gens)
            return f.P(j), f.Q(j)  # a run of one

        from_zero = lat.GaugeField.from_potentials(b0, b1, spec, gens)
        from_five = lat.GaugeField.from_potentials(b0, b1, spec, gens)
        from_five.P(5, lat.RUN)  # a run of slices 5 .. 5 + RUN - 1
        edges = {0, 1, 37, lat.RUN - 1, lat.RUN, 2 * lat.RUN - 1, 2 * lat.RUN, spec.j_max - 1, spec.j_max}
        for j in sorted(edges):
            want = alone(j)
            got = (from_zero.P(j, lat.RUN), from_zero.Q(j))
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        for j in (5, 6, lat.RUN + 4, lat.RUN + 5):
            want = alone(j)
            got = (from_five.P(j), from_five.Q(j))
            assert all(np.array_equal(a, b) and a.strides[0] == 0 and not a.flags.writeable
                       for a, b in zip(got, want))

    @pytest.mark.parametrize("per_site", [False, True], ids=["uniform", "per-site"])
    def test_the_t0_sample_is_slice_0s(self, per_site):
        # the sample taken when the field is made is the one slice 0 is built from
        spec = small_spec()
        b0, b1, gens = smooth_potentials(2)
        if per_site:
            b1 = lambda t, x, _fn=b1: np.cos(x)[:, None] * _fn(t, x)
        times = []

        def counted(t, x):
            times.append(t)
            return b0(t, x)

        field = lat.GaugeField.from_potentials(counted, b1, spec, gens)
        got = field.P(0, 4), field.Q(0)
        assert times == [spec.time(j) for j in range(4)]  # 0, 0.1, 0.2, 0.3: t = 0 once
        c0, c1 = np.broadcast_arrays(b0(0.0, spec.positions()), b1(0.0, spec.positions()))
        want = un.exp_map(spec.epsilon * np.stack((c0 - c1, c0 + c1)), gens)
        assert all(np.array_equal(a, np.broadcast_to(w, a.shape)) for a, w in zip(got, want))

    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("bad, message", [
        (lambda c, x: np.full_like(c, np.nan), r"^non-finite potential sample at t={t}$"),
        (lambda c, x: np.zeros(len(c) + 1), r"^potential sample at t={t} has shape"),
        # per site in a pair uniform at t = 0: a change of kind
        (lambda c, x: np.where(x[:, None] > 0, np.inf, np.tile(c, (len(x), 1))),
         r"^potential sample at t={t} has shapes .*, as the pair is uniform in x$"),
    ])
    def test_a_bad_sample_later_in_a_run_fails_only_its_own_slice(self, dim, bad, message):
        spec = small_spec(j_max=12)
        b0, b1, gens = smooth_potentials(dim)
        k = 6
        clean = lat.GaugeField.from_potentials(b0, b1, spec, gens)
        field = lat.GaugeField.from_potentials(b0, spoiled(b1, spec, k, bad), spec, gens)
        for j in range(k):  # slice 0's request builds slices 0 .. k - 1 as one run
            assert np.array_equal(field.P(j, lat.RUN), clean.P(j)) and np.array_equal(field.Q(j), clean.Q(j))
        with pytest.raises(ValueError, match=message.format(t=f"{spec.time(k):.6g}")):
            field.P(k, lat.RUN)
        assert np.array_equal(field.Q(k + 1), clean.Q(k + 1))

    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("kind", [0, 1])
    @pytest.mark.parametrize("value", [1.01, np.nan])
    def test_a_bad_link_in_a_run_names_its_slice_and_kind(self, monkeypatch, dim, kind, value):
        spec = small_spec(j_max=12)
        b0, b1, gens = smooth_potentials(dim)
        start, offset = 2, 5

        def spoiling(coords, gens_):
            links = un.exp_map(coords, gens_)
            if len(links) > offset:
                links[offset, kind, ..., 0, 0] *= value
            return links

        monkeypatch.setattr(lat, "exp_map", spoiling)
        field = lat.GaugeField.from_potentials(b0, b1, spec, gens)
        what, j = "PQ"[kind], start + offset
        message = (f"^{what} slice j={j} not unitary" if value == 1.01
                   else f"^non-finite {what} entry at j={j}, p={-spec.p_max}$")
        with pytest.raises(un.UnitarityError, match=message):
            field.P(start, lat.RUN)

    @pytest.mark.parametrize("dim", DIMS)
    def test_one_exp_map_and_one_check_per_run(self, monkeypatch, dim):
        spec = small_spec(p_max=3, j_max=4 * lat.RUN + 5)
        b0, b1, gens = smooth_potentials(dim)
        calls = {"exp_map": [], "unitarity_defect": []}
        for name, counted in calls.items():
            def counter(m, *args, _fn=getattr(lat, name), _calls=counted):
                _calls.append(len(m))
                return _fn(m, *args)
            monkeypatch.setattr(lat, name, counter)
        field = lat.GaugeField.from_potentials(b0, b1, spec, gens)
        for j in range(spec.j_max + 1):
            field.P(j, lat.RUN), field.Q(j)
        runs = [lat.RUN] * 4 + [6]
        # one check of P, then one of Q, per run
        assert calls == {"exp_map": runs, "unitarity_defect": [n for n in runs for _ in "PQ"]}

    @pytest.mark.parametrize("dim", DIMS)
    def test_an_evicted_run_rebuilds_identical_slices(self, monkeypatch, dim):
        spec = long_spec()
        b0, b1, gens = smooth_potentials(dim, seed=dim)
        field = lat.GaugeField.from_potentials(b0, b1, spec, gens)
        first = {j: (field.P(j, lat.RUN), field.Q(j)) for j in range(spec.j_max + 1)}
        runs = exp_map_runs(monkeypatch)
        # the memo keeps the last SLICE_CACHE slices built, so slices
        # 0 .. j_max - SLICE_CACHE were dropped; slice 3 rebuilds a run,
        # which brings 4 and 8 with it, and slice j_max is still kept
        for j in (3, 4, 8, spec.j_max):
            again = (field.P(j, lat.RUN), field.Q(j))
            assert all(np.array_equal(a, b) for a, b in zip(again, first[j]))
            assert all((a is not b) == (j != spec.j_max) for a, b in zip(again, first[j]))
        assert runs == [lat.RUN]

    @pytest.mark.parametrize("dim", DIMS)
    def test_random_and_array_builds_check_each_slice_alone(self, monkeypatch, dim):
        spec = small_spec()
        counts = {"exp_map": 0, "unitarity_defect": 0}
        for name in counts:
            def counter(*args, _fn=getattr(lat, name), _name=name):
                counts[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(lat, name, counter)
        field = lat.GaugeField.random(spec, dim, seed=1)
        g = lat.GaugeTransformation.random(spec, dim, seed=2)
        moved = lat.transform_potentials(field, g)
        stacked = np.array([field.P(j) for j in range(spec.j_max + 1)])
        arrays = lat.GaugeField.from_arrays(spec, stacked, stacked)
        assert counts == {"exp_map": spec.j_max + 1, "unitarity_defect": 2 * (spec.j_max + 1)}
        moved.P(2), g.G(spec.j_max + 1), arrays.P(0), arrays.Q(1)
        # G(3), G(2) and moved slice 2's P and Q; G(j_max + 1); P and Q of two array slices
        assert counts == {"exp_map": spec.j_max + 4, "unitarity_defect": 2 * (spec.j_max + 1) + 9}


class TestRuns:
    """Every source builds a run of slices at once: the same slices as one
    at a time, with one exp_map and one check per link kind."""

    DIMS = [1, 2, 3, 4]
    SOURCES = list(field_sources(small_spec(), 1))

    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("source", SOURCES)
    def test_a_slice_is_the_same_alone_or_in_a_run(self, dim, source):
        spec = small_spec(p_max=3, j_max=lat.RUN + 9)
        make = field_sources(spec, dim, seed=dim)[source]
        from_zero, from_five = make(), make()
        from_zero.P(0, lat.RUN)
        from_zero.P(lat.RUN, lat.RUN)  # clipped at j_max
        from_five.P(5, lat.RUN)
        for run, js in ((from_zero, (0, 1, lat.RUN - 1, lat.RUN, spec.j_max - 1, spec.j_max)),
                        (from_five, (5, lat.RUN + 4))):
            for j in js:
                alone = make()
                got, want = (run.P(j), run.Q(j)), (alone.P(j), alone.Q(j))
                assert all(np.array_equal(a, b) and not a.flags.writeable for a, b in zip(got, want))
                assert [lat.uniform_in_x(a) for a in got] == [lat.uniform_in_x(b) for b in want]

    @pytest.mark.parametrize("dim", DIMS)
    def test_a_random_transformation_slice_is_the_same_in_a_run(self, dim):
        spec = small_spec(p_max=3, j_max=lat.RUN + 9)
        run = lat._random_run(spec, dim, 3, 7, 0.7, 1)
        whole = run(2, spec.j_max - 1)  # slices 2 .. j_max + 1
        g = lat.GaugeTransformation.random(spec, dim, 3, scale=0.7)
        for l in (0, 1, lat.RUN - 1, len(whole) - 1):
            assert np.array_equal(whole[l, 0], run(2 + l, 1)[0, 0])
            assert np.array_equal(whole[l, 0], g.G(2 + l))

    @pytest.mark.parametrize("ahead", [17, 32, 64])
    def test_an_n3_random_slice_is_the_same_alone_or_in_a_run_of(self, ahead):
        # exp_map's N = 3 closed form takes one path at every batch size
        spec = small_spec(p_max=8, j_max=80)
        run = lat._random_run(spec, 3, 11, 0, 0.8, 2)
        for start in (0, 5):
            links = run(start, ahead)
            for l in (0, 1, ahead // 2, ahead - 1):
                assert np.array_equal(links[l], run(start + l, 1)[0])

    @pytest.mark.parametrize("dim", DIMS)
    def test_a_run_clips_at_j_max_and_a_refused_request_builds_nothing(self, monkeypatch, dim):
        spec = small_spec(p_max=3, j_max=12)
        field = lat.GaugeField.random(spec, dim, seed=1)
        runs = exp_map_runs(monkeypatch)
        for j in (-1, spec.j_max + 1):
            with pytest.raises(lat.SiteRangeError, match=rf"^time index {j} outside \[0, {spec.j_max}\]$"):
                field.Q(j, 5)
        for ahead in (0, -3):
            with pytest.raises(ValueError, match=f"^ahead must be >= 1, got {ahead}$"):
                field.P(spec.j_max - 2, ahead)
        assert runs == []
        field.P(spec.j_max - 2, lat.RUN)
        assert runs == [3]
        for j in range(spec.j_max - 2, spec.j_max + 1):
            field.P(j), field.Q(j, lat.RUN)
        assert runs == [3]  # the requests found their slices built
        with pytest.raises(ValueError, match="^ahead must be >= 1, got 0$"):
            field.P(spec.j_max, 0)

    @pytest.mark.parametrize("dim", DIMS)
    def test_a_g_run_clips_at_j_max_plus_one_and_a_refused_request_builds_nothing(self, monkeypatch, dim):
        spec = small_spec(p_max=3, j_max=12)
        g = lat.GaugeTransformation.random(spec, dim, seed=1)
        runs = exp_map_runs(monkeypatch)
        for j in (-1, spec.j_max + 2):
            with pytest.raises(lat.SiteRangeError, match=rf"^time index {j} outside \[0, {spec.j_max + 1}\]$"):
                g.G(j, 5)
        for ahead in (0, -3):
            with pytest.raises(ValueError, match=f"^ahead must be >= 1, got {ahead}$"):
                g.G(spec.j_max - 1, ahead)
        assert runs == []
        g.G(spec.j_max - 1, lat.RUN)
        assert runs == [3]  # slices j_max - 1 .. j_max + 1
        for j in range(spec.j_max - 1, spec.j_max + 2):
            assert np.array_equal(g.G(j, lat.RUN), lat.GaugeTransformation.random(spec, dim, seed=1).G(j))
        assert runs == [3, 1, 1, 1]  # the requests found their slices built; the fresh ones each built one
        for ahead in (0, -3):
            with pytest.raises(ValueError, match=f"^ahead must be >= 1, got {ahead}$"):
                g.G(spec.j_max + 1, ahead)
        assert runs == [3, 1, 1, 1]

    def test_the_memo_keeps_the_last_slices_built(self, monkeypatch):
        spec = long_spec()
        field = lat.GaugeField.random(spec, 2, seed=3)
        runs = exp_map_runs(monkeypatch)
        first = field.P(0, spec.j_max + 1)  # one run, longer than the memo
        assert runs == [spec.j_max + 1]
        field.P(spec.j_max + 1 - lat.SLICE_CACHE), field.Q(spec.j_max)  # kept
        assert runs == [spec.j_max + 1]
        assert np.array_equal(field.P(0), first)  # dropped, so rebuilt
        assert runs == [spec.j_max + 1, 1]

    @pytest.mark.parametrize("dim", DIMS)
    def test_a_curvature_builds_its_three_slices_as_one_run(self, monkeypatch, dim):
        spec = small_spec()
        b0, b1, gens = smooth_potentials(dim)
        field = lat.GaugeField.from_potentials(b0, b1, spec, gens)
        runs = exp_map_runs(monkeypatch)
        lat.discrete_curvature(field, 4, 0)
        lat.curvature_slice(field, 5)  # slices 4 and 5 built, 6 a run of one
        assert runs == [3, 1]

    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("kind", [0, 1])
    @pytest.mark.parametrize("value", [1.01, np.nan])
    def test_a_bad_array_slice_in_a_run_names_its_slice_and_kind(self, dim, kind, value):
        spec = small_spec(j_max=lat.RUN + 4)
        eye = np.broadcast_to(np.eye(dim, dtype=complex), (spec.j_max + 1, spec.n_sites, dim, dim))
        links = [np.array(eye), np.array(eye)]
        links[kind][7, 2, 0, 0] *= value
        links[1 - kind][9, 0, 0, 0] = np.nan  # a later bad link of the other kind
        field = lat.GaugeField.from_arrays(spec, *links)
        what = "PQ"[kind]
        message = (f"^{what} slice j=7 not unitary" if value == 1.01
                   else f"^non-finite {what} entry at j=7, p={2 - spec.p_max}$")
        with pytest.raises(un.UnitarityError, match=message):
            field.P(2, lat.RUN)
        # requests of one slice at a time raise the same error at the same slice
        for j in range(7):
            field.P(j), field.Q(j)
        with pytest.raises(un.UnitarityError, match=message):
            field.P(7)

    @pytest.mark.parametrize("ahead", [10, lat.RUN])
    def test_a_raising_sample_later_in_a_run_fails_only_its_own_slice(self, ahead):
        spec = small_spec(eps=0.1, j_max=12)
        gens = un.generators_u(1)
        # 1 / (t - 0.5) raises ZeroDivisionError at t_5 = 0.5
        field = lat.GaugeField.from_potentials(lambda t, x: np.array([0.01 / (t - 0.5)]),
                                               lambda t, x: np.array([t]), spec, gens)
        field.P(0, ahead)
        for j in range(5):
            field.P(j)
        with pytest.raises(ZeroDivisionError):
            field.P(5)
        field.P(6)


class TestGaugeTransformation:
    def test_identity_transform_fixes_field(self):
        spec = small_spec()
        f = lat.GaugeField.random(spec, 2, seed=4)
        eye = np.broadcast_to(np.eye(2, dtype=complex), (spec.n_sites, 2, 2))
        g = constant_transformation(spec, eye)
        ft = lat.transform_potentials(f, g)
        assert np.max(np.abs(ft.P(3) - f.P(3))) <= 1e-14

    def test_inverse_transform_recovers(self):
        spec = small_spec()
        f = lat.GaugeField.random(spec, 3, seed=5)
        g = lat.GaugeTransformation.random(spec, 3, seed=6)
        g_inv = lat.GaugeTransformation(spec, 3, lambda j, count: np.array(
            [[np.swapaxes(g.G(k).conj(), -1, -2)] for k in range(j, j + count)]))
        back = lat.transform_potentials(lat.transform_potentials(f, g), g_inv)
        for j in (0, 4, spec.j_max):
            assert np.max(np.abs(back.P(j) - f.P(j))) <= 1e-12
            assert np.max(np.abs(back.Q(j) - f.Q(j))) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3), st.integers(2, 9), st.integers(0, 10_000), st.integers(0, 4))
    def test_slices_equal_the_rolled_formula(self, dim, p_max, seed, j):
        # P' = G_{j+1,p} P G^-1_{j,p+1}, Q' = G_{j+1,p} Q G^-1_{j,p-1}, bit for bit
        spec = lat.LatticeSpec(0.1, p_max, 4)
        f = lat.GaugeField.random(spec, dim, seed)
        g = lat.GaugeTransformation.random(spec, dim, seed + 1)
        ft = lat.transform_potentials(f, g)
        g_up, g_here = g.G(j + 1), g.G(j)
        dagger = lambda a: np.swapaxes(a.conj(), -1, -2)
        conj = lambda a, shift: un.stack_matmul(un.stack_matmul(g_up, a), dagger(np.roll(g_here, shift, axis=0)))
        assert np.array_equal(ft.P(j), conj(f.P(j), -1))
        assert np.array_equal(ft.Q(j), conj(f.Q(j), 1))

    def test_slices_built_alone_equal_a_long_run(self):
        # 301 sites, N = 3: a run of 32 slices holds 32 * 301 * 9 complex
        # numbers per kind, over 256 KiB, where numpy may reuse temporaries
        spec = lat.LatticeSpec(0.1, 150, 40)
        f = lat.GaugeField.random(spec, 3, seed=3)
        g = lat.GaugeTransformation.random(spec, 3, seed=4)
        in_run = lat.transform_potentials(f, g)
        in_run.P(2, lat.RUN)
        for j in (2, 17, 33):
            alone = lat.transform_potentials(f, g)
            assert np.array_equal(alone.P(j), in_run.P(j)) and np.array_equal(alone.Q(j), in_run.Q(j))

    def test_domain_extends_one_slice(self):
        spec = small_spec()
        g = lat.GaugeTransformation.random(spec, 2, seed=1)
        g.G(spec.j_max + 1)  # needed to transform the last field slice
        for j in (-1, spec.j_max + 2):
            with pytest.raises(lat.SiteRangeError, match=rf"^time index {j} outside \[0, {spec.j_max + 1}\]$"):
                g.G(j)


def random_lattice(kind, spec, dim, seed):
    cls = lat.GaugeField if kind == "field" else lat.GaugeTransformation
    return cls.random(spec, dim, seed, scale=0.7)


def built(obj, j):
    """The arrays of slice j: (P, Q) of a field, (G,) of a transformation."""
    return (obj.P(j), obj.Q(j)) if isinstance(obj, lat.GaugeField) else (obj.G(j),)


class TestRandomDraws:
    """Slice j of a random field or transformation depends only on (seed, j)."""

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(["field", "transformation"]), st.integers(1, 3), st.integers(0, 2**32), st.integers(0, 8))
    def test_rebuilt_slice_equals_first_build(self, kind, dim, seed, j):
        spec = long_spec()
        obj = random_lattice(kind, spec, dim, seed)
        first = built(obj, j)
        for k in range(spec.j_max + 1):
            if k != j:
                built(obj, k)
        with pytest.MonkeyPatch.context() as patch:
            runs = exp_map_runs(patch)
            again = built(obj, j)
        assert runs == [1]  # dropped from the memo, so rebuilt
        assert all(a is not b and np.array_equal(a, b) for a, b in zip(again, first))

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(["field", "transformation"]), st.integers(1, 3), st.integers(0, 2**32))
    def test_build_order_does_not_matter(self, kind, dim, seed):
        spec = small_spec()
        forward, backward = (random_lattice(kind, spec, dim, seed) for _ in range(2))
        js = range(spec.j_max + 1)
        ahead = [built(forward, j) for j in js]
        behind = [built(backward, j) for j in reversed(js)][::-1]
        for a, b in zip(ahead, behind):
            assert all(np.array_equal(x, y) for x, y in zip(a, b))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 2**32), st.integers(0, 7))
    def test_slices_and_kinds_draw_apart(self, dim, seed, j):
        spec = small_spec()
        f = random_lattice("field", spec, dim, seed)
        g = random_lattice("transformation", spec, dim, seed)
        assert not np.array_equal(f.P(j), f.P(j + 1))
        assert not np.array_equal(f.P(j), f.Q(j))
        assert not np.array_equal(g.G(j), g.G(j + 1))
        assert not np.array_equal(f.P(j), g.G(j))


class TestHolonomies:
    def test_identity_field(self):
        spec = small_spec()
        f = lat.GaugeField.identity(spec, 2)
        assert np.allclose(lat.holonomy_u(f.P(2), f.Q(2)), np.eye(2))
        assert np.allclose(lat.holonomy_v(f.Q(2), f.P(1)), np.eye(2))

    def test_scalar_values(self):
        # P = e^{i(y0 - y1)}, Q = e^{i(y0 + y1)} constant: U = e^{-2i y1},
        # V = e^{2i y0}
        spec = small_spec()
        y0, y1 = 0.4, -0.9
        shape = (spec.j_max + 1, spec.n_sites)
        y = lat.AbelianPotential(spec, np.full(shape, y0), np.full(shape, y1))
        f = lat.abelian_field(y)
        assert np.allclose(lat.holonomy_u(f.P(2), f.Q(2)), np.exp(-2j * y1))
        assert np.allclose(lat.holonomy_v(f.Q(2), f.P(1)), np.exp(2j * y0))

    def test_u_transforms_by_same_site_pair(self):
        # U'_{j,p} = G_{j+1,p} U_{j,p} G^-1_{j+1,p} would be wrong; the law is
        # U' = G_{j+1,p} Q† P G^-1... checked through the curvature law below.
        # Here: U stays unitary under any transformation.
        spec = small_spec()
        f = lat.GaugeField.random(spec, 2, seed=8)
        g = lat.GaugeTransformation.random(spec, 2, seed=9)
        ft = lat.transform_potentials(f, g)
        assert un.unitarity_defect(lat.holonomy_u(ft.P(3), ft.Q(3))) <= 1e-12


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
    @given(st.integers(1, 4), st.integers(0, 10_000), st.integers(1, 7))
    def test_unitary_and_covariant(self, dim, seed, j):
        spec = small_spec()
        f = lat.GaugeField.random(spec, dim, seed=seed, scale=0.6)
        g = lat.GaugeTransformation.random(spec, dim, seed=seed + 1, scale=0.6)
        ft = lat.transform_potentials(f, g)
        fc = lat.curvature_slice(f, j)
        assert un.unitarity_defect(fc) <= 1e-12
        conj = lat.curvature_gauge_conjugator(g, j)
        assert conj.shape == fc.shape
        assert np.max(np.abs(lat.curvature_slice(ft, j) - conj @ fc @ conj.conj().mT)) <= 1e-12

    def test_discrete_curvature_is_a_site_of_the_slice(self):
        f = lat.GaugeField.random(small_spec(), 2, seed=3)
        for p in (-5, 0, 2, 5, 6):
            assert np.array_equal(lat.discrete_curvature(f, 3, p),
                                  lat.curvature_slice(f, 3)[f.spec.site_index(p)])

    def test_conjugator_range_checked(self):
        g = lat.GaugeTransformation.random(small_spec(), 2, seed=1)
        with pytest.raises(lat.SiteRangeError, match="^conjugator needs slice j-1$"):
            lat.curvature_gauge_conjugator(g, 0)


def site_curvature(pq, i):
    """F_{j,p} at array index i, one site at a time from the definition
    F = U+_{j-1,p} V+_{j,p-1} U_{j+1,p} V_{j,p+1}, with U_{j,p} = Q+ P and
    V_{j,p} = Q_{j,p} P_{j-1,p-1}; pq[k] = (P, Q) on slices j-1, j, j+1."""
    (p0, q0), (_, q1), (p2, q2) = pq
    n = len(p0)
    dag = lambda a: a.conj().T

    def v(s):
        return q1[s % n] @ p0[(s - 1) % n]

    return dag(dag(q0[i]) @ p0[i]) @ dag(v(i - 1)) @ (dag(q2[i]) @ p2[i]) @ v(i + 1)


def site_f10(y, j, i):
    """f10 = d1 Y0 - d0 Y1 at slice j and array index i, one site at a time."""
    n = y.spec.n_sites
    d1_y0 = (y.Y0[j, (i + 1) % n] - y.Y0[j, (i - 1) % n]) / 2
    d0_y1 = y.Y1[j + 1, i] - (y.Y1[j, (i + 1) % n] + y.Y1[j, (i - 1) % n]) / 2
    return d1_y0 - d0_y1


class TestSlicesEqualPerSiteFormulas:
    """Each curvature function returns a whole slice; at every site it equals
    the per-site formula written out here."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 10_000), st.integers(1, 7))
    def test_curvature_conjugator_and_factorization(self, dim, seed, j):
        spec = small_spec()
        f = lat.GaugeField.random(spec, dim, seed=seed, scale=0.5)
        g = lat.GaugeTransformation.random(spec, dim, seed=seed + 1, scale=0.5)
        pq = [(f.P(k), f.Q(k)) for k in (j - 1, j, j + 1)]
        curvature = lat.curvature_slice(f, j)
        conj = lat.curvature_gauge_conjugator(g, j)
        # each link split on its own into its U(1) phase and SU(N) part
        parts = [[[un.factorize(links[s]) for s in range(spec.n_sites)] for links in pair] for pair in pq]
        delta = [[np.array([[[part.delta]] for part in kind]) for kind in pair] for pair in parts]
        special = [[np.array([part.special for part in kind]) for kind in pair] for pair in parts]
        residuals = []
        for i in range(spec.n_sites):
            p = i - spec.p_max
            assert np.max(np.abs(curvature[i] - site_curvature(pq, i))) <= 1e-13
            assert np.array_equal(conj[i], g.G(j - 1)[spec.site_index(p + 1)])
            f_delta, f_bar = site_curvature(delta, i), site_curvature(special, i)
            residuals.append(np.max(np.abs(site_curvature(pq, i) - f_delta[0, 0] * f_bar)))
        residual, branch = lat.curvature_factorization_check(f, j)
        assert branch == any(part.branch_discontinuous for pair in parts for kind in pair for part in kind)
        assert residual == pytest.approx(max(residuals), rel=0, abs=1e-15)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 7), st.integers(1, 7))
    def test_abelian_curvature(self, seed, p_max, j):
        rng = np.random.default_rng(seed)
        spec = small_spec(p_max=p_max)
        shape = (spec.j_max + 1, spec.n_sites)
        y = lat.AbelianPotential(spec, rng.normal(0, 0.8, shape), rng.normal(0, 0.8, shape))
        f10, phase = lat.abelian_discrete_curvature(y, j)
        assert f10.shape == phase.shape == (spec.n_sites,)
        for i in range(spec.n_sites):
            # (I f10)_{j,p} = f10_{j,p} + f10_{j-1,p-1}
            here, back = site_f10(y, j, i), site_f10(y, j - 1, (i - 1) % spec.n_sites)
            assert f10[i] == here
            assert phase[i] == complex(np.exp(2j * (here + back)))


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
        b0 = lambda t, xx: c * np.outer(xx, [0.0, 1.0, 0.0, 0.0])
        b1 = lambda t, xx: c * np.outer(xx, [0.0, 0.0, 1.0, 0.0])
        f10 = lat.continuous_curvature(b0, b1, gens, 0.0, x)
        want = (c / 2) * un.PAULI[0] - (c * c * x * x / 2) * un.PAULI[2]
        assert np.max(np.abs(f10 - want)) <= 1e-8


class TestCurvatureOfAnXDependentPotential:
    """The discrete curvature against F10 of potentials that vary in x, so
    that the d1 B0 term is compared with the lattice."""

    EPSILONS = [0.2, 0.1, 0.05, 0.025]

    @staticmethod
    def static_commutator(c=0.8):
        # B0 = c x sigma_1/2, B1 = c x sigma_2/2: at x = 0, F10 = d1 B0 = (c/2) sigma_1
        return (lambda t, x: c * np.outer(x, [0.0, 1.0, 0.0, 0.0]),
                lambda t, x: c * np.outer(x, [0.0, 0.0, 1.0, 0.0]))

    @staticmethod
    def smooth_noncommuting():
        def b0(t, x):
            return np.stack([0.1 * np.cos(x), 0.3 * np.sin(t + x), 0.2 * np.cos(0.7 * t - x) + 0.05,
                             0.1 + 0.2 * x * t], axis=-1)

        def b1(t, x):
            return np.stack([0.05 * x, -0.2 * np.cos(t) * (1 + x), 0.25 * np.sin(0.5 * x + t),
                             -0.3 + 0.1 * x + 0.05 * t], axis=-1)

        return b0, b1

    def test_static_commutator_field_strength_at_the_origin(self):
        gens = un.generators_u(2)
        f10 = lat.continuous_curvature(*self.static_commutator(), gens, 1.0, 0.0)
        assert np.max(np.abs(f10 - 0.4 * un.PAULI[0])) <= 1e-9

    @pytest.mark.parametrize("field", ["static_commutator", "smooth_noncommuting"])
    def test_remainder_order_and_extracted_field_strength(self, field):
        table = ex.curvature_order_table(*getattr(self, field)(), self.EPSILONS)
        assert min(table["orders"]) >= 2.5
        errors = table["extracted_f10_error"]
        assert all(fine < coarse for coarse, fine in zip(errors, errors[1:]))


class TestAbelian:
    def test_potential_shape_checked(self):
        spec = small_spec()
        with pytest.raises(Exception):
            lat.AbelianPotential(spec, np.zeros((2, 2)), np.zeros((2, 2)))

    def test_zero_potential(self):
        spec = small_spec()
        shape = (spec.j_max + 1, spec.n_sites)
        y = lat.AbelianPotential(spec, np.zeros(shape), np.zeros(shape))
        f10, phase = lat.abelian_discrete_curvature(y, 2)
        assert np.array_equal(f10, np.zeros(spec.n_sites))
        assert np.array_equal(phase, np.ones(spec.n_sites, dtype=complex))

    def test_range_checked(self):
        spec = small_spec()
        shape = (spec.j_max + 1, spec.n_sites)
        y = lat.AbelianPotential(spec, np.zeros(shape), np.zeros(shape))
        for j in (0, spec.j_max):
            with pytest.raises(lat.SiteRangeError, match=f"^abelian curvature needs 1 <= j <= j_max-1, got {j}$"):
                lat.abelian_discrete_curvature(y, j)

    def test_linear_time_ramp_f10(self):
        # Y1_{j,p} = eps^2 E j gives f10 = -eps^2 E, uniform
        spec = small_spec(eps=0.2)
        e = 0.7
        shape = (spec.j_max + 1, spec.n_sites)
        y1 = (spec.epsilon ** 2) * e * np.arange(spec.j_max + 1)[:, None] * np.ones(shape)
        y = lat.AbelianPotential(spec, np.zeros(shape), y1)
        f10, _ = lat.abelian_discrete_curvature(y, 3)
        assert np.max(np.abs(f10 + spec.epsilon ** 2 * e)) <= 1e-14

    def test_pipeline_matches_matrix_curvature(self):
        rng = np.random.default_rng(5)
        spec = small_spec()
        shape = (spec.j_max + 1, spec.n_sites)
        y = lat.AbelianPotential(spec, rng.normal(0, 0.8, shape), rng.normal(0, 0.8, shape))
        f = lat.abelian_field(y)
        for j in range(1, spec.j_max):
            _, phase = lat.abelian_discrete_curvature(y, j)
            assert np.max(np.abs(lat.curvature_slice(f, j)[:, 0, 0] - phase)) <= 1e-12


class TestFactorizationCheck:
    def test_identity_field(self):
        spec = small_spec()
        f = lat.GaugeField.identity(spec, 2)
        residual, branch = lat.curvature_factorization_check(f, 3)
        assert residual <= 1e-14
        assert not branch

    def test_special_field_has_trivial_phase_part(self):
        spec = small_spec()
        gens = un.generators_su(2)
        b = lambda t, x: np.array([0.2 * t, -0.1, 0.3])
        f = lat.GaugeField.from_potentials(b, b, spec, gens)
        residual, branch = lat.curvature_factorization_check(f, 3)
        assert not branch
        assert residual <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 10_000), st.integers(1, 7))
    def test_random_field(self, dim, seed, j):
        spec = small_spec()
        f = lat.GaugeField.random(spec, dim, seed=seed, scale=0.5)
        residual, branch = lat.curvature_factorization_check(f, j)
        if not branch:
            assert residual <= 1e-12

    def test_branch_cut_reported(self):
        # P_{3,p_max} = diag(1, -1) has det = -1, on the branch cut; the check
        # at j reads slices j-1 .. j+1
        spec = small_spec()
        eye = np.broadcast_to(np.eye(2, dtype=complex), (spec.n_sites, 2, 2))
        p = np.array(np.broadcast_to(eye, (spec.j_max + 1,) + eye.shape))
        p[3, -1] = np.diag([1.0, -1.0])
        f = lat.GaugeField.from_arrays(spec, p, np.broadcast_to(eye, p.shape))
        assert [lat.curvature_factorization_check(f, j)[1] for j in range(1, 6)] == \
            [False, True, True, True, False]

    def test_range_checked(self):
        spec = small_spec()
        f = lat.GaugeField.identity(spec, 2)
        for j in (0, spec.j_max):
            with pytest.raises(lat.SiteRangeError):
                lat.curvature_factorization_check(f, j)

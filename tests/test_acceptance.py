"""Acceptance gate: eleven end-to-end criteria, one per test, each printing a
single PASS/FAIL line (run with -s to see them live).

Known red: criterion 7's zero-momentum leg.  A wave packet prepared at
k0 = 0 with sigma = 1 is momentum-broad compared to its mass (m = 0.1), so
its mean position responds to the field an order of magnitude more weakly
than the point particle does, for every field strength: weak fields barely
move the packet, strong fields pair-produce instead of accelerating it.  The
comparison is implemented faithfully and fails honestly; the moving-packet
leg (k0 = 1, sigma = 0.5) and the free control pass.
"""

import time

import numpy as np
import pytest

from gaugewalk import analysis as an
from gaugewalk import classical as cl
from gaugewalk import dirac as dr
from gaugewalk import experiments as ex
from gaugewalk import lattice as lat
from gaugewalk import unitary as un
from gaugewalk import walker as wk
from references import generator_potentials, local_slopes, one_step_generator_errors, su2_closed_form


def report(name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")


def random_state(spec, dim, seed):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal((spec.n_sites, 2 * dim)) + 1j * rng.standard_normal(
        (spec.n_sites, 2 * dim))
    amps /= np.linalg.norm(amps)
    return wk.WalkState(spec, dim, 0, amps)


def test_criterion_01_long_run_unitarity():
    """Probability conserved to 1e-10 over 1e4 steps on random fields,
    N in {1, 2, 3}, each leg within 30 s."""
    worst_drift, worst_wall = 0.0, 0.0
    for dim in (1, 2, 3):
        t0 = time.perf_counter()
        spec = lat.LatticeSpec(0.1, 8, 10_000)
        field = lat.GaugeField.random(spec, dim, seed=42 + dim, scale=0.8)
        state = random_state(spec, dim, seed=dim)
        before = wk.total_probability(state)
        state = wk.evolve(state, field, wk.WalkConfig(dim, 0.37), 10_000)
        drift = abs(wk.total_probability(state) - before)
        wall = time.perf_counter() - t0
        worst_drift = max(worst_drift, drift)
        worst_wall = max(worst_wall, wall)
    ok = worst_drift <= 1e-10 and worst_wall <= 30.0
    report("criterion-01 unitarity", ok,
           f"max drift {worst_drift:.2e} (tol 1e-10), max wall {worst_wall:.1f}s (tol 30s)")
    assert worst_drift <= 1e-10
    assert worst_wall <= 30.0


def test_criterion_02_commuting_square():
    """Gauge-transformed evolution equals evolved-then-transformed state to
    1e-12 over 50 steps, 100 random N = 2 trials."""
    spec = lat.LatticeSpec(0.1, 8, 52)
    worst = 0.0
    for trial in range(100):
        field = lat.GaugeField.random(spec, 2, seed=trial, scale=0.5)
        g = lat.GaugeTransformation.random(spec, 2, seed=trial + 10_000, scale=0.5)
        field_t = lat.transform_potentials(field, g)
        state = random_state(spec, 2, seed=trial)
        cfg = wk.WalkConfig(2, 0.3)
        lhs = wk.evolve(wk.gauge_transform_state(state, g), field_t, cfg, 50)
        rhs = wk.gauge_transform_state(wk.evolve(state, field, cfg, 50), g)
        worst = max(worst, float(np.max(np.abs(lhs.amplitudes - rhs.amplitudes))))
    ok = worst <= 1e-12
    report("criterion-02 commuting square", ok, f"max residual {worst:.2e} (tol 1e-12)")
    assert worst <= 1e-12


def test_criterion_03_curvature_covariance():
    """F'_{j,p} = G_{j-1,p+1} F_{j,p} G^-1_{j-1,p+1} to 1e-12 at every site
    of 19 slices (323 sites) for N in {2, 3}."""
    worst = 0.0
    for dim in (2, 3):
        spec = lat.LatticeSpec(0.1, 8, 20)
        field = lat.GaugeField.random(spec, dim, seed=90 + dim, scale=0.6)
        g = lat.GaugeTransformation.random(spec, dim, seed=190 + dim, scale=0.6)
        field_t = lat.transform_potentials(field, g)
        count = 0
        for j in range(1, spec.j_max):
            f_plain = lat.curvature_slice(field, j)
            f_primed = lat.curvature_slice(field_t, j)
            conj = lat.curvature_gauge_conjugator(g, j)
            worst = max(worst, float(np.max(np.abs(f_primed - conj @ f_plain @ conj.conj().mT))))
            count += len(f_plain)
        assert count >= 100
    ok = worst <= 1e-12
    report("criterion-03 curvature covariance", ok, f"max residual {worst:.2e} (tol 1e-12)")
    assert worst <= 1e-12


def test_criterion_04_curvature_factorization():
    """F(R) = F(delta_R) F(Rbar) to 1e-12 at every site of every slice of six
    random fields (slices with a branch hit skipped)."""
    spec = lat.LatticeSpec(0.1, 6, 12)
    worst, checked = 0.0, 0
    for seed in range(6):
        field = lat.GaugeField.random(spec, 2, seed=300 + seed, scale=0.5)
        for j in range(1, spec.j_max):
            residual, branch = lat.curvature_factorization_check(field, j)
            if not branch:
                worst = max(worst, residual)
                checked += spec.n_sites
    ok = worst <= 1e-12 and checked >= 40
    report("criterion-04 curvature factorization", ok,
           f"max residual {worst:.2e} over {checked} sites (tol 1e-12)")
    assert checked >= 40
    assert worst <= 1e-12


def test_criterion_05_curvature_order_and_field_strength():
    """Halving eps from 0.2 to 0.025: the curvature remainder of a generic
    noncommuting field shrinks at order 3 +- 0.3, and the field strength
    extracted from the uniform-electric-field curvature converges to
    -E sigma_1 / 2 with an O(eps) (here O(eps^2)) error."""
    epsilons = [0.2, 0.1, 0.05, 0.025]
    e_ym = 0.08
    generic = ex.curvature_order_table(*ex.generic_su2_potentials(), epsilons)
    slope, _ = an.fit_loglog_slope(an.ConvergenceSeries(
        np.array(epsilons), np.array(generic["remainders"])))

    electric = ex.curvature_order_table(*ex.su2_electric_potentials(e_ym), epsilons)
    f10_norm = e_ym / 2  # max-norm of -E sigma_1 / 2
    rel_errors = [err / f10_norm for err in electric["extracted_f10_error"]]
    first_order_ok = all(err <= 0.1 * eps * f10_norm
                         for eps, err in zip(epsilons, electric["extracted_f10_error"]))

    ok = 2.7 <= slope <= 3.3 and first_order_ok and rel_errors[-1] <= 0.01
    report("criterion-05 curvature order", ok,
           f"generic order {slope:.2f} (band 3.0+-0.3), extracted-F10 rel error "
           f"at finest eps {rel_errors[-1]:.1e} (tol 1e-2)")
    assert 2.7 <= slope <= 3.3
    assert first_order_ok
    assert rel_errors[-1] <= 0.01


def test_criterion_06_continuum_convergence(tmp_path):
    """Mean relative difference of psi^- between walk and Dirac reference on
    the SU(2) electric field scales ~ eps^1: slope 1.0 +- 0.15, r^2 >= 0.98,
    within 5 minutes."""
    cfg = ex.ExperimentConfig(
        experiment="convergence", dim=2, mass=0.1, e_ym=0.08,
        epsilons=(0.4, 0.2, 0.1, 0.05), sigma=0.5, k0=0.0,
        x_max=100.0, t_max=50.0, output_dir=str(tmp_path))
    t0 = time.perf_counter()
    res = ex.run_convergence(cfg)
    wall = time.perf_counter() - t0
    ok = (abs(res["slope_re"] - 1.0) <= 0.15 and abs(res["slope_im"] - 1.0) <= 0.15
          and res["r2_re"] >= 0.98 and res["r2_im"] >= 0.98 and wall <= 300.0)
    report("criterion-06 convergence", ok,
           f"slopes re {res['slope_re']:.3f} / im {res['slope_im']:.3f} (band 1.0+-0.15), "
           f"r2 {min(res['r2_re'], res['r2_im']):.4f} (>= 0.98), wall {wall:.0f}s (<= 300s)")
    assert abs(res["slope_re"] - 1.0) <= 0.15
    assert abs(res["slope_im"] - 1.0) <= 0.15
    assert res["r2_re"] >= 0.98
    assert res["r2_im"] >= 0.98
    assert wall <= 300.0


def _trajectory_deviation(tmp_path, e_ym, k0, sigma, tag):
    cfg = ex.ExperimentConfig(
        experiment="trajectory", dim=2, mass=0.1, e_ym=e_ym,
        epsilons=(0.1,), sigma=sigma, k0=k0, x_max=35.0, t_max=20.0,
        output_dir=str(tmp_path / tag))
    res = ex.run_trajectory(cfg)
    return res["max_deviation"], res["traversed"]


def test_criterion_07a_trajectory_moving_packet(tmp_path):
    """Walk mean position tracks the Wong closed form within 5% of the
    traversed distance for the k0 = 1, sigma = 0.5 packet, plus a free
    control within the packet-spreading tolerance 0.5."""
    max_dev, traversed = _trajectory_deviation(tmp_path, 0.05, 1.0, 0.5, "moving")
    ratio = max_dev / traversed
    ctrl_dev, _ = _trajectory_deviation(tmp_path, 0.0, 1.0, 0.5, "control")
    ok = ratio <= 0.05 and ctrl_dev <= 0.5
    report("criterion-07a trajectory (k0=1)", ok,
           f"max deviation {ratio * 100:.1f}% of {traversed:.1f} traversed (tol 5%), "
           f"free control deviation {ctrl_dev:.2f} (tol 0.5)")
    assert ratio <= 0.05
    assert ctrl_dev <= 0.5


def test_criterion_07b_trajectory_packet_at_rest(tmp_path):
    """The k0 = 0, sigma = 1 leg of the same comparison.  KNOWN RED: the
    packet's momentum spread (sigma ~ 10 m) makes its mean-position response
    far weaker than the classical point particle's at every field strength;
    see the module docstring.  Kept faithful to the stated comparison."""
    max_dev, traversed = _trajectory_deviation(tmp_path, 0.05, 0.0, 1.0, "rest")
    ratio = max_dev / traversed
    report("criterion-07b trajectory (k0=0)", ratio <= 0.05,
           f"max deviation {ratio * 100:.1f}% of {traversed:.1f} traversed (tol 5%) "
           "[expected red: momentum-broad packet]")
    assert ratio <= 0.05


def test_criterion_08_plane_wave_spinors():
    """u_+(k) satisfies H(k) u = E u, with H(k) = [[-k, m], [m, k]] on
    (psi^-, psi^+), to 1e-12 for 1000 wavenumbers and m in {0.05, 0.1, 1.0}."""
    worst = 0.0
    ks = np.linspace(-10.0, 10.0, 1000)
    for m in (0.05, 0.1, 1.0):
        for k in ks:
            u = dr.u_plus(float(k), m)
            e = np.sqrt(k * k + m * m)
            h = np.array([[-k, m], [m, k]], dtype=complex)
            worst = max(worst, float(np.max(np.abs(h @ u - e * u))))
    ok = worst <= 1e-12
    report("criterion-08 plane-wave spinors", ok, f"max residual {worst:.2e} (tol 1e-12)")
    assert worst <= 1e-12


def test_criterion_09_abelian_reduction():
    """For N = 1 the matrix curvature equals the scalar-phase closed form
    exp[2i (I f10)] to 1e-12 on random potentials."""
    worst = max(ex.abelian_consistency_residual(seed) for seed in range(5))
    ok = worst <= 1e-12
    report("criterion-09 abelian reduction", ok, f"max residual {worst:.2e} (tol 1e-12)")
    assert worst <= 1e-12


def test_criterion_10_numerical_kernels():
    """exp_map agrees with the SU(2) closed form to 1e-12; halving the step
    shrinks the fixed-horizon error 4x (RK2) and 16x (RK4), each +- 20%."""
    rng = np.random.default_rng(2024)
    gens = un.generators_su(2)
    worst = 0.0
    for _ in range(200):
        v = rng.uniform(-8, 8, size=3)
        worst = max(worst, float(np.max(np.abs(un.exp_map(v, gens) - su2_closed_form(v)))))

    # RK2 on a free Dirac plane-wave mode with a known phase evolution
    grid = dr.SpectralGrid(64, -3.2, 0.1)
    k, m = grid.wavenumbers()[2], 0.5
    params = dr.DiracParams(m, lambda t, x: np.zeros(1), lambda t, x: np.zeros(1),
                            un.generators_u(1))
    vals0 = np.exp(1j * k * grid.positions())[:, None] * dr.u_plus(float(k), m)
    exact = vals0 * np.exp(-1j * np.sqrt(k * k + m * m))

    def rk2_error(dt):
        out = dr.solve(dr.SpinorField(grid, 1, vals0), params, 1.0, dt)
        return float(np.max(np.abs(out.values - exact)))

    rk2_ratio = rk2_error(0.02) / rk2_error(0.01)

    # RK4 on the Wong equations against the aligned-isospin closed form
    def rk4_error(dt):
        s = cl.ClassicalState(0.0, 0.3, np.array([0.5, 0.0, 0.0]))
        steps = int(round(4.0 / dt))
        for n in range(steps):
            s = cl.rk4_step(s, 1.0, 1.0, 0.7, n * dt, dt)
        x_exact, _ = cl.closed_form_trajectory(0.0, 0.3, 1.0, 1.0, 0.7, 4.0)
        return abs(s.x - x_exact)

    rk4_ratio = rk4_error(0.4) / rk4_error(0.2)

    ok = worst <= 1e-12 and 3.2 <= rk2_ratio <= 4.8 and 12.8 <= rk4_ratio <= 19.2
    report("criterion-10 numerical kernels", ok,
           f"exp_map residual {worst:.2e} (tol 1e-12), RK2 ratio {rk2_ratio:.2f} "
           f"(band 4+-20%), RK4 ratio {rk4_ratio:.2f} (band 16+-20%)")
    assert worst <= 1e-12
    assert 3.2 <= rk2_ratio <= 4.8
    assert 12.8 <= rk4_ratio <= 19.2


GENERATOR_MASS = 0.3


def test_criterion_11_one_step_generator():
    """One walk step on smooth, per-point, noncommuting U(N) potentials
    against the Dirac generator dirac_rhs, N in {1, 2, 3}, from slice 0 and
    from the slice at t = 1, over eps = 0.1 .. 0.003125: the plain error
    falls at order 1 (every local slope 1 +- 0.05) and its Richardson form
    at order 2 (every local slope >= 1.8), within 2 s."""
    t_start = time.perf_counter()
    plain_slopes, richardson_slopes = [], []
    for dim in (1, 2, 3):
        b0, b1 = generator_potentials(dim, seed=dim)
        for t0 in (0.0, 1.0):
            physics = (b0, b1, GENERATOR_MASS)
            plain, richardson = one_step_generator_errors(physics, physics, dim, t0)
            plain_slopes.extend(local_slopes(plain))
            richardson_slopes.extend(local_slopes(richardson))
    wall = time.perf_counter() - t_start
    plain_ok = all(abs(s - 1.0) <= 0.05 for s in plain_slopes)
    ok = plain_ok and min(richardson_slopes) >= 1.8 and wall <= 2.0
    report("criterion-11 one-step generator", ok,
           f"plain local slopes {min(plain_slopes):.3f}..{max(plain_slopes):.3f} (band 1+-0.05), "
           f"Richardson local slopes >= {min(richardson_slopes):.3f} (>= 1.8), wall {wall:.2f}s (<= 2s)")
    assert plain_ok
    assert min(richardson_slopes) >= 1.8
    assert wall <= 2.0


def _wrong_reference_b0(b0, b1):
    return (b0, b1, GENERATOR_MASS), (lambda t, x: -b0(t, x), b1, GENERATOR_MASS)


def _walk_b0_scaled(b0, b1):
    return (lambda t, x: 1.002 * b0(t, x), b1, GENERATOR_MASS), (b0, b1, GENERATOR_MASS)


def _walk_mass_scaled(b0, b1):
    return (b0, b1, 1.005 * GENERATOR_MASS), (b0, b1, GENERATOR_MASS)


@pytest.mark.parametrize("variant", [_wrong_reference_b0, _walk_b0_scaled, _walk_mass_scaled],
                         ids=["reference -B0", "walk B0 x 1.002", "walk mass x 1.005"])
def test_criterion_11_fails_on_wrong_physics(variant):
    # a wrong limit on either side, fed in as the check's inputs, breaks its gate
    b0, b1 = generator_potentials(2, seed=2)
    plain, richardson = one_step_generator_errors(*variant(b0, b1), 2, 1.0)
    assert min(local_slopes(richardson)) < 1.8 or not all(abs(local_slopes(plain) - 1.0) <= 0.05)

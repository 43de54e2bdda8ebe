"""Batch experiments: convergence sweep, trajectory comparison, gauge and
curvature verification, single evolution runs."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import analysis, classical, dirac, io, lattice, unitary, walker

EXPERIMENTS = ("convergence", "trajectory", "gauge-check", "curvature-check", "evolve")


class ConfigError(ValueError):
    pass


class InvariantViolation(RuntimeError):
    pass


class LeftSafeZone(dirac.NumericalAbort):
    """The walk's mean position came too close to the periodic boundary."""

    def __init__(self, xbar: float, safe: float, t: float):
        super().__init__(t, f"mean position {xbar:.6g} left the safe zone |x| <= {safe:.6g}")


@dataclass
class ExperimentConfig:
    experiment: str = "convergence"
    dim: int = 2
    mass: float = 0.1
    e_ym: float = 0.08
    g: float = 1.0
    theta: float | None = None  # raw coin-angle override; default is -eps*mass
    epsilons: tuple[float, ...] = (0.4, 0.2, 0.1, 0.05)
    sigma: float = 0.5
    k0: float = 0.0
    x_max: float = 100.0
    t_max: float = 50.0
    seed: int = 0
    output_dir: str = "gaugewalk-out"
    # reference-solver step; kept well below eps so the continuum solution is
    # much more accurate than any walk in the sweep
    dirac_dt: float = 0.002

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}")
        for name in ("mass", "e_ym", "g", "sigma", "k0", "x_max", "t_max", "dirac_dt"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if self.dim < 1:
            raise ConfigError("dim must be >= 1")
        if self.sigma <= 0:
            raise ConfigError("sigma must be positive")
        self.epsilons = tuple(float(e) for e in self.epsilons)
        if any(e <= 0 for e in self.epsilons):
            raise ConfigError("epsilons must be positive")
        if self.experiment == "convergence":
            # the slope fit needs three distinct lattice steps
            if len(self.epsilons) < 3 or len(set(self.epsilons)) != len(self.epsilons):
                raise ConfigError("convergence needs at least 3 distinct epsilons")
        walked = {"convergence": self.epsilons, "evolve": (self.epsilon,), "trajectory": (self.epsilon,)}
        for eps in walked.get(self.experiment, ()):
            # the packet's wavenumber support must fit under the lattice Nyquist
            if abs(self.k0) + 4 * self.sigma > np.pi / eps:
                raise ConfigError(f"packet under-resolved at eps={eps}: |k0| + 4*sigma exceeds pi/eps")
        if self.experiment == "trajectory" and self.safe_zone() <= 0:
            raise ConfigError(f"no room for the packet: x_max - 4/sigma - 2 = {self.safe_zone():.3g} <= 0")

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None

    def to_dict(self) -> dict:
        return asdict(self)

    @property
    def epsilon(self) -> float:
        """The lattice step of a single-walk run (evolve, trajectory)."""
        return self.epsilons[0] if self.epsilons else 0.1

    def safe_zone(self) -> float:
        """Largest |mean position| the trajectory run accepts: the domain
        half-width less the packet width and a margin."""
        return self.x_max - 4.0 / self.sigma - 2.0


def su2_electric_potentials(e_ym: float):
    """The constant-SU(2)-electric-field scenario for N = 2 in the u(2)
    coordinate basis (identity, sigma_k/2): b0 = 0, b1 = (0, e_ym*t, 0, 0),
    so b_P = -b1 and b_Q = +b1."""

    def b_p(t, x):
        return np.array([0.0, -e_ym * t, 0.0, 0.0])

    def b_q(t, x):
        return np.array([0.0, e_ym * t, 0.0, 0.0])

    def b0(t, x):
        return np.zeros(4)

    def b1(t, x):
        return np.array([0.0, e_ym * t, 0.0, 0.0])

    return b_p, b_q, b0, b1


def generic_su2_potentials():
    """A smooth noncommuting test field whose curvature remainder shows the
    generic third-order behaviour."""

    def b_p(t, x):
        return np.array([0.0, 0.5 * np.sin(t) + 0.2, 0.3 * np.cos(1.3 * t) + 0.1, 0.4])

    def b_q(t, x):
        return np.array([0.0, -0.3 * np.cos(t), 0.6 * np.sin(0.7 * t), -0.2 + 0.1 * t])

    def b0(t, x):
        return (np.asarray(b_q(t, x)) + np.asarray(b_p(t, x))) / 2

    def b1(t, x):
        return (np.asarray(b_q(t, x)) - np.asarray(b_p(t, x))) / 2

    return b_p, b_q, b0, b1


def _shared_initial_condition(cfg: ExperimentConfig, spec: lattice.LatticeSpec):
    grid = dirac.SpectralGrid.from_lattice(spec)
    color = np.ones(cfg.dim) / np.sqrt(cfg.dim)
    packet = dirac.gaussian_packet(cfg.k0, cfg.sigma, color, grid, cfg.mass)
    state = walker.WalkState(spec, cfg.dim, 0, packet.values.copy())
    return grid, packet, state


def _lattice_for(cfg: ExperimentConfig, eps: float) -> lattice.LatticeSpec:
    p_max = int(round(cfg.x_max / eps))
    steps = int(round(cfg.t_max / eps))
    return lattice.LatticeSpec(eps, p_max, steps + 2)


def _walk_config(cfg: ExperimentConfig, eps: float) -> walker.WalkConfig:
    if cfg.theta is not None:
        return walker.WalkConfig(cfg.dim, cfg.theta)
    return walker.WalkConfig.from_mass(cfg.dim, cfg.mass, eps)


def run_convergence(cfg: ExperimentConfig) -> dict:
    """Evolve the same packet through the walk and through the Dirac solver on
    the SU(2) electric-field background, one leg per epsilon, and fit the
    log-log slope of the mean relative difference of psi^-."""
    if cfg.dim != 2:
        raise ConfigError("the convergence experiment is defined for dim = 2")
    gens = unitary.generators_u(2)
    b_p, b_q, b0, b1 = su2_electric_potentials(cfg.e_ym)
    params = dirac.DiracParams(cfg.mass, b0, b1, gens)

    def leg(eps: float) -> tuple[float, float]:
        spec = _lattice_for(cfg, eps)
        _, packet, state = _shared_initial_condition(cfg, spec)
        field_ = lattice.GaugeField.from_potentials(b_p, b_q, spec, gens)
        state = walker.evolve(state, field_, _walk_config(cfg, eps), int(round(cfg.t_max / eps)))
        ref = dirac.solve(packet, params, cfg.t_max, dt=min(cfg.dirac_dt, eps))
        d_re = analysis.relative_difference(ref.psi_minus, state.psi_minus, eps, np.real)
        d_im = analysis.relative_difference(ref.psi_minus, state.psi_minus, eps, np.imag)
        return d_re, d_im

    eps_sorted = sorted(cfg.epsilons, reverse=True)
    results = [leg(e) for e in eps_sorted]

    deltas_re = np.array([r[0] for r in results])
    deltas_im = np.array([r[1] for r in results])
    eps_arr = np.array(eps_sorted)
    series_re = analysis.ConvergenceSeries(eps_arr, deltas_re, "re_psi_minus")
    series_im = analysis.ConvergenceSeries(eps_arr, deltas_im, "im_psi_minus")
    slope_re, r2_re = analysis.fit_loglog_slope(series_re)
    slope_im, r2_im = analysis.fit_loglog_slope(series_im)

    running = [float("nan"), float("nan")]
    for i in range(2, len(eps_arr)):
        s, _ = analysis.fit_loglog_slope(
            analysis.ConvergenceSeries(eps_arr[: i + 1], deltas_re[: i + 1])
        )
        running.append(s)

    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "convergence.csv"
    io.write_convergence_csv(csv_path, eps_arr, deltas_re, deltas_im, running)
    summary = {
        "epsilons": list(eps_arr),
        "delta_re_minus": list(map(float, deltas_re)),
        "delta_im_minus": list(map(float, deltas_im)),
        "slope_re": slope_re,
        "slope_im": slope_im,
        "r2_re": r2_re,
        "r2_im": r2_im,
    }
    json_path = out / "convergence.json"
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    io.write_manifest(out, cfg.to_dict(), [csv_path, json_path])
    return summary


def run_trajectory(cfg: ExperimentConfig) -> dict:
    """Mean walk position per step on the SU(2) electric field versus the
    aligned-isospin Wong closed form with matched (x0, p0 = k0)."""
    if cfg.dim != 2:
        raise ConfigError("the trajectory experiment is defined for dim = 2")
    if cfg.mass <= 0:
        raise ConfigError("trajectory comparison needs mass > 0")
    eps = cfg.epsilon
    spec = _lattice_for(cfg, eps)
    gens = unitary.generators_u(2)
    b_p, b_q, _, _ = su2_electric_potentials(cfg.e_ym)
    field_ = lattice.GaugeField.from_potentials(b_p, b_q, spec, gens)
    _, _, state = _shared_initial_condition(cfg, spec)

    positions = spec.positions()
    x0 = analysis.mean_position(state.site_probabilities(), positions, eps)
    # keep well clear of the periodic boundary: packet width plus margin
    safe = cfg.safe_zone()
    times, xbar, xcl = [0.0], [x0], [x0]
    wcfg = _walk_config(cfg, eps)
    steps = int(round(cfg.t_max / eps))
    for n in range(1, steps + 1):
        state = walker.step(state, field_, wcfg)
        t = n * eps
        xw = analysis.mean_position(state.site_probabilities(), positions, eps)
        if abs(xw) > safe:
            raise LeftSafeZone(xw, safe, t)
        xc, _ = classical.closed_form_trajectory(x0, cfg.k0, cfg.e_ym, cfg.g, cfg.mass, t)
        times.append(t)
        xbar.append(xw)
        xcl.append(xc)

    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "trajectory.csv"
    io.write_trajectory_csv(csv_path, times, xbar, xcl, cfg.e_ym)
    io.write_manifest(out, cfg.to_dict(), [csv_path])
    return {"t": times, "xbar_walk": xbar, "x_classical": xcl,
            "final_xbar": xbar[-1], "final_x_classical": xcl[-1]}


def gauge_check_residuals(dim: int, spec: lattice.LatticeSpec, seed: int, steps: int = 50) -> dict:
    """Max residuals of the exact discrete identities on one random draw:
    the evolution commuting square, the curvature transformation law, and the
    U(1) x SU(N) curvature factorization."""
    rng = np.random.default_rng(seed)
    field_ = lattice.GaugeField.random(spec, dim, seed, scale=0.5)
    g = lattice.GaugeTransformation.random(spec, dim, seed + 1, scale=0.5)
    field_t = lattice.transform_potentials(field_, g)

    amps = rng.standard_normal((spec.n_sites, 2 * dim)) + 1j * rng.standard_normal((spec.n_sites, 2 * dim))
    amps /= np.linalg.norm(amps)
    psi = walker.WalkState(spec, dim, 0, amps)
    wcfg = walker.WalkConfig(dim, 0.3)

    plain = walker.evolve(psi, field_, wcfg, steps)
    primed = walker.evolve(walker.gauge_transform_state(psi, g), field_t, wcfg, steps)
    expected = walker.gauge_transform_state(plain, g)
    square = float(np.max(np.abs(primed.amplitudes - expected.amplitudes)))

    covariance = 0.0
    factorization = 0.0
    sites = rng.integers(-spec.p_max, spec.p_max + 1, size=8)
    js = rng.integers(1, spec.j_max, size=8)
    for j, p in zip(js, sites):
        f_plain = lattice.discrete_curvature(field_, int(j), int(p)).value
        f_primed = lattice.discrete_curvature(field_t, int(j), int(p)).value
        conj = lattice.curvature_gauge_conjugator(g, int(j), int(p))
        covariance = max(covariance, float(np.max(np.abs(f_primed - conj @ f_plain @ conj.conj().T))))
        resid, branch = lattice.curvature_factorization_check(field_, int(j), int(p))
        if not branch:
            factorization = max(factorization, resid)

    drift = abs(walker.total_probability(plain) - walker.total_probability(psi))
    return {
        "commuting_square": square,
        "curvature_covariance": covariance,
        "curvature_factorization": factorization,
        "probability_drift": drift,
    }


def run_gauge_check(cfg: ExperimentConfig, trials: int = 20, tol: float = 1e-10) -> dict:
    spec = lattice.LatticeSpec(0.1, 8, 52)
    worst: dict[str, float] = {}
    for trial in range(trials):
        res = gauge_check_residuals(cfg.dim, spec, cfg.seed + trial)
        for key, val in res.items():
            worst[key] = max(worst.get(key, 0.0), val)
    report = {"dim": cfg.dim, "trials": trials, "residuals": worst, "tolerance": tol,
              "passed": all(v <= tol for v in worst.values())}
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "gauge_check.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    io.write_manifest(out, cfg.to_dict(), [path])
    if not report["passed"]:
        raise InvariantViolation(f"gauge-check residuals exceed {tol}: {worst}")
    return report


def curvature_order_table(b_p, b_q, b0, b1, epsilons, t_star: float = 1.0,
                          x_star: float = 0.0) -> dict:
    """Max-norm of the curvature remainder F - 1 - 4i eps^2 F10 at a fixed
    physical point, per epsilon, with the observed halving order.  F10 is the
    continuum field-strength; the leading correction to the discrete
    curvature is 4i eps^2 F10 (anti-Hermitian, as the log of a unitary)."""
    gens = unitary.generators_u(2)
    remainders = []
    extracted_err = []
    for eps in epsilons:
        j = int(round(t_star / eps))
        spec = lattice.LatticeSpec(eps, 4, j + 2)
        field_ = lattice.GaugeField.from_potentials(b_p, b_q, spec, gens)
        f = lattice.discrete_curvature(field_, j, 0).value
        f10 = lattice.continuous_curvature(b0, b1, gens, spec.time(j), x_star, h=1e-5)
        remainders.append(float(np.max(np.abs(f - np.eye(2) - 4j * eps**2 * f10))))
        extracted = (f - np.eye(2)) / (4j * eps**2)
        extracted_err.append(float(np.max(np.abs(extracted - f10))))
    orders = [float(np.log2(remainders[i - 1] / remainders[i]) / np.log2(epsilons[i - 1] / epsilons[i]))
              for i in range(1, len(epsilons))]
    return {"epsilons": list(epsilons), "remainders": remainders, "orders": orders,
            "extracted_f10_error": extracted_err}


def run_curvature_check(cfg: ExperimentConfig) -> dict:
    """Halving table for the curvature remainder on a generic noncommuting
    field, plus the electric-field F10 extraction and the N=1 Abelian
    pipeline cross-check."""
    epsilons = [0.2, 0.1, 0.05, 0.025]
    generic = curvature_order_table(*generic_su2_potentials(), epsilons)
    electric = curvature_order_table(*su2_electric_potentials(cfg.e_ym), epsilons)

    abelian = abelian_consistency_residual(cfg.seed)
    report = {
        "generic": generic,
        "electric": electric,
        "abelian_pipeline_residual": abelian,
        "observed_order": min(generic["orders"]),
    }
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "curvature_check.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    io.write_manifest(out, cfg.to_dict(), [path])
    if report["observed_order"] < 2.5:
        raise InvariantViolation(f"curvature remainder order {report['observed_order']:.2f} < 2.5")
    return report


def abelian_consistency_residual(seed: int) -> float:
    """Max difference between the N=1 discrete curvature (as a matrix product)
    and the exp[2i (I f10)] form, over random scalar potentials."""
    rng = np.random.default_rng(seed)
    spec = lattice.LatticeSpec(0.1, 6, 8)
    shape = (spec.j_max + 1, spec.n_sites)
    y = lattice.AbelianPotential(spec, rng.normal(0, 0.7, shape), rng.normal(0, 0.7, shape))
    field_ = lattice.abelian_field(y)
    worst = 0.0
    for j in range(1, spec.j_max):
        for p in range(-spec.p_max, spec.p_max + 1):
            f = lattice.discrete_curvature(field_, j, p).value[0, 0]
            _, phase = lattice.abelian_discrete_curvature(y, j, p)
            worst = max(worst, abs(f - phase))
    return worst


def run_evolve(cfg: ExperimentConfig) -> dict:
    """Evolve a packet on the SU(2) electric field and dump the final state."""
    eps = cfg.epsilon
    spec = _lattice_for(cfg, eps)
    gens = unitary.generators_u(cfg.dim)
    if cfg.dim == 2:
        b_p, b_q, _, _ = su2_electric_potentials(cfg.e_ym)
    else:
        zero = np.zeros(cfg.dim * cfg.dim)
        b_p = b_q = lambda t, x: zero
    field_ = lattice.GaugeField.from_potentials(b_p, b_q, spec, gens)
    _, _, state = _shared_initial_condition(cfg, spec)
    pi0 = walker.total_probability(state)
    state = walker.evolve(state, field_, _walk_config(cfg, eps), int(round(cfg.t_max / eps)))
    drift = abs(walker.total_probability(state) - pi0)

    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "state.csv"
    ckpt_path = out / "state.ckpt"
    io.write_state_csv(csv_path, spec.positions(), state.amplitudes, "walk")
    io.write_checkpoint(ckpt_path, state)
    io.write_manifest(out, cfg.to_dict(), [csv_path, ckpt_path])
    if drift > 1e-10:
        raise InvariantViolation(f"probability drift {drift:.2e} exceeds 1e-10")
    return {"steps": state.j, "probability_drift": drift}

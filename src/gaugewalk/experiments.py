"""Batch experiments: convergence sweep, trajectory comparison, gauge and
curvature verification, single evolution runs."""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import analysis, classical, dirac, io, lattice, unitary, walker


# reference-solver step; kept well below eps so the continuum solution is
# much more accurate than any walk in the sweep
DIRAC_DT = 0.002


class ConfigError(ValueError):
    pass


class InvariantViolation(RuntimeError):
    pass


class LeftSafeZone(dirac.NumericalAbort):
    """The walk's mean position came too close to the periodic boundary."""

    def __init__(self, xbar: float, safe: float, t: float):
        super().__init__(t, f"mean position {xbar:.6g} left the safe zone |x| <= {safe:.6g}")


def _is_number(value) -> bool:
    """A finite real number; a boolean is not one here."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


@dataclass
class ExperimentConfig:
    experiment: str = "convergence"
    dim: int = 2
    mass: float = 0.1
    e_ym: float = 0.08
    epsilons: tuple[float, ...] = (0.4, 0.2, 0.1, 0.05)
    sigma: float = 0.5
    k0: float = 0.0
    x_max: float = 100.0
    t_max: float = 50.0
    seed: int = 0
    output_dir: str = "gaugewalk-out"

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; choose from {tuple(EXPERIMENTS)}")
        for name in ("mass", "e_ym", "sigma", "k0", "x_max", "t_max"):
            if not _is_number(getattr(self, name)):
                raise ConfigError(f"{name} must be a finite number")
        if isinstance(self.dim, bool) or not isinstance(self.dim, numbers.Integral):
            raise ConfigError("dim must be an integer")
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        if not isinstance(self.output_dir, str):
            raise ConfigError("output_dir must be a string")
        if self.dim < 1:
            raise ConfigError("dim must be >= 1")
        # these run on the N = 2 fields of su2_electric_potentials and
        # generic_su2_potentials; only gauge-check reads dim
        if self.experiment in ("convergence", "trajectory", "evolve", "curvature-check") and self.dim != 2:
            raise ConfigError(f"the {self.experiment} experiment runs on an SU(2) field; it needs dim = 2")
        if self.sigma <= 0:
            raise ConfigError("sigma must be positive")
        if not isinstance(self.epsilons, (list, tuple)):
            raise ConfigError("epsilons must be a list of positive finite numbers")
        if not all(_is_number(e) and e > 0 for e in self.epsilons):
            raise ConfigError("epsilons must be positive finite numbers")
        self.epsilons = tuple(float(e) for e in self.epsilons)
        if self.experiment == "convergence":
            # the slope fit needs three distinct lattice steps
            if len(self.epsilons) < 3 or len(set(self.epsilons)) != len(self.epsilons):
                raise ConfigError("convergence needs at least 3 distinct epsilons")
        elif self.experiment in ("evolve", "trajectory") and not self.epsilons:
            raise ConfigError(f"the {self.experiment} experiment walks at epsilons[0]; epsilons must not be empty")
        walked = {"convergence": self.epsilons, "evolve": self.epsilons[:1], "trajectory": self.epsilons[:1]}
        # the packet's spinor needs m > 0.  trajectory refuses m <= 0 when it
        # runs, not here: gwbench's failure-count self-test needs a
        # `trajectory --mass 0` config that passes set-up and then exits 1
        if self.experiment in ("convergence", "evolve") and self.mass <= 0:
            raise ConfigError(f"mass must be positive: the {self.experiment} packet needs m > 0")
        for eps in walked.get(self.experiment, ()):
            # the packet's wavenumber support must fit under the lattice Nyquist
            if abs(self.k0) + 4 * self.sigma > np.pi / eps:
                raise ConfigError(f"packet under-resolved at eps={eps}: |k0| + 4*sigma exceeds pi/eps")
            p_max, steps = self.lattice_size(eps)
            if p_max < 2:
                raise ConfigError(f"x_max = {self.x_max:g} is too small at eps={eps}: "
                                  f"round(x_max / eps) = {p_max}, the lattice needs >= 2")
            if steps < 1:
                raise ConfigError(f"t_max = {self.t_max:g} is too small at eps={eps}: "
                                  f"round(t_max / eps) = {steps}, the walk needs >= 1 step")
        if self.experiment == "trajectory" and self.safe_zone() <= 0:
            raise ConfigError(f"no room for the packet: x_max - 4/sigma - 2 = {self.safe_zone():.3g} <= 0")

    @classmethod
    def from_json(cls, path, **overrides) -> "ExperimentConfig":
        """The config held by the JSON object in the file at path (defaults
        when path is None), with `overrides` on top.  A file that holds
        anything but an object, or an unknown field, is a ConfigError."""
        data = {}
        if path is not None:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise ConfigError(f"config file {path} must hold a JSON object, not {type(data).__name__}")
        data.update(overrides)
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None

    def to_dict(self) -> dict:
        return asdict(self)

    @property
    def epsilon(self) -> float:
        """The lattice step of a single-walk run (evolve, trajectory)."""
        return self.epsilons[0]

    def lattice_size(self, eps: float) -> tuple[int, int]:
        """(p_max, steps) of the walk at lattice step eps: sites p = -p_max
        .. p_max cover [-x_max, x_max], and `steps` steps reach t_max."""
        return int(round(self.x_max / eps)), int(round(self.t_max / eps))

    def safe_zone(self) -> float:
        """Largest |mean position| the trajectory run accepts: the domain
        half-width less the packet width and a margin."""
        return self.x_max - 4.0 / self.sigma - 2.0


def su2_electric_potentials(e_ym: float):
    """The constant-SU(2)-electric-field scenario for N = 2 in the u(2)
    coordinate basis (identity, sigma_k/2): b0 = 0, b1 = (0, e_ym*t, 0, 0)."""

    def b0(t, x):
        return np.zeros(4)

    def b1(t, x):
        return np.array([0.0, e_ym * t, 0.0, 0.0])

    return b0, b1


def generic_su2_potentials():
    """A smooth noncommuting test field whose curvature remainder shows the
    generic third-order behaviour."""

    def b0(t, x):
        return np.array([0.0, 0.25 * np.sin(t) - 0.15 * np.cos(t) + 0.1,
                         0.15 * np.cos(1.3 * t) + 0.3 * np.sin(0.7 * t) + 0.05, 0.1 + 0.05 * t])

    def b1(t, x):
        return np.array([0.0, -0.25 * np.sin(t) - 0.15 * np.cos(t) - 0.1,
                         -0.15 * np.cos(1.3 * t) + 0.3 * np.sin(0.7 * t) - 0.05, -0.3 + 0.05 * t])

    return b0, b1


def _output_dir(cfg: ExperimentConfig) -> Path:
    """--out, made before any compute so that an unusable one fails first."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _electric_walk(cfg: ExperimentConfig, eps: float):
    """The walk on su2_electric_potentials at lattice step eps: the Dirac
    parameters of that potential, the walk's links from it, the packet on
    the lattice sites, the walk state holding it, the walk config (theta =
    -eps*mass) and the step count that reaches t_max."""
    p_max, steps = cfg.lattice_size(eps)
    spec = lattice.LatticeSpec(eps, p_max, steps + 2)
    params = dirac.DiracParams(cfg.mass, *su2_electric_potentials(cfg.e_ym), unitary.generators_u(2))
    field_ = lattice.GaugeField.from_potentials(params.b0, params.b1, spec, params.gens)
    color = np.ones(cfg.dim) / np.sqrt(cfg.dim)
    packet = dirac.gaussian_packet(cfg.k0, cfg.sigma, color, dirac.SpectralGrid.from_lattice(spec), cfg.mass)
    state = walker.WalkState(spec, cfg.dim, 0, packet.values.copy())
    return params, field_, packet, state, walker.WalkConfig.from_mass(cfg.dim, cfg.mass, eps), steps


def run_convergence(cfg: ExperimentConfig) -> dict:
    """Evolve the same packet through the walk and through the Dirac solver on
    the SU(2) electric-field background, one leg per epsilon, and fit the
    log-log slope of the mean relative difference of psi^-."""
    out = _output_dir(cfg)

    def leg(eps: float) -> tuple[float, float]:
        params, field_, packet, state, wcfg, steps = _electric_walk(cfg, eps)
        state = walker.evolve(state, field_, wcfg, steps)
        ref = dirac.solve(packet, params, cfg.t_max, dt=min(DIRAC_DT, eps))
        ref_minus = ref.values[:, :cfg.dim]
        d_re = analysis.relative_difference(ref_minus, state.psi_minus, eps, np.real)
        d_im = analysis.relative_difference(ref_minus, state.psi_minus, eps, np.imag)
        return d_re, d_im

    eps_sorted = sorted(cfg.epsilons, reverse=True)
    results = [leg(e) for e in eps_sorted]

    deltas_re = np.array([r[0] for r in results])
    deltas_im = np.array([r[1] for r in results])
    eps_arr = np.array(eps_sorted)
    series_re = analysis.ConvergenceSeries(eps_arr, deltas_re)
    series_im = analysis.ConvergenceSeries(eps_arr, deltas_im)
    slope_re, r2_re = analysis.fit_loglog_slope(series_re)
    slope_im, r2_im = analysis.fit_loglog_slope(series_im)

    running = [float("nan"), float("nan")]
    for i in range(2, len(eps_arr)):
        s, _ = analysis.fit_loglog_slope(
            analysis.ConvergenceSeries(eps_arr[: i + 1], deltas_re[: i + 1])
        )
        running.append(s)

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
    json_path = io.write_json(out / "convergence.json", summary)
    io.write_manifest(out, cfg.to_dict(), [csv_path, json_path])
    return summary


def run_trajectory(cfg: ExperimentConfig) -> dict:
    """Mean walk position per step on the SU(2) electric field versus the
    aligned-isospin Wong closed form with matched (x0, p0 = k0)."""
    if cfg.mass <= 0:
        raise ConfigError("mass must be positive: the trajectory comparison needs m > 0")
    out = _output_dir(cfg)
    eps = cfg.epsilon
    _, field_, _, state, wcfg, steps = _electric_walk(cfg, eps)

    positions = state.spec.positions()
    x0 = analysis.mean_position(state.site_probabilities(), positions, eps)
    # keep well clear of the periodic boundary: packet width plus margin
    safe = cfg.safe_zone()
    times, xbar, xcl = [0.0], [x0], [x0]
    for n, state in enumerate(walker.walk(state, field_, wcfg, steps), 1):
        t = n * eps
        xw = analysis.mean_position(state.site_probabilities(), positions, eps)
        if abs(xw) > safe:
            raise LeftSafeZone(xw, safe, t)
        # coupling g = 1, the walk's
        xc, _ = classical.closed_form_trajectory(x0, cfg.k0, cfg.e_ym, 1.0, cfg.mass, t)
        times.append(t)
        xbar.append(xw)
        xcl.append(xc)

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

    # field_'s memo (lattice.SLICE_CACHE) holds the whole check lattice, so
    # the primed walk finds every slice of field_ that field_t is built from
    plain = walker.evolve(psi, field_, wcfg, steps)
    primed = walker.evolve(walker.gauge_transform_state(psi, g), field_t, wcfg, steps)
    expected = walker.gauge_transform_state(plain, g)
    square = float(np.max(np.abs(primed.amplitudes - expected.amplitudes)))

    covariance = 0.0
    factorization = 0.0
    # every site of 8 random slices
    for j in map(int, rng.integers(1, spec.j_max, size=8)):
        f_plain = lattice.curvature_slice(field_, j)
        f_primed = lattice.curvature_slice(field_t, j)
        conj = lattice.curvature_gauge_conjugator(g, j)
        covariance = max(covariance, float(np.max(np.abs(f_primed - conj @ f_plain @ conj.conj().mT))))
        resid, branch = lattice.curvature_factorization_check(field_, j)
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
    """The worst gauge_check_residuals over `trials` draws, seeded seed *
    trials + trial, so no two seeds share a draw."""
    out = _output_dir(cfg)
    spec = lattice.LatticeSpec(0.1, 8, 52)
    worst: dict[str, float] = {}
    for trial in range(trials):
        res = gauge_check_residuals(cfg.dim, spec, cfg.seed * trials + trial)
        for key, val in res.items():
            worst[key] = max(worst.get(key, 0.0), val)
    report = {"dim": cfg.dim, "trials": trials, "residuals": worst, "tolerance": tol,
              "passed": all(v <= tol for v in worst.values())}
    path = io.write_json(out / "gauge_check.json", report)
    io.write_manifest(out, cfg.to_dict(), [path])
    if not report["passed"]:
        raise InvariantViolation(f"gauge-check residuals exceed {tol}: {worst}")
    return report


def curvature_order_table(b0, b1, epsilons) -> dict:
    """Max-norm of the curvature remainder F - 1 - 4i eps^2 F10 at the point
    (t, x) = (1, 0), per epsilon, with the observed halving order.  F10 is the
    continuum field-strength; the leading correction to the discrete
    curvature is 4i eps^2 F10 (anti-Hermitian, as the log of a unitary)."""
    gens = unitary.generators_u(2)
    remainders = []
    extracted_err = []
    for eps in epsilons:
        j = int(round(1.0 / eps))
        spec = lattice.LatticeSpec(eps, 4, j + 2)
        field_ = lattice.GaugeField.from_potentials(b0, b1, spec, gens)
        f = lattice.discrete_curvature(field_, j, 0)
        f10 = lattice.continuous_curvature(b0, b1, gens, spec.time(j), 0.0, h=1e-5)
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
    out = _output_dir(cfg)
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
    path = io.write_json(out / "curvature_check.json", report)
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
        _, phase = lattice.abelian_discrete_curvature(y, j)
        worst = max(worst, float(np.max(np.abs(lattice.curvature_slice(field_, j)[:, 0, 0] - phase))))
    return worst


def run_evolve(cfg: ExperimentConfig) -> dict:
    """Evolve a packet on the SU(2) electric field and dump the final state."""
    out = _output_dir(cfg)
    _, field_, _, state, wcfg, steps = _electric_walk(cfg, cfg.epsilon)
    pi0 = walker.total_probability(state)
    state = walker.evolve(state, field_, wcfg, steps)
    drift = abs(walker.total_probability(state) - pi0)

    csv_path = out / "state.csv"
    ckpt_path = out / "state.ckpt"
    io.write_state_csv(csv_path, state.spec.positions(), state.amplitudes, "walk")
    io.write_checkpoint(ckpt_path, state)
    io.write_manifest(out, cfg.to_dict(), [csv_path, ckpt_path])
    if drift > 1e-10:
        raise InvariantViolation(f"probability drift {drift:.2e} exceeds 1e-10")
    return {"steps": state.j, "probability_drift": drift}


# name -> runner, in the order the command line lists them
EXPERIMENTS = {
    "convergence": run_convergence,
    "trajectory": run_trajectory,
    "gauge-check": run_gauge_check,
    "curvature-check": run_curvature_check,
    "evolve": run_evolve,
}

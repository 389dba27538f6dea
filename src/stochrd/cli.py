"""Command line front end.

Subcommands map one to one onto the library experiments:

  check-model   structural conditions on f and the forcing memory integrals
  simulate      one trajectory from a seeded initial state; norm ledger CSV
  certify       trajectory plus energy and gradient certificates
  attractor     pullback approximation of the attractor section at one anchor
  periodicity   compare attractor sections one forcing period apart
  sweep-alpha   vanishing-noise sweep; the headline CSV artifact

Exit codes: 0 all certified contracts pass, 1 a contract fails or a
trajectory diverges, 2 usage or configuration errors.  Every run writes
a manifest.json carrying the command, the SHA-256 of the raw config
file, the effective seed, and the package version; artifacts contain no
wall-clock data, so reruns are byte identical.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import hashlib
import math
import os
import sys

import numpy as np

from . import __version__
from .attractor import (
    AbsorbingSpec,
    TemperedFamilySpec,
    attractor_periodicity_check,
    pullback_ensemble,
    sample_initial,
)
from .cocycle import CocycleQuery, energy_certificate, h1_certificate, phi_record
from .errors import DivergenceError, WindowExceededError
from .fields import Grid, field_to_csv, write_field_block
from .model import (
    ModelSpec,
    Nonlinearity,
    Profile,
    ForcingSpec,
    ZERO_FORCING,
    canonical_cubic,
    check_g_tempered,
    periodic_bump_forcing,
    validate_dissipativity,
)
from .report import _rows, _write_csv, _write_json
from .semicontinuity import sweep_alpha
from .wiener import _whole_steps, _window, sample_two_sided_path

COMMANDS = ("check-model", "simulate", "certify", "attractor", "periodicity", "sweep-alpha")

class ConfigError(ValueError):
    """Unknown or malformed configuration entries."""


def _section(name: str):
    """Report a ValueError of the decorated builder as a ConfigError naming the section."""
    def wrap(build):
        @functools.wraps(build)
        def checked(self):
            try:
                return build(self)
            except ValueError as exc:
                raise ConfigError(f"[{name}] {exc}") from exc
        return checked
    return wrap


@dataclasses.dataclass
class ExperimentConfig:
    """Typed view of one INI experiment file."""

    lam: float = 1.0
    alpha: float = 0.5
    nonlinearity: str = "cubic"
    forcing: str = "periodic-bump"
    forcing_amplitude: float = 0.05
    forcing_period: float = 1.0
    forcing_support: float = 2.0
    delta: float | None = None

    dim: int = 1
    half_width: float = 8.0
    n: int = 257

    dt: float = 1e-3
    t_final: float = 2.0
    tau: float = 0.0

    seed: int = 7

    horizons: tuple = (6.0, 12.0, 20.0)
    m_samples: int = 6
    alphas: tuple = (0.5, 0.25, 0.1, 0.05, 0.02)
    seeds: tuple = (7, 8, 9)
    eps_att: float = 1e-3
    eps_semi: float = 5e-3
    c_abs: float = 2.0
    s_trunc: float = 40.0
    quad_step: float = 0.01
    family: str = "absorbing-ball"
    ball_factor: float = 1.0
    init_radius: float = 1.0
    modes: int = 8
    tail_radius: float | None = None

    write_fields: bool = True

    raw_bytes: bytes = b""

    def __post_init__(self):
        """Reject an intensity no command can run; spans are checked where they are used."""
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"model.alpha = {self.alpha!r} must lie in [0, 1]")

    # -- builders --

    def build_forcing(self) -> ForcingSpec:
        if self.forcing == "zero":
            return ZERO_FORCING
        if self.forcing == "periodic-bump":
            return periodic_bump_forcing(
                self.forcing_amplitude, self.forcing_period, self.forcing_support
            )
        if self.forcing == "constant-bump":
            return ForcingSpec(
                family="constant", amplitude=self.forcing_amplitude,
                profile=Profile("bump", amplitude=1.0, width=self.forcing_support),
            )
        raise ConfigError(f"unknown forcing {self.forcing!r}")

    @_section("model")
    def build_spec(self) -> ModelSpec:
        if self.nonlinearity not in ("cubic", "anticubic"):
            raise ConfigError(f"unknown nonlinearity {self.nonlinearity!r}")
        spec = canonical_cubic(
            alpha=self.alpha, lam=self.lam, forcing=self.build_forcing(),
            delta=self.delta,
        )
        if self.nonlinearity == "anticubic":
            spec = dataclasses.replace(spec, f=Nonlinearity("anticubic"))
        return spec

    @_section("grid")
    def build_grid(self) -> Grid:
        return Grid(dim=self.dim, half_width=self.half_width, n=self.n)

    @_section("experiment")
    def build_absorbing(self) -> AbsorbingSpec:
        _whole_steps(self.s_trunc, self.quad_step, "s_trunc")  # the radius quadrature grid
        return AbsorbingSpec(c_abs=self.c_abs, s_trunc=self.s_trunc, step=self.quad_step)

    @_section("experiment")
    def build_family(self) -> TemperedFamilySpec:
        return TemperedFamilySpec(
            family=self.family, radius=self.init_radius,
            factor=self.ball_factor, modes=self.modes,
        )

    @_section("experiment")
    def path_span(self) -> float:
        """Half-width of the noise window every command draws, rounded up to whole steps
        of dt: it covers the pullback depth with the radius memory, max(horizons) +
        s_trunc, and the forward run, t_final, and one step at least, as a path needs.
        An empty ladder has no pullback depth.  tau moves only the forcing clock, so the
        window does not grow with |tau|."""
        return _window(max(max(self.horizons, default=0.0) + self.s_trunc, self.t_final,
                           self.dt), self.dt, "the path span")


def _require_steps(name: str, span: float, step: float, step_name: str = "time.dt") -> None:
    """span must be a nonnegative whole number of steps of the value step_name."""
    try:
        if span < 0:
            raise ValueError(f"{name} = {span!r} is negative")
        _whole_steps(span, step, name)
    except ValueError as exc:
        raise ConfigError(f"{exc} ({step_name})") from None


def _require_pullback(config: ExperimentConfig) -> None:
    """Two or more positive, strictly increasing whole-step horizons, members, eps_att > 0."""
    horizons = list(config.horizons)
    if len(horizons) < 2 or horizons[0] <= 0 or sorted(set(horizons)) != horizons:
        raise ConfigError("experiment.horizons must be positive and increasing, two at least")
    for t in horizons:
        _require_steps("experiment.horizons", t, config.dt)
    if config.m_samples < 1:
        raise ConfigError(f"experiment.m_samples = {config.m_samples!r} must be >= 1")
    if not config.eps_att > 0:
        raise ConfigError(f"experiment.eps_att = {config.eps_att!r} must be positive")


def _number(text: str) -> float:
    if not math.isfinite(value := float(text)):
        raise ValueError(f"{text!r} is not finite")
    return value


def _seed(text: str) -> int:
    if (value := int(text)) < 0:
        raise ValueError(f"seed {text!r} is negative")
    return value


def _count(text: str) -> int:
    if (value := int(text)) < 1:
        raise ValueError(f"count {text!r} is below 1")
    return value


def _list(item):
    return lambda text: tuple(item(p) for p in text.split(",") if p.strip())


def _flag(text: str) -> bool:
    """configparser's boolean spellings: 1/yes/true/on and 0/no/false/off."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ValueError(f"{text!r} is not a boolean") from None


#: section -> key -> parser of the INI text; every other entry is unknown
_SCHEMA = {
    "model": {"lam": _number, "alpha": _number, "nonlinearity": str.strip,
              "forcing": str.strip, "forcing_amplitude": _number, "forcing_period": _number,
              "forcing_support": _number, "delta": _number},
    "grid": {"dim": int, "half_width": _number, "n": int},
    "time": {"dt": _number, "t_final": _number, "tau": _number},
    "noise": {"seed": _seed},
    "experiment": {"horizons": _list(_number), "m_samples": int, "alphas": _list(_number),
                   "seeds": _list(_seed), "eps_att": _number, "eps_semi": _number,
                   "c_abs": _number, "s_trunc": _number, "quad_step": _number,
                   "family": str.strip, "ball_factor": _number, "init_radius": _number,
                   "modes": int, "tail_radius": _number},
    "output": {"write_fields": _flag},
}


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate one INI file; unknown entries are fatal."""
    with open(path, "rb") as fh:
        raw = fh.read()
    parser = configparser.ConfigParser()
    parser.read_string(raw.decode("utf-8"))

    offenders = [f"[{sec}]" for sec in parser.sections() if sec not in _SCHEMA]
    offenders += [f"{sec}.{key}" for sec in parser.sections() if sec in _SCHEMA
                  for key in parser[sec] if key not in _SCHEMA[sec]]
    if offenders:
        raise ConfigError("unknown configuration entries: " + ", ".join(sorted(offenders)))

    values: dict = {"raw_bytes": raw}
    for sec in parser.sections():
        for key, text in parser[sec].items():
            try:
                values[key] = _SCHEMA[sec][key](text)
            except ValueError as exc:
                raise ConfigError(f"bad value for {sec}.{key}: {text!r}") from exc
    try:
        return ExperimentConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


# -- artifacts ------------------------------------------------------------------


def _write_manifest(out_dir: str, command: str, config: ExperimentConfig, seed) -> None:
    manifest = {
        "command": command,
        "config_sha256": hashlib.sha256(config.raw_bytes).hexdigest(),
        "seed": seed,
        "version": __version__,
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)


@_section("experiment")
def _initial_family(config: ExperimentConfig) -> TemperedFamilySpec:
    """The ball of radius init_radius that simulate and certify draw their state from."""
    return TemperedFamilySpec("constant", radius=config.init_radius, modes=config.modes)


# -- command bodies --------------------------------------------------------------


def _cmd_check_model(config: ExperimentConfig, out_dir: str, seed: int, threads: int) -> int:
    spec = config.build_spec()
    grid = config.build_grid()
    if not config.s_trunc > 0:
        raise ConfigError(f"experiment.s_trunc = {config.s_trunc!r} must be positive")
    _require_steps("experiment.s_trunc", config.s_trunc, config.quad_step,
                   "experiment.quad_step")
    diss = validate_dissipativity(spec)
    probes = [config.tau] + [-config.s_trunc * q for q in (0.25, 0.5, 0.75)]
    tempered = check_g_tempered(
        spec.g, spec.delta, c_probe=spec.lam, probe_times=probes, grid=grid,
        s_trunc=config.s_trunc, step=config.quad_step,
    )
    diss.write_json(os.path.join(out_dir, "model_report.json"))
    tempered.write_json(os.path.join(out_dir, "forcing_report.json"))
    for rep in (diss, tempered):
        state = "pass" if rep.passed else "FAIL"
        print(f"{rep.name}: {state} (worst margin {rep.worst_margin:.3e})")
    return 0 if (diss.passed and tempered.passed) else 1


def _run_record(config: ExperimentConfig, seed: int, out_dir: str):
    """One trajectory from the seeded initial state; its ledger goes to trajectory.csv."""
    spec = config.build_spec()
    grid = config.build_grid()
    _require_steps("time.t_final", config.t_final, config.dt)
    family = _initial_family(config)
    path = sample_two_sided_path(seed, config.path_span(), config.dt)
    u0 = sample_initial(family, grid, family.radius,
                        np.random.default_rng(np.random.SeedSequence((seed, 0, 0))))
    query = CocycleQuery(config.t_final, config.tau, path, u0, config.alpha)
    rec = phi_record(query, spec, config.dt)
    _write_csv(os.path.join(out_dir, "trajectory.csv"), ("t", "v_sq", "gradv_sq", "z_sq"),
               _rows(rec.times, rec.v_sq, rec.gradv_sq, rec.z_sq))
    return spec, grid, rec


def _cmd_simulate(config: ExperimentConfig, out_dir: str, seed: int, threads: int) -> int:
    _, _, rec = _run_record(config, seed, out_dir)
    if config.write_fields:
        write_field_block(rec.u_final, os.path.join(out_dir, "final_field.bin"))
        field_to_csv(rec.u_final, os.path.join(out_dir, "final_field.csv"))
    print(f"simulate: reached t={rec.t_end:g}, |u|={float(np.sqrt(rec.v_sq[-1])):.6g} "
          f"(transformed norm)")
    return 0


def _cmd_certify(config: ExperimentConfig, out_dir: str, seed: int, threads: int) -> int:
    if config.t_final >= 1.0:  # the gradient certificate audits the trailing unit window
        _require_steps("the unit audit window", 1.0, config.dt)
    spec, _, rec = _run_record(config, seed, out_dir)
    energy = energy_certificate(rec, spec)
    energy.write_json(os.path.join(out_dir, "energy_report.json"))
    reports = [energy]
    if config.t_final >= 1.0:
        h1 = h1_certificate(rec, spec, t_audit=rec.t_end)
        h1.write_json(os.path.join(out_dir, "h1_report.json"))
        reports.append(h1)
    for rep in reports:
        state = "pass" if rep.passed else "FAIL"
        print(f"{rep.name}: {state} (worst margin {rep.worst_margin:.3e}, "
              f"tolerance {rep.tolerance:g})")
    return 0 if all(r.passed for r in reports) else 1


def _cmd_attractor(config: ExperimentConfig, out_dir: str, seed: int, threads: int) -> int:
    spec = config.build_spec()
    grid = config.build_grid()
    _require_pullback(config)
    family, absorbing = config.build_family(), config.build_absorbing()
    path = sample_two_sided_path(seed, config.path_span(), config.dt)
    approx = pullback_ensemble(
        tau=config.tau, path=path, alpha=config.alpha, spec=spec, grid=grid,
        horizons=config.horizons, m_samples=config.m_samples, family=family,
        absorbing=absorbing, dt=config.dt, eps_att=config.eps_att, seed=seed, workers=threads,
    )
    approx.write(os.path.join(out_dir, "attractor"))
    dists = ", ".join(f"{d:.3e}" for d in approx.distances)
    state = "converged" if approx.converged else "NOT CONVERGED"
    print(f"attractor: {state}; set distances [{dists}]")
    return 0 if approx.converged else 1


def _cmd_periodicity(config: ExperimentConfig, out_dir: str, seed: int, threads: int) -> int:
    spec = config.build_spec()
    if spec.g.period is None:
        raise ConfigError(f"model.forcing = {config.forcing!r} has no period; "
                          "periodicity needs periodic-bump")
    grid = config.build_grid()
    _require_pullback(config)
    family, absorbing = config.build_family(), config.build_absorbing()
    path = sample_two_sided_path(seed, config.path_span(), config.dt)
    dist, a, b = attractor_periodicity_check(
        spec, config.tau, path, config.alpha, grid, config.horizons, config.m_samples,
        family, absorbing, dt=config.dt, eps_att=config.eps_att, seed=seed, workers=threads,
    )
    tol = 2.0 * config.eps_att
    passed = bool(dist <= tol)
    a.write(os.path.join(out_dir, "anchor_a"))
    b.write(os.path.join(out_dir, "anchor_b"))
    payload = {"distance": dist, "tolerance": tol, "pass": passed,
               "tau": config.tau, "period": spec.g.period}
    _write_json(os.path.join(out_dir, "periodicity.json"), payload)
    print(f"periodicity: {'pass' if passed else 'FAIL'} "
          f"(set distance {dist:.3e}, tolerance {tol:g})")
    return 0 if passed else 1


def _cmd_sweep(config: ExperimentConfig, out_dir: str, seed, threads: int) -> int:
    spec = config.build_spec()
    grid = config.build_grid()
    seeds = config.seeds if seed is None else (seed,)
    if not seeds:
        raise ConfigError("experiment.seeds must not be empty")
    ladder = list(config.alphas)
    if (not ladder or not all(0.0 < a <= 1.0 for a in ladder)
            or sorted(set(ladder), reverse=True) != ladder):
        raise ConfigError("experiment.alphas must be nonempty and decrease strictly inside (0, 1]")
    if config.tail_radius is not None and config.tail_radius < 0:
        raise ConfigError(f"experiment.tail_radius = {config.tail_radius!r} is negative")
    if not config.eps_semi > 0:
        raise ConfigError(f"experiment.eps_semi = {config.eps_semi!r} must be positive")
    _require_pullback(config)
    result = sweep_alpha(
        spec, grid, config.tau, config.alphas, seeds, config.horizons,
        config.m_samples, config.build_family(), config.build_absorbing(),
        dt=config.dt, eps_att=config.eps_att, eps_semi=config.eps_semi,
        tail_radius=config.tail_radius, workers=threads,
    )
    result.write_csv(os.path.join(out_dir, "sweep.csv"))
    result.write_json(os.path.join(out_dir, "sweep.json"))
    last = result.rows[len(config.alphas) - 1]
    state = "pass" if result.contract_pass else "FAIL"
    print(f"sweep-alpha: {state} (d at alpha={last.alpha:g} is {last.dist:.3e}, "
          f"bound {config.eps_semi:g})")
    return 0 if result.contract_pass else 1


_BODIES = {
    "check-model": _cmd_check_model,
    "simulate": _cmd_simulate,
    "certify": _cmd_certify,
    "attractor": _cmd_attractor,
    "periodicity": _cmd_periodicity,
    "sweep-alpha": _cmd_sweep,
}


def execute(command: str, config: ExperimentConfig, out_dir: str,
            threads: int = 1, seed_override: int | None = None) -> int:
    """Run one subcommand against a parsed config; returns the exit code."""
    if command not in _BODIES:
        print(f"unknown command {command!r}; choose from {', '.join(COMMANDS)}",
              file=sys.stderr)
        return 2
    os.makedirs(out_dir, exist_ok=True)
    if command == "sweep-alpha":
        seed = seed_override
        manifest_seed = list(config.seeds) if seed_override is None else [seed_override]
    else:
        seed = seed_override if seed_override is not None else config.seed
        manifest_seed = seed
    try:
        code = _BODIES[command](config, out_dir, seed, threads)
    except DivergenceError as exc:
        print(f"{command}: trajectory diverged ({exc})", file=sys.stderr)
        return 1
    except (ConfigError, WindowExceededError) as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        return 2
    _write_manifest(out_dir, command, config, manifest_seed)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stochrd",
        description="pathwise attractor laboratory for stochastic reaction-diffusion models",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="experiment INI file")
    parser.add_argument("--out", default="out", help="artifact directory")
    parser.add_argument("--threads", type=_count, default=1)
    parser.add_argument("--seed", type=_seed, default=None,
                        help="override the configured noise seed")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
    except FileNotFoundError:
        print(f"config file not found: {args.config}", file=sys.stderr)
        return 2
    except (ConfigError, configparser.Error, UnicodeDecodeError) as exc:
        print(f"bad config: {exc}", file=sys.stderr)
        return 2

    return execute(args.command, config, args.out, args.threads, args.seed)


if __name__ == "__main__":
    sys.exit(main())

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
import json
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
from .fields import Field, Grid, field_to_csv, write_field_block
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
from .semicontinuity import sweep_alpha
from .wiener import _whole_steps, sample_two_sided_path

COMMANDS = ("check-model", "simulate", "certify", "attractor", "periodicity", "sweep-alpha")

_KNOWN_KEYS = {
    "model": {
        "lam", "alpha", "nonlinearity", "forcing", "forcing_amplitude",
        "forcing_period", "forcing_support", "delta",
    },
    "grid": {"dim", "half_width", "n"},
    "time": {"dt", "t_final", "tau"},
    "noise": {"seed", "s_max"},
    "experiment": {
        "horizons", "m_samples", "alphas", "seeds", "eps_att", "eps_semi",
        "c_abs", "s_trunc", "quad_step", "family", "ball_factor",
        "init_radius", "modes", "tail_radius",
    },
    "output": {"write_fields"},
}


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
    s_max: float = 0.0

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

    def path_span(self) -> float:
        if self.s_max > 0:
            return self.s_max
        return max(max(self.horizons) + self.s_trunc + abs(self.tau),
                   abs(self.tau) + self.t_final) + 1.0


def _require_steps(name: str, span: float, step: float, step_name: str = "time.dt") -> None:
    """span must be a nonnegative whole number of steps of the value step_name."""
    try:
        if span < 0:
            raise ValueError(f"{name} = {span!r} is negative")
        _whole_steps(span, step, name)
    except ValueError as exc:
        raise ConfigError(f"{exc} ({step_name})") from None


def _sample_path(config: ExperimentConfig, seed: int, span: float):
    """The noise path over [-span, span]; span must be whole steps of dt."""
    _require_steps("the path span", span, config.dt)
    return sample_two_sided_path(seed, span, config.dt)


def _require_pullback(config: ExperimentConfig) -> None:
    """Positive increasing whole-step horizons and at least one member per horizon."""
    horizons = list(config.horizons)
    if not horizons or horizons[0] <= 0 or sorted(horizons) != horizons:
        raise ConfigError("experiment.horizons must be positive and increasing")
    for t in horizons:
        _require_steps("experiment.horizons", t, config.dt)
    if config.m_samples < 1:
        raise ConfigError(f"experiment.m_samples = {config.m_samples!r} must be >= 1")


_LIST_KEYS = {"horizons", "alphas", "seeds"}
_INT_KEYS = {"dim", "n", "seed", "m_samples", "modes"}
_STR_KEYS = {"nonlinearity", "forcing", "family"}
_BOOL_KEYS = {"write_fields"}


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate one INI file; unknown entries are fatal."""
    with open(path, "rb") as fh:
        raw = fh.read()
    parser = configparser.ConfigParser()
    parser.read_string(raw.decode("utf-8"))

    offenders = []
    for sec in parser.sections():
        if sec not in _KNOWN_KEYS:
            offenders.append(f"[{sec}]")
            continue
        for key in parser[sec]:
            if key not in _KNOWN_KEYS[sec]:
                offenders.append(f"{sec}.{key}")
    if offenders:
        raise ConfigError("unknown configuration entries: " + ", ".join(sorted(offenders)))

    values: dict = {"raw_bytes": raw}
    for sec in parser.sections():
        for key, text in parser[sec].items():
            try:
                if key in _LIST_KEYS:
                    parts = [p.strip() for p in text.split(",") if p.strip()]
                    if key == "seeds":
                        values[key] = tuple(int(p) for p in parts)
                    else:
                        values[key] = tuple(float(p) for p in parts)
                elif key in _INT_KEYS:
                    values[key] = int(text)
                elif key in _STR_KEYS:
                    values[key] = text.strip()
                elif key in _BOOL_KEYS:
                    values[key] = text.strip().lower() in ("1", "true", "yes", "on")
                else:
                    values[key] = float(text)
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
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_trajectory_csv(rec, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("t,v_sq,gradv_sq,z_sq\n")
        for i, t in enumerate(rec.times):
            fh.write(
                f"{float(t)!r},{float(rec.v_sq[i])!r},"
                f"{float(rec.gradv_sq[i])!r},{float(rec.z_sq[i])!r}\n"
            )


def _initial_state(config: ExperimentConfig, grid: Grid, seed: int) -> Field:
    family = TemperedFamilySpec("constant", radius=config.init_radius, modes=config.modes)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0, 0)))
    return sample_initial(family, grid, config.init_radius, rng)


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


def _run_record(config: ExperimentConfig, seed: int):
    spec = config.build_spec()
    grid = config.build_grid()
    _require_steps("time.t_final", config.t_final, config.dt)
    path = _sample_path(config, seed, config.path_span())
    u0 = _initial_state(config, grid, seed)
    query = CocycleQuery(config.t_final, config.tau, path, u0, config.alpha)
    return spec, grid, phi_record(query, spec, config.dt)


def _cmd_simulate(config: ExperimentConfig, out_dir: str, seed: int, threads: int) -> int:
    _, _, rec = _run_record(config, seed)
    _write_trajectory_csv(rec, os.path.join(out_dir, "trajectory.csv"))
    if config.write_fields:
        write_field_block(rec.u_final, os.path.join(out_dir, "final_field.bin"))
        field_to_csv(rec.u_final, os.path.join(out_dir, "final_field.csv"))
    print(f"simulate: reached t={rec.t_end:g}, |u|={float(np.sqrt(rec.v_sq[-1])):.6g} "
          f"(transformed norm)")
    return 0


def _cmd_certify(config: ExperimentConfig, out_dir: str, seed: int, threads: int) -> int:
    if config.t_final >= 1.0:  # the gradient certificate audits the trailing unit window
        _require_steps("the unit audit window", 1.0, config.dt)
    spec, _, rec = _run_record(config, seed)
    _write_trajectory_csv(rec, os.path.join(out_dir, "trajectory.csv"))
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
    path = _sample_path(config, seed, config.path_span())
    approx = pullback_ensemble(
        tau=config.tau, path=path, alpha=config.alpha, spec=spec, grid=grid,
        horizons=config.horizons, m_samples=config.m_samples,
        family=config.build_family(), absorbing=config.build_absorbing(),
        dt=config.dt, eps_att=config.eps_att, seed=seed, workers=threads,
    )
    approx.write(os.path.join(out_dir, "attractor"))
    dists = ", ".join(f"{d:.3e}" for d in approx.distances)
    state = "converged" if approx.converged else "NOT CONVERGED"
    print(f"attractor: {state}; set distances [{dists}]")
    return 0 if approx.converged else 1


def _cmd_periodicity(config: ExperimentConfig, out_dir: str, seed: int, threads: int) -> int:
    spec = config.build_spec()
    grid = config.build_grid()
    _require_pullback(config)
    path = _sample_path(config, seed, config.path_span() + config.forcing_period)
    dist, a, b = attractor_periodicity_check(
        spec, config.tau, path, config.alpha, grid, config.horizons,
        config.m_samples, config.build_family(), config.build_absorbing(),
        dt=config.dt, eps_att=config.eps_att, seed=seed, workers=threads,
    )
    tol = 2.0 * config.eps_att
    passed = bool(dist <= tol)
    a.write(os.path.join(out_dir, "anchor_a"))
    b.write(os.path.join(out_dir, "anchor_b"))
    payload = {"distance": dist, "tolerance": tol, "pass": passed,
               "tau": config.tau, "period": spec.g.period}
    with open(os.path.join(out_dir, "periodicity.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"periodicity: {'pass' if passed else 'FAIL'} "
          f"(set distance {dist:.3e}, tolerance {tol:g})")
    return 0 if passed else 1


def _cmd_sweep(config: ExperimentConfig, out_dir: str, seed, threads: int) -> int:
    spec = config.build_spec()
    grid = config.build_grid()
    seeds = config.seeds if seed is None else (seed,)
    ladder = list(config.alphas)
    if not all(0.0 < a <= 1.0 for a in ladder) or sorted(set(ladder), reverse=True) != ladder:
        raise ConfigError("experiment.alphas must decrease strictly inside (0, 1]")
    _require_pullback(config)
    # the span sweep_alpha samples for each seed
    _require_steps("the sweep path span", max(config.horizons) + config.s_trunc
                   + abs(config.tau), config.dt)
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
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--seed", type=int, default=None,
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

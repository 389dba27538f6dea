"""One round of each workload, and the checks on its outputs.

A round is the same list of operations every time; each operation
reports whether it succeeded.  The checks run once per run, after the
timed rounds, on the last round's results and artifacts.  They are
computed apart from the program (own quadrature, own distance matrix,
own parse of the binary field blocks, a closed-form solution) or from a
property the method must have (exact identities), never from a stored
copy of earlier output.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
from pathlib import Path

import numpy as np

import inputs
import stochrd
from stochrd import cli

PANEL = tuple(f"certify-{i}" for i in range(len(inputs.CERTIFY_ALPHAS)))


@dataclasses.dataclass
class Workload:
    """Parsed configs, the state set up once per run, and the last round's results."""

    name: str
    configs: dict
    nominal_steps: int
    state: dict = dataclasses.field(default_factory=dict)
    results: dict = dataclasses.field(default_factory=dict)


def _steps(t: float, dt: float) -> int:
    return int(round(t / dt))


def _start(config):
    """Path, grid, model and initial state of a single-trajectory op.

    The same draws `stochrd certify` makes for this config, so the direct
    and deviation runs sit beside the certified trajectory.
    """
    path = stochrd.sample_two_sided_path(config.seed, config.path_span(), config.dt)
    grid = config.build_grid()
    family = stochrd.TemperedFamilySpec("constant", radius=config.init_radius,
                                        modes=config.modes)
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0, 0)))
    u0 = stochrd.sample_initial(family, grid, config.init_radius, rng)
    return path, grid, config.build_spec(), u0


def prepare(name: str, inputs_dir: Path) -> Workload:
    configs = {p.stem: cli.load_config(str(p)) for p in sorted(inputs_dir.glob("*.ini"))}
    if name == "sweep-1d":
        c = configs["sweep"]
        ensembles = len(c.alphas) + 1  # the ladder plus alpha = 0
        steps = ensembles * c.m_samples * sum(_steps(h, c.dt) for h in c.horizons)
        return Workload(name, configs, steps)
    if name == "certify-1d":
        long = configs["certify-long"]
        # per panel entry: certify, the direct oracle, the two deviation runs
        steps = _steps(long.t_final, long.dt) + sum(
            4 * _steps(configs[k].t_final, configs[k].dt) for k in PANEL)
        return Workload(name, configs, steps, state={k: _start(configs[k]) for k in PANEL})
    c = configs["periodicity"]
    steps = 2 * c.m_samples * sum(_steps(h, c.dt) for h in c.horizons)  # two anchors
    return Workload(name, configs, steps)


# -- rounds -------------------------------------------------------------------


def _sweep_round(wl: Workload, out: Path) -> list:
    code = cli.execute("sweep-alpha", wl.configs["sweep"], str(out / "sweep"))
    wl.results["code"] = code
    return [("sweep-alpha", code == 0)]


def _certify_round(wl: Workload, out: Path) -> list:
    ops = []
    for key in PANEL:
        c = wl.configs[key]
        path, _, spec, u0 = wl.state[key]
        code = cli.execute("certify", c, str(out / key))
        ops.append((key, code == 0))
        try:
            stochrd.solve_u_direct(u0, 0.0, c.t_final, path, spec, c.dt,
                                   forcing_offset=c.tau)
            ops.append((f"{key}.direct", True))
        except stochrd.DivergenceError:
            ops.append((f"{key}.direct", False))
        dev = stochrd.deviation_check(spec, c.alpha, c.tau, c.t_final, path, u0, c.dt)
        ops.append((f"{key}.deviation", math.isfinite(dev.sup_dev_sq)))
        wl.results[key] = (code, dev)
    code = cli.execute("certify", wl.configs["certify-long"], str(out / "certify-long"))
    ops.append(("certify-long", code == 0))
    wl.results["certify-long"] = code
    return ops


def _periodic_round(wl: Workload, out: Path) -> list:
    d = out / "periodicity"
    # serial: with threads=2 the round time spread 34 % between runs (README)
    code = cli.execute("periodicity", wl.configs["periodicity"], str(d), threads=1)
    wl.results["code"] = code
    wl.results["read"] = [stochrd.AttractorApprox.read(str(d / a))
                          for a in ("anchor_a", "anchor_b")]
    return [("periodicity", code == 0), ("read-back", True)]


ROUNDS = {"sweep-1d": _sweep_round, "certify-1d": _certify_round,
          "periodic-2d": _periodic_round}

#: the one operation allowed to fail: energy_certificate overflows
#: exp(lam * t) once lam * t passes about 709
KNOWN_FAULTS = {"certify-long"}


# -- checks -------------------------------------------------------------------


def _l2(cell_measure: float, a: np.ndarray, b: np.ndarray) -> float:
    d = a - b
    return math.sqrt(cell_measure * float(np.sum(d * d)))


def _bump_norm_sq(config) -> float:
    """Squared grid L2 norm of the bump profile exp(1 - 1/(1 - (r/W)^2)), r < W."""
    grid = config.build_grid()
    q = (np.abs(grid.axis) / config.forcing_support) ** 2
    inside = q < 1.0
    prof = np.zeros_like(q)
    prof[inside] = np.exp(1.0 - 1.0 / (1.0 - q[inside]))
    return grid.cell_measure * float(np.sum(prof * prof))


def _radius(config, path, alpha: float) -> float:
    """c_abs * sqrt(trapezoid of e^{lam s} e^{-2 alpha w(s)} (1 + |g(s + tau)|^2))."""
    q = config.quad_step
    s = -config.s_trunc + q * np.arange(int(round(config.s_trunc / q)) + 1)
    w = path.samples[np.rint((s - path.times[0]) / config.dt).astype(int)]
    mod = np.cos(2.0 * np.pi * (s + config.tau) / config.forcing_period)
    g_sq = (config.forcing_amplitude * mod) ** 2 * _bump_norm_sq(config)
    f = np.exp(config.lam * s) * np.exp(-2.0 * alpha * w) * (1.0 + g_sq)
    return config.c_abs * math.sqrt(q * (float(np.sum(f)) - 0.5 * (f[0] + f[-1])))


def _check_sweep(wl: Workload, out: Path) -> list:
    c = wl.configs["sweep"]
    res = json.loads((out / "sweep" / "sweep.json").read_text())
    rows = res["rows"]
    ladder = [r["dist"] for r in rows[:-1]]
    uptick = [d for i, d in enumerate(ladder[1:], 1) if d > max(ladder[:i]) + c.eps_att]
    path = stochrd.sample_two_sided_path(c.seeds[0], max(c.horizons) + c.s_trunc + abs(c.tau),
                                         c.dt)
    worst = max(abs(_radius(c, path, r["alpha"]) - r["absorbing_radius"]) / r["absorbing_radius"]
                for r in rows)
    return [
        ("exit code 0", wl.results["code"] == 0, f"code {wl.results['code']}"),
        ("alpha = 0 row distance is exactly 0.0",
         rows[-1]["alpha"] == 0.0 and rows[-1]["dist"] == 0.0, f"row {rows[-1]}"),
        ("contract_pass and every row converged",
         res["contract_pass"] is True and all(r["converged"] for r in rows), ""),
        ("no uptick in the distance ladder", not uptick, f"ladder {ladder}"),
        ("smallest intensity inside eps_semi", ladder[-1] < c.eps_semi, f"{ladder[-1]:.3e}"),
        ("absorbing_radius column matches own quadrature", worst <= 1e-10,
         f"worst relative gap {worst:.2e}"),
    ]


def _report(path: Path) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}


def _check_certify(wl: Workload, out: Path) -> list:
    checks = []
    for key in PANEL:
        code, dev = wl.results[key]
        c = wl.configs[key]
        energy = _report(out / key / "energy_report.json")
        h1 = _report(out / key / "h1_report.json")
        with open(out / key / "trajectory.csv") as fh:
            rows = sum(1 for _ in fh) - 1
        checks.append((f"{key}: exit 0, energy and gradient certificates pass",
                       code == 0 and energy.get("pass") is True and h1.get("pass") is True,
                       f"code {code}"))
        checks.append((f"{key}: trajectory.csv has one row per ledger time",
                       rows == _steps(c.t_final, c.dt) + 1, f"{rows} rows"))
        if c.alpha == 0.0:
            checks.append((f"{key}: deviation_check at alpha = 0 is exactly 0",
                           dev.sup_dev_sq == 0.0, f"{dev.sup_dev_sq!r}"))

    long = _report(out / "certify-long" / "energy_report.json")
    overflow = (wl.results["certify-long"] == 1 and long.get("pass") is False
                and not math.isfinite(long.get("worst_margin", 0.0))
                and long.get("location_t", 0.0) > 700.0)
    checks.append(("certify-long fails only by the energy_certificate overflow",
                   overflow or wl.results["certify-long"] == 0,
                   f"code {wl.results['certify-long']}, worst_margin "
                   f"{long.get('worst_margin')}, location_t {long.get('location_t')}"))

    c = wl.configs[PANEL[1]]
    path, grid, spec, u0 = wl.state[PANEL[1]]
    ident = stochrd.phi(stochrd.CocycleQuery(0.0, c.tau, path, u0, c.alpha), spec, c.dt)
    checks.append(("phi at t = 0 is bit-identical to its input",
                   np.array_equal(ident.values, u0.values), ""))

    one = stochrd.phi(stochrd.CocycleQuery(1.0, c.tau, path, u0, c.alpha), spec, c.dt)
    inner = stochrd.phi(stochrd.CocycleQuery(0.5, c.tau, path, u0, c.alpha), spec, c.dt)
    outer = stochrd.phi(stochrd.CocycleQuery(0.5, 0.5 + c.tau, stochrd.shift_path(path, 0.5),
                                             inner, c.alpha), spec, c.dt)
    defect = _l2(grid.cell_measure, one.values, outer.values)
    checks.append(("cocycle-law defect <= 10 dt", defect <= 10.0 * c.dt, f"{defect:.3e}"))

    # f = 0, g = 0: the scheme multiplies sine mode j by 1 / (1 + dt (lam + mu_j))
    # per step, mu_j = (4 / h^2) sin^2(j pi / (2 (n - 1))), and u = v / z.
    j, t = 3, 1.0
    mode = np.sin(j * np.pi * np.arange(grid.n) / (grid.n - 1))
    mode[[0, -1]] = 0.0
    linear = dataclasses.replace(spec, f=stochrd.Nonlinearity("zero"), g=stochrd.ZERO_FORCING)
    rec = stochrd.solve_u_transform(stochrd.Field(grid, mode), 0.0, t, path, linear, c.dt)
    mu = 4.0 / grid.h**2 * math.sin(j * math.pi / (2 * (grid.n - 1))) ** 2
    w_t = path.samples[int(round((t - path.times[0]) / c.dt))]
    exact = mode * (1.0 + c.dt * (spec.lam + mu)) ** -_steps(t, c.dt) * math.exp(c.alpha * w_t)
    rel = float(np.max(np.abs(rec.u_final.values - exact)) / np.max(np.abs(exact)))
    checks.append(("transform route matches the closed-form sine mode", rel <= 1e-10,
                   f"relative error {rel:.2e}"))
    return checks


def _read_block(path: Path) -> tuple:
    raw = path.read_bytes()
    dim, n, half_width = struct.unpack("<IId", raw[:16])
    return dim, n, half_width, np.frombuffer(raw[16:], dtype="<f8").reshape((n,) * dim)


def _check_periodic(wl: Workload, out: Path) -> list:
    c = wl.configs["periodicity"]
    d = out / "periodicity"
    rep = json.loads((d / "periodicity.json").read_text())
    checks = [("exit code 0 and distance <= 2 eps_att",
               wl.results["code"] == 0 and rep["distance"] <= 2.0 * c.eps_att,
               f"distance {rep['distance']:.3e}")]
    sets = []
    for anchor, approx in zip(("anchor_a", "anchor_b"), wl.results["read"]):
        meta = json.loads((d / anchor / "attractor.json").read_text())
        blocks = [_read_block(d / anchor / name) for name in meta["endpoint_files"]]
        values = np.stack([b[3] for b in blocks])
        header_ok = all(b[:3] == (2, c.n, c.half_width) for b in blocks)
        ring = np.concatenate([values[:, 0, :], values[:, -1, :],
                               values[:, :, 0], values[:, :, -1]], axis=1)
        read_back = [e.values for e in approx.endpoints]
        checks += [
            (f"{anchor}: converged", meta["converged"] is True, f"{meta['distances']}"),
            (f"{anchor}: headers and zero boundary ring on every endpoint",
             header_ok and not np.any(ring), f"{len(blocks)} endpoints"),
            (f"{anchor}: read_field_block returns the bytes on disk",
             len(read_back) == len(blocks)
             and all(np.array_equal(a, b) for a, b in zip(read_back, values)), ""),
        ]
        sets.append(values)
    a, b = sets
    diff = a[:, None] - b[None, :]
    dist = np.sqrt(c.build_grid().cell_measure * np.sum(diff * diff, axis=(2, 3)))
    hausdorff = max(dist.min(axis=1).max(), dist.min(axis=0).max())
    gap = abs(hausdorff - rep["distance"]) / max(hausdorff, 1e-300)
    checks.append(("Hausdorff distance recomputed from the field blocks matches",
                   gap <= 1e-9, f"{hausdorff:.6e} vs {rep['distance']:.6e}"))
    return checks


CHECKS = {"sweep-1d": _check_sweep, "certify-1d": _check_certify,
          "periodic-2d": _check_periodic}

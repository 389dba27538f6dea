"""Workload inputs: the INI configs the benchmark feeds to stochrd.

Everything here is a function of (workload, seed) and uses only the
standard library, so the harness can write the configs before any
stochrd import.  The seed picks the noise seeds and the forcing phase
tau; the grids, step sizes, intensity ladders and horizon ladders are
fixed by the workload definition, so the nominal work of a round does
not depend on the seed.
"""

from __future__ import annotations

import random

WORKLOADS = ("sweep-1d", "certify-1d", "periodic-2d")

#: absorbing grid constant; stochrd.calibrate_c returns exactly sqrt(2) for
#: the canonical cubic model with periodic bump forcing 0.05 on the 1-d
#: n = 257 grid at its default CalibrationConfig (7.6 s, so it is not redone
#: per run).
C_ABS = 1.4142135623730951

SWEEP_ALPHAS = (0.25, 0.1, 0.02)
#: the final set distance is about the residual of the shallower horizon:
#: from 12 on it stayed 30 times below eps_att = 1e-3 over 40 sweep seeds
#: at alpha = 0.25, while horizons 8, 12 at alpha = 0.5 left 2 of 30 seeds
#: unconverged (the residual grows like exp(alpha |w|) on rough paths)
PULLBACK_HORIZONS = (12.0, 14.0)
PULLBACK_MEMBERS = 2
CERTIFY_ALPHAS = (0.0, 0.5, 1.0)
CERTIFY_T_FINAL = 10.0
#: long-horizon certify on a cheap grid; lam * t passes 709, where
#: energy_certificate's exp(lam * t) overflows.  Its inputs are fixed so
#: that it fails the same way for every seed.
LONG_CERTIFY = {"n": 17, "dt": 0.01, "t_final": 720.0, "seed": 7}

_MODEL = {
    "lam": 1.0, "nonlinearity": "cubic", "forcing": "periodic-bump",
    "forcing_amplitude": 0.05, "forcing_period": 1.0, "forcing_support": 2.0,
}
_EXPERIMENT = {
    "horizons": PULLBACK_HORIZONS, "m_samples": PULLBACK_MEMBERS,
    "eps_att": 1e-3, "eps_semi": 5e-3, "c_abs": C_ABS, "s_trunc": 40.0,
    "quad_step": 0.01, "family": "absorbing-ball",
}


def _text(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(_text(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def ini(sections: dict) -> str:
    """Render {section: {key: value}} as an INI file stochrd.cli.load_config reads."""
    lines = []
    for name, entries in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {_text(value)}" for key, value in entries.items())
        lines.append("")
    return "\n".join(lines)


def _draws(workload: str, seed: int):
    rng = random.Random(f"{workload}/{seed}")
    tau = 0.25 * rng.randrange(4)
    return tau, lambda: rng.randrange(2**31)


def configs(workload: str, seed: int) -> dict[str, str]:
    """Named INI texts for one workload; the first one is what set-up parses."""
    tau, noise_seed = _draws(workload, seed)
    if workload == "sweep-1d":
        s = noise_seed()
        return {"sweep": ini({
            "model": {**_MODEL, "alpha": SWEEP_ALPHAS[0]},
            "grid": {"dim": 1, "half_width": 8.0, "n": 257},
            "time": {"dt": 1e-3, "tau": tau},
            "noise": {"seed": s},
            "experiment": {**_EXPERIMENT, "alphas": SWEEP_ALPHAS, "seeds": (s,)},
        })}
    if workload == "certify-1d":
        out = {}
        for i, alpha in enumerate(CERTIFY_ALPHAS):
            out[f"certify-{i}"] = ini({
                "model": {**_MODEL, "alpha": alpha},
                "grid": {"dim": 1, "half_width": 8.0, "n": 257},
                "time": {"dt": 1e-3, "t_final": CERTIFY_T_FINAL, "tau": tau},
                "noise": {"seed": noise_seed()},
                "experiment": {"init_radius": 2.0},
            })
        out["certify-long"] = ini({
            "model": {**_MODEL, "alpha": 0.5},
            "grid": {"dim": 1, "half_width": 8.0, "n": LONG_CERTIFY["n"]},
            "time": {"dt": LONG_CERTIFY["dt"], "t_final": LONG_CERTIFY["t_final"]},
            "noise": {"seed": LONG_CERTIFY["seed"]},
        })
        return out
    if workload == "periodic-2d":
        return {"periodicity": ini({
            "model": {**_MODEL, "alpha": SWEEP_ALPHAS[0]},
            "grid": {"dim": 2, "half_width": 8.0, "n": 65},
            "time": {"dt": 5e-3, "tau": tau},
            "noise": {"seed": noise_seed()},
            "experiment": _EXPERIMENT,
        })}
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")

"""Config parsing, subcommand exit codes, artifact reproducibility."""

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from stochrd import (AttractorApprox, CertificateReport, Field, Grid, SweepResult, SweepRow,
                     WienerPath, attractor)
from stochrd.cli import (_SCHEMA, ConfigError, ExperimentConfig, _run_record, execute,
                         load_config, main)
from stochrd.report import _write_csv, _write_json
from stochrd.wiener import _window

SMALL = """\
[model]
alpha = 0.5
forcing_amplitude = 0.05

[time]
t_final = 1.0

[noise]
seed = 7

[experiment]
horizons = 1.0, 2.0
m_samples = 2
alphas = 0.5, 0.1
seeds = 1, 2
s_trunc = 2.0
family = constant
init_radius = 1.0
eps_att = 0.5
eps_semi = 0.5
"""


def write_config(tmp_path, text=SMALL, name="exp.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# -- parsing -------------------------------------------------------------------


def test_load_config_types(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert cfg.alpha == 0.5
    assert cfg.horizons == (1.0, 2.0)
    assert cfg.seeds == (1, 2)
    assert cfg.m_samples == 2
    assert cfg.family == "constant"
    assert cfg.raw_bytes == SMALL.encode()


def test_load_config_rejects_unknown_entries(tmp_path):
    bad = SMALL + "\n[extra]\nfoo = 1\n"
    with pytest.raises(ConfigError, match="unknown configuration entries"):
        load_config(write_config(tmp_path, bad))
    bad2 = SMALL.replace("alpha = 0.5", "alpha = 0.5\nbogus_key = 1")
    with pytest.raises(ConfigError, match=r"model\.bogus_key"):
        load_config(write_config(tmp_path, bad2))


def test_load_config_rejects_malformed_values(tmp_path):
    with pytest.raises(ConfigError, match="bad value"):
        load_config(write_config(tmp_path, SMALL.replace("alpha = 0.5", "alpha = x")))
    with pytest.raises(ConfigError, match="bad value"):
        load_config(write_config(tmp_path, SMALL.replace("seed = 7", "seed = 7.5")))
    with pytest.raises(ConfigError, match="bad value"):
        load_config(write_config(tmp_path, SMALL.replace("seeds = 1, 2", "seeds = 1, two")))
    # numbers must be finite and seeds non-negative
    for old, new, key in [
        ("t_final = 1.0", "t_final = 1.0\ntau = nan", "time.tau"),
        ("t_final = 1.0", "t_final = nan", "time.t_final"),
        ("eps_att = 0.5", "eps_att = inf", "experiment.eps_att"),
        ("horizons = 1.0, 2.0", "horizons = 1.0, -inf", "experiment.horizons"),
        ("seed = 7", "seed = -1", "noise.seed"),
        ("seeds = 1, 2", "seeds = 1, -2", "experiment.seeds"),
        # only configparser's boolean spellings
        ("eps_semi = 0.5", "eps_semi = 0.5\n\n[output]\nwrite_fields = ture",
         "output.write_fields"),
    ]:
        with pytest.raises(ConfigError, match=rf"bad value for {key}:"):
            load_config(write_config(tmp_path, SMALL.replace(old, new)))


def test_main_exit_codes_for_bad_usage(tmp_path, capsys):
    assert main(["check-model", "--config", str(tmp_path / "missing.ini")]) == 2
    bad = write_config(tmp_path, SMALL + "\n[extra]\nfoo = 1\n")
    assert main(["check-model", "--config", bad]) == 2
    malformed = write_config(tmp_path, SMALL.replace("seed = 7", "seed = x"), "m.ini")
    assert main(["simulate", "--config", malformed]) == 2
    # the path window is derived, not set: the former noise.s_max is an unknown entry
    old = write_config(tmp_path, SMALL.replace("seed = 7", "seed = 7\ns_max = 4.0"), "s.ini")
    capsys.readouterr()
    assert main(["simulate", "--config", old]) == 2
    assert "unknown configuration entries: noise.s_max" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--config", bad])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:  # the config's seed rule, before any run
        main(["simulate", "--config", write_config(tmp_path, name="ok.ini"),
              "--seed", "-1", "--out", str(tmp_path / "neg")])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "neg").exists()
    for count in ("-3", "0"):
        with pytest.raises(SystemExit) as exc:
            main(["attractor", "--config", write_config(tmp_path, name="ok.ini"),
                  "--threads", count, "--out", str(tmp_path / "threads")])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "threads").exists()


# -- command exit codes -----------------------------------------------------------


def test_check_model_passes_and_fails(tmp_path, capsys):
    # the tempered check needs the full memory window, so drop the short
    # truncation the ensemble smoke tests use
    full = SMALL.replace("s_trunc = 2.0\n", "")
    cfg = load_config(write_config(tmp_path, full))
    assert execute("check-model", cfg, str(tmp_path / "ok")) == 0
    out = capsys.readouterr().out
    assert "dissipativity: pass" in out
    assert "forcing-tempered: pass" in out

    anti = full.replace("[model]\n", "[model]\nnonlinearity = anticubic\n")
    cfg_bad = load_config(write_config(tmp_path, anti, "anti.ini"))
    assert execute("check-model", cfg_bad, str(tmp_path / "bad")) == 1
    reports = json.loads((tmp_path / "bad" / "model_report.json").read_text())
    assert reports["pass"] is False


def test_overflowing_forcing_report_is_strict_json(tmp_path):
    # |g|^2 = 1.69e308 is finite, so the config passes; its integrals overflow, and the
    # report held bare NaN and Infinity tokens
    text = "[model]\nforcing_amplitude = 1.3e154\n\n[grid]\nn = 33\n"
    assert execute("check-model", load_config(write_config(tmp_path, text)),
                   str(tmp_path / "out")) == 1

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    report = json.loads((tmp_path / "out" / "forcing_report.json").read_text(),
                        parse_constant=reject)
    assert report["pass"] is False and report["worst_margin"] is None
    assert None in report["details"]["decay_values"]


def test_simulate_and_certify(tmp_path):
    cfg = load_config(write_config(tmp_path))
    out = tmp_path / "sim"
    assert execute("simulate", cfg, str(out)) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,v_sq,gradv_sq,z_sq"
    assert len(lines) == 2 + round(cfg.t_final / cfg.dt)  # header + every step
    assert (out / "final_field.bin").exists()
    assert (out / "final_field.csv").exists()

    outc = tmp_path / "cert"
    assert execute("certify", cfg, str(outc)) == 0
    energy = json.loads((outc / "energy_report.json").read_text())
    assert energy["pass"] is True
    h1 = json.loads((outc / "h1_report.json").read_text())
    assert h1["pass"] is True


def test_attractor_and_periodicity_smoke(tmp_path):
    cfg = load_config(write_config(tmp_path))
    out = tmp_path / "att"
    code = execute("attractor", cfg, str(out))
    meta = json.loads((out / "attractor" / "attractor.json").read_text())
    assert meta["horizons"] == [1.0, 2.0]
    assert code == (0 if meta["converged"] else 1)

    outp = tmp_path / "per"
    codep = execute("periodicity", cfg, str(outp))
    payload = json.loads((outp / "periodicity.json").read_text())
    assert payload["period"] == 1.0
    assert codep == (0 if payload["pass"] else 1)
    assert (outp / "anchor_a" / "attractor.json").exists()
    assert (outp / "anchor_b" / "attractor.json").exists()


# -- artifacts ----------------------------------------------------------------------


def test_manifest_contents(tmp_path):
    path = write_config(tmp_path)
    cfg = load_config(path)
    out = tmp_path / "sim"
    execute("simulate", cfg, str(out))
    manifest = json.loads((out / "manifest.json").read_text())
    raw = open(path, "rb").read()
    assert manifest["command"] == "simulate"
    assert manifest["config_sha256"] == hashlib.sha256(raw).hexdigest()
    assert manifest["seed"] == 7
    assert isinstance(manifest["version"], str)


def test_seed_override(tmp_path):
    cfg = load_config(write_config(tmp_path))
    a, b = tmp_path / "a", tmp_path / "b"
    execute("simulate", cfg, str(a), seed_override=11)
    execute("simulate", cfg, str(b))
    assert json.loads((a / "manifest.json").read_text())["seed"] == 11
    assert (a / "trajectory.csv").read_bytes() != (b / "trajectory.csv").read_bytes()


def test_sweep_reproducible_and_seed_list(tmp_path):
    cfg = load_config(write_config(tmp_path))
    a, b = tmp_path / "s1", tmp_path / "s2"
    code_a = execute("sweep-alpha", cfg, str(a))
    code_b = execute("sweep-alpha", cfg, str(b))
    assert code_a == code_b
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()
    assert (a / "sweep.json").read_bytes() == (b / "sweep.json").read_bytes()
    lines = (a / "sweep.csv").read_text().splitlines()
    assert lines[0] == "alpha,dist,absorbing_radius,max_tail,converged"
    assert len(lines) == 1 + len(cfg.alphas) + 1
    manifest = json.loads((a / "manifest.json").read_text())
    assert manifest["seed"] == [1, 2]  # the sweep runs the configured seed list

    c = tmp_path / "s3"
    execute("sweep-alpha", cfg, str(c), seed_override=5)
    assert json.loads((c / "manifest.json").read_text())["seed"] == [5]


def test_artifact_writers_exact_bytes(tmp_path):
    cells = (-0.0, 5e-324, 0.1, 1e300, 7)
    _write_csv(tmp_path / "a.csv", ("a", "b", "c", "d", "e"), [cells, cells[::-1]])
    assert (tmp_path / "a.csv").read_bytes() == (
        b"a,b,c,d,e\n-0.0,5e-324,0.1,1e+300,7\n7,1e+300,0.1,5e-324,-0.0\n")
    with pytest.raises(TypeError):  # a row shorter than the header
        _write_csv(tmp_path / "b.csv", ("a", "b"), [(1.0,)])
    _write_json(tmp_path / "a.json", {"z": list(cells), "a": {"k": None, "b": True}})
    assert (tmp_path / "a.json").read_bytes() == (
        b'{\n  "a": {\n    "b": true,\n    "k": null\n  },\n'
        b'  "z": [\n    -0.0,\n    5e-324,\n    0.1,\n    1e+300,\n    7\n  ]\n}\n')
    # JSON has no NaN or Infinity: a float that is not finite is written as null
    _write_json(tmp_path / "b.json", {"v": (float("nan"), float("inf"), float("-inf"))})
    assert (tmp_path / "b.json").read_bytes() == (
        b'{\n  "v": [\n    null,\n    null,\n    null\n  ]\n}\n')
    with pytest.raises(TypeError):  # what json cannot encode still raises
        _write_json(tmp_path / "c.json", {"v": object()})
    # a report's details take the same walk: numpy values are written as Python values
    details = {"a": np.float64("nan"), "b": np.arange(3), "c": np.int64(2)}
    CertificateReport("r", True, 0.0, 0.0, details=details).write_json(tmp_path / "d.json")
    assert (tmp_path / "d.json").read_bytes() == (
        b'{\n  "details": {\n    "a": null,\n    "b": [\n      0,\n      1,\n      2\n    ],\n'
        b'    "c": 2\n  },\n  "location_t": null,\n  "name": "r",\n  "pass": true,\n'
        b'  "tolerance": 0.0,\n  "worst_margin": 0.0\n}\n')
    with pytest.raises(TypeError):  # and a detail JSON cannot encode raises, as above
        CertificateReport("r", True, 0.0, 0.0, details={"v": object()}).write_json(
            tmp_path / "e.json")


def _read_csv(path):
    """Header and the cells parsed back with float(text)."""
    header, *lines = path.read_text().splitlines()
    return header, np.array([[float(c) for c in line.split(",")] for line in lines])


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("grid", ["", "[grid]\ndim = 2\nn = 17\n\n"], ids=["1d", "2d"])
def test_csv_artifacts_round_trip_exactly(tmp_path, grid):
    cfg = load_config(write_config(tmp_path, SMALL.replace("[time]", grid + "[time]")))
    assert execute("simulate", cfg, str(tmp_path)) == 0
    (tmp_path / "again").mkdir()
    _, g, rec = _run_record(cfg, cfg.seed, str(tmp_path / "again"))
    assert (tmp_path / "again" / "trajectory.csv").read_bytes() == (
        tmp_path / "trajectory.csv").read_bytes()
    header, table = _read_csv(tmp_path / "trajectory.csv")
    assert header == "t,v_sq,gradv_sq,z_sq"
    assert _same_bits(table, np.column_stack([rec.times, rec.v_sq, rec.gradv_sq, rec.z_sq]))
    header, table = _read_csv(tmp_path / "final_field.csv")
    assert header == ("x,value" if g.dim == 1 else "x,y,value")
    coords = [g.axis] if g.dim == 1 else [c.ravel() for c in g.coords()]
    assert _same_bits(table, np.column_stack(coords + [rec.u_final.values.ravel()]))


def test_csv_artifacts_round_trip_numpy_scalars(tmp_path):
    # numpy scalars, as the library computes them, must not reach the CSV as np.float64(...)
    odd = [np.float64(-0.0), np.float64(5e-324), np.float64(0.1), 1e300]
    approx = AttractorApprox(tau=0.0, alpha=0.5, horizons=[1.0] + odd, m_samples=1,
                             endpoints=[Field.zeros(Grid(1, 1.0, 3))], distances=odd[::-1],
                             converged=True, seed=1, eps_att=0.5)
    approx.write(str(tmp_path / "att"))
    header, table = _read_csv(tmp_path / "att" / "distances.csv")
    assert header == "horizon,set_distance"
    assert _same_bits(table, np.column_stack([odd, odd[::-1]]))
    rows = [SweepRow(a, d, r, m, c) for a, d, r, m, c in
            zip(odd, odd[::-1], odd[1:] + odd[:1], odd[2:] + odd[:2], [np.True_, False] * 2)]
    SweepResult(0.0, [1], odd, rows, 0.5, 0.5, 4.0, True).write_csv(str(tmp_path / "s.csv"))
    header, table = _read_csv(tmp_path / "s.csv")
    assert header == "alpha,dist,absorbing_radius,max_tail,converged"
    assert _same_bits(table, [[r.alpha, r.dist, r.absorbing_radius, r.max_tail, r.converged]
                              for r in rows])


def test_execute_unknown_command(tmp_path):
    assert execute("nope", ExperimentConfig(), str(tmp_path / "x")) == 2


def test_step_grid_mismatch_exits_2(tmp_path, capsys):
    # t_final and the derived path span are not whole numbers of dt = 0.003
    text = SMALL.replace("t_final = 1.0", "dt = 0.003\nt_final = 1.0")
    assert main(["simulate", "--config", write_config(tmp_path, text)]) == 2
    assert "time.dt" in capsys.readouterr().err


@pytest.mark.parametrize("command, old, new, named", [
    ("simulate", "alpha = 0.5", "alpha = 1.5", "model.alpha"),
    ("attractor", "family = constant", "family = custom", "[experiment]"),
    ("attractor", "[time]", "[grid]\nn = 2\n\n[time]", "[grid]"),
    ("attractor", "alpha = 0.5", "alpha = 0.5\nlam = -1", "[model]"),
    ("attractor", "alpha = 0.5", "alpha = 0.5\ndelta = 5", "[model]"),
    ("attractor", "m_samples = 2", "m_samples = 0", "experiment.m_samples"),
    ("attractor", "s_trunc = 2.0", "s_trunc = 2.0\nc_abs = 0", "[experiment]"),
    ("check-model", "s_trunc = 2.0", "s_trunc = 40.005", "experiment.s_trunc"),
    ("check-model", "s_trunc = 2.0", "s_trunc = 0", "experiment.s_trunc"),
    ("sweep-alpha", "s_trunc = 2.0", "s_trunc = 2.005", "[experiment] s_trunc"),
    # t_final is whole steps of dt = 0.003; the unit window is not
    ("certify", "t_final = 1.0", "dt = 0.003\nt_final = 1.5",
     "unit audit window = 1.0 is not a whole number of steps 0.003 (time.dt)"),
    ("sweep-alpha", "seeds = 1, 2", "seeds =", "experiment.seeds"),
    ("sweep-alpha", "alphas = 0.5, 0.1", "alphas =", "experiment.alphas"),
    ("sweep-alpha", "eps_semi = 0.5", "eps_semi = 0.5\ntail_radius = -1", "experiment.tail_radius"),
    ("periodicity", "alpha = 0.5", "alpha = 0.5\nforcing = zero", "model.forcing"),
    ("periodicity", "alpha = 0.5", "alpha = 0.5\nforcing = constant-bump", "model.forcing"),
    ("simulate", "init_radius = 1.0", "init_radius = -1", "[experiment]"),
    ("certify", "init_radius = 1.0", "init_radius = -1", "[experiment]"),
    ("attractor", "init_radius = 1.0", "init_radius = -1", "[experiment]"),
    ("attractor", "family = constant", "family = absorbing-ball\nball_factor = -1",
     "[experiment]"),
    ("simulate", "init_radius = 1.0", "init_radius = 1.0\nmodes = 0", "[experiment]"),
    ("attractor", "eps_att = 0.5", "eps_att = -1", "experiment.eps_att"),
    ("periodicity", "eps_att = 0.5", "eps_att = 0", "experiment.eps_att"),
    ("sweep-alpha", "eps_semi = 0.5", "eps_semi = -1", "experiment.eps_semi"),
    ("attractor", "horizons = 1.0, 2.0", "horizons = 2.0", "experiment.horizons"),
    ("attractor", "horizons = 1.0, 2.0", "horizons = 2.0, 2.0", "experiment.horizons"),
    ("attractor", "horizons = 1.0, 2.0", "horizons =", "experiment.horizons"),
    # h**2 overflows or vanishes
    ("simulate", "[time]", "[grid]\nhalf_width = 1e300\n\n[time]", "[grid]"),
    ("sweep-alpha", "[time]", "[grid]\nhalf_width = 1e-300\n\n[time]", "[grid]"),
    # n has no float value
    ("check-model", "[time]", f"[grid]\nn = 1{'0' * 400}\n\n[time]", "[grid] n has no"),
    ("simulate", "[time]", f"[grid]\nn = 1{'0' * 400}\n\n[time]", "[grid] n has no"),
    ("check-model", "forcing_amplitude = 0.05", "forcing_amplitude = 1e200", "[model]"),
    # spans of 2**53 steps or more
    ("attractor", "t_final = 1.0", "t_final = 1.0\ndt = 1e-300", "time.dt"),
    ("simulate", "horizons = 1.0, 2.0", "horizons = 1, 1e300", "[experiment] the path span"),
    ("certify", "horizons = 1.0, 2.0", "horizons = 1, 1e300", "[experiment] the path span"),
    ("check-model", "s_trunc = 2.0", "s_trunc = 1e300", "experiment.s_trunc"),
    ("sweep-alpha", "s_trunc = 2.0", "s_trunc = 2.0\nquad_step = 1e-300", "[experiment] s_trunc"),
], ids=["alpha", "family", "n", "lam", "delta", "m_samples", "c_abs", "s_trunc",
        "s_trunc-zero", "s_trunc-sweep", "h1-window", "seeds-empty", "alphas-empty",
        "tail_radius", "periodicity-zero-forcing", "periodicity-constant-forcing",
        "simulate-init_radius", "certify-init_radius", "attractor-init_radius",
        "attractor-ball_factor", "simulate-modes", "attractor-eps_att",
        "periodicity-eps_att", "sweep-eps_semi", "attractor-one-depth",
        "attractor-equal-depths", "attractor-no-depth", "huge-spacing", "tiny-spacing",
        "check-model-huge-n", "simulate-huge-n",
        "huge-amplitude", "tiny-dt", "simulate-huge-horizon", "certify-huge-horizon",
        "huge-s_trunc", "tiny-quad_step"])
def test_invalid_value_exits_2(tmp_path, capsys, monkeypatch, command, old, new, named):
    text = SMALL.replace(old, new)
    assert text != SMALL
    # rejected at the boundary: no noise path is drawn, so nothing is integrated
    monkeypatch.setattr(WienerPath, "__init__", lambda *a, **k: pytest.fail("drew a path"))
    assert main([command, "--config", write_config(tmp_path, text),
                 "--out", str(tmp_path / "out")]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("command", ["attractor", "periodicity", "sweep-alpha"])
@pytest.mark.parametrize("key", ["ball_factor = 1e308", "c_abs = 1.7e308"],
                         ids=["ball_factor", "c_abs"])
def test_overflowing_initial_radius_exits_2(tmp_path, capsys, monkeypatch, command, key):
    # factor * M_alpha depends on the drawn path, so a path is drawn, but the radius
    # overflows to inf and is rejected before any integration step
    text = SMALL.replace("family = constant", f"family = absorbing-ball\n{key}")
    monkeypatch.setattr(attractor, "_integrate", lambda *a, **k: pytest.fail("integrated"))
    assert main([command, "--config", write_config(tmp_path, text),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "experiment.ball_factor" in err and "experiment.c_abs" in err


@pytest.mark.parametrize("family", ["absorbing-ball\nball_factor = 1e200",
                                    "constant\ninit_radius = 1e200"],
                         ids=["ball_factor", "init_radius"])
def test_finite_radius_whose_state_overflows_still_diverges(tmp_path, capsys, family):
    # the radius is finite, so the run starts, and its first state is not
    text = SMALL.replace("family = constant\ninit_radius = 1.0", f"family = {family}")
    assert main(["attractor", "--config", write_config(tmp_path, text),
                 "--out", str(tmp_path / "out")]) == 1
    assert "trajectory diverged at t=0" in capsys.readouterr().err


def test_unused_spans_do_not_reject(tmp_path):
    # dt = 0.003 divides t_final but not the horizons 1.0, 2.0, which only
    # the attractor, periodicity and sweep commands use
    text = SMALL.replace("t_final = 1.0", "dt = 0.003\nt_final = 0.3")
    cfg = write_config(tmp_path, text)
    for command in ("simulate", "certify"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
    # check-model reads no step: same verdict as at the default dt
    assert main(["check-model", "--config", cfg, "--out", str(tmp_path / "m")]) == main(
        ["check-model", "--config", write_config(tmp_path, name="ref.ini"),
         "--out", str(tmp_path / "m0")])
    assert main(["attractor", "--config", cfg, "--out", str(tmp_path / "a")]) == 2


def test_empty_horizons_do_not_stop_forward_runs(tmp_path):
    # simulate and certify read no pullback depth: with an empty ladder they draw a
    # shorter window and write the same run, byte for byte
    empty = write_config(tmp_path, SMALL.replace("horizons = 1.0, 2.0", "horizons ="), "e.ini")
    for command, names in (("simulate", ("trajectory.csv", "final_field.bin",
                                         "final_field.csv")),
                           ("certify", ("trajectory.csv",))):
        for cfg, out in ((write_config(tmp_path), "full"), (empty, "empty")):
            assert main([command, "--config", cfg, "--out", str(tmp_path / command / out)]) == 0
        for name in names:
            assert (tmp_path / command / "empty" / name).read_bytes() == (
                tmp_path / command / "full" / name).read_bytes(), (command, name)


def test_derived_window_need_not_be_whole_steps(tmp_path):
    # every span the config names is whole steps of dt = 0.004; the window the
    # commands derive from them, max horizon + s_trunc = 4.01, is not, and gets rounded up
    text = SMALL.replace("t_final = 1.0", "dt = 0.004\nt_final = 1.0\ntau = 0.25").replace(
        "s_trunc = 2.0", "s_trunc = 2.01")
    cfg = write_config(tmp_path, text)
    for command in ("simulate", "certify", "attractor", "periodicity", "sweep-alpha"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0, command


@pytest.mark.parametrize("t_final", [1.0, 9.0])
def test_path_span_does_not_grow_with_tau(t_final):
    # tau moves only the forcing clock: the window covers the pullback depth with the
    # radius memory, or the forward run, whichever is longer
    spans = [ExperimentConfig(dt=0.004, t_final=t_final, tau=tau, horizons=(1.0, 2.0),
                              s_trunc=2.01).path_span() for tau in (0.0, 7.5, -1e4)]
    assert spans == [_window(max(2.0 + 2.01, t_final), 0.004, "the path span")] * 3
    # a zero-step run whose depth the config leaves at zero still draws one step
    assert ExperimentConfig(t_final=0.0, s_trunc=-20.0).path_span() == ExperimentConfig().dt


def test_readme_schema_matches_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    documented, keys = {}, None
    for line in block.splitlines():
        if section := re.fullmatch(r"\[(\w+)\]", line):
            keys = documented.setdefault(section[1], set())
        elif entry := re.match(r"(?:; )?(\w+) = ", line):  # "; key = ..." is a default
            keys.add(entry[1])
    assert documented == {sec: set(parsers) for sec, parsers in _SCHEMA.items()}

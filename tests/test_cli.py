"""Config parsing, subcommand exit codes, artifact reproducibility."""

import hashlib
import json

import pytest

from stochrd.cli import ConfigError, ExperimentConfig, execute, load_config, main

SMALL = """\
[model]
alpha = 0.5
forcing_amplitude = 0.05

[time]
t_final = 1.0

[noise]
seed = 7
s_max = 4.0

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


def test_main_exit_codes_for_bad_usage(tmp_path):
    assert main(["check-model", "--config", str(tmp_path / "missing.ini")]) == 2
    bad = write_config(tmp_path, SMALL + "\n[extra]\nfoo = 1\n")
    assert main(["check-model", "--config", bad]) == 2
    malformed = write_config(tmp_path, SMALL.replace("seed = 7", "seed = x"), "m.ini")
    assert main(["simulate", "--config", malformed]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--config", bad])
    assert exc.value.code == 2


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
    # t_final and s_max are whole steps of dt = 0.003; the unit window is not
    ("certify", "t_final = 1.0\n\n[noise]\nseed = 7\ns_max = 4.0",
     "dt = 0.003\nt_final = 1.5\n\n[noise]\nseed = 7\ns_max = 3.0",
     "unit audit window = 1.0 is not a whole number of steps 0.003 (time.dt)"),
], ids=["alpha", "family", "n", "lam", "delta", "m_samples", "c_abs", "s_trunc",
        "s_trunc-zero", "s_trunc-sweep", "h1-window"])
def test_invalid_value_exits_2(tmp_path, capsys, command, old, new, named):
    text = SMALL.replace(old, new)
    assert text != SMALL
    assert main([command, "--config", write_config(tmp_path, text),
                 "--out", str(tmp_path / "out")]) == 2
    assert named in capsys.readouterr().err


def test_unused_spans_do_not_reject(tmp_path):
    # dt = 0.003 divides t_final and s_max but not the horizons 1.0, 2.0,
    # which only the attractor, periodicity and sweep commands use
    text = SMALL.replace("t_final = 1.0", "dt = 0.003\nt_final = 0.3").replace(
        "s_max = 4.0", "s_max = 3.0")
    cfg = write_config(tmp_path, text)
    for command in ("simulate", "certify"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
    # check-model reads no step: same verdict as at the default dt
    assert main(["check-model", "--config", cfg, "--out", str(tmp_path / "m")]) == main(
        ["check-model", "--config", write_config(tmp_path, name="ref.ini"),
         "--out", str(tmp_path / "m0")])
    assert main(["attractor", "--config", cfg, "--out", str(tmp_path / "a")]) == 2

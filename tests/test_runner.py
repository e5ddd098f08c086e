import dataclasses
import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wpsim as w
from wpsim.cli import main as cli_main
from wpsim.runner import (
    _EXPLICIT,
    _SCHEMA,
    PRESETS,
    ConfigError,
    derived_quantities,
    parse_config,
    run_experiment,
    verify_output_dir,
    write_snapshot,
    write_timeseries,
)

EXPLICIT_RABI = """
[grid]
x_min = -8
x_max = 8
n_points = 128

[model]
u1 = flat
u2 = flat
pulse = constant
v0 = 1.0

[run]
dt = 0.002
t_final = 3.0
record_every = 25

[initial]
kind = gaussian
center = 0.0
sigma = 0.7
channel = 1
"""


def test_minimal_preset_config_fills_defaults():
    cfg = parse_config("preset = decay_weak\n")
    assert cfg.preset == "decay_weak"
    assert cfg.params == {}
    assert cfg.seed == 0
    # one shape for both kinds of config: explicit sections fill params too
    assert [f.name for f in dataclasses.fields(cfg)] == ["preset", "params", "seed", "out"]


def test_preset_overrides_are_typed():
    cfg = parse_config("preset = decay_weak\nt_final = 6.5\nn_points = 512\nseed = 9\n")
    assert cfg.params == {"t_final": 6.5, "n_points": 512}
    assert isinstance(cfg.params["n_points"], int)
    assert cfg.seed == 9


def test_range_violation_names_key():
    with pytest.raises(ConfigError) as err:
        parse_config("preset = decay_weak\ndt = -0.1\n")
    assert any(v.startswith("dt:") for v in err.value.violations)


def test_exclusivity_violation():
    with pytest.raises(ConfigError) as err:
        parse_config("preset = decay_weak\n[grid]\nx_min = 0\n")
    assert any("exactly one of" in v for v in err.value.violations)


def test_all_violations_collected():
    text = "preset = decay_weak\ndt = -1\nbogus = 2\nn_points = 100\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    joined = "\n".join(err.value.violations)
    assert "dt:" in joined and "bogus:" in joined and "n_points:" in joined
    assert len(err.value.violations) >= 3


def test_unknown_preset_and_section():
    with pytest.raises(ConfigError) as err:
        parse_config("preset = decay_weekly\n")
    assert any("unknown preset" in v for v in err.value.violations)
    with pytest.raises(ConfigError) as err:
        parse_config("[grid]\nx_min = -1\nx_max = 1\nn_points = 64\n[warp]\nq = 1\n"
                     "[model]\n[run]\ndt = 0.01\nt_final = 1\n")
    assert any("unknown section" in v for v in err.value.violations)


def test_explicit_missing_sections():
    with pytest.raises(ConfigError) as err:
        parse_config("[grid]\nx_min = -1\nx_max = 1\nn_points = 64\n")
    joined = "\n".join(err.value.violations)
    assert "[model]" in joined and "[run]" in joined


def test_explicit_missing_required_keys_reported_at_parse():
    text = "[grid]\nx_min = -1\nx_max = 1\n[model]\n[run]\ndt = 0.01\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    joined = "\n".join(err.value.violations)
    assert "n_points" in joined and "t_final" in joined


@pytest.mark.parametrize(
    "old, new, violation",
    [
        ("u1 = flat", "u1 = cubic", "[model] u1: unknown kind 'cubic' (harmonic|linear|flat)"),
        ("pulse = constant", "pulse = square",
         "[model] pulse: unknown kind 'square' (constant|gaussian)"),
        ("record_every = 25", "record_every = 25\nabsorber = sponge",
         "[run] absorber: unknown kind 'sponge' (none|mask)"),
        ("kind = gaussian", "kind = plane", "[initial] kind: unknown kind 'plane' (ground|gaussian)"),
    ],
    ids=["u1", "pulse", "absorber", "initial_kind"],
)
def test_enumerated_keys_checked_at_parse(old, new, violation):
    with pytest.raises(ConfigError) as err:
        parse_config(EXPLICIT_RABI.replace(old, new))
    assert violation in err.value.violations


def test_each_explicit_key_sits_in_one_section():
    # explicit sections merge into one flat dict keyed like preset parameters
    keys = [key for section in _EXPLICIT.values() for key in section]
    assert len(keys) == len(set(keys)) == 29
    assert set(keys) <= set(_SCHEMA)


def test_timeseries_round_trip(tmp_path):
    g = w.make_grid(-8, 8, 64)
    state = w.gaussian_packet(g, 0.0, 0.7, channel=1)
    model = w.ModelSpec(w.flat_potential(), w.flat_potential(), w.constant_pulse(0.8))
    traj = w.propagate(state, model, w.RunConfig(dt=0.005, t_final=1.0, record_every=20))
    path = tmp_path / "series.tsv"
    write_timeseries(traj, path)

    lines = path.read_text().splitlines()
    header = lines[0].split("\t")
    assert header == list(
        ("t", "p1", "p2", "mean_x1", "mean_x2", "var_x1", "var_x2", "absorbed")
    )
    for line in lines[1:]:
        assert len(line.split("\t")) == len(header)

    data = np.loadtxt(path, skiprows=1)
    assert data.shape[1] == 8
    assert np.allclose(data[:, 0], traj.times, rtol=1e-11, atol=1e-300)
    assert np.allclose(data[:, 2], traj.p2, rtol=1e-11, atol=1e-300)


def test_snapshot_grid_column_exact(tmp_path):
    g = w.make_grid(-8, 8, 64)
    state = w.gaussian_packet(g, 0.0, 0.7, channel=1)
    model = w.ModelSpec(w.flat_potential(), w.flat_potential(), w.constant_pulse(0.0))
    cfg = w.RunConfig(dt=0.01, t_final=0.5, record_every=10, snapshot_every=25)
    traj = w.propagate(state, model, cfg)
    path = tmp_path / "snap.tsv"
    write_snapshot(traj.snapshots[-1], path, g, "cafebabe")
    text = path.read_text().splitlines()
    assert text[0].startswith("# t = ") and "config = cafebabe" in text[0]
    assert text[1] == "x\tdensity1\tdensity2"
    data = np.loadtxt(path, skiprows=2)
    # nodes are written at full precision: round trip must be exact
    assert np.array_equal(data[:, 0], g.x)


def test_snapshot_bytes_match_per_row_format(tmp_path):
    # the rows are formatted from Python floats in one call; the bytes must be
    # those of formatting each row's numpy values on its own
    g = w.make_grid(-8, 8, 256)
    state = w.gaussian_packet(g, 1.0, 0.7, k0=2.0, channel=1)
    model = w.ModelSpec(w.flat_potential(), w.linear_potential(0.0, 1.0), w.constant_pulse(0.8))
    cfg = w.RunConfig(dt=0.01, t_final=0.5, record_every=10, snapshot_every=50)
    snap = w.propagate(state, model, cfg).snapshots[-1]
    assert snap.density2.max() > 0.01
    path = tmp_path / "snap.tsv"
    write_snapshot(snap, path, g, "cafebabe")
    rows = "".join("%.17g\t%.11e\t%.11e\n" % row
                   for row in zip(g.x, snap.density1, snap.density2))
    expected = f"# t = {snap.t:.11e} config = cafebabe\nx\tdensity1\tdensity2\n" + rows
    assert path.read_bytes() == expected.encode()

    # a timeseries longer than one formatting chunk of 4,096 rows
    cfg = w.RunConfig(dt=0.001, t_final=4.5, record_every=1)
    traj = w.propagate(w.gaussian_packet(g, 0.0, 0.7, channel=1), model, cfg)
    assert len(traj.times) == 4501
    write_timeseries(traj, path)
    columns = (traj.times, traj.p1, traj.p2, traj.mean_x1, traj.mean_x2,
               traj.var_x1, traj.var_x2, traj.absorbed_norm)
    rows = "".join("\t".join("%.11e" % v for v in row) + "\n" for row in zip(*columns))
    expected = "t\tp1\tp2\tmean_x1\tmean_x2\tvar_x1\tvar_x2\tabsorbed\n" + rows
    assert path.read_bytes() == expected.encode()

    # a jumps.tsv with no rows: an ensemble in which no jump fires
    out = tmp_path / "nojumps"
    run_experiment(parse_config(EXPLICIT_MCWF.replace("gamma_sp = 1", "gamma_sp = 1e-12")), out)
    assert (out / "jumps.tsv").read_bytes() == b"t_jump\tx_jump\ttrajectory_id\n"
    assert not (out / "spectrum.tsv").exists()


def test_explicit_pipeline_runs_rabi(tmp_path):
    cfg = parse_config(EXPLICIT_RABI)
    manifest = run_experiment(cfg, tmp_path / "out")
    assert manifest.ok
    data = np.loadtxt(tmp_path / "out" / "timeseries.tsv", skiprows=1)
    t, p2 = data[:, 0], data[:, 2]
    assert np.max(np.abs(p2 - np.sin(t) ** 2)) <= 1e-6


def test_explicit_config_identity_is_its_values(tmp_path):
    # written without and with two of its defaults, one run: the same files,
    # the same resolved config (every parameter, defaults filled in) and hash
    bare = EXPLICIT_RABI.replace("record_every = 25\n", "")
    spelled = bare.replace("[run]\n", "[run]\nrecord_every = 10\nabsorber_strength = 1000\n")
    runs = []
    for name, text in (("bare", bare), ("spelled", spelled)):
        out = tmp_path / name
        manifest = run_experiment(parse_config(text), out)
        files = {path.relative_to(out).as_posix(): path.read_bytes()
                 for path in out.rglob("*") if path.is_file() and path.name != "manifest.json"}
        runs.append((files, manifest.files, manifest.config,
                     json.loads((out / "manifest.json").read_text())["config"]))
    assert runs[0] == runs[1]
    files, _, config, written = runs[0]
    assert written == config
    assert config["preset"] is None and config["seed"] == 0
    assert config["params"] == {key: parse_config(spelled).params.get(key, default)
                                for section in _EXPLICIT.values()
                                for key, default in section.items()}
    assert config["params"]["record_every"] == 10
    chash = json.loads(files["summary.json"])["config_hash"]
    assert chash == hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]


def test_manifest_inventory_verifies(tmp_path):
    cfg = parse_config("preset = freeze_demo\nn_points = 512\n")
    out = tmp_path / "run"
    manifest = run_experiment(cfg, out)
    assert manifest.ok
    ok, report = verify_output_dir(out)
    assert ok, report
    listed = set(json.loads((out / "manifest.json").read_text())["files"])
    assert "summary.json" in listed
    for name in listed:
        assert (out / name).exists()


def test_verify_detects_corruption(tmp_path):
    cfg = parse_config("preset = freeze_demo\nn_points = 512\n")
    out = tmp_path / "run"
    run_experiment(cfg, out)
    victim = out / "timeseries_weak.tsv"
    victim.write_text(victim.read_text().replace("0", "1", 1))
    ok, report = verify_output_dir(out)
    assert not ok
    assert any(line.startswith("MISMATCH") for line in report)


def test_cli_presets_lists_all(capsys):
    assert cli_main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in PRESETS:
        assert name in out


def test_cli_analytic_decay(capsys):
    assert cli_main(["analytic", "--preset", "decay_weak"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gamma_reflection"] == pytest.approx(0.26, rel=1e-9)
    assert payload["gamma_quadrature"] == pytest.approx(0.234, abs=1e-3)
    assert payload["level_crossing_x"] == pytest.approx(0.0, abs=1e-9)


# every preset cut to well under a second of propagation
SHORT_RUNS = {
    "decay_weak": "t_final = 0.2",
    "decay_strong": "t_final = 0.2",
    "pulsed_gaussian": "t_final = 0.3\nsnapshot_every = 100",
    "lz_sweep": "v_values = 0.2\nt_final = 0.5",
    "chirp_compare": "t_final = 0.2",
    "mcwf_decay": "n_trajectories = 2\nt_final = 0.5",
    "freeze_demo": "v_strong = 20",
}


@pytest.mark.parametrize("name", sorted(PRESETS) + ["explicit", "explicit_mcwf"])
def test_analytic_reads_manifest_derived(tmp_path, name):
    explicit = {"explicit": EXPLICIT_RABI, "explicit_mcwf": EXPLICIT_MCWF}
    text = explicit.get(name) or f"preset = {name}\n{SHORT_RUNS[name]}\n"
    cfg = parse_config(text)
    out = tmp_path / "run"
    manifest = run_experiment(cfg, out)
    assert derived_quantities(cfg) == manifest.derived
    assert json.loads((out / "manifest.json").read_text())["derived"] == manifest.derived
    # every file on disk is in the inventory, written by the one writer
    on_disk = {path.relative_to(out).as_posix() for path in out.rglob("*") if path.is_file()}
    assert on_disk == set(manifest.files) | {"manifest.json"}
    if name == "explicit_mcwf":
        assert {"jumps.tsv", "spectrum.tsv"} <= on_disk


def test_run_that_raises_leaves_no_output(tmp_path, monkeypatch):
    def fail(*args):
        raise RuntimeError("run failed")

    monkeypatch.setitem(PRESETS, "freeze_demo", dataclasses.replace(PRESETS["freeze_demo"], run=fail))
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="run failed"):
        run_experiment(parse_config("preset = freeze_demo\n"), out)
    assert not out.exists()


def test_decay_weak_failed_fit_still_writes_outputs(tmp_path, capsys):
    config = tmp_path / "short.cfg"
    config.write_text("preset = decay_weak\nt_final = 1.0\n")  # too short to fit
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 1
    assert "FAIL  fit_r_squared: value=nan" in capsys.readouterr().out
    payload = json.loads((out / "summary.json").read_text())
    assert "error" in payload["summary"]["fit"]
    for name in ("fit_r_squared", "gamma_vs_quadrature_reldev"):
        assert not payload["checks"][name]["passed"]
        assert np.isnan(payload["checks"][name]["value"])
    assert payload["checks"]["quadrature_vs_reflection_reldev"]["passed"]
    ok, report = verify_output_dir(out)
    assert ok, report
    listed = set(json.loads((out / "manifest.json").read_text())["files"])
    assert listed == {"timeseries.tsv", "survival.tsv", "summary.json"}


def test_freeze_demo_failed_gauge_still_writes_outputs(tmp_path, capsys):
    config = tmp_path / "short.cfg"
    config.write_text("preset = freeze_demo\nv_weak = 0\nv_strong = 20\n")  # channel 2 stays empty
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 1
    assert "FAIL  variance_growth_ratio: value=nan" in capsys.readouterr().out
    payload = json.loads((out / "summary.json").read_text())
    assert "error" in payload["summary"]
    assert not payload["checks"]["variance_growth_ratio"]["passed"]
    assert np.isnan(payload["checks"]["variance_growth_ratio"]["value"])
    ok, report = verify_output_dir(out)
    assert ok, report
    listed = set(json.loads((out / "manifest.json").read_text())["files"])
    assert listed == {"timeseries_strong.tsv", "timeseries_weak.tsv", "summary.json"}


def test_cli_run_and_verify(tmp_path, capsys):
    config = tmp_path / "freeze.cfg"
    config.write_text("preset = freeze_demo\nn_points = 512\n")
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(config), "--out", str(out), "--verify"]) == 0
    stdout = capsys.readouterr().out
    assert "PASS" in stdout
    assert cli_main(["verify", "--out", str(out)]) == 0


@pytest.mark.parametrize("verb, text", [
    ("run", EXPLICIT_RABI),
    ("analytic", (Path(__file__).parents[1] / "configs" / "decay_weak.cfg").read_text()),
], ids=["run", "analytic"])
def test_config_with_byte_order_mark_reads_as_without(tmp_path, capsys, verb, text):
    outputs = []
    for name, prefix in (("plain", ""), ("bom", "\ufeff")):
        config = tmp_path / f"{name}.cfg"
        config.write_text(prefix + text, encoding="utf-8")
        argv = [verb, "--config", str(config)]
        if verb == "run":
            argv += ["--out", str(tmp_path / "out")]
        status = cli_main(argv)
        captured = capsys.readouterr()
        # the run's last line gives its duration
        outputs.append((status, captured.out.rsplit(" (", 1)[0], captured.err))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0 and outputs[0][2] == ""


def test_cli_out_naming_a_file_is_rejected_before_setup(tmp_path, capsys, monkeypatch):
    # set-up would run the preset's checks and the run would propagate for
    # seconds before mkdir failed; the path is checked first
    runner = importlib.import_module("wpsim.runner")

    def no_setup(cfg):
        raise AssertionError("set-up ran")

    monkeypatch.setattr(runner, "_prepare", no_setup)
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    for out in (taken, taken / "below"):
        assert cli_main(["run", "--preset", "lz_sweep", "--out", str(out)]) == 2
        assert f"out: {taken} exists and is not a directory" in capsys.readouterr().err
    assert taken.read_text() == "keep\n"
    assert list(tmp_path.iterdir()) == [taken]


def test_cli_out_under_dangling_link_is_rejected_before_setup(tmp_path, capsys, monkeypatch):
    # exists() follows links: a link to nothing once passed the check, and
    # mkdir raised FileExistsError after the whole run
    runner = importlib.import_module("wpsim.runner")

    def no_setup(cfg):
        raise AssertionError("set-up ran")

    monkeypatch.setattr(runner, "_prepare", no_setup)
    dangling = tmp_path / "dangling"
    dangling.symlink_to(tmp_path / "nowhere")
    for out in (dangling, dangling / "sub"):
        assert cli_main(["run", "--preset", "freeze_demo", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("invalid config:\n"
                                f"  out: {dangling} is a symbolic link that resolves to nothing\n")
    assert list(tmp_path.iterdir()) == [dangling]


def test_cli_out_through_link_to_directory_runs(tmp_path, capsys):
    real = tmp_path / "real"
    real.mkdir()
    (tmp_path / "link").symlink_to(real)
    out = tmp_path / "link" / "run"
    assert cli_main(["run", "--preset", "freeze_demo", "--out", str(out), "--verify"]) == 0
    assert capsys.readouterr().err == ""
    assert (real / "run" / "manifest.json").is_file()


@pytest.mark.parametrize("text", ["{\"files\": {", "[\"summary.json\"]", "{\"seed\": 7}", None],
                         ids=["not_json", "list", "no_files", "manifest_is_a_directory"])
def test_verify_reports_damaged_manifest(tmp_path, capsys, text):
    if text is None:
        (tmp_path / "manifest.json").mkdir()
    else:
        (tmp_path / "manifest.json").write_text(text)
    ok, report = verify_output_dir(tmp_path)
    assert not ok
    assert report[0].startswith("bad manifest: ")
    assert cli_main(["verify", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "inventory MISMATCH"


@pytest.mark.parametrize("name, reason", [
    ("sub", "not a regular file"),
    (None, "outside the output directory"),  # the absolute path of outside.txt
    ("../outside.txt", "outside the output directory"),
    ("sub/../../outside.txt", "outside the output directory"),
    ("a\x00b", "embedded null byte"),
    ("x" * 5000, "File name too long"),
], ids=["directory", "absolute", "parent", "nested_parent", "nul_byte", "too_long"])
def test_verify_reports_bad_inventory_name(tmp_path, capsys, name, reason):
    # the manifest is outside input: a name that is not a regular file under
    # the directory is one failure line, never a hash of another file or a
    # traceback
    out = tmp_path / "out"
    (out / "sub").mkdir(parents=True)
    outside = tmp_path / "outside.txt"
    outside.write_text("elsewhere\n")
    (out / "summary.json").write_text("{}\n")
    name = str(outside) if name is None else name
    digest = hashlib.sha256(outside.read_bytes()).hexdigest()
    files = {"summary.json": hashlib.sha256(b"{}\n").hexdigest(), name: digest}
    (out / "manifest.json").write_text(json.dumps({"files": files}))
    ok, report = verify_output_dir(out)
    assert not ok
    bad = [line for line in report if line != "ok        summary.json"]
    assert len(report) == 2 and len(bad) == 1
    assert bad[0].startswith(f"BAD       {name!r}: ") and reason in bad[0]
    assert cli_main(["verify", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[-1] == "inventory MISMATCH"


def test_cli_rejects_ambiguous_source(capsys):
    assert cli_main(["run", "--preset", "decay_weak", "--config", "x.cfg"]) == 2
    assert cli_main(["run"]) == 2


NARROW_GROUND = """
[grid]
x_min = -3
x_max = 3
n_points = 64

[model]
u1 = harmonic
u2 = flat

[run]
dt = 0.01
t_final = 0.1
"""
WIDE_ABSORBER = EXPLICIT_RABI.replace(
    "t_final = 3.0", "t_final = 3.0\nabsorber = mask\nabsorber_width = 9"
)
MCWF_SNAPSHOTS = EXPLICIT_RABI.replace(
    "record_every = 25", "record_every = 25\nsnapshot_every = 50"
) + "\n[mcwf]\ngamma_sp = 1.0\n"
OFF_STEP_HORIZON = EXPLICIT_RABI.replace("dt = 0.002\nt_final = 3.0", "dt = 0.3\nt_final = 1")
GAUSSIAN_RABI = EXPLICIT_RABI.replace("pulse = constant", "pulse = gaussian\nt_width = 0.5")
SHORT_HORIZON = NARROW_GROUND.replace("x_min = -3\nx_max = 3", "x_min = -12\nx_max = 12").replace(
    "dt = 0.01\nt_final = 0.1", "dt = 1\nt_final = 0.5"
)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("preset = decay_weak\ndt = -3\n", "dt:"),
        ("preset = decay_weak\nabsorber_width = 40\n", "absorber_width:"),
        (WIDE_ABSORBER, "[run] absorber_width:"),
        (NARROW_GROUND, "grid too narrow"),
        ("preset = decay_weak\ndt = 1\nt_final = 0.5\n", "t_final must cover at least one step"),
        ("preset = freeze_demo\nv_strong = 10000\n", "t_final must cover at least one step"),
        (SHORT_HORIZON, "t_final must cover at least one step"),
        ("preset = decay_weak\nx_min = 1\n", "grid too narrow"),
        ("preset = decay_weak\nx_min = 60\n", "x_max must exceed x_min"),
        (EXPLICIT_RABI.replace("x_min = -8", "x_min = 9"), "[grid] x_max must exceed x_min"),
        ("preset = freeze_demo\nv_strong = 0\n", "v_strong: must be > 0"),
        ("preset = chirp_compare\nsnapshot_every = 50\n", "snapshot_every: unknown key"),
        ("preset = mcwf_decay\nsnapshot_every = 50\n", "snapshot_every: unknown key"),
        (MCWF_SNAPSHOTS, "[run] snapshot_every: must be 0 when [mcwf] gamma_sp > 0"),
        ("preset = decay_weak\ndt = 0.3\nt_final = 1\n",
         "t_final: must be a whole number of dt = 0.3 steps, got 1 (nearest horizon: 0.9)"),
        (OFF_STEP_HORIZON, "[run] t_final: must be a whole number of dt = 0.3 steps"),
        ("preset = decay_weak\nt_final = inf\n", "t_final: must be finite, got inf"),
        (EXPLICIT_RABI.replace("dt = 0.002", "dt = 1e-320"),
         "[run] t_final: t_final / dt overflows: too many steps of dt = 1e-320"),
        ("preset = decay_weak\ndt = 1e-300\nt_final = 1e10\n",
         "t_final: t_final / dt overflows: too many steps of dt = 1e-300"),
        ("preset = lz_sweep\nv_values = 0.1 inf\n", "v_values: must be finite, got inf"),
        ("preset = pulsed_gaussian\nt_center = nan\n", "t_center: must be finite, got nan"),
        ("preset = decay_weak\nalpha = inf\n", "alpha: must be finite, got inf"),
        (EXPLICIT_RABI.replace("v0 = 1.0", "v0 = inf"), "[model] v0: must be finite, got inf"),
        ("preset = lz_sweep\nsigma = 1e-6\n", "has norm 0 on the grid nodes"),
        (EXPLICIT_RABI.replace("sigma = 0.7", "sigma = 1e200"),
         "sigma = 1e+200 is out of range: 4 sigma^2 = inf is not a normal float"),
        (GAUSSIAN_RABI.replace("t_width = 0.5", "t_width = 1e-200"),
         "t_width = 1e-200 is out of range: 2 t_width^2 = 0.0 is not a normal float"),
        (GAUSSIAN_RABI.replace("t_width = 0.5", "t_width = 1e200"),
         "t_width = 1e+200 is out of range: 2 t_width^2 = inf is not a normal float"),
        ("preset = decay_weak\ngamma_target = 0\n", "gamma_target: must be > 0, got 0.0"),
        ("preset = lz_sweep\nv_values = 0.2 1e200\n",
         "coupling v must be at most 1e+150 in magnitude, got 1e+200"),
        (EXPLICIT_RABI + "\n[mcwf]\ngamma_sp = 354200\n",
         "[mcwf] gamma_sp: with [run] dt = 0.002, gamma_sp * dt = 708.4 must be at most 708.396"),
        ("preset = mcwf_decay\ngamma_sp = 1e6\n",
         "gamma_sp: with dt = 0.002, gamma_sp * dt = 2000 must be at most 708.396"),
        ("seed = -3\n" + EXPLICIT_RABI + "\n[mcwf]\ngamma_sp = 1.0\n", "seed: must be >= 0, got -3"),
        ("preset = decay_weak\nseed = -1\n", "seed: must be >= 0, got -1"),
        (None, "bad.cfg: cannot read"),
        (b"preset = decay_weak\n# \xff\xfe\n", "bad.cfg: cannot read"),
    ],
    ids=["bad_dt", "absorber_too_wide", "explicit_absorber_too_wide", "grid_too_narrow",
         "horizon_below_dt", "freeze_window_below_dt", "explicit_horizon_below_dt",
         "decay_grid_off_origin", "grid_reversed", "explicit_grid_reversed",
         "freeze_zero_coupling", "chirp_snapshots",
         "mcwf_preset_snapshots", "explicit_mcwf_snapshots", "horizon_off_step",
         "explicit_horizon_off_step", "infinite_horizon", "explicit_step_count_overflow",
         "step_count_overflow", "infinite_list_entry",
         "nan_pulse_center", "infinite_alpha", "explicit_infinite_coupling",
         "packet_between_nodes", "packet_width_overflow", "pulse_width_underflow",
         "pulse_width_overflow", "decay_zero_target_rate", "lz_coupling_square_overflow",
         "explicit_mcwf_damping_underflow", "mcwf_preset_damping_underflow",
         "explicit_mcwf_negative_seed", "preset_negative_seed",
         "config_is_a_directory", "config_not_utf8"],
)
def test_cli_bad_config_exit_code(tmp_path, capsys, text, fragment):
    config = tmp_path / "bad.cfg"
    if text is None:
        config.mkdir()
    elif isinstance(text, bytes):
        config.write_bytes(text)
    else:
        config.write_text(text)
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert fragment in capsys.readouterr().err
    assert not out.exists()
    assert cli_main(["analytic", "--config", str(config)]) == 2
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("preset", ["mcwf_decay", "decay_weak"])
def test_cli_negative_seed_override_exit_code(tmp_path, capsys, preset):
    out = tmp_path / "out"
    assert cli_main(["run", "--preset", preset, "--seed", "-1", "--out", str(out)]) == 2
    assert "--seed: must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()
    assert cli_main(["analytic", "--preset", preset, "--seed", "-1"]) == 2


WIDE_GROUND = NARROW_GROUND.replace("x_min = -3\nx_max = 3", "x_min = -12\nx_max = 12")
DIVERGING = {
    "coupling_square_overflow": WIDE_GROUND.replace(
        "u2 = flat", "u2 = linear\nu2_slope = 1\nv0 = 1e300"),
    "chirp_overflow": WIDE_GROUND.replace(
        "u2 = flat", "u2 = linear\nu2_slope = 1\npulse = gaussian\nv0 = 1\nchirp_rate = 1e300"),
}


def _run_cli(tmp_path, text):
    config = tmp_path / "repro.cfg"
    config.write_text(text)
    src = Path(w.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "wpsim.cli", "run", "--config", str(config),
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("text, line", [
    pytest.param("preset = chirp_compare\nv0 = 0\nt_final = 0.2\n",
                 "FAIL  chirped_gain: value=nan >= 1", id="chirp_compare_no_excitation"),
    pytest.param("preset = decay_strong\nt_final = 0.01\n",
                 "FAIL  oscillation_detected: value=nan == 1", id="decay_strong_too_short"),
    # channel 2 is empty at the first record and p2 peaks at the next, so the
    # strong-coupling growth is exactly 0 and the ratio reads NaN
    pytest.param("preset = freeze_demo\nv_strong = 419\n",
                 "FAIL  variance_growth_ratio: value=nan >= 3", id="freeze_demo_no_strong_growth"),
])
def test_preset_check_on_degenerate_run_fails_without_traceback(tmp_path, text, line):
    # a quantity the check cannot compute reads NaN: the check fails, exit 1,
    # and the run still writes its outputs
    proc = _run_cli(tmp_path, text)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == ""
    assert line in proc.stdout.splitlines()
    ok, report = verify_output_dir(tmp_path / "out")
    assert ok, report
    if "decay_strong" in text:
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())["summary"]
        assert summary["error"] == "series too short: 2 < 16"


@pytest.mark.parametrize("name", sorted(DIVERGING))
def test_cli_reports_divergence_in_one_line(tmp_path, name):
    # a coupling or chirp whose square overflows makes NaN factor rows: no
    # floating-point warning, no traceback, one line, exit 1 and no outputs
    proc = _run_cli(tmp_path, DIVERGING[name])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "run diverged: non-finite population at step 10\n"
    assert not (tmp_path / "out").exists()


def test_non_finite_value_is_one_violation():
    with pytest.raises(ConfigError) as err:
        parse_config(EXPLICIT_RABI.replace("t_final = 3.0", "t_final = inf"))
    assert err.value.violations == ["[run] t_final: must be finite, got inf"]


def test_horizon_within_rounding_of_whole_steps_parses():
    # 0.3 / 0.1 is 2.9999999999999996 in floating point, still three steps
    cfg = parse_config("preset = decay_weak\ndt = 0.1\nt_final = 0.3\n")
    assert w.RunConfig(dt=cfg.params["dt"], t_final=cfg.params["t_final"]).n_steps == 3
    parse_config(EXPLICIT_RABI.replace("t_final = 3.0", "t_final = 3.0000000001"))


# the criterion-6 quantum-jump model: seeded draws, jumps and a spectrum
EXPLICIT_MCWF = """
seed = 7

[grid]
x_min = -8
x_max = 8
n_points = 64

[model]
u1 = flat
u2 = flat

[run]
dt = 0.01
t_final = 5
record_every = 25

[initial]
kind = gaussian
sigma = 0.7
channel = 2

[mcwf]
gamma_sp = 1
n_trajectories = 8
"""


def test_outputs_ignore_environment(tmp_path):
    config = tmp_path / "mcwf.cfg"
    config.write_text(EXPLICIT_MCWF)
    src = Path(w.__file__).resolve().parents[1]
    base = {key: value for key, value in os.environ.items() if key != "WPSIM_THREADS"}
    base.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    runs = []
    for label, extra in (("unset", {}), ("two", {"WPSIM_THREADS": "2"}),
                         ("junk", {"WPSIM_THREADS": "abc"})):
        out = tmp_path / label
        proc = subprocess.run(
            [sys.executable, "-m", "wpsim.cli", "run", "--config", str(config), "--out", str(out)],
            env=dict(base, **extra), capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, (label, proc.stderr)
        manifest = json.loads((out / "manifest.json").read_text())
        del manifest["duration_seconds"]
        files = {path.relative_to(out).as_posix(): path.read_bytes()
                 for path in sorted(out.rglob("*"))
                 if path.is_file() and path.name != "manifest.json"}
        assert sorted(files) == sorted(manifest["files"])
        runs.append((manifest, files))
    assert "jumps.tsv" in runs[0][1]
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


def test_repo_ships_annotated_example_configs():
    from pathlib import Path

    config_dir = Path(__file__).resolve().parents[1] / "configs"
    for name in PRESETS:
        path = config_dir / f"{name}.cfg"
        assert path.exists(), f"missing annotated example config for {name}"
        text = path.read_text()
        assert "#" in text  # annotated
        parse_config(text)  # and valid
        # every commented-out "# key = value" line shows the preset's default
        shown = re.findall(r"^#\s*(\w+)\s*=\s*([^#\n]+)", text, re.MULTILINE)
        assert shown, f"{name}.cfg shows no defaults"
        for key, value in shown:
            override = parse_config(f"preset = {name}\n{key} = {value}\n")
            assert override.params[key] == PRESETS[name].defaults[key], (name, key)

"""Experiment runner: config parsing, presets, output serialization, manifests.

Config files are flat key = value text with optional lowercase [sections];
'#' starts a comment.  A run is either a named preset (plus parameter
overrides at top level) or fully explicit [grid]/[model]/[run] sections
(optionally [initial] and [mcwf]); the two styles are mutually exclusive.
See configs/ for an annotated example per preset.

One schema (``_SCHEMA``) types and range-checks every key.  A preset is its
defaults plus ``setup``, which builds the state, models and run config and
the derived quantities, and ``run``, which propagates and writes the
tables; explicit sections use one such pair.  A value that fails in setup
is a config error, raised before the output directory exists.

Every run writes its data tables, a summary.json with fits and built-in
check results, and a manifest.json listing derived analytic quantities and
a sha256 inventory of all other output files.  Data files are bitwise
reproducible for identical (config, seed); the manifest additionally
records the wall-clock duration, which is excluded from any
reproducibility comparison.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import operator
import time
from collections import namedtuple
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import __version__
from .analytic import (
    DecayModelParams,
    condon_factor,
    coupling_for_rate,
    lz_probability,
    ww_rate_condon,
    ww_rate_reflection,
)
from .grid import (
    GROUND_STATE_ENERGY,
    gaussian_packet,
    harmonic_ground_state,
    make_grid,
)
from .mcwf import mcwf_ensemble, nojump_benchmark
from .model import (
    ModelSpec,
    constant_pulse,
    crossing_point,
    difference_potential,
    flat_potential,
    gaussian_pulse,
    harmonic_potential,
    linear_potential,
)
from .observables import (
    FitError,
    detect_oscillation,
    emission_spectrum,
    fit_decay_rate,
    momentum_moments,
)
from .propagate import AbsorberSpec, RunConfig, Snapshot, Trajectory, propagate

_FLOAT_FMT = "%.11e"  # 12 significant digits
_UNITS_NOTE = (
    "scaled units: hbar = 1, kinetic operator -d2/dx2 (mass 1/2), "
    "harmonic reference surface x^2/2"
)

TIMESERIES_COLUMNS = (
    "t",
    "p1",
    "p2",
    "mean_x1",
    "mean_x2",
    "var_x1",
    "var_x2",
    "absorbed",
)


class ConfigError(ValueError):
    """All validation violations for a config, not just the first."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid config:\n  " + "\n  ".join(self.violations))


@dataclass
class ExperimentConfig:
    preset: Optional[str]
    params: dict = field(default_factory=dict)
    explicit: Optional[dict] = None
    seed: int = 0
    out: Optional[str] = None


@dataclass
class RunManifest:
    preset: Optional[str]
    config: dict
    seed: int
    units: str
    package_version: str
    derived: dict
    checks: dict
    ok: bool
    duration_seconds: float
    files: dict

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True, default=float)


# ---------------------------------------------------------------------------
# config schema and text parsing

# A range rule is (check, message); the message formats the offending value.
_GT0 = (lambda v: v > 0, "must be > 0, got {}")
_GE0 = (lambda v: v >= 0, "must be >= 0, got {}")

# key -> (type, rule or None); the type is float, int, list (of floats) or a
# tuple of the allowed strings.  Presets and explicit sections share it.
_SCHEMA = {
    **dict.fromkeys(
        ("x_min", "x_max", "x0", "center", "k0", "t_center", "chirp_rate",
         "u1_offset", "u1_slope", "u2_offset", "u2_slope"),
        (float, None),
    ),
    **dict.fromkeys(
        ("dt", "t_final", "t_width", "sigma", "alpha", "slope_difference",
         "absorber_width", "v_strong"),
        (float, _GT0),
    ),
    **dict.fromkeys(
        ("v0", "gamma_sp", "gamma_target", "absorber_strength", "v_weak"),
        (float, _GE0),
    ),
    "seed": (int, None),
    "n_points": (int, (lambda n: n >= 64 and not n & (n - 1),
                       "must be a power of two >= 64, got {}")),
    "n_trajectories": (int, (lambda n: n >= 2, "must be >= 2, got {}")),
    "record_every": (int, (lambda n: n >= 1, "must be >= 1, got {}")),
    "snapshot_every": (int, (lambda n: n >= 0, "must be >= 0 (0 disables), got {}")),
    "n_bins": (int, (lambda n: n >= 1, "must be >= 1, got {}")),
    "channel": (int, (lambda n: n in (1, 2), "must be 1 or 2, got {}")),
    "v_values": (list, (lambda vs: all(v >= 0 for v in vs), "values must be >= 0")),
    "u1": (("harmonic", "linear", "flat"), None),
    "u2": (("harmonic", "linear", "flat"), None),
    "pulse": (("constant", "gaussian"), None),
    "absorber": (("none", "mask"), None),
    "kind": (("ground", "gaussian"), None),
}
_TYPE_NAMES = {float: "a number", int: "an integer", list: "a list of numbers"}

# section -> {key: default}; None marks a required key
_EXPLICIT = {
    "grid": {"x_min": None, "x_max": None, "n_points": None},
    "model": {"u1": "harmonic", "u1_offset": 0.0, "u1_slope": 0.0,
              "u2": "harmonic", "u2_offset": 0.0, "u2_slope": 0.0,
              "pulse": "constant", "v0": 0.0, "t_center": 0.0, "t_width": 1.0,
              "chirp_rate": 0.0},
    "run": {"dt": None, "t_final": None, "record_every": 10, "snapshot_every": 0,
            "absorber": "none", "absorber_width": 1.0, "absorber_strength": 1000.0},
    "initial": {"kind": "ground", "center": 0.0, "sigma": 1.0, "k0": 0.0, "channel": 1},
    "mcwf": {"gamma_sp": 0.0, "n_trajectories": 100, "n_bins": 40},
}
_REQUIRED_SECTIONS = ("grid", "model", "run")


def _parse_sections(text: str):
    top: dict[str, str] = {}
    sections: dict[str, dict[str, str]] = {}
    violations: list[str] = []
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name != name.lower():
                violations.append(f"line {lineno}: section names are lowercase: [{name}]")
            current = name.lower()
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            violations.append(f"line {lineno}: expected key = value, got {line!r}")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key != key.lower():
            violations.append(f"line {lineno}: keys are lowercase: {key!r}")
            key = key.lower()
        bucket = top if current is None else sections[current]
        if key in bucket:
            violations.append(f"line {lineno}: duplicate key {key!r}")
        bucket[key] = value
    return top, sections, violations


def _convert(label, key, text, violations):
    """The typed value of one entry, or None if it cannot be typed or is not
    finite; a range violation is recorded but the value is still returned."""
    kind, rule = _SCHEMA[key]
    if isinstance(kind, tuple):
        if text in kind:
            return text
        violations.append(f"{label}: unknown kind {text!r} ({'|'.join(kind)})")
        return None
    try:
        if kind is list:
            value = [float(tok) for tok in text.replace(",", " ").split()]
        else:
            value = kind(text)
    except ValueError:
        violations.append(f"{label}: not {_TYPE_NAMES[kind]}: {text!r}")
        return None
    if kind is list and not value:
        violations.append(f"{label}: empty list")
        return None
    if kind is not int:
        bad = [v for v in (value if kind is list else [value]) if not np.isfinite(v)]
        if bad:
            violations.append(f"{label}: must be finite, got {bad[0]}")
            return None
    if rule is not None and not rule[0](value):
        violations.append(f"{label}: {rule[1].format(value)}")
    return value


def _convert_block(body, allowed, prefix, unknown, violations):
    block = {}
    for key, text in body.items():
        if key not in allowed:
            violations.append(f"{prefix}{key}: {unknown}")
            continue
        value = _convert(f"{prefix}{key}", key, text, violations)
        if value is not None:
            block[key] = value
    return block


def _explicit_params(explicit: dict) -> dict:
    """Every explicit section with its defaults filled in."""
    return {name: dict(keys, **explicit.get(name, {})) for name, keys in _EXPLICIT.items()}


def _check_extent(x_min, x_max, absorber_width, violations, grid="", run=""):
    """The grid interval and absorber zone checks of make_grid and absorber_profile."""
    if not x_max > x_min:
        violations.append(f"{grid}x_max must exceed x_min")
    elif absorber_width is not None and not absorber_width < 0.5 * (x_max - x_min):
        violations.append(
            f"{run}absorber_width: must be below half the grid extent "
            f"({0.5 * (x_max - x_min):g}), got {absorber_width:g}"
        )


def _check_horizon(dt, t_final, violations, run=""):
    """t_final must be a whole number of dt steps, to 1e-9 relative.  A
    horizon below one step is left to RunConfig, which rejects it in set-up."""
    if dt is None or t_final is None or not (0 < dt and 0 < t_final):
        return  # missing or out of range, reported elsewhere
    n_steps = round(t_final / dt)
    if n_steps >= 1 and abs(t_final - n_steps * dt) > 1e-9 * t_final:
        violations.append(
            f"{run}t_final: must be a whole number of dt = {dt:g} steps, got {t_final:g} "
            f"(nearest horizon: {n_steps * dt:g})"
        )


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate config text; raises ConfigError listing every violation."""
    top, sections, violations = _parse_sections(text)

    preset = top.pop("preset", None)
    seed = _convert("seed", "seed", top.pop("seed", "0"), violations) or 0
    out = top.pop("out", None)

    if preset is not None and preset not in PRESETS:
        violations.append(
            f"preset: unknown preset {preset!r} (known: {', '.join(sorted(PRESETS))})"
        )
    if preset is not None and sections:
        violations.append(
            "exactly one of preset / explicit sections allowed, got both "
            f"(preset = {preset}, sections: {', '.join(sorted(sections))})"
        )
    if preset is None and not sections:
        violations.append("config needs either preset = <name> or explicit [grid]/[model]/[run] sections")

    params: dict = {}
    explicit: Optional[dict] = None

    if preset is not None and preset in PRESETS:
        allowed = PRESETS[preset].defaults
        unknown = f"unknown key for preset {preset} (allowed: {', '.join(sorted(allowed))})"
        params = _convert_block(top, allowed, "", unknown, violations)
        merged = dict(allowed, **params)
        _check_extent(merged["x_min"], merged["x_max"], merged["absorber_width"], violations)
        if "t_final" in merged:  # freeze_demo derives its own horizon
            _check_horizon(merged["dt"], merged["t_final"], violations)
    elif sections:
        for key in top:
            violations.append(f"{key}: unknown top-level key (allowed: preset, seed, out)")
        for name in _REQUIRED_SECTIONS:
            if name not in sections:
                violations.append(f"missing required section [{name}]")
        explicit = {}
        for name, body in sections.items():
            if name not in _EXPLICIT:
                violations.append(f"unknown section [{name}]")
                continue
            block = _convert_block(body, _EXPLICIT[name], f"[{name}] ", "unknown key", violations)
            for key, default in _EXPLICIT[name].items():
                if default is None and key not in body:
                    violations.append(f"[{name}] missing required key {key}")
            explicit[name] = block
        p = _explicit_params(explicit)
        grid_block, run_block = p["grid"], p["run"]
        if run_block["snapshot_every"] > 0 and p["mcwf"]["gamma_sp"] > 0:
            violations.append("[run] snapshot_every: must be 0 when [mcwf] gamma_sp > 0")
        if grid_block["x_min"] is not None and grid_block["x_max"] is not None:
            width = run_block["absorber_width"] if run_block["absorber"] == "mask" else None
            _check_extent(grid_block["x_min"], grid_block["x_max"], width, violations,
                          "[grid] ", "[run] ")
        _check_horizon(run_block["dt"], run_block["t_final"], violations, "[run] ")

    if violations:
        raise ConfigError(violations)
    return ExperimentConfig(preset=preset, params=params, explicit=explicit, seed=seed, out=out)


# ---------------------------------------------------------------------------
# serialization


def _write_table(path, header, rows) -> None:
    with Path(path).open("w", newline="\n") as fh:
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(_FLOAT_FMT % v for v in row) + "\n")


def write_timeseries(trajectory: Trajectory, path) -> None:
    """Tab-separated table with the fixed column set, 12 significant digits."""
    t = trajectory
    _write_table(
        path,
        TIMESERIES_COLUMNS,
        zip(t.times, t.p1, t.p2, t.mean_x1, t.mean_x2, t.var_x1, t.var_x2, t.absorbed_norm),
    )


def write_snapshot(snapshot: Snapshot, path, grid, config_hash: str) -> None:
    """Densities on the grid nodes, with t and the config hash in the header.

    The x column is written with full double precision so it reparses to the
    exact node values.
    """
    path = Path(path)
    with path.open("w", newline="\n") as fh:
        fh.write(f"# t = {_FLOAT_FMT % snapshot.t} config = {config_hash}\n")
        fh.write("x\tdensity1\tdensity2\n")
        for x, d1, d2 in zip(grid.x, snapshot.density1, snapshot.density2):
            fh.write(f"%.17g\t{_FLOAT_FMT}\t{_FLOAT_FMT}\n" % (x, d1, d2))


def _write_single(out: Path, traj: Trajectory, chash: str, survival=False) -> list:
    """timeseries.tsv, survival.tsv if asked for, and one file per snapshot."""
    files = ["timeseries.tsv"]
    write_timeseries(traj, out / "timeseries.tsv")
    if survival:
        _write_table(out / "survival.tsv", ("t", "survival"), zip(traj.times, traj.survival))
        files.append("survival.tsv")
    if traj.snapshots:
        (out / "snapshots").mkdir(exist_ok=True)
    for idx, snap in enumerate(traj.snapshots):
        files.append(f"snapshots/snap_{idx:05d}.tsv")
        write_snapshot(snap, out / files[-1], traj.grid, chash)
    return files


def _write_ensemble(out: Path, ensemble, model, n_bins: int):
    """ensemble_mean.tsv, jumps.tsv and, if any jump fired, spectrum.tsv;
    returns the file names and the spectrum (None without jumps)."""
    _write_table(
        out / "ensemble_mean.tsv",
        ("t", "mean_p1", "mean_p2", "se_p1", "se_p2"),
        zip(ensemble.times, ensemble.mean_p1, ensemble.mean_p2,
            ensemble.se_p1, ensemble.se_p2),
    )
    _write_table(
        out / "jumps.tsv",
        ("t_jump", "x_jump", "trajectory_id"),
        [(j.t_jump, j.x_jump, float(j.trajectory_id)) for j in ensemble.jumps],
    )
    files = ["ensemble_mean.tsv", "jumps.tsv"]
    if not ensemble.jumps:
        return files, None
    spectrum = emission_spectrum(ensemble.jumps, model, n_bins)
    _write_table(
        out / "spectrum.tsv",
        ("bin_lo", "bin_hi", "count"),
        zip(spectrum.bin_edges[:-1], spectrum.bin_edges[1:], spectrum.counts.astype(float)),
    )
    return files + ["spectrum.tsv"], spectrum


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _config_hash(resolved: dict) -> str:
    return hashlib.sha256(
        json.dumps(resolved, sort_keys=True).encode()
    ).hexdigest()[:16]


# ---------------------------------------------------------------------------
# presets: defaults plus a setup and a run function each


@dataclass(frozen=True)
class PresetDef:
    """``setup(p) -> (job, derived)`` builds everything and propagates nothing;
    ``run(job, derived, p, seed, out, chash) -> (checks, summary, files)``
    propagates and writes the tables."""

    description: str
    runtime_note: str
    defaults: dict
    setup: Callable
    run: Callable


# what a setup builds: the initial state on its grid, one model per propagation
_Job = namedtuple("_Job", "state models cfg")


def _slope_model(p: dict, pulse) -> ModelSpec:
    """The bound harmonic level coupled to the sloped channel-2 continuum."""
    return ModelSpec(
        u1=harmonic_potential(),
        u2_minus_omega=linear_potential(GROUND_STATE_ENERGY, p["alpha"]),
        pulse=pulse,
    )


def _pulsed_model(p: dict, chirp_rate: float) -> ModelSpec:
    return _slope_model(p, gaussian_pulse(p["v0"], p["t_center"], p["t_width"], chirp_rate))


def _run_config(p: dict) -> RunConfig:
    """Presets always mask the edges; explicit [run] sections choose."""
    mask = p.get("absorber", "mask") == "mask"
    return RunConfig(
        dt=p["dt"],
        t_final=p["t_final"],
        absorber=AbsorberSpec(p["absorber_width"], p["absorber_strength"]) if mask else None,
        record_every=p["record_every"],
        snapshot_every=p.get("snapshot_every", 0) or None,
    )


def _ground_job(p: dict, *models) -> _Job:
    """The harmonic ground state on the preset's grid, driven by each model."""
    grid = make_grid(p["x_min"], p["x_max"], p["n_points"])
    return _Job(harmonic_ground_state(grid), models, _run_config(p))


def _level_crossing_x(model: ModelSpec, p: dict) -> float:
    return crossing_point(model, p["x_min"], p["x_max"], level=GROUND_STATE_ENERGY).position


_COMPARATORS = {"<=": operator.le, ">=": operator.ge, "==": operator.eq}


def _check(value, threshold, comparator):
    return {"passed": bool(_COMPARATORS[comparator](value, threshold)), "value": value,
            "threshold": threshold, "comparator": comparator}


def _final(traj: Trajectory) -> dict:
    return {"p1": traj.p1[-1], "p2": traj.p2[-1], "absorbed": traj.absorbed_norm[-1]}


def _fit_info(traj: Trajectory, *fields) -> dict:
    """The named fields of the exponential fit to p1, or the reason it failed."""
    try:
        fit = fit_decay_rate(traj.times, traj.p1)
    except FitError as exc:
        return {"error": str(exc)}
    return {name: getattr(fit, name) for name in fields}


# the sloped-continuum geometry that every preset but lz_sweep starts from
_SLOPE_DEFAULTS = dict(alpha=2.0, x_min=-12.0, x_max=52.0, n_points=2048, dt=0.001,
                       absorber_width=6.0, absorber_strength=1000.0, record_every=10)
_DECAY_DEFAULTS = dict(_SLOPE_DEFAULTS, gamma_target=0.26, t_final=12.0, snapshot_every=0)
# chirp_compare and mcwf_decay write no snapshots, so they take no snapshot_every
_CHIRP_DEFAULTS = dict(_SLOPE_DEFAULTS, v0=1.0, t_center=3.0, t_width=1.0, chirp_rate=-1.0,
                       t_final=8.0)
_PULSED_DEFAULTS = dict(_CHIRP_DEFAULTS, chirp_rate=0.0, snapshot_every=250)
_MCWF_DEFAULTS = dict(_SLOPE_DEFAULTS, v0=1.0, t_center=2.0, t_width=0.8, gamma_sp=1.0,
                      n_trajectories=200, n_bins=200, n_points=1024, dt=0.002, t_final=6.0,
                      record_every=25)
_FREEZE_DEFAULTS = dict(_SLOPE_DEFAULTS, v_strong=2.0, v_weak=0.2, record_every=5)


def _setup_decay(p):
    v = coupling_for_rate(p["gamma_target"], p["alpha"])
    job = _ground_job(p, _slope_model(p, constant_pulse(v)))
    quad = condon_factor(p["alpha"], "quadrature")
    return job, {
        "coupling_v": v,
        "gamma_reflection": ww_rate_reflection(DecayModelParams(v, p["alpha"])),
        "gamma_quadrature": ww_rate_condon(v, quad),
        "condon_sq_quadrature": quad.magnitude_sq,
        "condon_sq_reflection": condon_factor(p["alpha"], "reflection").magnitude_sq,
        "level_crossing_x": _level_crossing_x(job.models[0], p),
        "curve_crossing_x": crossing_point(job.models[0], p["x_min"], p["x_max"]).position,
    }


def _run_decay_weak(job, derived, p, seed, out, chash):
    traj = propagate(job.state, job.models[0], job.cfg)
    fit = _fit_info(traj, "gamma_fit", "r_squared", "window", "n_points")
    gq, gr = derived["gamma_quadrature"], derived["gamma_reflection"]
    # a failed fit leaves NaN, which fails both fit checks
    gamma_fit = fit.get("gamma_fit", float("nan"))
    checks = {
        "fit_r_squared": _check(fit.get("r_squared", float("nan")), 0.995, ">="),
        "gamma_vs_quadrature_reldev": _check(abs(gamma_fit - gq) / gq, 0.05, "<="),
        "quadrature_vs_reflection_reldev": _check(abs(gq - gr) / gr, 0.10, "<="),
    }
    summary = {"fit": fit, "final": _final(traj)}
    return checks, summary, _write_single(out, traj, chash, survival=True)


def _run_decay_strong(job, derived, p, seed, out, chash):
    traj = propagate(job.state, job.models[0], job.cfg)
    osc = detect_oscillation(traj.p1)
    checks = {"oscillation_detected": _check(int(osc.is_oscillatory), 1, "==")}
    summary = {"n_local_minima": osc.n_local_minima,
               "fit": _fit_info(traj, "gamma_fit", "r_squared")}
    return checks, summary, _write_single(out, traj, chash, survival=True)


def _setup_pulsed_gaussian(p):
    job = _ground_job(p, _pulsed_model(p, p["chirp_rate"]))
    return job, {"pulse_peak_v": p["v0"], "level_crossing_x": _level_crossing_x(job.models[0], p)}


def _run_pulsed_gaussian(job, derived, p, seed, out, chash):
    traj = propagate(job.state, job.models[0], job.cfg)
    peak_p2 = float(np.max(traj.p2))
    checks = {"excitation_reached": _check(peak_p2, 0.1, ">=")}
    summary = {
        "peak_p2": peak_p2,
        "escaped_fraction": float(traj.p2[-1] + traj.absorbed_ch2[-1]),
        "final": _final(traj),
    }
    return checks, summary, _write_single(out, traj, chash)


_LZ_DEFAULTS = {
    "slope_difference": 2.0,
    "k0": 1.0,
    "sigma": 3.0,
    "x0": -14.0,
    "x_min": -34.0,
    "x_max": 34.0,
    "n_points": 1024,
    "dt": 0.005,
    "t_final": 12.0,
    "absorber_width": 12.0,
    "absorber_strength": 1000.0,
    "record_every": 50,
    "v_values": [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.65, 0.8],
}


def _setup_lz_sweep(p):
    grid = make_grid(p["x_min"], p["x_max"], p["n_points"])
    state = gaussian_packet(grid, p["x0"], p["sigma"], p["k0"], channel=1)
    # crossing speed measured from the packet's mean momentum (speed = 2k)
    velocity = 2.0 * momentum_moments(state, 1).mean
    slope = p["slope_difference"]
    models = tuple(
        ModelSpec(u1=flat_potential(), u2_minus_omega=linear_potential(0.0, slope),
                  pulse=constant_pulse(v))
        for v in p["v_values"]
    )
    derived = {
        "crossing_speed": velocity,
        "slope_difference": slope,
        "transfer_analytic": {f"{v:g}": 1.0 - lz_probability(v, slope, velocity)
                              for v in p["v_values"]},
    }
    return _Job(state, models, _run_config(p)), derived


def _run_lz_sweep(job, derived, p, seed, out, chash):
    rows = []
    for v, model in zip(p["v_values"], job.models):
        traj = propagate(job.state, model, job.cfg)
        numeric = float(traj.p2[-1] + traj.absorbed_ch2[-1])
        analytic = 1.0 - lz_probability(v, p["slope_difference"], derived["crossing_speed"])
        rows.append((v, numeric, analytic, numeric - analytic))
    _write_table(
        out / "lz_table.tsv",
        ("v", "transfer_numeric", "transfer_analytic", "deviation"),
        rows,
    )
    max_dev = max(abs(numeric - analytic) for _, numeric, analytic, _ in rows)
    checks = {"max_abs_deviation": _check(max_dev, 0.02, "<=")}
    summary = {"max_abs_deviation": max_dev,
               "table": [dict(zip(("v", "numeric", "analytic", "deviation"), r)) for r in rows]}
    return checks, summary, ["lz_table.tsv"]


def _propagate_each(job, labels, out):
    """Propagate the state under each model; writes timeseries_<label>.tsv per model."""
    trajs = {}
    for label, model in zip(labels, job.models):
        trajs[label] = propagate(job.state, model, job.cfg)
        write_timeseries(trajs[label], out / f"timeseries_{label}.tsv")
    return trajs, [f"timeseries_{label}.tsv" for label in labels]


def _setup_chirp_compare(p):
    job = _ground_job(p, _pulsed_model(p, 0.0), _pulsed_model(p, p["chirp_rate"]))
    return job, {"chirp_rate": p["chirp_rate"]}


def _run_chirp_compare(job, derived, p, seed, out, chash):
    trajs, files = _propagate_each(job, ("unchirped", "chirped"), out)
    eff = {label: float(t.p2[-1] + t.absorbed_ch2[-1]) for label, t in trajs.items()}
    gain = eff["chirped"] / eff["unchirped"]
    _write_table(
        out / "chirp_table.tsv",
        ("chirp_rate", "efficiency"),
        [(0.0, eff["unchirped"]), (p["chirp_rate"], eff["chirped"])],
    )
    checks = {"chirped_gain": _check(gain, 1.0, ">=")}
    summary = {
        "efficiency_unchirped": eff["unchirped"],
        "efficiency_chirped": eff["chirped"],
        "gain": gain,
    }
    return checks, summary, files + ["chirp_table.tsv"]


def _setup_mcwf_decay(p):
    job = _ground_job(p, _pulsed_model(p, 0.0))
    return job, {"gamma_sp": p["gamma_sp"], "pulse_peak_v": p["v0"]}


def _run_mcwf_decay(job, derived, p, seed, out, chash):
    model = job.models[0]
    ensemble = mcwf_ensemble(seed, p["n_trajectories"], job.state, model, p["gamma_sp"], job.cfg)
    _, intensity = nojump_benchmark(job.state, model, p["gamma_sp"], job.cfg)
    files, spectrum = _write_ensemble(out, ensemble, model, p["n_bins"])
    checks = {}
    summary = {"n_jumps": len(ensemble.jumps), "n_trajectories": ensemble.n_trajectories}
    if spectrum is not None:
        # oracle: expected jump density from the deterministic no-jump run
        x_expected = float(job.state.grid.x[int(np.argmax(intensity))])
        f_expected = float(difference_potential(model, x_expected))
        centers = spectrum.bin_centers
        expected_bin = int(np.argmin(np.abs(centers - f_expected)))
        checks["spectrum_peak_bin_offset"] = _check(
            abs(spectrum.peak_bin() - expected_bin), 1, "<="
        )
        summary["spectrum_peak_frequency"] = float(centers[spectrum.peak_bin()])
        summary["expected_peak_frequency"] = f_expected
    return checks, summary, files


def freezing_growth(traj: Trajectory) -> float:
    """Spread gauge: channel-2 variance growth from birth to the moment of
    maximum channel-2 population.  Conditioning on the population peak keeps
    the gauge on the occupied packet; near population nodes the conditional
    variance of the leftover tail diverges and says nothing about spreading.
    """
    valid = ~np.isnan(traj.var_x2)
    p2 = traj.p2[valid]
    var = traj.var_x2[valid]
    if var.size < 2:
        raise ValueError("trajectory too short to gauge spreading")
    return float(var[int(np.argmax(p2))] - var[0])


def _setup_freeze_demo(p):
    window = np.pi / p["v_strong"]  # one full population cycle at strong coupling
    models = (_slope_model(p, constant_pulse(p["v_strong"])),
              _slope_model(p, constant_pulse(p["v_weak"])))
    job = _ground_job(dict(p, t_final=window), *models)
    return job, {"rabi_window": window, "v_strong": p["v_strong"], "v_weak": p["v_weak"]}


def _run_freeze_demo(job, derived, p, seed, out, chash):
    trajs, files = _propagate_each(job, ("strong", "weak"), out)
    try:
        growth = {label: freezing_growth(traj) for label, traj in trajs.items()}
        summary = {"growth_strong": growth["strong"], "growth_weak": growth["weak"],
                   "ratio": growth["weak"] / growth["strong"]}
    except ValueError as exc:
        summary = {"error": str(exc)}
    # a failed gauge leaves NaN, which fails the check
    checks = {"variance_growth_ratio": _check(summary.get("ratio", float("nan")), 3.0, ">=")}
    return checks, summary, files


PRESETS = {
    "decay_weak": PresetDef(
        "bound level decaying into the sloped continuum in the golden-rule regime "
        "(target rate 0.26); fits the exponential and compares with the analytic rates",
        "~15 s", _DECAY_DEFAULTS, _setup_decay, _run_decay_weak,
    ),
    "decay_strong": PresetDef(
        "same geometry far above the perturbative regime (target rate 2.4); "
        "checks that the decay develops flopping oscillations",
        "~10 s", dict(_DECAY_DEFAULTS, gamma_target=2.4, t_final=8.0),
        _setup_decay, _run_decay_strong,
    ),
    "pulsed_gaussian": PresetDef(
        "Gaussian-envelope pulse lifting the ground packet onto the slope; "
        "writes density snapshots of the escaping excited packet",
        "~10 s", _PULSED_DEFAULTS, _setup_pulsed_gaussian, _run_pulsed_gaussian,
    ),
    "lz_sweep": PresetDef(
        "packet driven through a linear crossing at fixed speed for a ladder of "
        "couplings; tabulates numeric vs analytic transfer probabilities",
        "~30 s", _LZ_DEFAULTS, _setup_lz_sweep, _run_lz_sweep,
    ),
    "chirp_compare": PresetDef(
        "pulsed excitation with and without a linear frequency chirp; reports "
        "the excitation-efficiency gain",
        "~20 s", _CHIRP_DEFAULTS, _setup_chirp_compare, _run_chirp_compare,
    ),
    "mcwf_decay": PresetDef(
        "quantum-jump ensemble of pulsed excitation with spontaneous decay; "
        "writes jump records, ensemble means, and the emission spectrum",
        "~2-3 min", _MCWF_DEFAULTS, _setup_mcwf_decay, _run_mcwf_decay,
    ),
    "freeze_demo": PresetDef(
        "strong vs 10x weaker constant coupling over one strong-coupling flopping "
        "period; compares upper-packet variance growth (motion freezing)",
        "~15 s", _FREEZE_DEFAULTS, _setup_freeze_demo, _run_freeze_demo,
    ),
}


# ---------------------------------------------------------------------------
# explicit sections: the same setup/run pair over the filled-in sections


def _potential(model_block: dict, name: str):
    kind = model_block[name]
    if kind == "harmonic":
        return harmonic_potential()
    if kind == "linear":
        return linear_potential(model_block[f"{name}_offset"], model_block[f"{name}_slope"])
    return flat_potential(model_block[f"{name}_offset"])


def _setup_explicit(p):
    g, m, r, i = p["grid"], p["model"], p["run"], p["initial"]
    grid = make_grid(g["x_min"], g["x_max"], g["n_points"])
    if m["pulse"] == "constant":
        pulse = constant_pulse(m["v0"], m["chirp_rate"], m["t_center"])
    else:
        pulse = gaussian_pulse(m["v0"], m["t_center"], m["t_width"], m["chirp_rate"])
    model = ModelSpec(u1=_potential(m, "u1"), u2_minus_omega=_potential(m, "u2"), pulse=pulse)
    if i["kind"] == "ground":
        state = harmonic_ground_state(grid)
    else:
        state = gaussian_packet(grid, i["center"], i["sigma"], i["k0"], i["channel"])
    return _Job(state, (model,), _run_config(r)), {}


def _run_explicit(job, derived, p, seed, out, chash):
    model = job.models[0]
    mcwf = p["mcwf"]
    if mcwf["gamma_sp"] > 0.0:
        ensemble = mcwf_ensemble(
            seed, mcwf["n_trajectories"], job.state, model, mcwf["gamma_sp"], job.cfg
        )
        files, _ = _write_ensemble(out, ensemble, model, mcwf["n_bins"])
        summary = {"n_jumps": len(ensemble.jumps), "n_trajectories": ensemble.n_trajectories}
    else:
        traj = propagate(job.state, model, job.cfg)
        files = _write_single(out, traj, chash)
        summary = {"final": _final(traj)}
    return {}, summary, files


# ---------------------------------------------------------------------------
# entry points


def _prepare(cfg: ExperimentConfig):
    """(run function, params, resolved config, job, derived); a ValueError
    from setup means the parameters cannot be built into a run."""
    if cfg.preset is None:
        setup, run = _setup_explicit, _run_explicit
        p = _explicit_params(cfg.explicit)
        resolved = {"explicit": cfg.explicit, "seed": cfg.seed}
    else:
        setup, run = PRESETS[cfg.preset].setup, PRESETS[cfg.preset].run
        p = dict(PRESETS[cfg.preset].defaults, **cfg.params)
        resolved = {"preset": cfg.preset, "seed": cfg.seed, "params": p}
    try:
        job, derived = setup(p)
    except ValueError as exc:
        raise ConfigError([str(exc)]) from exc
    return run, p, resolved, job, derived


def derived_quantities(cfg: ExperimentConfig) -> dict:
    """The closed-form quantities that run_experiment records in the manifest,
    computed without propagating."""
    return _prepare(cfg)[4]


def run_experiment(cfg: ExperimentConfig, out_dir) -> RunManifest:
    """Execute the configured experiment and write all outputs under out_dir.

    Set-up runs first, so a config it rejects leaves no output directory.
    """
    start = time.perf_counter()
    run, p, resolved, job, derived = _prepare(cfg)
    chash = _config_hash(resolved)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    checks, summary, files = run(job, derived, p, cfg.seed, out, chash)

    summary_payload = {"summary": summary, "checks": checks, "config_hash": chash}
    (out / "summary.json").write_text(
        json.dumps(summary_payload, indent=2, sort_keys=True, default=float) + "\n"
    )
    files = list(files) + ["summary.json"]

    manifest = RunManifest(
        preset=cfg.preset,
        config=resolved,
        seed=cfg.seed,
        units=_UNITS_NOTE,
        package_version=__version__,
        derived=derived,
        checks=checks,
        ok=all(c["passed"] for c in checks.values()) if checks else True,
        duration_seconds=time.perf_counter() - start,
        files={name: _sha256(out / name) for name in sorted(files)},
    )
    (out / "manifest.json").write_text(manifest.to_json() + "\n")
    return manifest


def verify_output_dir(out_dir) -> tuple[bool, list[str]]:
    """Recompute the sha256 inventory recorded in manifest.json."""
    out = Path(out_dir)
    manifest_path = out / "manifest.json"
    if not manifest_path.exists():
        return False, [f"missing manifest: {manifest_path}"]
    inventory = json.loads(manifest_path.read_text())["files"]
    report = []
    ok = True
    for name, recorded in sorted(inventory.items()):
        path = out / name
        if not path.exists():
            ok = False
            report.append(f"MISSING   {name}")
            continue
        actual = _sha256(path)
        if actual != recorded:
            ok = False
            report.append(f"MISMATCH  {name}")
        else:
            report.append(f"ok        {name}")
    return ok, report

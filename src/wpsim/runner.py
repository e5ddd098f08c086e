"""Experiment runner: config parsing, presets, output tables, manifests.

Config files are flat key = value text with optional lowercase [sections];
'#' starts a comment.  A run is either a named preset (plus parameter
overrides at top level) or fully explicit [grid]/[model]/[run] sections
(optionally [initial] and [mcwf]); the two styles are mutually exclusive.
See configs/ for an annotated example per preset.

One schema (``_SCHEMA``) types and range-checks every key.  Explicit
sections spell the preset key space: each of their keys sits in one section
and means what the preset parameter of that name means.  Both kinds of
config parse to the same shape: ``ExperimentConfig.params`` holds the keys
written, flat, a preset's overrides or the sections' values, and a run's
parameters are those over its defaults.  One function checks the rules
that relate several keys on that dict, labelling a key bare for a preset
and ``[section] key`` for explicit sections.

A preset is its defaults plus ``setup``, which builds the state, models and
run config and the derived quantities, and ``run``, which propagates and
returns its tables, output path -> ``Table``, without touching the
filesystem.  Explicit sections are one more such definition, with the
sections' defaults and no name.  A value that fails in setup is a config
error, raised before the output directory exists.

``run_experiment`` is the one writer: after the run returns, it creates the
output directory and writes every table through ``_write_table`` (which
``write_timeseries`` and ``write_snapshot`` also use), so a run that raises
leaves nothing behind.  Besides the tables it writes a summary.json with
fits and built-in check results, and a manifest.json listing the resolved
config, derived analytic quantities and a sha256 inventory of every table
and summary.json.  The resolved config is the preset's name (null for
explicit sections), the seed and every parameter, defaults filled in; the
config hash is taken over it, so it identifies values, not their spelling.
Data files are bitwise reproducible for identical (config, seed); the
manifest additionally records the wall-clock duration, which is excluded
from any reproducibility comparison.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
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
from .mcwf import _gamma_dt_violation, mcwf_ensemble, nojump_benchmark
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
_CHUNK_ROWS = 4096  # rows formatted per % call
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
         "absorber_width", "v_strong", "gamma_target"),
        (float, _GT0),
    ),
    **dict.fromkeys(
        ("v0", "gamma_sp", "absorber_strength", "v_weak"),
        (float, _GE0),
    ),
    "seed": (int, _GE0),
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

# section -> {key: default}; None marks a required key.  Each key sits in one
# section and means what the preset parameter of that name means.
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
_SECTION_OF = {key: name for name, keys in _EXPLICIT.items() for key in keys}
# the sections' defaults, flat: the preset key space
_EXPLICIT_DEFAULTS = {key: default for keys in _EXPLICIT.values() for key, default in keys.items()}


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


def _masks(p: dict) -> bool:
    """Presets always mask the edges; an explicit [run] absorber chooses."""
    return p.get("absorber", "mask") == "mask"


def _check_rules(p: dict, violations, explicit: bool) -> None:
    """The rules that relate several keys, on the merged parameters.  A key
    is labelled bare for presets and [section] key for explicit configs.  A
    value that is missing (None) or out of range is reported elsewhere."""
    def label(key):
        return f"[{_SECTION_OF[key]}] {key}" if explicit else key

    x_min, x_max, dt, t_final = p["x_min"], p["x_max"], p["dt"], p.get("t_final")
    gamma_sp = p.get("gamma_sp", 0.0)  # 0 damps nothing
    if p.get("snapshot_every", 0) > 0 and gamma_sp > 0:
        violations.append(f"{label('snapshot_every')}: must be 0 when {label('gamma_sp')} > 0")
    # the grid interval and absorber zone checks of make_grid and absorber_profile
    if x_min is not None and x_max is not None:
        if not x_max > x_min:
            violations.append(f"{label('x_max')} must exceed x_min")
        elif _masks(p) and not p["absorber_width"] < 0.5 * (x_max - x_min):
            violations.append(
                f"{label('absorber_width')}: must be below half the grid extent "
                f"({0.5 * (x_max - x_min):g}), got {p['absorber_width']:g}"
            )
    # t_final must be a whole number of dt steps, to 1e-9 relative, and that
    # number finite as a float; a horizon below one step is left to RunConfig,
    # which rejects it in set-up, and freeze_demo derives its own horizon
    if dt is not None and t_final is not None and 0 < dt and 0 < t_final:
        steps = t_final / dt
        n_steps = round(steps) if math.isfinite(steps) else None
        if n_steps is None:
            violations.append(f"{label('t_final')}: t_final / dt overflows: "
                              f"too many steps of dt = {dt!r}")
        elif n_steps >= 1 and abs(t_final - n_steps * dt) > 1e-9 * t_final:
            violations.append(
                f"{label('t_final')}: must be a whole number of dt = {dt:g} steps, "
                f"got {t_final:g} (nearest horizon: {n_steps * dt:g})"
            )
    damping = _gamma_dt_violation(gamma_sp, dt) if dt is not None else None
    if damping is not None:
        violations.append(f"{label('gamma_sp')}: with {label('dt')} = {dt:g}, {damping}")


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
    if preset in PRESETS:
        allowed = PRESETS[preset].defaults
        unknown = f"unknown key for preset {preset} (allowed: {', '.join(sorted(allowed))})"
        params = _convert_block(top, allowed, "", unknown, violations)
        _check_rules(dict(allowed, **params), violations, explicit=False)
    elif sections:
        for key in top:
            violations.append(f"{key}: unknown top-level key (allowed: preset, seed, out)")
        for name in _REQUIRED_SECTIONS:
            if name not in sections:
                violations.append(f"missing required section [{name}]")
        for name, body in sections.items():
            if name not in _EXPLICIT:
                violations.append(f"unknown section [{name}]")
                continue
            params.update(_convert_block(body, _EXPLICIT[name], f"[{name}] ", "unknown key",
                                         violations))
            for key, default in _EXPLICIT[name].items():
                if default is None and key not in body:
                    violations.append(f"[{name}] missing required key {key}")
        _check_rules(dict(_EXPLICIT_DEFAULTS, **params), violations, explicit=True)

    if violations:
        raise ConfigError(violations)
    return ExperimentConfig(preset=preset, params=params, seed=seed, out=out)


# ---------------------------------------------------------------------------
# serialization


# one tab-separated output file: the column names, equal-length columns, one
# %-format per column and an optional comment line above the header
Table = namedtuple("Table", "header columns formats comment", defaults=(None,))


def _float_table(header, *columns) -> Table:
    return Table(header, columns, (_FLOAT_FMT,) * len(header))


def _write_table(path, table: Table) -> None:
    """Write one table, creating its directory.  The rows are formatted from
    Python floats with one % call per chunk of at most _CHUNK_ROWS rows: the
    bytes of a call per value, in less time and bounded memory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    values = np.column_stack(table.columns)
    line = "\t".join(table.formats) + "\n"
    with path.open("w", newline="\n") as fh:
        if table.comment is not None:
            fh.write(f"# {table.comment}\n")
        fh.write("\t".join(table.header) + "\n")
        for start in range(0, len(values), _CHUNK_ROWS):
            chunk = values[start:start + _CHUNK_ROWS]
            fh.write(line * len(chunk) % tuple(chunk.ravel().tolist()))


def _timeseries_table(t: Trajectory) -> Table:
    return _float_table(TIMESERIES_COLUMNS, t.times, t.p1, t.p2, t.mean_x1, t.mean_x2,
                        t.var_x1, t.var_x2, t.absorbed_norm)


def _snapshot_table(snapshot: Snapshot, grid, config_hash: str) -> Table:
    return Table(("x", "density1", "density2"), (grid.x, snapshot.density1, snapshot.density2),
                 ("%.17g", _FLOAT_FMT, _FLOAT_FMT),
                 f"t = {_FLOAT_FMT % snapshot.t} config = {config_hash}")


def write_timeseries(trajectory: Trajectory, path) -> None:
    """Tab-separated table with the fixed column set, 12 significant digits."""
    _write_table(path, _timeseries_table(trajectory))


def write_snapshot(snapshot: Snapshot, path, grid, config_hash: str) -> None:
    """Densities on the grid nodes, with t and the config hash in the header.

    The x column is written with full double precision so it reparses to the
    exact node values.
    """
    _write_table(path, _snapshot_table(snapshot, grid, config_hash))


def _single_tables(traj: Trajectory, chash: str, survival=False) -> dict:
    """timeseries.tsv, survival.tsv if asked for, and one table per snapshot."""
    tables = {"timeseries.tsv": _timeseries_table(traj)}
    if survival:
        tables["survival.tsv"] = _float_table(("t", "survival"), traj.times, traj.survival)
    for idx, snap in enumerate(traj.snapshots):
        tables[f"snapshots/snap_{idx:05d}.tsv"] = _snapshot_table(snap, traj.grid, chash)
    return tables


def _ensemble_tables(ensemble, model, n_bins: int):
    """ensemble_mean.tsv, jumps.tsv and, if any jump fired, spectrum.tsv;
    returns the tables and the spectrum (None without jumps)."""
    jumps = ensemble.jumps
    tables = {
        "ensemble_mean.tsv": _float_table(
            ("t", "mean_p1", "mean_p2", "se_p1", "se_p2"),
            ensemble.times, ensemble.mean_p1, ensemble.mean_p2, ensemble.se_p1, ensemble.se_p2,
        ),
        "jumps.tsv": _float_table(
            ("t_jump", "x_jump", "trajectory_id"),
            [j.t_jump for j in jumps], [j.x_jump for j in jumps],
            [j.trajectory_id for j in jumps],
        ),
    }
    if not jumps:
        return tables, None
    spectrum = emission_spectrum(jumps, model, n_bins)
    edges = spectrum.bin_edges
    tables["spectrum.tsv"] = _float_table(("bin_lo", "bin_hi", "count"),
                                          edges[:-1], edges[1:], spectrum.counts)
    return tables, spectrum


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
    ``run(job, derived, p, seed, chash) -> (checks, summary, tables)``
    propagates and returns its tables, output path -> ``Table``, unwritten."""

    description: str
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
    return RunConfig(
        dt=p["dt"],
        t_final=p["t_final"],
        absorber=AbsorberSpec(p["absorber_width"], p["absorber_strength"]) if _masks(p) else None,
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


def _run_decay_weak(job, derived, p, seed, chash):
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
    return checks, summary, _single_tables(traj, chash, survival=True)


def _run_decay_strong(job, derived, p, seed, chash):
    traj = propagate(job.state, job.models[0], job.cfg)
    summary = {"fit": _fit_info(traj, "gamma_fit", "r_squared")}
    try:
        osc = detect_oscillation(traj.p1)
    except ValueError as exc:  # too few records to count minima
        summary["error"] = str(exc)
        detected = float("nan")  # fails the check
    else:
        summary["n_local_minima"] = osc.n_local_minima
        detected = int(osc.is_oscillatory)
    checks = {"oscillation_detected": _check(detected, 1, "==")}
    return checks, summary, _single_tables(traj, chash, survival=True)


def _setup_pulsed_gaussian(p):
    job = _ground_job(p, _pulsed_model(p, p["chirp_rate"]))
    return job, {"pulse_peak_v": p["v0"], "level_crossing_x": _level_crossing_x(job.models[0], p)}


def _run_pulsed_gaussian(job, derived, p, seed, chash):
    traj = propagate(job.state, job.models[0], job.cfg)
    peak_p2 = float(np.max(traj.p2))
    checks = {"excitation_reached": _check(peak_p2, 0.1, ">=")}
    summary = {
        "peak_p2": peak_p2,
        "escaped_fraction": float(traj.p2[-1] + traj.absorbed_ch2[-1]),
        "final": _final(traj),
    }
    return checks, summary, _single_tables(traj, chash)


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


def _run_lz_sweep(job, derived, p, seed, chash):
    rows = []
    for v, model in zip(p["v_values"], job.models):
        traj = propagate(job.state, model, job.cfg)
        numeric = float(traj.p2[-1] + traj.absorbed_ch2[-1])
        analytic = 1.0 - lz_probability(v, p["slope_difference"], derived["crossing_speed"])
        rows.append((v, numeric, analytic, numeric - analytic))
    max_dev = max(abs(numeric - analytic) for _, numeric, analytic, _ in rows)
    checks = {"max_abs_deviation": _check(max_dev, 0.02, "<=")}
    summary = {"max_abs_deviation": max_dev,
               "table": [dict(zip(("v", "numeric", "analytic", "deviation"), r)) for r in rows]}
    table = _float_table(("v", "transfer_numeric", "transfer_analytic", "deviation"), *zip(*rows))
    return checks, summary, {"lz_table.tsv": table}


def _propagate_each(job, labels):
    """Propagate the state under each model; one timeseries_<label>.tsv table per model."""
    trajs = {label: propagate(job.state, model, job.cfg) for label, model in zip(labels, job.models)}
    return trajs, {f"timeseries_{label}.tsv": _timeseries_table(t) for label, t in trajs.items()}


def _setup_chirp_compare(p):
    job = _ground_job(p, _pulsed_model(p, 0.0), _pulsed_model(p, p["chirp_rate"]))
    return job, {"chirp_rate": p["chirp_rate"]}


def _run_chirp_compare(job, derived, p, seed, chash):
    trajs, tables = _propagate_each(job, ("unchirped", "chirped"))
    eff = {label: float(t.p2[-1] + t.absorbed_ch2[-1]) for label, t in trajs.items()}
    # no unchirped excitation (v0 = 0) leaves NaN, which fails the check
    gain = eff["chirped"] / eff["unchirped"] if eff["unchirped"] else float("nan")
    tables["chirp_table.tsv"] = _float_table(
        ("chirp_rate", "efficiency"), (0.0, p["chirp_rate"]), (eff["unchirped"], eff["chirped"])
    )
    checks = {"chirped_gain": _check(gain, 1.0, ">=")}
    summary = {
        "efficiency_unchirped": eff["unchirped"],
        "efficiency_chirped": eff["chirped"],
        "gain": gain,
    }
    return checks, summary, tables


def _load_rng() -> None:
    """Load numpy.random, which numpy imports on first use of np.random:
    a quantum-jump run pays for it in set-up, not in its first trajectory,
    and a deterministic run never does."""
    import numpy.random  # noqa: F401


def _setup_mcwf_decay(p):
    _load_rng()
    job = _ground_job(p, _pulsed_model(p, 0.0))
    return job, {"gamma_sp": p["gamma_sp"], "pulse_peak_v": p["v0"]}


def _run_mcwf_decay(job, derived, p, seed, chash):
    model = job.models[0]
    ensemble = mcwf_ensemble(seed, p["n_trajectories"], job.state, model, p["gamma_sp"], job.cfg)
    _, intensity = nojump_benchmark(job.state, model, p["gamma_sp"], job.cfg)
    tables, spectrum = _ensemble_tables(ensemble, model, p["n_bins"])
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
    return checks, summary, tables


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


def _run_freeze_demo(job, derived, p, seed, chash):
    trajs, tables = _propagate_each(job, ("strong", "weak"))
    try:
        growth = {label: freezing_growth(traj) for label, traj in trajs.items()}
        summary = {"growth_strong": growth["strong"], "growth_weak": growth["weak"],
                   "ratio": growth["weak"] / growth["strong"] if growth["strong"] else float("nan")}
    except ValueError as exc:
        summary = {"error": str(exc)}
    # a failed gauge leaves NaN, which fails the check
    checks = {"variance_growth_ratio": _check(summary.get("ratio", float("nan")), 3.0, ">=")}
    return checks, summary, tables


PRESETS = {
    "decay_weak": PresetDef(
        "bound level decaying into the sloped continuum in the golden-rule regime "
        "(target rate 0.26); fits the exponential and compares with the analytic rates",
        _DECAY_DEFAULTS, _setup_decay, _run_decay_weak,
    ),
    "decay_strong": PresetDef(
        "same geometry far above the perturbative regime (target rate 2.4); "
        "checks that the decay develops flopping oscillations",
        dict(_DECAY_DEFAULTS, gamma_target=2.4, t_final=8.0),
        _setup_decay, _run_decay_strong,
    ),
    "pulsed_gaussian": PresetDef(
        "Gaussian-envelope pulse lifting the ground packet onto the slope; "
        "writes density snapshots of the escaping excited packet",
        _PULSED_DEFAULTS, _setup_pulsed_gaussian, _run_pulsed_gaussian,
    ),
    "lz_sweep": PresetDef(
        "packet driven through a linear crossing at fixed speed for a ladder of "
        "couplings; tabulates numeric vs analytic transfer probabilities",
        _LZ_DEFAULTS, _setup_lz_sweep, _run_lz_sweep,
    ),
    "chirp_compare": PresetDef(
        "pulsed excitation with and without a linear frequency chirp; reports "
        "the excitation-efficiency gain",
        _CHIRP_DEFAULTS, _setup_chirp_compare, _run_chirp_compare,
    ),
    "mcwf_decay": PresetDef(
        "quantum-jump ensemble of pulsed excitation with spontaneous decay; "
        "writes jump records, ensemble means, and the emission spectrum",
        _MCWF_DEFAULTS, _setup_mcwf_decay, _run_mcwf_decay,
    ),
    "freeze_demo": PresetDef(
        "strong vs 10x weaker constant coupling over one strong-coupling flopping "
        "period; compares upper-packet variance growth (motion freezing)",
        _FREEZE_DEFAULTS, _setup_freeze_demo, _run_freeze_demo,
    ),
}


# ---------------------------------------------------------------------------
# explicit sections: the same setup/run pair over the flat parameters


def _potential(p: dict, name: str):
    kind = p[name]
    if kind == "harmonic":
        return harmonic_potential()
    if kind == "linear":
        return linear_potential(p[f"{name}_offset"], p[f"{name}_slope"])
    return flat_potential(p[f"{name}_offset"])


def _setup_explicit(p):
    if p["gamma_sp"] > 0.0:
        _load_rng()
    grid = make_grid(p["x_min"], p["x_max"], p["n_points"])
    if p["pulse"] == "constant":
        pulse = constant_pulse(p["v0"], p["chirp_rate"], p["t_center"])
    else:
        pulse = gaussian_pulse(p["v0"], p["t_center"], p["t_width"], p["chirp_rate"])
    model = ModelSpec(u1=_potential(p, "u1"), u2_minus_omega=_potential(p, "u2"), pulse=pulse)
    if p["kind"] == "ground":
        state = harmonic_ground_state(grid)
    else:
        state = gaussian_packet(grid, p["center"], p["sigma"], p["k0"], p["channel"])
    return _Job(state, (model,), _run_config(p)), {}


def _run_explicit(job, derived, p, seed, chash):
    model = job.models[0]
    if p["gamma_sp"] > 0.0:
        ensemble = mcwf_ensemble(seed, p["n_trajectories"], job.state, model, p["gamma_sp"], job.cfg)
        tables, _ = _ensemble_tables(ensemble, model, p["n_bins"])
        summary = {"n_jumps": len(ensemble.jumps), "n_trajectories": ensemble.n_trajectories}
    else:
        traj = propagate(job.state, model, job.cfg)
        tables = _single_tables(traj, chash)
        summary = {"final": _final(traj)}
    return {}, summary, tables


# explicit sections as a preset without a name: not in PRESETS, so neither
# `wpsim presets` nor the preset key offers it
_SECTIONS = PresetDef("explicit [grid]/[model]/[run] sections", _EXPLICIT_DEFAULTS,
                      _setup_explicit, _run_explicit)


# ---------------------------------------------------------------------------
# entry points


def _prepare(cfg: ExperimentConfig):
    """(run function, params, resolved config, job, derived); a ValueError
    from setup means the parameters cannot be built into a run."""
    definition = _SECTIONS if cfg.preset is None else PRESETS[cfg.preset]
    p = dict(definition.defaults, **cfg.params)
    resolved = {"preset": cfg.preset, "seed": cfg.seed, "params": p}
    try:
        job, derived = definition.setup(p)
    except ValueError as exc:
        raise ConfigError([str(exc)]) from exc
    return definition.run, p, resolved, job, derived


def derived_quantities(cfg: ExperimentConfig) -> dict:
    """The closed-form quantities that run_experiment records in the manifest,
    computed without propagating."""
    return _prepare(cfg)[4]


def run_experiment(cfg: ExperimentConfig, out_dir) -> RunManifest:
    """Execute the configured experiment and write all outputs under out_dir.

    The run returns its tables and this is the one place that writes them, so
    the output directory is created only after set-up and the run succeed: a
    config that set-up rejects, or a run that raises, leaves nothing behind.
    An out_dir that is, or lies under, an existing file or a symbolic link
    that resolves to nothing is a ConfigError raised before set-up; a link to
    a directory is followed.
    """
    start = time.perf_counter()
    out = Path(out_dir)
    # the nearest existing ancestor must be a directory for mkdir to succeed;
    # find out before the run rather than after it.  exists() follows links,
    # so the walk also stops at a link, which may resolve to nothing
    existing = out
    while not (existing.exists() or existing.is_symlink()):
        existing = existing.parent
    if not existing.exists():
        raise ConfigError([f"out: {existing} is a symbolic link that resolves to nothing"])
    if not existing.is_dir():
        raise ConfigError([f"out: {existing} exists and is not a directory"])
    run, p, resolved, job, derived = _prepare(cfg)
    chash = _config_hash(resolved)
    checks, summary, tables = run(job, derived, p, cfg.seed, chash)
    out.mkdir(parents=True, exist_ok=True)
    for name, table in tables.items():
        _write_table(out / name, table)

    summary_payload = {"summary": summary, "checks": checks, "config_hash": chash}
    (out / "summary.json").write_text(
        json.dumps(summary_payload, indent=2, sort_keys=True, default=float) + "\n"
    )

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
        files={name: _sha256(out / name) for name in sorted([*tables, "summary.json"])},
    )
    (out / "manifest.json").write_text(manifest.to_json() + "\n")
    return manifest


def verify_output_dir(out_dir) -> tuple[bool, list[str]]:
    """Recompute the sha256 inventory recorded in manifest.json.

    One report line per listed name: ok, MISMATCH, MISSING, or BAD for a
    name that is not a regular file under out_dir or cannot be read.
    """
    out = Path(out_dir)
    manifest_path = out / "manifest.json"
    if not manifest_path.exists():
        return False, [f"missing manifest: {manifest_path}"]
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8 or not JSON
        return False, [f"bad manifest: {manifest_path}: {exc}"]
    inventory = manifest.get("files") if isinstance(manifest, dict) else None
    if not isinstance(inventory, dict):
        return False, [f"bad manifest: {manifest_path}: no 'files' object"]
    report = []
    root = out.resolve()
    for name, recorded in sorted(inventory.items()):
        # the names come from a file anyone can edit: each must resolve to a
        # regular file under the output directory, and no name may raise
        try:
            path = (out / name).resolve()
            if not path.is_relative_to(root):
                line = f"BAD       {name!r}: outside the output directory"
            elif not path.exists():
                line = f"MISSING   {name}"
            elif not path.is_file():
                line = f"BAD       {name!r}: not a regular file"
            elif _sha256(path) != recorded:
                line = f"MISMATCH  {name}"
            else:
                line = f"ok        {name}"
        except (OSError, ValueError) as exc:  # unreadable, or a NUL byte in the name
            line = f"BAD       {name!r}: {exc}"
        report.append(line)
    return all(line.startswith("ok ") for line in report), report

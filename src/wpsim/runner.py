"""Experiment runner: config parsing, presets, output serialization, manifests.

Config files are flat key = value text with optional lowercase [sections];
'#' starts a comment.  A run is either a named preset (plus parameter
overrides at top level) or fully explicit [grid]/[model]/[run] sections
(optionally [initial] and [mcwf]); the two styles are mutually exclusive.
See configs/ for an annotated example per preset.

Every run writes its data tables, a summary.json with fits and built-in
check results, and a manifest.json listing derived analytic quantities and
a sha256 inventory of all other output files.  Data files are bitwise
reproducible for identical (config, seed, WPSIM_THREADS); the manifest
additionally records the wall-clock duration, which is excluded from any
reproducibility comparison.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import __version__
from ._fft import WORKERS
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
    GridError,
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
    raw_text: str = ""


@dataclass
class RunManifest:
    preset: Optional[str]
    config: dict
    seed: int
    units: str
    package_version: str
    workers: int
    derived: dict
    checks: dict
    ok: bool
    duration_seconds: float
    files: dict

    def to_json(self) -> str:
        payload = {
            "preset": self.preset,
            "config": self.config,
            "seed": self.seed,
            "units": self.units,
            "package_version": self.package_version,
            "workers": self.workers,
            "derived": self.derived,
            "checks": self.checks,
            "ok": self.ok,
            "duration_seconds": self.duration_seconds,
            "files": self.files,
        }
        return json.dumps(payload, indent=2, sort_keys=True, default=float)


# ---------------------------------------------------------------------------
# config text parsing


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


def _to_float(key, value, violations):
    try:
        return float(value)
    except ValueError:
        violations.append(f"{key}: not a number: {value!r}")
        return None


def _to_int(key, value, violations):
    try:
        return int(value)
    except ValueError:
        violations.append(f"{key}: not an integer: {value!r}")
        return None


def _to_float_list(key, value, violations):
    try:
        items = [float(tok) for tok in value.replace(",", " ").split()]
    except ValueError:
        violations.append(f"{key}: not a list of numbers: {value!r}")
        return None
    if not items:
        violations.append(f"{key}: empty list")
        return None
    return items


# per-key converters/range checks, shared by presets and explicit blocks
_POSITIVE = ("dt", "t_final", "t_width", "sigma", "alpha", "slope_difference",
             "absorber_width", "mask_width")
_NON_NEGATIVE = ("v0", "gamma_sp", "gamma_target", "absorber_strength",
                 "mask_strength", "v_strong", "v_weak")
_INT_KEYS = {"n_points", "n_trajectories", "record_every", "snapshot_every",
             "n_bins", "channel"}
_LIST_KEYS = {"v_values"}


def _convert_param(key, value, violations):
    if key in _LIST_KEYS:
        out = _to_float_list(key, value, violations)
        if out is not None and any(v < 0 for v in out):
            violations.append(f"{key}: values must be >= 0")
        return out
    if key in _INT_KEYS:
        out = _to_int(key, value, violations)
        if out is None:
            return None
        if key == "n_points" and (out < 64 or out & (out - 1)):
            violations.append(f"{key}: must be a power of two >= 64, got {out}")
        elif key == "n_trajectories" and out < 2:
            violations.append(f"{key}: must be >= 2, got {out}")
        elif key == "record_every" and out < 1:
            violations.append(f"{key}: must be >= 1, got {out}")
        elif key == "snapshot_every" and out < 0:
            violations.append(f"{key}: must be >= 0 (0 disables), got {out}")
        elif key == "n_bins" and out < 1:
            violations.append(f"{key}: must be >= 1, got {out}")
        elif key == "channel" and out not in (1, 2):
            violations.append(f"{key}: must be 1 or 2, got {out}")
        return out
    if key in ("u1", "u2", "pulse", "absorber", "kind"):
        return value  # enumerated strings, validated by the block builders
    out = _to_float(key, value, violations)
    if out is None:
        return None
    if key in _POSITIVE and out <= 0:
        violations.append(f"{key}: must be > 0, got {out}")
    if key in _NON_NEGATIVE and out < 0:
        violations.append(f"{key}: must be >= 0, got {out}")
    return out


_EXPLICIT_KEYS = {
    "grid": {"x_min", "x_max", "n_points"},
    "model": {"u1", "u1_offset", "u1_slope", "u2", "u2_offset", "u2_slope",
              "pulse", "v0", "t_center", "t_width", "chirp_rate"},
    "run": {"dt", "t_final", "record_every", "snapshot_every", "absorber",
            "absorber_width", "absorber_strength"},
    "initial": {"kind", "center", "sigma", "k0", "channel"},
    "mcwf": {"gamma_sp", "n_trajectories", "n_bins"},
}
_REQUIRED_SECTIONS = ("grid", "model", "run")
_EXPLICIT_ABSORBER_WIDTH = 1.0


def _check_extent(x_min, x_max, absorber_width, violations, grid="", run=""):
    """The grid interval and absorber zone checks of make_grid and absorber_profile."""
    if not x_max > x_min:
        violations.append(f"{grid}x_max must exceed x_min")
    elif absorber_width is not None and not absorber_width < 0.5 * (x_max - x_min):
        violations.append(
            f"{run}absorber_width: must be below half the grid extent "
            f"({0.5 * (x_max - x_min):g}), got {absorber_width:g}"
        )


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate config text; raises ConfigError listing every violation."""
    top, sections, violations = _parse_sections(text)

    preset = top.pop("preset", None)
    seed = 0
    if "seed" in top:
        seed = _to_int("seed", top.pop("seed"), violations) or 0
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
        allowed = set(PRESETS[preset].defaults)
        for key, value in top.items():
            if key not in allowed:
                violations.append(
                    f"{key}: unknown key for preset {preset} "
                    f"(allowed: {', '.join(sorted(allowed))})"
                )
                continue
            converted = _convert_param(key, value, violations)
            if converted is not None:
                params[key] = converted
        merged = dict(PRESETS[preset].defaults, **params)
        _check_extent(merged["x_min"], merged["x_max"], merged["absorber_width"], violations)
    elif sections:
        for key in top:
            violations.append(f"{key}: unknown top-level key (allowed: preset, seed, out)")
        for name in _REQUIRED_SECTIONS:
            if name not in sections:
                violations.append(f"missing required section [{name}]")
        explicit = {}
        for name, body in sections.items():
            if name not in _EXPLICIT_KEYS:
                violations.append(f"unknown section [{name}]")
                continue
            block = {}
            for key, value in body.items():
                if key not in _EXPLICIT_KEYS[name]:
                    violations.append(f"[{name}] {key}: unknown key")
                    continue
                converted = _convert_param(key, value, violations)
                if converted is not None:
                    block[key] = converted
            explicit[name] = block
        for section, required in (("grid", ("x_min", "x_max", "n_points")),
                                  ("run", ("dt", "t_final"))):
            for key in required:
                if section in explicit and key not in explicit[section]:
                    violations.append(f"[{section}] missing required key {key}")
        grid_block = explicit.get("grid", {})
        run_block = explicit.get("run", {})
        if "x_min" in grid_block and "x_max" in grid_block:
            width = None
            if run_block.get("absorber") == "mask":
                width = run_block.get("absorber_width", _EXPLICIT_ABSORBER_WIDTH)
            _check_extent(grid_block["x_min"], grid_block["x_max"], width, violations,
                          "[grid] ", "[run] ")

    if violations:
        raise ConfigError(violations)
    return ExperimentConfig(
        preset=preset, params=params, explicit=explicit, seed=seed, out=out, raw_text=text
    )


# ---------------------------------------------------------------------------
# serialization


def write_timeseries(trajectory: Trajectory, path) -> None:
    """Tab-separated table with the fixed column set, 12 significant digits."""
    path = Path(path)
    cols = np.column_stack(
        [
            trajectory.times,
            trajectory.p1,
            trajectory.p2,
            trajectory.mean_x1,
            trajectory.mean_x2,
            trajectory.var_x1,
            trajectory.var_x2,
            trajectory.absorbed_norm,
        ]
    )
    with path.open("w", newline="\n") as fh:
        fh.write("\t".join(TIMESERIES_COLUMNS) + "\n")
        for row in cols:
            fh.write("\t".join(_FLOAT_FMT % v for v in row) + "\n")


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


def _write_table(path, header, rows) -> None:
    with Path(path).open("w", newline="\n") as fh:
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(_FLOAT_FMT % v for v in row) + "\n")


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
# preset pipelines


@dataclass(frozen=True)
class PresetDef:
    description: str
    runtime_note: str
    defaults: dict
    pipeline: Callable


def _decay_assets(p: dict):
    """Grid, model, run config, and analytic rates for the sloped-continuum setup."""
    grid = make_grid(p["x_min"], p["x_max"], int(p["n_points"]))
    v = p.get("v0")
    if v is None:
        v = coupling_for_rate(p["gamma_target"], p["alpha"])
    model = ModelSpec(
        u1=harmonic_potential(),
        u2_minus_omega=linear_potential(GROUND_STATE_ENERGY, p["alpha"]),
        pulse=constant_pulse(v),
    )
    cfg = RunConfig(
        dt=p["dt"],
        t_final=p["t_final"],
        absorber=AbsorberSpec(p["absorber_width"], p["absorber_strength"]),
        record_every=int(p["record_every"]),
        snapshot_every=int(p["snapshot_every"]) or None,
    )
    quad = condon_factor(p["alpha"], "quadrature")
    refl = condon_factor(p["alpha"], "reflection")
    derived = {
        "coupling_v": v,
        "gamma_reflection": ww_rate_reflection(DecayModelParams(v, p["alpha"])),
        "gamma_quadrature": ww_rate_condon(v, quad),
        "condon_sq_quadrature": quad.magnitude_sq,
        "condon_sq_reflection": refl.magnitude_sq,
        "level_crossing_x": crossing_point(
            model, p["x_min"], p["x_max"], level=GROUND_STATE_ENERGY
        ).position,
        "curve_crossing_x": crossing_point(model, p["x_min"], p["x_max"]).position,
    }
    return grid, model, cfg, derived


_DECAY_DEFAULTS = {
    "gamma_target": 0.26,
    "alpha": 2.0,
    "x_min": -12.0,
    "x_max": 52.0,
    "n_points": 2048,
    "dt": 0.001,
    "t_final": 12.0,
    "absorber_width": 6.0,
    "absorber_strength": 1000.0,
    "record_every": 10,
    "snapshot_every": 0,
}


def _check(value, threshold, comparator):
    ops = {
        "<=": value <= threshold,
        ">=": value >= threshold,
        "==": value == threshold,
    }
    return {"passed": bool(ops[comparator]), "value": value, "threshold": threshold,
            "comparator": comparator}


def _run_decay_weak(p, seed, out, chash):
    grid, model, cfg, derived = _decay_assets(p)
    traj = propagate(harmonic_ground_state(grid), model, cfg)
    fit = fit_decay_rate(traj.times, traj.p1)
    gq, gr = derived["gamma_quadrature"], derived["gamma_reflection"]
    checks = {
        "fit_r_squared": _check(fit.r_squared, 0.995, ">="),
        "gamma_vs_quadrature_reldev": _check(abs(fit.gamma_fit - gq) / gq, 0.05, "<="),
        "quadrature_vs_reflection_reldev": _check(abs(gq - gr) / gr, 0.10, "<="),
    }
    write_timeseries(traj, out / "timeseries.tsv")
    _write_table(out / "survival.tsv", ("t", "survival"), zip(traj.times, traj.survival))
    files = ["timeseries.tsv", "survival.tsv"]
    files += _dump_snapshots(traj, grid, out, chash)
    summary = {
        "fit": {"gamma_fit": fit.gamma_fit, "r_squared": fit.r_squared,
                "window": fit.window, "n_points": fit.n_points},
        "final": {"p1": traj.p1[-1], "p2": traj.p2[-1], "absorbed": traj.absorbed_norm[-1]},
    }
    return derived, checks, summary, files


def _run_decay_strong(p, seed, out, chash):
    grid, model, cfg, derived = _decay_assets(p)
    traj = propagate(harmonic_ground_state(grid), model, cfg)
    osc = detect_oscillation(traj.p1)
    try:
        fit = fit_decay_rate(traj.times, traj.p1)
        fit_info = {"gamma_fit": fit.gamma_fit, "r_squared": fit.r_squared}
    except FitError as exc:
        fit_info = {"error": str(exc)}
    checks = {"oscillation_detected": _check(int(osc.is_oscillatory), 1, "==")}
    write_timeseries(traj, out / "timeseries.tsv")
    _write_table(out / "survival.tsv", ("t", "survival"), zip(traj.times, traj.survival))
    files = ["timeseries.tsv", "survival.tsv"]
    files += _dump_snapshots(traj, grid, out, chash)
    summary = {"n_local_minima": osc.n_local_minima, "fit": fit_info}
    return derived, checks, summary, files


def _pulsed_assets(p: dict):
    grid = make_grid(p["x_min"], p["x_max"], int(p["n_points"]))
    model = ModelSpec(
        u1=harmonic_potential(),
        u2_minus_omega=linear_potential(GROUND_STATE_ENERGY, p["alpha"]),
        pulse=gaussian_pulse(p["v0"], p["t_center"], p["t_width"], p.get("chirp_rate", 0.0)),
    )
    cfg = RunConfig(
        dt=p["dt"],
        t_final=p["t_final"],
        absorber=AbsorberSpec(p["absorber_width"], p["absorber_strength"]),
        record_every=int(p["record_every"]),
        snapshot_every=int(p["snapshot_every"]) or None,
    )
    return grid, model, cfg


_PULSED_DEFAULTS = {
    "alpha": 2.0,
    "v0": 1.0,
    "t_center": 3.0,
    "t_width": 1.0,
    "chirp_rate": 0.0,
    "x_min": -12.0,
    "x_max": 52.0,
    "n_points": 2048,
    "dt": 0.001,
    "t_final": 8.0,
    "absorber_width": 6.0,
    "absorber_strength": 1000.0,
    "record_every": 10,
    "snapshot_every": 250,
}


def _run_pulsed_gaussian(p, seed, out, chash):
    grid, model, cfg = _pulsed_assets(p)
    traj = propagate(harmonic_ground_state(grid), model, cfg)
    escaped = traj.p2[-1] + traj.absorbed_ch2[-1]
    peak_p2 = float(np.max(traj.p2))
    checks = {"excitation_reached": _check(peak_p2, 0.1, ">=")}
    write_timeseries(traj, out / "timeseries.tsv")
    files = ["timeseries.tsv"]
    files += _dump_snapshots(traj, grid, out, chash)
    derived = {
        "pulse_peak_v": p["v0"],
        "level_crossing_x": crossing_point(
            model, p["x_min"], p["x_max"], level=GROUND_STATE_ENERGY
        ).position,
    }
    summary = {
        "peak_p2": peak_p2,
        "escaped_fraction": float(escaped),
        "final": {"p1": traj.p1[-1], "p2": traj.p2[-1], "absorbed": traj.absorbed_norm[-1]},
    }
    return derived, checks, summary, files


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


def _run_lz_sweep(p, seed, out, chash):
    grid = make_grid(p["x_min"], p["x_max"], int(p["n_points"]))
    state = gaussian_packet(grid, p["x0"], p["sigma"], p["k0"], channel=1)
    # crossing speed measured from the packet's mean momentum (speed = 2k)
    velocity = 2.0 * momentum_moments(state, 1).mean
    cfg = RunConfig(
        dt=p["dt"],
        t_final=p["t_final"],
        absorber=AbsorberSpec(p["absorber_width"], p["absorber_strength"]),
        record_every=int(p["record_every"]),
    )
    rows = []
    max_dev = 0.0
    for v in p["v_values"]:
        model = ModelSpec(
            u1=flat_potential(),
            u2_minus_omega=linear_potential(0.0, p["slope_difference"]),
            pulse=constant_pulse(v),
        )
        traj = propagate(state, model, cfg)
        transfer_num = float(traj.p2[-1] + traj.absorbed_ch2[-1])
        transfer_lz = 1.0 - lz_probability(v, p["slope_difference"], velocity)
        dev = abs(transfer_num - transfer_lz)
        max_dev = max(max_dev, dev)
        rows.append((v, transfer_num, transfer_lz, transfer_num - transfer_lz))
    _write_table(
        out / "lz_table.tsv",
        ("v", "transfer_numeric", "transfer_analytic", "deviation"),
        rows,
    )
    checks = {"max_abs_deviation": _check(max_dev, 0.02, "<=")}
    derived = {
        "crossing_speed": velocity,
        "slope_difference": p["slope_difference"],
        "transfer_analytic": {f"{v:g}": 1.0 - lz_probability(v, p["slope_difference"], velocity)
                              for v in p["v_values"]},
    }
    summary = {"max_abs_deviation": max_dev,
               "table": [dict(zip(("v", "numeric", "analytic", "deviation"), r)) for r in rows]}
    return derived, checks, summary, ["lz_table.tsv"]


_CHIRP_DEFAULTS = dict(_PULSED_DEFAULTS, chirp_rate=-1.0, snapshot_every=0)


def _run_chirp_compare(p, seed, out, chash):
    results = {}
    for label, rate in (("unchirped", 0.0), ("chirped", p["chirp_rate"])):
        q = dict(p, chirp_rate=rate)
        grid, model, cfg = _pulsed_assets(q)
        traj = propagate(harmonic_ground_state(grid), model, cfg)
        results[label] = float(traj.p2[-1] + traj.absorbed_ch2[-1])
        write_timeseries(traj, out / f"timeseries_{label}.tsv")
    gain = results["chirped"] / results["unchirped"]
    _write_table(
        out / "chirp_table.tsv",
        ("chirp_rate", "efficiency"),
        [(0.0, results["unchirped"]), (p["chirp_rate"], results["chirped"])],
    )
    checks = {"chirped_gain": _check(gain, 1.0, ">=")}
    derived = {"chirp_rate": p["chirp_rate"]}
    summary = {
        "efficiency_unchirped": results["unchirped"],
        "efficiency_chirped": results["chirped"],
        "gain": gain,
    }
    files = ["timeseries_unchirped.tsv", "timeseries_chirped.tsv", "chirp_table.tsv"]
    return derived, checks, summary, files


_MCWF_DEFAULTS = {
    "alpha": 2.0,
    "v0": 1.0,
    "t_center": 2.0,
    "t_width": 0.8,
    "gamma_sp": 1.0,
    "n_trajectories": 200,
    "n_bins": 200,
    "x_min": -12.0,
    "x_max": 52.0,
    "n_points": 1024,
    "dt": 0.002,
    "t_final": 6.0,
    "absorber_width": 6.0,
    "absorber_strength": 1000.0,
    "record_every": 25,
    "snapshot_every": 0,
}


def _run_mcwf_decay(p, seed, out, chash):
    grid, model, cfg = _pulsed_assets(p)
    state = harmonic_ground_state(grid)
    ensemble = mcwf_ensemble(seed, int(p["n_trajectories"]), state, model, p["gamma_sp"], cfg)
    bench, intensity = nojump_benchmark(state, model, p["gamma_sp"], cfg)

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
    checks = {}
    summary = {"n_jumps": len(ensemble.jumps), "n_trajectories": ensemble.n_trajectories}
    derived = {"gamma_sp": p["gamma_sp"], "pulse_peak_v": p["v0"]}
    if ensemble.jumps:
        spectrum = emission_spectrum(ensemble.jumps, model, int(p["n_bins"]))
        _write_table(
            out / "spectrum.tsv",
            ("bin_lo", "bin_hi", "count"),
            zip(spectrum.bin_edges[:-1], spectrum.bin_edges[1:],
                spectrum.counts.astype(float)),
        )
        files.append("spectrum.tsv")
        # oracle: expected jump density from the deterministic no-jump run
        x_expected = float(grid.x[int(np.argmax(intensity))])
        f_expected = float(difference_potential(model, x_expected))
        centers = spectrum.bin_centers
        expected_bin = int(np.argmin(np.abs(centers - f_expected)))
        checks["spectrum_peak_bin_offset"] = _check(
            abs(spectrum.peak_bin() - expected_bin), 1, "<="
        )
        summary["spectrum_peak_frequency"] = float(centers[spectrum.peak_bin()])
        summary["expected_peak_frequency"] = f_expected
    return derived, checks, summary, files


_FREEZE_DEFAULTS = {
    "v_strong": 2.0,
    "v_weak": 0.2,
    "alpha": 2.0,
    "x_min": -12.0,
    "x_max": 52.0,
    "n_points": 2048,
    "dt": 0.001,
    "absorber_width": 6.0,
    "absorber_strength": 1000.0,
    "record_every": 5,
}


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


def _run_freeze_demo(p, seed, out, chash):
    window = np.pi / p["v_strong"]  # one full population cycle at strong coupling
    results = {}
    files = []
    for label, v in (("strong", p["v_strong"]), ("weak", p["v_weak"])):
        q = dict(_DECAY_DEFAULTS, **{k: p[k] for k in p if k in _DECAY_DEFAULTS})
        q.update(v0=v, t_final=window, dt=p["dt"], record_every=int(p["record_every"]),
                 snapshot_every=0)
        grid, model, cfg, _ = _decay_assets(q)
        traj = propagate(harmonic_ground_state(grid), model, cfg)
        results[label] = freezing_growth(traj)
        name = f"timeseries_{label}.tsv"
        write_timeseries(traj, out / name)
        files.append(name)
    ratio = results["weak"] / results["strong"]
    checks = {"variance_growth_ratio": _check(ratio, 3.0, ">=")}
    derived = {"rabi_window": window, "v_strong": p["v_strong"], "v_weak": p["v_weak"]}
    summary = {"growth_strong": results["strong"], "growth_weak": results["weak"],
               "ratio": ratio}
    return derived, checks, summary, files


def _dump_snapshots(traj, grid, out, chash):
    if not traj.snapshots:
        return []
    snap_dir = out / "snapshots"
    snap_dir.mkdir(exist_ok=True)
    names = []
    for idx, snap in enumerate(traj.snapshots):
        name = f"snapshots/snap_{idx:05d}.tsv"
        write_snapshot(snap, out / name, grid, chash)
        names.append(name)
    return names


PRESETS = {
    "decay_weak": PresetDef(
        "bound level decaying into the sloped continuum in the golden-rule regime "
        "(target rate 0.26); fits the exponential and compares with the analytic rates",
        "~15 s", _DECAY_DEFAULTS, _run_decay_weak,
    ),
    "decay_strong": PresetDef(
        "same geometry far above the perturbative regime (target rate 2.4); "
        "checks that the decay develops flopping oscillations",
        "~10 s", dict(_DECAY_DEFAULTS, gamma_target=2.4, t_final=8.0), _run_decay_strong,
    ),
    "pulsed_gaussian": PresetDef(
        "Gaussian-envelope pulse lifting the ground packet onto the slope; "
        "writes density snapshots of the escaping excited packet",
        "~10 s", _PULSED_DEFAULTS, _run_pulsed_gaussian,
    ),
    "lz_sweep": PresetDef(
        "packet driven through a linear crossing at fixed speed for a ladder of "
        "couplings; tabulates numeric vs analytic transfer probabilities",
        "~30 s", _LZ_DEFAULTS, _run_lz_sweep,
    ),
    "chirp_compare": PresetDef(
        "pulsed excitation with and without a linear frequency chirp; reports "
        "the excitation-efficiency gain",
        "~20 s", _CHIRP_DEFAULTS, _run_chirp_compare,
    ),
    "mcwf_decay": PresetDef(
        "quantum-jump ensemble of pulsed excitation with spontaneous decay; "
        "writes jump records, ensemble means, and the emission spectrum",
        "~2-3 min", _MCWF_DEFAULTS, _run_mcwf_decay,
    ),
    "freeze_demo": PresetDef(
        "strong vs 10x weaker constant coupling over one strong-coupling flopping "
        "period; compares upper-packet variance growth (motion freezing)",
        "~15 s", _FREEZE_DEFAULTS, _run_freeze_demo,
    ),
}


# ---------------------------------------------------------------------------
# explicit-block pipeline


def _potential_from_block(block, prefix, violations):
    kind = block.get(prefix, "harmonic")
    offset = block.get(f"{prefix}_offset", 0.0)
    slope = block.get(f"{prefix}_slope", 0.0)
    if kind == "harmonic":
        return harmonic_potential()
    if kind == "linear":
        return linear_potential(offset, slope)
    if kind == "flat":
        return flat_potential(offset)
    violations.append(f"[model] {prefix}: unknown kind {kind!r} (harmonic|linear|flat)")
    return None


def _build_explicit(explicit, violations):
    gb = explicit.get("grid", {})
    mb = explicit.get("model", {})
    rb = explicit.get("run", {})
    grid = make_grid(gb["x_min"], gb["x_max"], gb["n_points"])
    u1 = _potential_from_block(mb, "u1", violations)
    u2 = _potential_from_block(mb, "u2", violations)
    pulse_kind = mb.get("pulse", "constant")
    if pulse_kind == "constant":
        pulse = constant_pulse(mb.get("v0", 0.0), mb.get("chirp_rate", 0.0),
                               mb.get("t_center", 0.0))
    elif pulse_kind == "gaussian":
        pulse = gaussian_pulse(mb.get("v0", 0.0), mb.get("t_center", 0.0),
                               mb.get("t_width", 1.0), mb.get("chirp_rate", 0.0))
    else:
        violations.append(f"[model] pulse: unknown kind {pulse_kind!r} (constant|gaussian)")
        pulse = None
    absorber_kind = rb.get("absorber", "none")
    if absorber_kind == "mask":
        absorber = AbsorberSpec(rb.get("absorber_width", _EXPLICIT_ABSORBER_WIDTH),
                                rb.get("absorber_strength", 1000.0))
    elif absorber_kind == "none":
        absorber = None
    else:
        violations.append(f"[run] absorber: unknown kind {absorber_kind!r} (none|mask)")
        absorber = None
    if violations:
        raise ConfigError(violations)

    model = ModelSpec(u1=u1, u2_minus_omega=u2, pulse=pulse)
    cfg = RunConfig(
        dt=rb["dt"],
        t_final=rb["t_final"],
        absorber=absorber,
        record_every=rb.get("record_every", 10),
        snapshot_every=rb.get("snapshot_every", 0) or None,
    )
    ib = explicit.get("initial", {})
    kind = ib.get("kind", "ground")
    if kind == "ground":
        state = harmonic_ground_state(grid)
    elif kind == "gaussian":
        state = gaussian_packet(grid, ib.get("center", 0.0), ib.get("sigma", 1.0),
                                ib.get("k0", 0.0), ib.get("channel", 1))
    else:
        raise ConfigError([f"[initial] kind: unknown kind {kind!r} (ground|gaussian)"])
    return grid, state, model, cfg


def _run_explicit(cfg: ExperimentConfig, out: Path, chash: str):
    violations: list[str] = []
    grid, state, model, run_cfg = _build_explicit(cfg.explicit, violations)
    mcwf_block = cfg.explicit.get("mcwf")
    derived: dict = {}
    checks: dict = {}
    if mcwf_block and mcwf_block.get("gamma_sp", 0.0) > 0.0:
        ensemble = mcwf_ensemble(
            cfg.seed, mcwf_block.get("n_trajectories", 100), state, model,
            mcwf_block["gamma_sp"], run_cfg,
        )
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
        if ensemble.jumps:
            spectrum = emission_spectrum(ensemble.jumps, model,
                                         mcwf_block.get("n_bins", 40))
            _write_table(
                out / "spectrum.tsv",
                ("bin_lo", "bin_hi", "count"),
                zip(spectrum.bin_edges[:-1], spectrum.bin_edges[1:],
                    spectrum.counts.astype(float)),
            )
            files.append("spectrum.tsv")
        summary = {"n_jumps": len(ensemble.jumps),
                   "n_trajectories": ensemble.n_trajectories}
    else:
        traj = propagate(state, model, run_cfg)
        write_timeseries(traj, out / "timeseries.tsv")
        files = ["timeseries.tsv"]
        files += _dump_snapshots(traj, grid, out, chash)
        summary = {"final": {"p1": traj.p1[-1], "p2": traj.p2[-1],
                             "absorbed": traj.absorbed_norm[-1]}}
    return derived, checks, summary, files


# ---------------------------------------------------------------------------
# entry points


def derived_quantities(cfg: ExperimentConfig) -> dict:
    """Closed-form quantities for a config without running the experiment."""
    if cfg.preset is None:
        return {}
    p = dict(PRESETS[cfg.preset].defaults)
    p.update(cfg.params)
    if cfg.preset in ("decay_weak", "decay_strong"):
        _, _, _, derived = _decay_assets(p)
        return derived
    if cfg.preset == "lz_sweep":
        grid = make_grid(p["x_min"], p["x_max"], int(p["n_points"]))
        state = gaussian_packet(grid, p["x0"], p["sigma"], p["k0"], channel=1)
        velocity = 2.0 * momentum_moments(state, 1).mean
        return {
            "crossing_speed": velocity,
            "transfer_analytic": {
                f"{v:g}": 1.0 - lz_probability(v, p["slope_difference"], velocity)
                for v in p["v_values"]
            },
        }
    if cfg.preset == "freeze_demo":
        return {"rabi_window": np.pi / p["v_strong"],
                "v_strong": p["v_strong"], "v_weak": p["v_weak"]}
    if cfg.preset in ("pulsed_gaussian", "chirp_compare", "mcwf_decay"):
        out = {"pulse_peak_v": p["v0"]}
        if "chirp_rate" in p:
            out["chirp_rate"] = p["chirp_rate"]
        if "gamma_sp" in p:
            out["gamma_sp"] = p["gamma_sp"]
        return out
    return {}


def run_experiment(cfg: ExperimentConfig, out_dir) -> RunManifest:
    """Execute the configured experiment and write all outputs under out_dir."""
    start = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    try:
        if cfg.preset is not None:
            preset = PRESETS[cfg.preset]
            params = dict(preset.defaults)
            params.update(cfg.params)
            resolved = {"preset": cfg.preset, "seed": cfg.seed, "params": params}
            chash = _config_hash(resolved)
            derived, checks, summary, files = preset.pipeline(params, cfg.seed, out, chash)
        else:
            resolved = {"explicit": cfg.explicit, "seed": cfg.seed}
            chash = _config_hash(resolved)
            derived, checks, summary, files = _run_explicit(cfg, out, chash)
    except GridError as exc:
        # a state that does not fit the configured grid is a config error
        raise ConfigError([str(exc)]) from exc

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
        workers=WORKERS,
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

"""Command line front end: validated scenario files, reproducible runs.

A scenario is one JSON document describing the physical constants, the
field under study, and which analyses to execute.  ``validate`` checks the
document against the published schema plus cross-field constraints without
running anything; ``run`` executes the requested analyses in dependency
order, writes deterministic data files plus a ``report.json``, and exits

    0  every checked property passed
    1  at least one property failed its tolerance
    2  the scenario file is invalid
    3  a hard runtime error interrupted the run (partial report written)

Data files are plain ``.npy`` arrays written with fixed names; rerunning
with the same seed produces byte-identical files regardless of the thread
count (the report itself carries timestamps and is excluded from that
guarantee).  ``plotdata`` extracts per-figure CSV tables from a report.
"""

import argparse
import csv
import hashlib
import json
import sys
import time
import traceback
from dataclasses import dataclass, field as dataclass_field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .chart import ComovingChart, chart_diagnostics
from .constants import PhysicalConstants
from .diffusion import (
    BinSpec,
    DiffusionConfig,
    combine_drift_estimates,
    drift_from_fields,
    forward_drift_estimate,
    simulate,
    specular_reverse,
    variance_report,
)
from .dynamics import (
    boost_equivalence_check,
    current_divergence,
    four_current,
    nonrel_limit_study,
)
from .errors import ComovkitError, ConfigInvalid
from .estimators import (
    energy_report,
    estimate_density,
    osmotic_identity_report,
    slice_density,
    velocities_from_drifts,
)
from .fields import Box, check_theorem_hypotheses, make_packet, make_plane_wave
from .geometry import MetricPatch, chart_spatial_patch, geometry_diagnostics


# ---------------------------------------------------------------------------
# scenario schema


def _vector(n):
    return {
        "type": "array",
        "items": {"type": "number"},
        "minItems": n,
        "maxItems": n,
    }


def _box(n):
    return {
        "type": "object",
        "properties": {"lo": _vector(n), "hi": _vector(n)},
        "required": ["lo", "hi"],
        "additionalProperties": False,
    }


_POSITIVE = {"type": "number", "exclusiveMinimum": 0}

ANALYSES = (
    "hypotheses",
    "chart_diag",
    "geometry_diag",
    "simulate",
    "estimate",
    "specular",
    "energy",
    "classify",
    "nonrel",
)

SCENARIO_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "properties": {
        "name": {"type": "string", "minLength": 1},
        "seed": {"type": "integer", "minimum": 0},
        "output": {"type": "string"},
        "constants": {
            "type": "object",
            "properties": {
                "hbar": _POSITIVE,
                "mass": _POSITIVE,
                "c": _POSITIVE,
            },
            "required": ["hbar", "mass", "c"],
            "additionalProperties": False,
        },
        "field": {
            "oneOf": [
                {
                    "type": "object",
                    "properties": {
                        "type": {"const": "plane_wave"},
                        "k": _vector(3),
                        "frequency": {"type": ["number", "null"]},
                        "domain": _box(4),
                    },
                    "required": ["type", "k"],
                    "additionalProperties": False,
                },
                {
                    "type": "object",
                    "properties": {
                        "type": {"const": "packet"},
                        "wavevectors": {
                            "type": "array",
                            "items": _vector(3),
                            "minItems": 1,
                        },
                        "weights": {
                            "type": "array",
                            "items": _POSITIVE,
                            "minItems": 1,
                        },
                        "domain": _box(4),
                    },
                    "required": ["type", "wavevectors", "weights", "domain"],
                    "additionalProperties": False,
                },
                {
                    "type": "object",
                    "properties": {
                        "type": {"const": "gaussian"},
                        "sigma": _POSITIVE,
                        "box": _box(3),
                    },
                    "required": ["type", "sigma", "box"],
                    "additionalProperties": False,
                },
            ]
        },
        "chart": {
            "type": "object",
            "properties": {
                "origin": _vector(4),
                "round_trip_tol": _POSITIVE,
                "pushforward_tol": _POSITIVE,
                "boost_tol": _POSITIVE,
                "n_samples": {"type": "integer", "minimum": 1},
            },
            "required": ["origin"],
            "additionalProperties": False,
        },
        "lattices": {
            "type": "object",
            "properties": {
                "verification": {
                    "type": "object",
                    "properties": {
                        "half_width": _POSITIVE,
                        "n_per_axis": {"type": "integer", "minimum": 2},
                        "xi0": {"type": "number"},
                    },
                    "additionalProperties": False,
                },
                "hypothesis_shape": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 2},
                    "minItems": 4,
                    "maxItems": 4,
                },
            },
            "additionalProperties": False,
        },
        "diffusion": {
            "type": "object",
            "properties": {
                "dt": _POSITIVE,
                "horizon": _POSITIVE,
                "n_paths": {"type": "integer", "minimum": 1},
                "burn_in_fraction": {
                    "type": "number",
                    "minimum": 0,
                    "exclusiveMaximum": 1,
                },
                "n_snapshots": {"type": "integer", "minimum": 2},
                "chunk_size": {"type": "integer", "minimum": 1},
                "initial": {
                    "oneOf": [
                        {
                            "type": "object",
                            "properties": {
                                "kind": {"const": "point"},
                                "at": _vector(3),
                            },
                            "required": ["kind", "at"],
                            "additionalProperties": False,
                        },
                        {
                            "type": "object",
                            "properties": {"kind": {"const": "density"}},
                            "required": ["kind"],
                            "additionalProperties": False,
                        },
                    ]
                },
                "bins": {
                    "type": "object",
                    "properties": {
                        "lo": _vector(3),
                        "hi": _vector(3),
                        "shape": {
                            "type": "array",
                            "items": {"type": "integer", "minimum": 1},
                            "minItems": 3,
                            "maxItems": 3,
                        },
                    },
                    "required": ["lo", "hi", "shape"],
                    "additionalProperties": False,
                },
                "min_count": {"type": "integer", "minimum": 2},
            },
            "required": ["dt", "horizon", "n_paths", "bins"],
            "additionalProperties": False,
        },
        "energy": {
            "type": "object",
            "properties": {
                "box": _box(3),
                "order": {"type": "integer", "minimum": 2},
                "time_order": {"type": "integer", "minimum": 2},
                "delta": _POSITIVE,
            },
            "required": ["box"],
            "additionalProperties": False,
        },
        "classify": {
            "type": "object",
            "properties": {
                "budget": _POSITIVE,
                "divergence_budget": _POSITIVE,
                "n_points": {"type": "integer", "minimum": 1},
                "half_width": _POSITIVE,
            },
            "additionalProperties": False,
        },
        "nonrel": {
            "type": "object",
            "properties": {
                "epsilons": {
                    "type": "array",
                    "items": _POSITIVE,
                    "minItems": 2,
                },
                "n_per_axis": {"type": "integer", "minimum": 2},
                "sample_width": _POSITIVE,
            },
            "required": ["epsilons"],
            "additionalProperties": False,
        },
        "analyses": {
            "type": "array",
            "items": {"enum": list(ANALYSES)},
            "minItems": 1,
            "uniqueItems": True,
        },
    },
    "required": ["name", "constants", "analyses"],
    "additionalProperties": False,
}

# analyses that need each section; checked after the schema so messages can
# carry JSON-pointer paths
_NEEDS_FIELD = {"hypotheses", "chart_diag", "geometry_diag", "simulate",
                "estimate", "specular", "energy", "classify"}
_NEEDS_BUNDLE = {"hypotheses", "chart_diag", "geometry_diag", "classify"}
_NEEDS_CHART = {"chart_diag", "geometry_diag"}
_NEEDS_DIFFUSION = {"simulate", "estimate", "specular"}


@dataclass
class Scenario:
    """Parsed scenario file: validated raw document plus typed accessors."""

    raw: dict
    path: str = ""

    @property
    def name(self):
        return self.raw["name"]

    @property
    def seed(self):
        return int(self.raw.get("seed", 0))

    @property
    def output(self):
        return self.raw.get("output")

    @property
    def analyses(self):
        return [a for a in ANALYSES if a in self.raw["analyses"]]

    @property
    def constants(self):
        c = self.raw["constants"]
        return PhysicalConstants(c["hbar"], c["mass"], c["c"])

    def section(self, key, default=None):
        return self.raw.get(key, default if default is not None else {})


def _pointer(parts):
    return "/" + "/".join(str(p) for p in parts)


def _check_cross_fields(raw):
    errors = []
    analyses = set(raw["analyses"])
    field_spec = raw.get("field")
    field_type = field_spec["type"] if field_spec else None

    if analyses & _NEEDS_FIELD and field_spec is None:
        errors.append(("/analyses", "these analyses need a field section: %s"
                       % sorted(analyses & _NEEDS_FIELD)))
    if analyses & _NEEDS_BUNDLE and field_type == "gaussian":
        errors.append(("/analyses",
                       "analyses %s need a wave field, not a gaussian density"
                       % sorted(analyses & _NEEDS_BUNDLE)))
    if analyses & _NEEDS_DIFFUSION and field_type not in (None, "gaussian"):
        errors.append(("/analyses",
                       "diffusion analyses run on the gaussian density fixture"))
    if analyses & _NEEDS_CHART and "chart" not in raw:
        errors.append(("/analyses", "chart analyses need a chart section"))
    if "energy" in analyses:
        if "energy" not in raw:
            errors.append(("/analyses", "energy analysis needs an energy section"))
        if field_type == "plane_wave" and "chart" not in raw:
            errors.append(("/analyses",
                           "plane-wave energy uses the chart slice density; "
                           "add a chart section"))
        if field_type == "packet":
            errors.append(("/analyses",
                           "energy analysis supports gaussian and plane_wave "
                           "fields only"))
    if "nonrel" in analyses and "nonrel" not in raw:
        errors.append(("/analyses", "nonrel analysis needs a nonrel section"))
    if ("estimate" in analyses or "specular" in analyses) \
            and "simulate" not in analyses:
        errors.append(("/analyses",
                       "estimate and specular consume the simulated ensemble; "
                       "add 'simulate'"))
    if analyses & _NEEDS_DIFFUSION and "diffusion" not in raw:
        errors.append(("/analyses", "diffusion analyses need a diffusion section"))

    diff = raw.get("diffusion")
    if diff is not None:
        if diff["horizon"] < 10.0 * diff["dt"]:
            errors.append(("/diffusion/dt",
                           "horizon %g must cover at least 10 steps of dt %g"
                           % (diff["horizon"], diff["dt"])))
        bins = diff["bins"]
        if np.any(np.asarray(bins["hi"]) <= np.asarray(bins["lo"])):
            errors.append(("/diffusion/bins", "bin box must have hi > lo"))
        elif field_type == "gaussian":
            box = raw["field"]["box"]
            inside = np.all(np.asarray(bins["lo"]) >= np.asarray(box["lo"])) \
                and np.all(np.asarray(bins["hi"]) <= np.asarray(box["hi"]))
            if not inside:
                errors.append(
                    ("/diffusion/bins",
                     "bin box [%s, %s] must lie inside the field box [%s, %s]"
                     % (bins["lo"], bins["hi"], box["lo"], box["hi"])))

    if field_type == "packet":
        nw = len(field_spec["wavevectors"])
        if len(field_spec["weights"]) != nw:
            errors.append(("/field/weights",
                           "%d weights for %d wavevectors"
                           % (len(field_spec["weights"]), nw)))

    if "chart" in raw and field_spec is not None and "domain" in field_spec:
        origin = np.asarray(raw["chart"]["origin"])
        dom = field_spec["domain"]
        if np.any(origin < np.asarray(dom["lo"])) \
                or np.any(origin > np.asarray(dom["hi"])):
            errors.append(("/chart/origin",
                           "origin %s lies outside the field domain [%s, %s]"
                           % (origin.tolist(), dom["lo"], dom["hi"])))

    if errors:
        lines = ["%s: %s" % (ptr, msg) for ptr, msg in errors]
        raise ConfigInvalid("invalid scenario:\n  " + "\n  ".join(lines),
                            pointers=[ptr for ptr, _ in errors])


def validate(source):
    """Parse and validate a scenario file (path or dict). No execution.

    Raises ConfigInvalid with JSON-pointer paths on any schema violation or
    failed cross-field check; returns a Scenario otherwise.
    """
    import jsonschema

    if isinstance(source, dict):
        raw, path = source, ""
    else:
        path = str(source)
        try:
            raw = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigInvalid("scenario file not found: %s" % path)
        except json.JSONDecodeError as err:
            raise ConfigInvalid("scenario is not valid JSON: %s" % err)

    validator = jsonschema.Draft7Validator(SCENARIO_SCHEMA)
    schema_errors = sorted(validator.iter_errors(raw),
                           key=lambda e: list(e.absolute_path))
    if schema_errors:
        lines = []
        pointers = []
        for err in schema_errors:
            ptr = _pointer(err.absolute_path)
            pointers.append(ptr)
            lines.append("%s: %s" % (ptr, err.message))
        raise ConfigInvalid("invalid scenario:\n  " + "\n  ".join(lines),
                            pointers=pointers)
    _check_cross_fields(raw)
    return Scenario(raw=raw, path=path)


# ---------------------------------------------------------------------------
# gaussian density fixture


class GaussianFixture:
    """Isotropic gaussian invariant density with analytic log-gradient."""

    def __init__(self, sigma, box):
        self.sigma = float(sigma)
        self.box = box

    def density(self, q):
        q = np.asarray(q, dtype=float)
        norm = (2.0 * np.pi * self.sigma ** 2) ** 1.5
        return np.exp(-0.5 * np.sum(q * q, axis=-1) / self.sigma ** 2) / norm

    def grad_log_density(self, q):
        return -np.asarray(q, dtype=float) / self.sigma ** 2

    def weight(self, q):
        # unnormalized density for rejection sampling, sup = 1
        q = np.asarray(q, dtype=float)
        return np.exp(-0.5 * np.sum(q * q, axis=-1) / self.sigma ** 2)

    def osmotic(self, nu):
        def u(q):
            return 0.5 * nu * self.grad_log_density(q)

        return u


# ---------------------------------------------------------------------------
# run context: shared lazily-built objects


class _RunContext:
    def __init__(self, scenario, seed, threads, out_dir):
        self.scenario = scenario
        self.seed = seed
        self.threads = max(1, int(threads or 1))
        self.out_dir = Path(out_dir)
        self.constants = scenario.constants
        self._bundle = None
        self._chart = None
        self._ensemble = None
        self.data_files = {}

    # --- builders ---------------------------------------------------------
    def bundle(self):
        if self._bundle is None:
            spec = self.scenario.raw["field"]
            if spec["type"] == "plane_wave":
                domain = _parse_box(spec.get("domain"))
                self._bundle = make_plane_wave(
                    spec["k"], self.constants, domain=domain,
                    frequency=spec.get("frequency"),
                )
            elif spec["type"] == "packet":
                self._bundle = make_packet(
                    spec["wavevectors"], spec["weights"],
                    _parse_box(spec["domain"]), self.constants,
                )
            else:
                raise ConfigInvalid(
                    "field type %r has no wave bundle" % spec["type"])
        return self._bundle

    def chart(self):
        if self._chart is None:
            origin = self.scenario.raw["chart"]["origin"]
            self._chart = ComovingChart(self.bundle(), origin=origin)
        return self._chart

    def gaussian(self):
        spec = self.scenario.raw["field"]
        if spec["type"] != "gaussian":
            raise ConfigInvalid("diffusion fixture needs a gaussian field")
        return GaussianFixture(spec["sigma"], _parse_box(spec["box"]))

    def bins(self):
        b = self.scenario.raw["diffusion"]["bins"]
        return BinSpec(tuple(b["lo"]), tuple(b["hi"]), tuple(b["shape"]))

    def ensemble(self):
        if self._ensemble is None:
            raise ComovkitError("simulate must run before estimate/specular")
        return self._ensemble

    # --- output -----------------------------------------------------------
    def save_array(self, name, array):
        path = self.out_dir / ("%s.npy" % name)
        np.save(path, np.ascontiguousarray(array))
        digest = hashlib.sha256()
        with path.open("rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
        self.data_files[name] = {
            "path": path.name,
            "sha256": digest.hexdigest(),
            "bytes": path.stat().st_size,
        }


def _parse_box(spec):
    if spec is None:
        return None
    return Box(tuple(spec["lo"]), tuple(spec["hi"]))


def _row(analysis, name, value, tolerance, comparator, passed):
    return {
        "analysis": analysis,
        "name": name,
        "value": float(value),
        "tolerance": float(tolerance),
        "comparator": comparator,
        "pass": bool(passed),
    }


def _max_row(analysis, name, value, tolerance):
    return _row(analysis, name, value, tolerance, "<=", value <= tolerance)


def _fraction_row(analysis, name, value, threshold):
    return _row(analysis, name, value, threshold, ">=", value >= threshold)


# ---------------------------------------------------------------------------
# analysis runners


def _run_hypotheses(ctx):
    lat = ctx.scenario.section("lattices")
    shape = tuple(lat.get("hypothesis_shape", (7, 7, 7, 7)))
    report = check_theorem_hypotheses(ctx.bundle(), shape=shape)
    result = report.to_dict()
    result["violated"] = list(report.violated)
    rows = [_row("hypotheses", "hypotheses_satisfied",
                 len(report.violated), 0, "<=", not report.violated)]
    return result, rows


def _run_chart_diag(ctx):
    spec = ctx.scenario.raw["chart"]
    chart = ctx.chart()
    diag = chart_diagnostics(chart, n_samples=spec.get("n_samples", 40),
                             seed=ctx.seed)
    rt_tol = spec.get("round_trip_tol", 1e-6)
    push_tol = spec.get("pushforward_tol", 1e-6)
    boost_tol = spec.get("boost_tol", 1e-5)
    boost = boost_equivalence_check(ctx.bundle(), chart, chart.origin)
    diag["boost_deviation_at_origin"] = boost["max_deviation"]
    diag["boost_velocity"] = boost["velocity"].tolist()
    rows = [
        _max_row("chart_diag", "round_trip_max", diag["round_trip_max"], rt_tol),
        _max_row("chart_diag", "pushforward_spatial_max",
                 diag["pushforward_spatial_max"], push_tol),
        _max_row("chart_diag", "boost_deviation_at_origin",
                 boost["max_deviation"], boost_tol),
    ]
    return diag, rows


def _run_geometry_diag(ctx):
    lat = ctx.scenario.section("lattices").get("verification", {})
    diag = geometry_diagnostics(
        ctx.chart(),
        half_width=lat.get("half_width", 1.0),
        n_per_axis=lat.get("n_per_axis", 5),
        xi0=lat.get("xi0", 0.0),
    )
    block_tol = 1e-4
    rows = [
        _max_row("geometry_diag", "max_abs_g0i", diag["max_abs_g0i"], block_tol),
        _max_row("geometry_diag", "max_abs_g00_deviation",
                 diag["max_abs_g00_deviation"], block_tol),
        _max_row("geometry_diag", "max_riemann",
                 diag["flatness"]["max_riemann"], diag["flatness"]["budget"]),
    ]
    return diag, rows


def _diffusion_config(ctx):
    d = ctx.scenario.raw["diffusion"]
    fixture = ctx.gaussian()
    init_spec = d.get("initial", {"kind": "density"})
    if init_spec["kind"] == "point":
        initial = ("point", tuple(init_spec["at"]))
    else:
        initial = ("density", fixture.weight, fixture.box, 1.0)
    return DiffusionConfig(
        dt=d["dt"],
        horizon=d["horizon"],
        n_paths=d["n_paths"],
        master_seed=ctx.seed,
        nu=ctx.constants.nu,
        initial=initial,
        burn_in_fraction=d.get("burn_in_fraction", 0.2),
        n_snapshots=d.get("n_snapshots", 24),
        chunk_size=d.get("chunk_size", 16384),
        n_threads=ctx.threads,
    )


def _run_simulate(ctx):
    fixture = ctx.gaussian()
    config = _diffusion_config(ctx)
    patch = MetricPatch.euclidean()
    drift = drift_from_fields(fixture.osmotic(ctx.constants.nu), patch,
                              ctx.constants.nu)
    ensemble = simulate(drift, patch, config)
    ctx._ensemble = ensemble

    ctx.save_array("paths_times", ensemble.times)
    ctx.save_array("paths_pre", ensemble.pre)
    ctx.save_array("paths_post", ensemble.post)

    var = variance_report(ensemble)
    sigma_sq = fixture.sigma ** 2
    z_final = np.max(np.abs(var["variance"][-1] - sigma_sq) / var["se"][-1])
    result = {
        "n_paths": ensemble.n_paths,
        "n_snapshots": ensemble.n_snapshots,
        "dt": config.dt,
        "horizon": config.horizon,
        "clipped": bool(np.any(ensemble.clipped)),
        "final_variance": var["variance"][-1].tolist(),
        "final_variance_se": var["se"][-1].tolist(),
        "target_variance": sigma_sq,
        "threads": ctx.threads,
    }
    rows = [_max_row("simulate", "stationary_variance_z", z_final, 3.0)]
    return result, rows


def _run_estimate(ctx):
    fixture = ctx.gaussian()
    ensemble = ctx.ensemble()
    bins = ctx.bins()
    patch = MetricPatch.euclidean()
    nu = ctx.constants.nu
    min_count = ctx.scenario.raw["diffusion"].get("min_count", 500)

    osmotic = osmotic_identity_report(
        ensemble, bins, patch, nu, min_count=min_count, z=3.0,
        grad_log_density=fixture.grad_log_density,
    )
    fwd, bwd = osmotic["forward"], osmotic["backward"]
    vel = velocities_from_drifts(fwd, bwd)
    density = estimate_density(ensemble, bins, patch)

    anti_mean, anti_se, anti_valid = combine_drift_estimates(fwd, bwd, 1.0, 1.0)
    usable = anti_valid & (fwd.count >= min_count) & (bwd.count >= min_count)
    z_anti = np.abs(anti_mean[usable]) / anti_se[usable]
    anti_fraction = float(np.mean(np.all(z_anti <= 3.0, axis=-1)))

    ctx.save_array("estimate_centers", bins.centers())
    ctx.save_array("estimate_density", density.estimate)
    ctx.save_array("estimate_current", vel.current)
    ctx.save_array("estimate_osmotic", vel.osmotic)
    ctx.save_array("estimate_osmotic_se", vel.osmotic_se)

    result = {
        "n_bins": int(bins.n_bins),
        "usable_bins": int(np.sum(usable)),
        "min_count": int(min_count),
        "osmotic_identity_fraction": osmotic["fraction"],
        "osmotic_usable_bins": int(osmotic["n_bins"]),
        "drift_antisymmetry_fraction": anti_fraction,
        "z": 3.0,
    }
    rows = [
        _fraction_row("estimate", "osmotic_identity_fraction",
                      osmotic["fraction"], 0.95),
        _fraction_row("estimate", "drift_antisymmetry_fraction",
                      anti_fraction, 0.95),
    ]
    return result, rows


def _run_specular(ctx):
    fixture = ctx.gaussian()
    ensemble = ctx.ensemble()
    bins = ctx.bins()
    nu = ctx.constants.nu
    min_count = ctx.scenario.raw["diffusion"].get("min_count", 500)

    reverse = specular_reverse(ensemble)
    double = specular_reverse(reverse)
    involution = double.same_pairs(ensemble)

    # the reversed ensemble drifts forward at +u: compare the binned
    # forward drift against the analytic osmotic velocity at the anchors
    fwd = forward_drift_estimate(reverse, bins, min_count=min_count)
    u = fixture.osmotic(nu)
    target = u(fwd.eval_points())
    usable = fwd.valid & (fwd.count >= min_count) & np.all(
        np.isfinite(fwd.se), axis=-1)
    z = np.abs(fwd.mean[usable] - target[usable]) / fwd.se[usable]
    fraction = float(np.mean(np.all(z <= 3.0, axis=-1)))

    result = {
        "involution_exact": bool(involution),
        "direction": reverse.direction,
        "forward_drift_fraction": fraction,
        "usable_bins": int(np.sum(usable)),
        "z": 3.0,
    }
    rows = [
        _row("specular", "involution_exact", 0.0 if involution else 1.0,
             0.0, "<=", involution),
        _fraction_row("specular", "specular_forward_drift_fraction",
                      fraction, 0.95),
    ]
    return result, rows


def _run_energy(ctx):
    spec = ctx.scenario.raw["energy"]
    constants = ctx.constants
    box = _parse_box(spec["box"])
    field_type = ctx.scenario.raw["field"]["type"]
    kwargs = {
        "order": spec.get("order", 32),
        "time_order": spec.get("time_order", 16),
        "delta": spec.get("delta", 1.0),
    }
    if field_type == "gaussian":
        fixture = ctx.gaussian()
        patch = MetricPatch.euclidean()
        rep = energy_report(fixture.density, patch, constants, box,
                            grad_log_density=fixture.grad_log_density, **kwargs)
    else:
        chart = ctx.chart()
        density = slice_density(ctx.bundle(), chart)
        patch = chart_spatial_patch(chart)
        rep = energy_report(density, patch, constants, box, **kwargs)

    rest = constants.mass * constants.c ** 2
    delta_routes = abs(rep.mu_direct - rep.mu_identity)
    result = {
        "mu_direct": rep.mu_direct,
        "mu_identity": rep.mu_identity,
        "e_u2": rep.e_u2,
        "gamma_tilde": rep.gamma_tilde,
        "order": rep.order,
        "tolerance": 1e-6 * rest,
    }
    rows = [_max_row("energy", "energy_route_delta", delta_routes, 1e-6 * rest)]
    if field_type == "plane_wave":
        rows.append(_max_row("energy", "rest_energy_delta",
                             abs(rep.mu_direct + 0.5 * rest), 1e-6 * rest))
    return result, rows


def _run_classify(ctx):
    spec = ctx.scenario.section("classify")
    budget = spec.get("budget", 1e-9)
    div_budget = spec.get("divergence_budget", 1e-6)
    n_points = spec.get("n_points", 16)
    half = spec.get("half_width", 2.0)

    bundle = ctx.bundle()
    rng = np.random.default_rng(ctx.seed + 1)
    pts = rng.uniform(-half, half, size=(n_points, 4))

    sample = four_current(bundle, pts, budget=budget)
    classes = sorted(set(sample.classification.tolist()))
    modulus_max = float(np.max(sample.modulus_residual))
    cross_max = float(np.max(sample.cross_check))
    j0_min = float(np.min(sample.j[:, 0]))
    div_max = float(np.max(np.abs(current_divergence(bundle, pts[:5]))))

    unanimous = len(classes) == 1 and classes[0] != "indeterminate"
    result = {
        "classes": classes,
        "n_points": int(n_points),
        "modulus_residual_max": modulus_max,
        "cross_check_max": cross_max,
        "j0_min": j0_min,
        "divergence_max": div_max,
        "budget": budget,
    }
    rows = [
        _row("classify", "classification_unanimous",
             0.0 if unanimous else 1.0, 0.0, "<=", unanimous),
        _max_row("classify", "modulus_identity_max", modulus_max,
                 10.0 * budget),
        _row("classify", "time_component_min", j0_min, 0.0, ">=",
             j0_min > 0.0),
        _max_row("classify", "current_conservation_max", div_max, div_budget),
    ]
    return result, rows


def _run_nonrel(ctx):
    spec = ctx.scenario.raw["nonrel"]
    study = nonrel_limit_study(
        spec["epsilons"],
        ctx.constants,
        n_per_axis=spec.get("n_per_axis", 3),
        sample_width=spec.get("sample_width", 5.0),
    )
    rows_data = study["rows"]
    spatial = [r["spatial_dropped"] for r in rows_data]
    temporal = [r["temporal_dropped"] for r in rows_data]
    spatial_mono = all(a > b for a, b in zip(spatial, spatial[1:]))
    temporal_mono = all(a > b for a, b in zip(temporal, temporal[1:]))

    result = {"rows": rows_data, "slope": study["slope"],
              "slope_target": 2.0, "slope_tolerance": 0.3}
    rows = [
        _max_row("nonrel", "slope_deviation", abs(study["slope"] - 2.0), 0.3),
        _row("nonrel", "spatial_dropped_monotone",
             0.0 if spatial_mono else 1.0, 0.0, "<=", spatial_mono),
        _row("nonrel", "temporal_dropped_monotone",
             0.0 if temporal_mono else 1.0, 0.0, "<=", temporal_mono),
    ]
    return result, rows


_RUNNERS = {
    "hypotheses": _run_hypotheses,
    "chart_diag": _run_chart_diag,
    "geometry_diag": _run_geometry_diag,
    "simulate": _run_simulate,
    "estimate": _run_estimate,
    "specular": _run_specular,
    "energy": _run_energy,
    "classify": _run_classify,
    "nonrel": _run_nonrel,
}


# ---------------------------------------------------------------------------
# run and report


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def _versions():
    return {
        "comovkit": __version__,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }


def _error_record(analysis, kind, err):
    return {"analysis": analysis, "kind": kind, "type": type(err).__name__,
            "message": str(err)}


def run(scenario, out_dir=None, seed=None, threads=None):
    """Execute a validated scenario; returns the report dict.

    Writes data files and report.json under the output directory.  A hard
    error stops the analysis sequence but still writes the partial report
    with an error record; property failures never raise.  The record's
    ``kind`` is ``domain`` for a ComovkitError and ``internal``, with the
    traceback, for any other exception.  ``analysis_wall_s`` maps every
    analysis that ran, the failed one included, to its wall time in seconds.
    """
    start = time.time()
    out = Path(out_dir or scenario.output or ("runs/" + scenario.name))
    out.mkdir(parents=True, exist_ok=True)
    run_seed = scenario.seed if seed is None else int(seed)
    ctx = _RunContext(scenario, run_seed, threads, out)

    report = {
        "name": scenario.name,
        "seed": run_seed,
        "threads": ctx.threads,
        "versions": _versions(),
        "started": datetime.now(timezone.utc).isoformat(),
        "scenario": scenario.raw,
        "analyses": {},
        "properties": [],
        "data_files": ctx.data_files,
        "analysis_wall_s": {},
        "error": None,
    }
    for analysis in scenario.analyses:
        tick = time.perf_counter()
        try:
            result, rows = _RUNNERS[analysis](ctx)
        except ComovkitError as err:
            report["error"] = _error_record(analysis, "domain", err)
            break
        except Exception as err:  # noqa: BLE001 - every run leaves a report
            report["error"] = _error_record(analysis, "internal", err)
            report["error"]["traceback"] = traceback.format_exc()
            break
        finally:
            report["analysis_wall_s"][analysis] = time.perf_counter() - tick
        report["analyses"][analysis] = result
        report["properties"].extend(rows)

    report["pass"] = report["error"] is None and all(
        row["pass"] for row in report["properties"])
    report["wall_clock_s"] = time.time() - start
    (out / "report.json").write_text(
        json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n")
    return report


# ---------------------------------------------------------------------------
# plot data extraction


def emit_plotdata(report_source, out_dir=None):
    """Write per-figure CSV tables from a report; returns written paths.

    An empty report (no analyses) writes nothing and warns on stderr.
    """
    if isinstance(report_source, dict):
        report = report_source
        base = Path(out_dir or ".")
    else:
        path = Path(report_source)
        report = json.loads(path.read_text())
        base = Path(out_dir or path.parent)
    analyses = report.get("analyses", {})
    if not analyses:
        print("warning: report contains no analyses; nothing to plot",
              file=sys.stderr)
        return []

    base.mkdir(parents=True, exist_ok=True)
    written = []
    if "nonrel" in analyses:
        study = analyses["nonrel"]
        target = base / "nonrel.csv"
        with open(target, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["eps", "residual", "slope_fit"])
            for row in study["rows"]:
                writer.writerow([row["eps_measured"], row["discrepancy"],
                                 study["slope"]])
        written.append(target)
    if "energy" in analyses:
        energy = analyses["energy"]
        target = base / "energy.csv"
        with open(target, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["mu_direct", "mu_identity", "e_u2"])
            writer.writerow([energy["mu_direct"], energy["mu_identity"],
                             energy["e_u2"]])
        written.append(target)
    if not written:
        print("warning: no plottable analyses in report", file=sys.stderr)
    return written


# ---------------------------------------------------------------------------
# entry point


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="comovkit",
        description="comoving-chart construction and diffusion kinematics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="validate and execute a scenario")
    run_p.add_argument("scenario", help="path to a scenario JSON file")
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    run_p.add_argument("--threads", type=int, default=None,
                       help="simulation worker threads (default 1)")

    val_p = sub.add_parser("validate", help="check a scenario file only")
    val_p.add_argument("scenario", help="path to a scenario JSON file")

    plot_p = sub.add_parser("plotdata", help="extract figure CSVs from a report")
    plot_p.add_argument("report", help="path to a report.json")
    plot_p.add_argument("--out", default=None, help="output directory")

    args = parser.parse_args(argv)

    if args.command == "validate":
        try:
            scenario = validate(args.scenario)
        except ConfigInvalid as err:
            print("invalid: %s" % err, file=sys.stderr)
            return 2
        print("ok: %s" % scenario.name)
        return 0

    if args.command == "run":
        try:
            scenario = validate(args.scenario)
        except ConfigInvalid as err:
            print("invalid: %s" % err, file=sys.stderr)
            return 2
        report = run(scenario, out_dir=args.out, seed=args.seed,
                     threads=args.threads)
        for row in report["properties"]:
            print("%-4s %s/%s = %.6g (%s %.6g)" % (
                "PASS" if row["pass"] else "FAIL", row["analysis"],
                row["name"], row["value"], row["comparator"],
                row["tolerance"]))
        if report["error"] is not None:
            print("error in %s: %s" % (report["error"]["analysis"],
                                       report["error"]["message"]),
                  file=sys.stderr)
            return 3
        return 0 if report["pass"] else 1

    if args.command == "plotdata":
        try:
            written = emit_plotdata(args.report, out_dir=args.out)
        except (FileNotFoundError, json.JSONDecodeError) as err:
            print("cannot read report: %s" % err, file=sys.stderr)
            return 2
        for path in written:
            print(path)
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())

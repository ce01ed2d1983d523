"""Command line front end: validated scenario files, reproducible runs.

A scenario is one JSON document describing the physical constants, the
field under study, and which analyses to execute; ``_TABLE`` declares what
each analysis reads and runs; the slice analyses read the field's slice
from ``_RunContext.leaf``, the one place they branch on the field type.
``validate`` checks the document against the published schema plus
cross-field constraints without running anything; ``run`` executes the
requested analyses in the table's order, writes deterministic data files
plus a ``report.json``, and exits

    0  every checked property passed
    1  at least one property failed its tolerance
    2  the scenario file is invalid, a path is unusable, or the seed or
       thread count given to ``run`` is out of range
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
import math
import numbers
import sys
import time
import traceback
from dataclasses import dataclass, field
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
    forward_drift_estimate,
    leaf_drift,
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
    gaussian_density,
    osmotic_identity_report,
    slice_density,
    velocities_from_drifts,
)
from .fields import (
    HYPOTHESIS_SHAPE,
    Box,
    check_theorem_hypotheses,
    make_packet,
    make_plane_wave,
)
from .geometry import (
    MetricPatch,
    chart_spatial_patch,
    geometry_diagnostics,
)


# ---------------------------------------------------------------------------
# run context: shared lazily-built objects


class _RunContext:
    def __init__(self, scenario, seed, threads, out_dir):
        self.scenario = scenario
        self.seed = seed
        self.threads = threads
        self.out_dir = Path(out_dir)
        self.constants = scenario.constants
        self._bundle = None
        self._hypotheses = {}  # lattice shape -> HypothesisReport
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

    def hypotheses(self, shape):
        """The bundle's hypotheses report on the lattice ``shape``, scanned
        once per run however many analyses read it."""
        shape = tuple(shape)
        if shape not in self._hypotheses:
            self._hypotheses[shape] = check_theorem_hypotheses(
                self.bundle(), shape=shape)
        return self._hypotheses[shape]

    def chart(self):
        """The scenario's chart, validated by the run's default-lattice
        hypotheses report. A failed report the run already holds, on any
        lattice, disproves the hypotheses, so the chart refuses with it
        and no further lattice is scanned."""
        if self._chart is None:
            failed = next((report for report in self._hypotheses.values()
                           if not report.passed), None)
            self._chart = ComovingChart(
                self.bundle(), origin=self.scenario.raw["chart"]["origin"],
                hypothesis_report=failed or self.hypotheses(HYPOTHESIS_SHAPE))
        return self._chart

    def leaf(self):
        """(density, grad_log_density, patch) on the field's spatial slice:
        the gaussian (``gaussian_density``) under the Euclidean metric, or a
        wave bundle's chart origin leaf (``slice_density``) under its slice
        metric. The slice analyses branch on the field type only here."""
        spec = self.scenario.raw["field"]
        if spec["type"] == "gaussian":
            return (*gaussian_density(spec["sigma"]), MetricPatch.euclidean())
        chart = self.chart()
        return (*slice_density(self.bundle(), chart),
                chart_spatial_patch(chart))

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
    report = ctx.hypotheses(lat.get("hypothesis_shape", HYPOTHESIS_SHAPE))
    result = report.to_dict()
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


def _diffusion_config(ctx, density):
    d = ctx.scenario.raw["diffusion"]
    init_spec = d.get("initial", {"kind": "density"})
    if init_spec["kind"] == "point":
        initial = ("point", tuple(init_spec["at"]))
    else:
        # the leaf density in the field's box, below its (gaussian) peak
        initial = ("density", density,
                   _parse_box(ctx.scenario.raw["field"]["box"]),
                   float(density(np.zeros(3))))
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
    density, grad_log_density, patch = ctx.leaf()
    config = _diffusion_config(ctx, density)
    ensemble = simulate(leaf_drift(grad_log_density, patch, config.nu),
                        patch, config)
    ctx._ensemble = ensemble

    ctx.save_array("paths_times", ensemble.times)
    ctx.save_array("paths_pre", ensemble.pre)
    ctx.save_array("paths_post", ensemble.post)

    var = variance_report(ensemble)
    sigma_sq = float(ctx.scenario.raw["field"]["sigma"]) ** 2
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
        "initial_acceptance": dict(ensemble.meta["initial_acceptance"]),
    }
    rows = [_max_row("simulate", "stationary_variance_z", z_final, 3.0)]
    return result, rows


def _run_estimate(ctx):
    _, grad_log_density, patch = ctx.leaf()
    ensemble = ctx.ensemble()
    bins = ctx.bins()
    nu = ctx.constants.nu
    min_count = ctx.scenario.raw["diffusion"].get("min_count", 500)

    osmotic = osmotic_identity_report(
        ensemble, bins, patch, nu, min_count=min_count, z=3.0,
        grad_log_density=grad_log_density,
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
        "min_count": min_count,
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
    _, grad_log_density, patch = ctx.leaf()
    ensemble = ctx.ensemble()
    bins = ctx.bins()
    nu = ctx.constants.nu
    min_count = ctx.scenario.raw["diffusion"].get("min_count", 500)

    reverse = specular_reverse(ensemble)
    double = specular_reverse(reverse)
    involution = double.same_pairs(ensemble)

    # the reversed ensemble drifts forward at +u: compare the binned
    # forward drift against the leaf's coordinate drift at the anchors
    fwd = forward_drift_estimate(reverse, bins, min_count=min_count)
    target = leaf_drift(grad_log_density, patch, nu)(fwd.eval_points())
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
    density, grad_log_density, patch = ctx.leaf()
    rep = energy_report(
        density, patch, constants, _parse_box(spec["box"]),
        order=spec.get("order", 32), time_order=spec.get("time_order", 16),
        delta=spec.get("delta", 1.0), grad_log_density=grad_log_density)

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
    if ctx.scenario.raw["field"]["type"] == "plane_wave":
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
        "n_points": n_points,
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


# ---------------------------------------------------------------------------
# analysis table


@dataclass(frozen=True)
class _Analysis:
    """One analysis: the sections it reads, the field types it runs on (none
    when it reads no field), each with the further sections it reads there,
    the analyses whose output it consumes, and its runner. Its place in
    ``_TABLE`` is its place in the run order."""

    name: str
    runner: object
    sections: tuple
    fields: dict = field(default_factory=dict)
    consumes: tuple = ()


_WAVES = {"plane_wave": (), "packet": ()}  # the types with a wave bundle
_GAUSSIAN = {"gaussian": ()}
_DIFFUSION = ("field", "diffusion")  # the sections diffusion analyses read

_TABLE = (
    _Analysis("hypotheses", _run_hypotheses, ("field",), _WAVES),
    _Analysis("chart_diag", _run_chart_diag, ("field", "chart"), _WAVES),
    _Analysis("geometry_diag", _run_geometry_diag, ("field", "chart"), _WAVES),
    _Analysis("simulate", _run_simulate, _DIFFUSION, _GAUSSIAN),
    _Analysis("estimate", _run_estimate, _DIFFUSION, _GAUSSIAN,
              ("simulate",)),
    _Analysis("specular", _run_specular, _DIFFUSION, _GAUSSIAN,
              ("simulate",)),
    _Analysis("energy", _run_energy, ("field", "energy"),
              {"gaussian": (), "plane_wave": ("chart",)}),
    _Analysis("classify", _run_classify, ("field",), _WAVES),
    _Analysis("nonrel", _run_nonrel, ("nonrel",)),
)

ANALYSES = tuple(a.name for a in _TABLE)

# ``run`` looks each runner up here at call time
_RUNNERS = {a.name: a.runner for a in _TABLE}


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
                # 2^16 samples: 2.9 s of packet_9mode's chart_diag (2 cores)
                "n_samples": {"type": "integer", "minimum": 1,
                              "maximum": 65536},
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
                        # 25^3 points: 2.9 s of packet_9mode's
                        # geometry_diag (2 cores)
                        "n_per_axis": {"type": "integer", "minimum": 2,
                                       "maximum": 25},
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
        return self.raw.get("seed", 0)

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

    def section(self, key):
        return self.raw.get(key, {})


def _pointer(parts):
    return "/" + "/".join(str(p) for p in parts)


# The JSON Schema draft-07 keywords that _schema_errors checks: all that
# SCENARIO_SCHEMA uses ("$schema" only names the draft).
_SCHEMA_KEYWORDS = frozenset({
    "type", "properties", "required", "additionalProperties", "items",
    "minItems", "maxItems", "uniqueItems", "minimum", "exclusiveMinimum",
    "maximum", "exclusiveMaximum", "minLength", "const", "enum", "oneOf"})
_SCHEMA_TYPES = {"object": dict, "array": list, "string": str,
                 "boolean": bool, "null": type(None)}


def _is_type(value, name):
    """Draft-07 types: a boolean is no number, and 1.0 is an integer."""
    if name not in ("number", "integer"):
        return isinstance(value, _SCHEMA_TYPES[name])
    if isinstance(value, bool) or not isinstance(value, numbers.Number):
        return False
    return name == "number" or isinstance(value, int) \
        or (isinstance(value, float) and value.is_integer())


def _json_equal(a, b):
    """JSON equality: a boolean equals only itself (not 1 or 0), and arrays
    and objects compare member by member."""
    if a is b:
        return True
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_json_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() \
            and all(_json_equal(v, b[k]) for k, v in a.items())
    if isinstance(a, bool) or isinstance(b, bool):
        return False
    return a == b


def _schema_errors(schema, value, path=()):
    """Yield (path, message) for each way ``value`` breaks ``schema``.

    Checks the keywords in _SCHEMA_KEYWORDS as draft-07 defines them and
    in jsonschema's wording, each keyword on its own: ``-0.5`` against an
    integer with a minimum of 0 breaks both. ``path`` is the tuple of keys
    and indices from the document root; a ``oneOf`` is one error at its
    container, whatever its branches say.
    """
    for key, rule in schema.items():
        if key == "type":
            names = [rule] if isinstance(rule, str) else rule
            if not any(_is_type(value, name) for name in names):
                yield path, "%r is not of type %s" % (
                    value, ", ".join(map(repr, names)))
        elif key == "const":
            if not _json_equal(value, rule):
                yield path, "%r was expected" % (rule,)
        elif key == "enum":
            if not any(_json_equal(each, value) for each in rule):
                yield path, "%r is not one of %r" % (value, rule)
        elif key == "oneOf":
            valid = [sub for sub in rule
                     if next(_schema_errors(sub, value), None) is None]
            if not valid:
                yield path, ("%r is not valid under any of the given schemas"
                             % (value,))
            elif len(valid) > 1:
                yield path, "%r is valid under each of %s" % (
                    value, ", ".join(map(repr, valid[1:] + valid[:1])))
        elif isinstance(value, dict):
            if key == "properties":
                for name, sub in rule.items():
                    if name in value:
                        yield from _schema_errors(sub, value[name],
                                                  path + (name,))
            elif key == "required":
                for name in rule:
                    if name not in value:
                        yield path, "%r is a required property" % (name,)
            elif key == "additionalProperties" and rule is False:
                known = schema.get("properties", {})
                extra = sorted((k for k in value if k not in known), key=str)
                if extra:
                    yield path, ("Additional properties are not allowed "
                                 "(%s %s unexpected)" % (
                                     ", ".join(map(repr, extra)),
                                     "was" if len(extra) == 1 else "were"))
        elif isinstance(value, list):
            if key == "items":
                for index, item in enumerate(value):
                    yield from _schema_errors(rule, item, path + (index,))
            elif key == "minItems" and len(value) < rule:
                yield path, "%r %s" % (value, "should be non-empty"
                                       if rule == 1 else "is too short")
            elif key == "maxItems" and len(value) > rule:
                yield path, "%r %s" % (value, "is expected to be empty"
                                       if rule == 0 else "is too long")
            elif key == "uniqueItems" and rule and any(
                    _json_equal(a, b)
                    for i, a in enumerate(value) for b in value[:i]):
                yield path, "%r has non-unique elements" % (value,)
        elif _is_type(value, "number"):
            if key == "minimum" and value < rule:
                yield path, "%r is less than the minimum of %r" % (value, rule)
            elif key == "exclusiveMinimum" and value <= rule:
                yield path, ("%r is less than or equal to the minimum of %r"
                             % (value, rule))
            elif key == "maximum" and value > rule:
                yield path, "%r is greater than the maximum of %r" % (value,
                                                                      rule)
            elif key == "exclusiveMaximum" and value >= rule:
                yield path, ("%r is greater than or equal to the maximum of "
                             "%r" % (value, rule))
        elif isinstance(value, str):
            if key == "minLength" and len(value) < rule:
                yield path, "%r %s" % (value, "should be non-empty"
                                       if rule == 1 else "is too short")


def _with_integers(schema, value):
    """A copy of ``value``, valid under ``schema``, with every number that
    ``schema`` types ``integer`` as an int: draft-07 admits 1.0 there."""
    if schema.get("type") == "integer":
        return int(value)
    if "oneOf" in schema:
        branch = next(sub for sub in schema["oneOf"]
                      if next(_schema_errors(sub, value), None) is None)
        return _with_integers(branch, value)
    if isinstance(value, dict) and "properties" in schema:
        known = schema["properties"]
        return {key: _with_integers(known[key], item) if key in known
                else item for key, item in value.items()}
    if isinstance(value, list) and "items" in schema:
        return [_with_integers(schema["items"], item) for item in value]
    return value


# the largest hypotheses lattice (a product the schema cannot bound): about
# 3 s of scan at 0.65-0.8 us per event on the shipped fields (2 cores)
HYPOTHESIS_EVENTS_MAX = 2 ** 22


def _check_cross_fields(raw):
    field_spec = raw.get("field", {})
    field_type = field_spec.get("type")
    requested = set(raw["analyses"])
    lacking = {}  # what a requested analysis lacks -> the analyses lacking it
    for analysis in _TABLE:
        if analysis.name not in requested:
            continue
        sections = analysis.sections + analysis.fields.get(field_type, ())
        lack = ["need the %s section" % sec for sec in sections
                if sec not in raw]
        if field_type and analysis.fields \
                and field_type not in analysis.fields:
            lack.append("do not run on a %s field" % field_type)
        lack += ["consume the output of %r; add it" % name
                 for name in analysis.consumes if name not in requested]
        for what in lack:
            lacking.setdefault(what, []).append(analysis.name)
    errors = [("/analyses", "analyses %s %s" % (names, what))
              for what, names in lacking.items()]

    diff = raw.get("diffusion")
    boxes = {"/field/box": field_spec.get("box"),
             "/field/domain": field_spec.get("domain"),
             "/energy/box": raw.get("energy", {}).get("box"),
             "/diffusion/bins": raw.get("diffusion", {}).get("bins")}
    empty = set()  # pointers of the boxes with no interior
    for ptr, box in boxes.items():
        if box is not None \
                and np.any(np.asarray(box["hi"]) <= np.asarray(box["lo"])):
            empty.add(ptr)
            errors.append((ptr, "box [%s, %s] must have hi > lo on every axis"
                           % (box["lo"], box["hi"])))

    if diff is not None:
        if diff["horizon"] < 10.0 * diff["dt"]:
            errors.append(("/diffusion/dt",
                           "horizon %g must cover at least 10 steps of dt %g"
                           % (diff["horizon"], diff["dt"])))
        bins = diff["bins"]
        if field_type == "gaussian" \
                and not empty & {"/diffusion/bins", "/field/box"}:
            box = field_spec["box"]
            inside = np.all(np.asarray(bins["lo"]) >= np.asarray(box["lo"])) \
                and np.all(np.asarray(bins["hi"]) <= np.asarray(box["hi"]))
            if not inside:
                errors.append(
                    ("/diffusion/bins",
                     "bin box [%s, %s] must lie inside the field box [%s, %s]"
                     % (bins["lo"], bins["hi"], box["lo"], box["hi"])))

    events = math.prod(raw.get("lattices", {}).get("hypothesis_shape", ()))
    if events > HYPOTHESIS_EVENTS_MAX:
        errors.append(("/lattices/hypothesis_shape",
                       "lattice of %d events exceeds the hypotheses scan's "
                       "budget of %d events"
                       % (events, HYPOTHESIS_EVENTS_MAX)))

    if field_type == "packet":
        nw = len(field_spec["wavevectors"])
        if len(field_spec["weights"]) != nw:
            errors.append(("/field/weights",
                           "%d weights for %d wavevectors"
                           % (len(field_spec["weights"]), nw)))

    if "chart" in raw and "domain" in field_spec \
            and "/field/domain" not in empty:
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


def _read_json(path, what):
    """Parsed JSON of the UTF-8 file at path; ConfigInvalid names the path
    (``what`` is the kind of file) when it cannot be read or parsed."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigInvalid("%s file not found: %s" % (what, path))
    except json.JSONDecodeError as err:
        raise ConfigInvalid("%s is not valid JSON: %s" % (what, err))
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigInvalid("cannot read %s %s: %s" % (what, path, err))


def _make_dir(path):
    """Create the output directory path; ConfigInvalid when it cannot be."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigInvalid("cannot create output directory %s: %s"
                            % (path, err))


def validate(source):
    """Parse and validate a scenario file (path or dict). No execution.

    The document is checked against ``SCENARIO_SCHEMA`` by
    ``_schema_errors``, then by the cross-field checks. Raises
    ConfigInvalid with JSON-pointer paths (the root is ``/``; schema
    errors sorted by path) on any violation, and naming the path when the
    file cannot be read or parsed; returns a Scenario otherwise, whose
    ``raw`` is a copy of the document with every schema-integer field an
    int (``2048.0`` reads as ``2048``).
    """
    if isinstance(source, dict):
        raw, path = source, ""
    else:
        path = str(source)
        raw = _read_json(path, "scenario")

    schema_errors = sorted(_schema_errors(SCENARIO_SCHEMA, raw),
                           key=lambda err: err[0])
    if schema_errors:
        lines = ["%s: %s" % (_pointer(at), msg) for at, msg in schema_errors]
        raise ConfigInvalid("invalid scenario:\n  " + "\n  ".join(lines),
                            pointers=[_pointer(at) for at, _ in schema_errors])
    raw = _with_integers(SCENARIO_SCHEMA, raw)
    _check_cross_fields(raw)
    return Scenario(raw=raw, path=path)



# ---------------------------------------------------------------------------
# run and report


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}
_json_string = json.encoder.encode_basestring_ascii


def _json_text(obj):
    """``obj`` as the JSON text of ``report.json``: keys sorted, two-space
    indents, numpy arrays and scalars as plain values, and non-finite
    floats as the strings "nan", "inf" and "-inf" (a bare NaN token is not
    JSON). The text is what ``json.dumps(obj, indent=2, sort_keys=True)``
    writes for those plain values, built in one pass."""
    out = []
    _emit_json(obj, out, "\n")
    return "".join(out)


def _emit_json(obj, out, newline):
    """Append the JSON text of ``obj`` to ``out``; ``newline`` is the line
    break and indent of the enclosing level."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    elif isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, str):
        out.append(_json_string(obj))
    elif obj is None or obj is True or obj is False:
        out.append(_JSON_CONSTANTS[obj])
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        text = float.__repr__(obj)
        out.append(text if math.isfinite(obj) else _json_string(text))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        out.append("[" + inner)
        # a run of floats is one join; "n" marks "nan" and "inf"
        if set(map(type, obj)) == {float}:
            text = ("," + inner).join(map(float.__repr__, obj))
            if "n" not in text:
                out.append(text + newline + "]")
                return
        for i, item in enumerate(obj):
            if i:
                out.append("," + inner)
            _emit_json(item, out, inner)
        out.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        out.append("{" + inner)
        items = sorted({str(k): v for k, v in obj.items()}.items())
        for i, (key, value) in enumerate(items):
            if i:
                out.append("," + inner)
            out.append(_json_string(key) + ": ")
            _emit_json(value, out, inner)
        out.append(newline + "}")
    else:
        raise TypeError("Object of type %s is not JSON serializable"
                        % type(obj).__name__)



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
    ``threads=None`` means one simulation thread.  ConfigInvalid, before
    any analysis, means a negative seed or fewer than one thread (both
    checked before the output directory is created) or an output directory
    that cannot be created.
    """
    start = time.time()
    run_seed = scenario.seed if seed is None else int(seed)
    threads = 1 if threads is None else int(threads)
    if run_seed < 0 or threads < 1:
        raise ConfigInvalid("seed must be >= 0 and threads >= 1; got seed %d,"
                            " threads %d" % (run_seed, threads))
    out = Path(out_dir or scenario.output or ("runs/" + scenario.name))
    _make_dir(out)
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
    (out / "report.json").write_text(_json_text(report) + "\n")
    return report


# ---------------------------------------------------------------------------
# plot data extraction


def emit_plotdata(report_source, out_dir=None):
    """Write per-figure CSV tables from a report; returns written paths.

    An empty report (no analyses) writes nothing and warns on stderr.
    ConfigInvalid names a report that cannot be read or an output
    directory that cannot be created.
    """
    if isinstance(report_source, dict):
        report = report_source
        base = Path(out_dir or ".")
    else:
        path = Path(report_source)
        report = _read_json(path, "report")
        base = Path(out_dir or path.parent)
    analyses = report.get("analyses", {})
    if not analyses:
        print("warning: report contains no analyses; nothing to plot",
              file=sys.stderr)
        return []

    _make_dir(base)
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
            report = run(validate(args.scenario), out_dir=args.out,
                         seed=args.seed, threads=args.threads)
        except ConfigInvalid as err:
            print("invalid: %s" % err, file=sys.stderr)
            return 2
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
        except ConfigInvalid as err:
            print("invalid: %s" % err, file=sys.stderr)
            return 2
        for path in written:
            print(path)
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())

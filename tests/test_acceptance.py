"""End-to-end acceptance gates, one test per verified property bundle.

Each test prints a single ACCEPTANCE PASS/FAIL line with the measured
value next to its tolerance (visible with ``pytest -s``; under ``-v`` the
per-test outcome itself is the gate record) and then asserts. Tolerances
here are the published contract of the package; tightening them is fine,
loosening them is a release decision.
"""

import json
import time

import numpy as np
import pytest

from comovkit.chart import ComovingChart, boost_to_rest_frame, forward_map, jacobian
from comovkit.cli import run as cli_run
from comovkit.cli import validate as cli_validate
from comovkit.constants import PhysicalConstants
from comovkit.diffusion import (
    BinSpec,
    DiffusionConfig,
    backward_drift_estimate,
    combine_drift_estimates,
    drift_from_fields,
    forward_drift_estimate,
    simulate,
    specular_reverse,
    variance_report,
)
from comovkit.dynamics import (
    comoving_kg_residual,
    four_current,
    kg_residual,
    nonrel_limit_study,
)
from comovkit.estimators import energy_report, osmotic_identity_report, slice_density
from comovkit.fields import Box, four_velocity_contravariant, make_plane_wave
from comovkit.geometry import (
    MetricPatch,
    flatness_report,
    geometry_diagnostics,
    ricci_scalar,
    unit_sphere_patch,
)


def record(label, ok, detail):
    print("ACCEPTANCE %-28s %s  %s" % (label, "PASS" if ok else "FAIL", detail))
    assert ok, "%s: %s" % (label, detail)


# ---------------------------------------------------------------------------
# shared heavy fixtures


# the conftest packet pairs every side mode with its exact opposite, so the
# origin slice degenerates to a flat hyperplane (S = 0 on it identically);
# breaking the pair symmetry in the last two modes makes the embedded slices
# honestly curved in inertial coordinates, so block structure and intrinsic
# flatness are verified on a non-trivial instance
ASYMMETRIC_9MODE = np.array([
    [0.0, 0.0, 0.0],
    [0.05, 0.0, 0.0],
    [-0.05, 0.0, 0.0],
    [0.0, 0.05, 0.0],
    [0.0, -0.05, 0.0],
    [0.0, 0.0, 0.05],
    [0.0, 0.0, -0.05],
    [0.05, 0.05, 0.0],
    [-0.05, 0.0, -0.05],
])
ASYMMETRIC_WEIGHTS = np.array([2.0, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.15, 0.15])


@pytest.fixture(scope="module")
def packet_geometry(constants):
    """Metric blocks and curvature of a packet chart on the 5^3 lattice."""
    from comovkit.fields import make_packet

    box = Box((-4.0,) * 4, (4.0,) * 4)
    bundle = make_packet(ASYMMETRIC_9MODE, ASYMMETRIC_WEIGHTS, box, constants)
    chart = ComovingChart(bundle, origin=np.zeros(4))
    start = time.time()
    diag = geometry_diagnostics(chart, half_width=1.0, n_per_axis=5)
    diag["elapsed_s"] = time.time() - start
    return diag


class GaussianTarget:
    """Unit-variance gaussian invariant density with analytic derivatives."""

    sigma = 1.0
    box = Box((-4.0, -4.0, -4.0), (4.0, 4.0, 4.0))

    def density(self, q):
        q = np.asarray(q, dtype=float)
        return np.exp(-0.5 * np.sum(q * q, axis=-1) / self.sigma ** 2) \
            / (2.0 * np.pi * self.sigma ** 2) ** 1.5

    def weight(self, q):
        # unnormalized density for rejection sampling, sup = 1
        q = np.asarray(q, dtype=float)
        return np.exp(-0.5 * np.sum(q * q, axis=-1) / self.sigma ** 2)

    def grad_log_density(self, q):
        return -np.asarray(q, dtype=float) / self.sigma ** 2

    def osmotic(self, nu):
        return lambda q: 0.5 * nu * self.grad_log_density(q)


@pytest.fixture(scope="module")
def stationary_run(constants):
    """Full-scale stationary ensemble: 1e5 paths, dt 1e-3, horizon 10."""
    target = GaussianTarget()
    patch = MetricPatch.euclidean()
    config = DiffusionConfig(
        dt=1e-3,
        horizon=10.0,
        n_paths=100_000,
        master_seed=20260816,
        nu=constants.nu,
        initial=("density", target.weight, target.box, 1.0),
        burn_in_fraction=0.2,
        n_snapshots=24,
        chunk_size=16384,
        n_threads=4,
    )
    drift = drift_from_fields(target.osmotic(constants.nu), patch, constants.nu)
    start = time.time()
    ensemble = simulate(drift, patch, config)
    elapsed = time.time() - start
    bins = BinSpec((-2.4, -2.4, -2.4), (2.4, 2.4, 2.4), (6, 6, 6))
    return {
        "target": target,
        "patch": patch,
        "ensemble": ensemble,
        "bins": bins,
        "elapsed_s": elapsed,
    }


def pooled_z(diff, se, usable):
    """Largest per-component |inverse-variance pooled mean| / pooled SE."""
    w = 1.0 / se[usable] ** 2
    pooled = np.sum(w * diff[usable], axis=0) / np.sum(w, axis=0)
    pooled_se = 1.0 / np.sqrt(np.sum(w, axis=0))
    return float(np.max(np.abs(pooled) / pooled_se))


# ---------------------------------------------------------------------------
# 1. chart equals closed-form Lorentz boost for plane waves


def test_01_boost_chart_equivalence(constants):
    c = constants.c
    start = time.time()
    rng = np.random.default_rng(101)
    worst_phi = 0.0
    worst_push = 0.0
    for beta in (0.0, 0.3, 0.6, 0.9):
        v = beta * c
        gamma = 1.0 / np.sqrt(1.0 - beta ** 2)
        k = gamma * constants.mass * v / constants.hbar
        bundle = make_plane_wave([k, 0.0, 0.0], constants)
        chart = ComovingChart(bundle, origin=np.zeros(4))
        lam = boost_to_rest_frame([v, 0.0, 0.0], c=c)
        vel = four_velocity_contravariant(bundle)
        pts = rng.uniform(-2.0, 2.0, size=(100, 4))
        for x in pts:
            xi = forward_map(chart, x)
            worst_phi = max(worst_phi, float(np.max(np.abs(xi - lam @ x))))
        for x in pts[:25]:
            push = jacobian(chart, x) @ vel(x)
            worst_push = max(worst_push, float(np.max(np.abs(push[1:]))))
    elapsed = time.time() - start
    record(
        "boost_chart_equivalence",
        worst_phi < 1e-6 and worst_push < 1e-6 * c and elapsed < 10.0,
        "max|Phi - Lambda x|=%.3e (tol 1e-6), max|push spatial|=%.3e "
        "(tol 1e-6 c), %.1fs (budget 10s)" % (worst_phi, worst_push, elapsed),
    )


# ---------------------------------------------------------------------------
# 2. comoving metric is block diagonal with g00 = -1


def test_02_metric_block_structure(packet_geometry):
    g0i = packet_geometry["max_abs_g0i"]
    g00 = packet_geometry["max_abs_g00_deviation"]
    elapsed = packet_geometry["elapsed_s"]
    record(
        "metric_block_structure",
        g0i < 1e-4 and g00 < 1e-4 and elapsed < 120.0,
        "max|g_0i|=%.3e, max|g_00+1|=%.3e (tol 1e-4), %.1fs (budget 120s)"
        % (g0i, g00, elapsed),
    )


# ---------------------------------------------------------------------------
# 3. comoving slices are intrinsically flat; curved control must fail


def test_03_intrinsic_flatness(packet_geometry):
    start = time.time()
    packet_max = packet_geometry["flatness"]["max_riemann"]

    sphere = unit_sphere_patch()
    probes = np.array([
        [1.1, 0.3, 0.0],
        [1.7, -0.4, 0.5],
        [0.9, 1.0, -0.3],
        [2.1, 0.2, 0.1],
    ])
    scalars = [ricci_scalar(sphere, q) for q in probes]
    sphere_gate = flatness_report(sphere, probes)
    scalar_dev = float(np.max(np.abs(np.asarray(scalars) - 2.0)))
    elapsed = time.time() - start + packet_geometry["elapsed_s"]
    record(
        "intrinsic_flatness",
        packet_max < 1e-3
        and scalar_dev < 1e-3
        and not sphere_gate["flat"]
        and elapsed < 60.0,
        "packet max|R|=%.3e (tol 1e-3), sphere R=2%+.1e (tol 1e-3), "
        "sphere gate flat=%s (must be False), %.1fs (budget 60s)"
        % (packet_max, scalar_dev, sphere_gate["flat"], elapsed),
    )


# ---------------------------------------------------------------------------
# 4. stationary kinematics of the gaussian fixture


def test_04_stationary_kinematics(stationary_run, constants):
    start = time.time()
    run = stationary_run
    ensemble, bins = run["ensemble"], run["bins"]
    target = run["target"]

    var = variance_report(ensemble)
    z_var = float(np.max(
        np.abs(var["variance"][-1] - target.sigma ** 2) / var["se"][-1]
    ))

    osmotic = osmotic_identity_report(
        ensemble, bins, run["patch"], constants.nu, min_count=500, z=3.0,
        grad_log_density=target.grad_log_density,
    )

    fwd = forward_drift_estimate(ensemble, bins, min_count=500)
    bwd = backward_drift_estimate(ensemble, bins, min_count=500)
    anti_mean, anti_se, anti_valid = combine_drift_estimates(fwd, bwd, 1.0, 1.0)
    usable = anti_valid & (np.minimum(fwd.count, bwd.count) >= 500) \
        & np.all(np.isfinite(anti_se), axis=-1)
    z_anti = pooled_z(anti_mean, anti_se, usable)

    elapsed = run["elapsed_s"] + (time.time() - start)
    record(
        "stationary_kinematics",
        z_var <= 3.0 and osmotic["fraction"] >= 0.95 and z_anti <= 3.0
        and elapsed < 300.0,
        "variance z=%.2f (<=3), osmotic fraction=%.3f over %d bins (>=0.95), "
        "drift antisymmetry pooled z=%.2f (<=3), %.0fs (budget 300s)"
        % (z_var, osmotic["fraction"], osmotic["n_bins"], z_anti, elapsed),
    )


# ---------------------------------------------------------------------------
# 5. specular reversal: exact involution, forward drift +u


def test_05_specular_reversal(stationary_run, constants):
    run = stationary_run
    ensemble, bins = run["ensemble"], run["bins"]
    u = run["target"].osmotic(constants.nu)

    reverse = specular_reverse(ensemble)
    double = specular_reverse(reverse)
    involution = (
        np.array_equal(double.pre, ensemble.pre)
        and np.array_equal(double.post, ensemble.post)
        and np.array_equal(double.times, ensemble.times)
    )

    fwd = forward_drift_estimate(reverse, bins, min_count=500)
    usable = fwd.valid & (fwd.count >= 500) & np.all(
        np.isfinite(fwd.se), axis=-1
    )
    diff = fwd.mean - u(fwd.eval_points())
    z_pool = pooled_z(diff, fwd.se, usable)
    frac = float(np.mean(
        np.all(np.abs(diff[usable]) <= 3.0 * fwd.se[usable], axis=-1)
    ))
    record(
        "specular_reversal",
        involution and z_pool <= 3.0 and frac >= 0.95,
        "double reversal exact=%s, reversed forward drift vs +u pooled "
        "z=%.2f (<=3), per-bin fraction=%.3f (>=0.95)"
        % (involution, z_pool, frac),
    )


# ---------------------------------------------------------------------------
# 6. current modulus identity, positivity, conjugation flip


def test_06_current_identities(constants, boost_wave, packet9):
    rest_wave = make_plane_wave([0.0, 0.0, 0.0], constants)
    # (bundle, sample half-width, relative modulus budget)
    fixtures = [
        ("rest_wave", rest_wave, 2.0, 1e-12),
        ("boost_wave", boost_wave, 2.0, 1e-12),
        ("packet9", packet9, 3.0, 2e-3),
    ]
    rng = np.random.default_rng(66)
    worst = {}
    ok = True
    for name, bundle, half, budget in fixtures:
        pts = rng.uniform(-half, half, size=(50, 4))
        conj = bundle.conjugate()
        mod_max = 0.0
        j0_min = np.inf
        flips = True
        for x in pts:
            fwdc = four_current(bundle, x, budget=budget / 10.0)
            revc = four_current(conj, x, budget=budget / 10.0)
            mod_max = max(mod_max, fwdc.modulus_residual)
            j0_min = min(j0_min, fwdc.j[0])
            flips &= (fwdc.classification == "one_particle"
                      and revc.classification == "specular")
        worst[name] = (mod_max, j0_min, flips)
        ok &= mod_max < budget and j0_min > 0.0 and flips
    detail = "; ".join(
        "%s: |JJ+(mcp)^2|/(mcp)^2=%.2e, min J0=%.3f, conj flips=%s"
        % (name, w[0], w[1], w[2]) for name, w in worst.items()
    )
    record("current_identities", ok, detail)


# ---------------------------------------------------------------------------
# 7. energy two-route identity; plane wave pins -mc^2/2


def test_07_energy_two_route(constants, boost_wave, boost_chart):
    target = GaussianTarget()
    rest = constants.mass * constants.c ** 2
    box = Box((-7.0, -7.0, -7.0), (7.0, 7.0, 7.0))
    rep = energy_report(
        target.density, MetricPatch.euclidean(), constants, box,
        grad_log_density=target.grad_log_density, order=32,
    )
    gauss_delta = abs(rep.mu_direct - rep.mu_identity)

    density = slice_density(boost_wave, boost_chart)
    patch = MetricPatch.from_chart(boost_chart)
    small = Box((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5))
    wave = energy_report(density, patch, constants, small, order=4,
                         time_order=4, delta=0.5)
    wave_delta = abs(wave.mu_direct - wave.mu_identity)
    rest_dev = abs(wave.mu_direct + 0.5 * rest)
    record(
        "energy_two_route",
        gauss_delta < 1e-6 * rest and wave_delta < 1e-6 * rest
        and rest_dev < 1e-6 * rest,
        "gaussian |mu_d-mu_i|=%.2e, plane wave |mu_d-mu_i|=%.2e, "
        "|mu+mc^2/2|=%.2e (all tol 1e-6 mc^2)"
        % (gauss_delta, wave_delta, rest_dev),
    )


# ---------------------------------------------------------------------------
# 8. wave-equation residuals agree across coordinate systems


def test_08_kg_coordinate_invariance(packet9, packet9_chart, boost_wave,
                                     boost_chart):
    rng = np.random.default_rng(88)
    xi_pts = np.column_stack([
        rng.uniform(-0.5, 0.5, 50),
        rng.uniform(-1.0, 1.0, (50, 3)),
    ])
    res_in = kg_residual(packet9, packet9_chart.inverse_map(xi_pts))
    res_com = comoving_kg_residual(packet9, packet9_chart, xi_pts)
    worst_in = float(np.max(res_in))
    worst_gap = float(np.max(np.abs(res_com - res_in)))

    plane_in = kg_residual(boost_wave, np.array([0.3, -0.2, 0.1, 0.4]))
    plane_com = comoving_kg_residual(
        boost_wave, boost_chart, np.array([0.2, 0.1, -0.3, 0.2])
    )
    record(
        "kg_coordinate_invariance",
        worst_gap < 2e-4 and worst_in < 1e-10
        and plane_in < 1e-12 and plane_com < 1e-4,
        "50 pairs: max|res_com - res_in|=%.2e (budget 2e-4, stencil h^2), "
        "max inertial=%.1e; plane wave inertial=%.1e (tol 1e-12), "
        "comoving=%.2e (tol 1e-4)"
        % (worst_gap, worst_in, plane_in, plane_com),
    )


# ---------------------------------------------------------------------------
# 9. Schrodinger limit: quadratic convergence, monotone dropped terms


def test_09_nonrelativistic_limit(constants):
    start = time.time()
    study = nonrel_limit_study((0.1, 0.05, 0.025, 0.0125), constants,
                               n_per_axis=3)
    elapsed = time.time() - start
    rows = study["rows"]
    spatial = [r["spatial_dropped"] for r in rows]
    temporal = [r["temporal_dropped"] for r in rows]
    mono = all(a > b for a, b in zip(spatial, spatial[1:])) and \
        all(a > b for a, b in zip(temporal, temporal[1:]))
    record(
        "nonrelativistic_limit",
        abs(study["slope"] - 2.0) <= 0.3 and mono and elapsed < 300.0,
        "log-log slope=%.3f (2 +- 0.3), dropped-term columns monotone=%s, "
        "%.1fs (budget 300s)" % (study["slope"], mono, elapsed),
    )


# ---------------------------------------------------------------------------
# 10. byte-identical data files across seeds and thread counts


def test_10_determinism(tmp_path):
    doc = {
        "name": "determinism-gate",
        "seed": 424242,
        "constants": {"hbar": 1.0, "mass": 1.0, "c": 1.0},
        "field": {
            "type": "gaussian",
            "sigma": 1.0,
            "box": {"lo": [-4.0, -4.0, -4.0], "hi": [4.0, 4.0, 4.0]},
        },
        "diffusion": {
            "dt": 0.002,
            "horizon": 1.0,
            "n_paths": 20000,
            "chunk_size": 2048,
            "initial": {"kind": "density"},
            "bins": {
                "lo": [-2.0, -2.0, -2.0],
                "hi": [2.0, 2.0, 2.0],
                "shape": [4, 4, 4],
            },
        },
        "analyses": ["simulate", "estimate"],
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    scenario = cli_validate(str(path))
    rep1 = cli_run(scenario, out_dir=tmp_path / "t1", threads=1)
    rep8 = cli_run(scenario, out_dir=tmp_path / "t8", threads=8)
    assert rep1["data_files"].keys() == rep8["data_files"].keys()
    identical = True
    for key, entry in rep1["data_files"].items():
        a = (tmp_path / "t1" / entry["path"]).read_bytes()
        b = (tmp_path / "t8" / rep8["data_files"][key]["path"]).read_bytes()
        identical &= a == b
    record(
        "determinism",
        identical and len(rep1["data_files"]) >= 5,
        "%d data files byte-identical at 1 vs 8 threads=%s"
        % (len(rep1["data_files"]), identical),
    )

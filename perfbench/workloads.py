"""The three benchmark workloads: inputs from a seed, timed operations, checks.

Each workload builds its inputs in ``__init__`` (set-up), performs one
round of program calls in ``operate`` (the timed section), turns the raw
results into plain arrays in ``collect`` and compares them in ``check``
against computations made here, apart from the program, or against
properties the method must have. ``check`` takes only what ``collect``
returns, so ``perturb.py`` can feed it perturbed answers.

Statistical checks use standard errors from path batches and a z limit of
``Z_LIMIT``; ``seedsweep.py`` shows they pass on seeds other than the
benchmark's own.
"""

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from comovkit import chart, cli, diffusion, estimators, fields, geometry
from comovkit.constants import PhysicalConstants

N_BATCHES = 32
Z_LIMIT = 5.0


def worker_threads():
    """Simulation threads: two chunks' worth, never more than the CPUs."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def _check(name, value, limit):
    """A check passes when the deviation ``value`` stays within ``limit``."""
    value = float(value)
    return {"check": name, "ok": bool(value <= limit), "value": value,
            "limit": float(limit)}


def _batches(n_paths):
    """Contiguous path batches, as the program's estimators form them."""
    return np.array_split(np.arange(n_paths), N_BATCHES)


def _batch_z(stat, target, *arrays):
    """Largest |stat(all) - target| / SE over components; SE from batches.

    ``arrays`` are indexed by path along their first axis.
    """
    overall = np.asarray(stat(*arrays), dtype=float)
    per_batch = np.stack([stat(*(x[b] for x in arrays))
                          for b in _batches(len(arrays[0]))])
    se = per_batch.std(axis=0, ddof=1) / np.sqrt(N_BATCHES)
    return float(np.max(np.abs(overall - target) / se))


def _failed_rows(report):
    return sum(not row["pass"] for row in report["properties"]) \
        + (report["error"] is not None)


def _rest_frame_boost(k, constants):
    """Lorentz boost into the rest frame of the plane wave with wavevector k.

    Computed here from the dispersion relation, apart from the package's
    own ``boost_to_rest_frame``.
    """
    k = np.asarray(k, dtype=float)
    omega = constants.c * np.sqrt(k @ k + constants.compton_wavenumber ** 2)
    beta = constants.c * k / omega
    b2 = float(beta @ beta)
    gamma = 1.0 / np.sqrt(1.0 - b2)
    boost = np.empty((4, 4))
    boost[0, 0] = gamma
    boost[0, 1:] = boost[1:, 0] = -gamma * beta
    boost[1:, 1:] = np.eye(3) + (gamma - 1.0) * np.outer(beta, beta) / b2
    return boost


# ---------------------------------------------------------------------------
# packet_chart


# carrier at rest plus eight side modes at bandwidth 0.05, as in the shipped
# packet_9mode scenario; the seed rotates the side modes, shrinks each by up
# to 20 % and jitters the side weights by up to 10 %
_SIDE_MODES = 0.05 * np.array([
    [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
    [0, 0, 1], [0, 0, -1], [1, 1, 0], [-1, 0, -1],
], dtype=float)
_SIDE_WEIGHTS = np.array([0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.15, 0.15])
_CHART = {"origin": [0.0, 0.0, 0.0, 0.0], "round_trip_tol": 1e-6,
          "pushforward_tol": 1e-6, "boost_tol": 1e-5}
N_MAP_POINTS = 4
N_LATTICE = 4096
PHASE_STEP = 1e-3
PHASE_RATE_TOL = 1e-5
ROUND_TRIP_TOL = 1e-6
LEAF_TOL = 1e-7
BOOST_TOL = 1e-6
BLOCK_TOL = 1e-4


def _rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    return q * np.linalg.det(q)


class PacketChart:
    name = "packet_chart"

    def __init__(self, seed, out_dir, root):
        rng = np.random.default_rng([seed, 1])
        self.out = Path(out_dir)
        self.constants = PhysicalConstants()
        side = _SIDE_MODES @ _rotation(rng).T
        side *= rng.uniform(0.8, 1.0, size=(len(side), 1))
        self.wavevectors = np.vstack([np.zeros(3), side])
        self.weights = np.concatenate(
            [[2.0], _SIDE_WEIGHTS * rng.uniform(0.9, 1.1, size=8)])
        self.domain = ((-4.0,) * 4, (4.0,) * 4)
        packet = {
            "name": "bench_packet",
            "seed": int(rng.integers(2 ** 31)),
            "constants": {"hbar": 1.0, "mass": 1.0, "c": 1.0},
            "field": {
                "type": "packet",
                "wavevectors": self.wavevectors.tolist(),
                "weights": self.weights.tolist(),
                "domain": {"lo": list(self.domain[0]),
                           "hi": list(self.domain[1])},
            },
            "chart": dict(_CHART),
            "lattices": {
                "verification": {"half_width": 1.0, "n_per_axis": 5,
                                 "xi0": 0.0},
                "hypothesis_shape": [7, 7, 7, 7],
            },
            "classify": {"budget": 2e-4, "divergence_budget": 1e-6,
                         "n_points": 16, "half_width": 2.0},
            "analyses": ["hypotheses", "chart_diag", "geometry_diag",
                         "classify"],
        }
        direction = rng.standard_normal(3)
        self.k = 0.75 * rng.uniform(0.9, 1.1) * direction / np.linalg.norm(
            direction)
        wave = {
            "name": "bench_plane_wave",
            "seed": int(rng.integers(2 ** 31)),
            "constants": {"hbar": 1.0, "mass": 1.0, "c": 1.0},
            "field": {"type": "plane_wave", "k": self.k.tolist()},
            "chart": dict(_CHART),
            "classify": {"budget": 1e-9, "divergence_budget": 1e-6,
                         "n_points": 16, "half_width": 2.0},
            "energy": {"box": {"lo": [-0.5] * 3, "hi": [0.5] * 3},
                       "order": 4, "time_order": 4, "delta": 0.5},
            "analyses": ["hypotheses", "chart_diag", "classify", "energy"],
        }
        # the shipped negative control with the chart analysis added: the
        # hypotheses fail, so chart_diag must end the run with a typed error
        # and a partial report; it does not depend on the seed
        near = json.loads(
            (Path(root) / "scenarios" / "near_standing_wave.json").read_text())
        near["analyses"].append("chart_diag")
        near["chart"] = {"origin": [0.0, 0.0, 0.0, 0.0]}
        self.scenarios = {
            "packet": cli.validate(packet),
            "plane_wave": cli.validate(wave),
            "near_standing_wave": cli.validate(near),
        }
        self.map_points = rng.uniform(-1.4, 1.4, size=(N_MAP_POINTS, 4))
        self.wave_points = rng.uniform(-2.0, 2.0, size=(N_MAP_POINTS, 4))
        self.lattice = rng.uniform(-3.5, 3.5, size=(N_LATTICE, 4))
        self.bundle = None

    def operate(self):
        reports = {}
        for key in ("packet", "plane_wave"):
            reports[key] = cli.run(self.scenarios[key],
                                   out_dir=self.out / key)
        near_dir = self.out / "near_standing_wave"
        try:
            near = cli.run(self.scenarios["near_standing_wave"],
                           out_dir=near_dir)
            near_ok = (near["error"] is not None
                       and near["error"]["analysis"] == "chart_diag"
                       and (near_dir / "report.json").is_file())
        except Exception:  # noqa: BLE001 - the kept failing operation
            near_ok = False

        origin = np.zeros(4)
        wave_chart = chart.ComovingChart(
            fields.make_plane_wave(self.k, self.constants), origin=origin)
        wave_xi = np.stack([wave_chart.forward_map(x)
                            for x in self.wave_points])
        self.bundle = fields.make_packet(
            self.wavevectors, self.weights, fields.Box(*self.domain),
            self.constants)
        packet_chart = chart.ComovingChart(self.bundle, origin=origin)
        xi = np.stack([packet_chart.forward_map(x) for x in self.map_points])
        back = np.stack([packet_chart.inverse_map(v) for v in xi])
        leaf = np.stack([
            packet_chart.inverse_map(np.array([v[0], 0.0, 0.0, 0.0]))
            for v in xi])
        # batched phase: its time derivative must match the analytic gradient
        step = np.array([PHASE_STEP, 0.0, 0.0, 0.0])
        phase_rate = (self.bundle.phase(self.lattice + step)
                      - self.bundle.phase(self.lattice - step)) \
            / (2.0 * PHASE_STEP)
        return {
            "reports": reports,
            "wave_xi": wave_xi,
            "back": back,
            "leaf": leaf,
            "phase_rate": phase_rate,
            "phase_gradient": self.bundle.phase_gradient(self.lattice),
            "attempted": 6 + 4 * N_MAP_POINTS,
            "failed": 0 if near_ok else 1,
            "ensemble_bytes": 0,
        }

    def collect(self, raw):
        geo = raw["reports"]["packet"]["analyses"]["geometry_diag"]
        return {
            "packet_failed_rows": _failed_rows(raw["reports"]["packet"]),
            "wave_failed_rows": _failed_rows(raw["reports"]["plane_wave"]),
            "metric_components": np.asarray(geo["metric_components"]),
            "max_riemann": geo["flatness"]["max_riemann"],
            "riemann_budget": geo["flatness"]["budget"],
            "wave_xi": raw["wave_xi"],
            "back": raw["back"],
            "leaf": raw["leaf"],
            "phase_rate": raw["phase_rate"],
            "phase_gradient": raw["phase_gradient"],
        }

    def check(self, out):
        g = out["metric_components"]
        boost = _rest_frame_boost(self.k, self.constants)
        s_points = self.bundle.phase(self.map_points)
        s_leaf = self.bundle.phase(out["leaf"])
        return [
            _check("packet.report_properties_failed",
                   out["packet_failed_rows"], 0),
            _check("plane_wave.report_properties_failed",
                   out["wave_failed_rows"], 0),
            _check("packet.g00_deviation",
                   np.max(np.abs(g[:, 0, 0] + 1.0)), BLOCK_TOL),
            _check("packet.g0i_max", np.max(np.abs(g[:, 0, 1:])), BLOCK_TOL),
            _check("packet.riemann_over_budget",
                   out["max_riemann"] / out["riemann_budget"], 1.0),
            _check("packet.round_trip_max",
                   np.max(np.abs(out["back"] - self.map_points)),
                   ROUND_TRIP_TOL),
            _check("packet.leaf_phase_max",
                   np.max(np.abs(s_leaf - s_points)), LEAF_TOL),
            _check("packet.phase_rate_deviation_max",
                   np.max(np.abs(out["phase_rate"]
                                 - out["phase_gradient"][:, 0]))
                   / (self.constants.mass * self.constants.c ** 2),
                   PHASE_RATE_TOL),
            _check("plane_wave.boost_deviation_max",
                   np.max(np.abs(out["wave_xi"] - self.wave_points @ boost.T)),
                   BOOST_TOL),
        ]


# ---------------------------------------------------------------------------
# flat_ensemble


# the shipped gaussian_stationary scenario at a third of the paths and a
# fifth of the steps (dt doubled), two 16384-path chunks; the seed sets the
# width sigma within 10 % of 1 and the scenario seed
N_FLAT_PATHS = 32768
FLAT_DT = 0.002
FLAT_HORIZON = 4.0
ENERGY_TOL = 1e-6


def _gaussian_scenario(name, seed, sigma, n_paths, chunk, dt, horizon,
                       analyses):
    lo, hi = [-4.0 * sigma] * 3, [4.0 * sigma] * 3
    return {
        "name": name,
        "seed": seed,
        "constants": {"hbar": 1.0, "mass": 1.0, "c": 1.0},
        "field": {"type": "gaussian", "sigma": sigma,
                  "box": {"lo": lo, "hi": hi}},
        "diffusion": {
            "dt": dt, "horizon": horizon, "n_paths": n_paths,
            "burn_in_fraction": 0.2, "n_snapshots": 24, "chunk_size": chunk,
            "initial": {"kind": "density"},
            "bins": {"lo": [-2.4 * sigma] * 3, "hi": [2.4 * sigma] * 3,
                     "shape": [6, 6, 6]},
            "min_count": 500,
        },
        "energy": {"box": {"lo": [-7.0 * sigma] * 3,
                           "hi": [7.0 * sigma] * 3},
                   "order": 32, "time_order": 16, "delta": 1.0},
        "analyses": analyses,
    }


def _slope(anchor, values):
    """Per-axis least-squares slope of values on anchor over paths, times."""
    a = anchor.reshape(-1, 3)
    v = values.reshape(-1, 3)
    a = a - a.mean(axis=0)
    return np.sum(a * (v - v.mean(axis=0)), axis=0) / np.sum(a * a, axis=0)


class FlatEnsemble:
    name = "flat_ensemble"

    def __init__(self, seed, out_dir, root):
        rng = np.random.default_rng([seed, 2])
        self.out = Path(out_dir)
        self.constants = PhysicalConstants()
        self.sigma = float(rng.uniform(0.9, 1.1))
        self.threads = worker_threads()
        self.scenario = cli.validate(_gaussian_scenario(
            "bench_gaussian", int(rng.integers(2 ** 31)), self.sigma,
            N_FLAT_PATHS, 16384, FLAT_DT, FLAT_HORIZON,
            ["simulate", "estimate", "specular", "energy"]))
        self.small = cli.validate(_gaussian_scenario(
            "bench_gaussian_small", int(rng.integers(2 ** 31)), self.sigma,
            2048, 1024, FLAT_DT, 0.2, ["simulate"]))

    def operate(self):
        report = cli.run(self.scenario, out_dir=self.out / "gaussian",
                         threads=self.threads)
        sim = report["analyses"]["simulate"]
        return {"report": report, "attempted": 1, "failed": 0,
                "ensemble_bytes": 2 * 3 * 8 * sim["n_paths"]
                * sim["n_snapshots"]}

    def collect(self, raw):
        rows = {r["name"]: r for r in raw["report"]["properties"]}
        energy = raw["report"]["analyses"]["energy"]
        base = self.out / "gaussian"
        return {
            "exact_rows_failed": sum(
                not rows[n]["pass"]
                for n in ("involution_exact", "energy_route_delta")),
            "error": raw["report"]["error"] is not None,
            "pre": np.load(base / "paths_pre.npy"),
            "post": np.load(base / "paths_post.npy"),
            "mu_direct": energy["mu_direct"],
            "mu_identity": energy["mu_identity"],
        }

    def check(self, out):
        nu = self.constants.nu
        a = nu / (2.0 * self.sigma ** 2)
        pre, post = out["pre"], out["post"]
        rate = (post - pre) / FLAT_DT
        fwd = _batch_z(_slope, -a, pre, rate)
        bwd = _batch_z(_slope, a, post, rate)
        var = _batch_z(lambda r: r.var(axis=0, ddof=1), self.sigma ** 2,
                       post[:, -1])
        m, c2 = self.constants.mass, self.constants.c ** 2
        mu = -0.5 * m * c2 + 0.5 * m * 0.75 * nu ** 2 / self.sigma ** 2
        return [
            _check("gaussian.report_error", out["error"], 0),
            _check("gaussian.exact_rows_failed", out["exact_rows_failed"], 0),
            _check("gaussian.final_variance_z", var, Z_LIMIT),
            _check("gaussian.forward_slope_z", fwd, Z_LIMIT),
            _check("gaussian.backward_slope_z", bwd, Z_LIMIT),
            _check("gaussian.energy_direct_error",
                   abs(out["mu_direct"] - mu), ENERGY_TOL * m * c2),
            _check("gaussian.energy_identity_error",
                   abs(out["mu_identity"] - mu), ENERGY_TOL * m * c2),
        ]

    def determinism(self):
        """Digests of the data files written at one thread and at every CPU."""
        digests = []
        for threads in (1, len(os.sched_getaffinity(0))):
            out = self.out / ("determinism_%d" % threads)
            report = cli.run(self.small, out_dir=out, threads=threads)
            digests.append({
                name: hashlib.sha256(
                    (out / meta["path"]).read_bytes()).hexdigest()
                for name, meta in report["data_files"].items()})
        return digests

    @staticmethod
    def check_determinism(digests):
        one, many = digests
        differing = len(set(one) ^ set(many)) + sum(
            one[name] != many[name] for name in set(one) & set(many))
        return _check("gaussian.determinism_files_differing", differing, 0)


# ---------------------------------------------------------------------------
# curved_ensemble


# flat space in sheared coordinates x = (q1 + a sin q2, q2, q3): the metric
# is regular everywhere with unit volume factor, and the stationary density
# is the Euclidean gaussian of width s pulled back; the seed sets a in
# [0.6, 0.9], s within 10 % of 1 and the noise seed
N_CURVED_PATHS = 2048
CURVED_STEPS = 24
CURVED_DT = 0.05
OSMOTIC_Z = 4.0
OSMOTIC_MIN_FRACTION = 0.9
ENERGY_ORDER = 24
E_U2_RTOL = 1e-5


class ShearedGaussian:
    """Metric, density and velocities of the sheared-coordinate fixture."""

    def __init__(self, shear, width, nu):
        self.a = shear
        self.s = width
        self.nu = nu

    def to_cartesian(self, q):
        x = np.array(q, dtype=float)
        x[..., 0] += self.a * np.sin(q[..., 1])
        return x

    def sigma(self, q):
        c = self.a * np.cos(q[1])
        return np.array([[1.0, c, 0.0], [c, 1.0 + c * c, 0.0],
                         [0.0, 0.0, 1.0]])

    def sigma_gradient(self, q):
        d = np.zeros((3, 3, 3))
        c, dc = self.a * np.cos(q[1]), -self.a * np.sin(q[1])
        d[1, 0, 1] = d[1, 1, 0] = dc
        d[1, 1, 1] = 2.0 * c * dc
        return d

    def weight(self, q):
        x = self.to_cartesian(np.asarray(q, dtype=float))
        return np.exp(-0.5 * np.sum(x * x, axis=-1) / self.s ** 2)

    def density(self, q):
        return self.weight(q) / (2.0 * np.pi * self.s ** 2) ** 1.5

    def grad_log_density(self, q):
        """d/dq ln rho = -J^T x / s^2 with J = dx/dq."""
        q = np.atleast_2d(np.asarray(q, dtype=float))
        x = self.to_cartesian(q)
        return -np.stack([x[:, 0],
                          self.a * np.cos(q[:, 1]) * x[:, 0] + x[:, 1],
                          x[:, 2]], axis=-1) / self.s ** 2

    def osmotic(self, q):
        """u = (nu/2) sigma^-1 grad ln rho = -(nu / 2 s^2) J^-1 x."""
        q = np.atleast_2d(np.asarray(q, dtype=float))
        x = self.to_cartesian(q)
        return -0.5 * self.nu / self.s ** 2 * np.stack(
            [x[:, 0] - self.a * np.cos(q[:, 1]) * x[:, 1], x[:, 1], x[:, 2]],
            axis=-1)

    def box(self, half):
        return fields.Box((-half - self.a, -half, -half),
                          (half + self.a, half, half))


class CurvedEnsemble:
    name = "curved_ensemble"

    def __init__(self, seed, out_dir, root):
        rng = np.random.default_rng([seed, 3])
        self.constants = PhysicalConstants()
        nu = self.constants.nu
        self.fixture = ShearedGaussian(float(rng.uniform(0.6, 0.9)),
                                       float(rng.uniform(0.9, 1.1)), nu)
        fx = self.fixture
        self.patch = geometry.MetricPatch(
            fx.sigma, sigma_gradient=fx.sigma_gradient, name="sheared_flat")
        self.config = diffusion.DiffusionConfig(
            dt=CURVED_DT, horizon=CURVED_STEPS * CURVED_DT,
            n_paths=N_CURVED_PATHS, master_seed=int(rng.integers(2 ** 31)),
            nu=nu, initial=("density", fx.weight, fx.box(5.0 * fx.s), 1.0),
            burn_in_fraction=0.0, n_snapshots=CURVED_STEPS,
            chunk_size=N_CURVED_PATHS, n_threads=1)
        self.bins = diffusion.BinSpec((-1.5 * fx.s,) * 3, (1.5 * fx.s,) * 3,
                                      (3, 3, 3))
        self.energy_box = fx.box(7.0 * fx.s)

    def operate(self):
        fx = self.fixture
        nu = self.constants.nu
        drift = diffusion.drift_from_fields(fx.osmotic, self.patch, nu)
        ensemble = diffusion.simulate(drift, self.patch, self.config)
        osmotic = estimators.osmotic_identity_report(
            ensemble, self.bins, self.patch, nu, min_count=200, z=OSMOTIC_Z,
            grad_log_density=fx.grad_log_density)
        energy = estimators.energy_report(
            fx.density, self.patch, self.constants, self.energy_box,
            order=ENERGY_ORDER, time_order=4,
            grad_log_density=fx.grad_log_density)
        return {"ensemble": ensemble, "osmotic": osmotic, "energy": energy,
                "attempted": 3, "failed": 0,
                "ensemble_bytes": ensemble.pre.nbytes + ensemble.post.nbytes}

    def collect(self, raw):
        return {
            "final": self.fixture.to_cartesian(raw["ensemble"].final_states()),
            "osmotic_fraction": raw["osmotic"]["fraction"],
            "osmotic_bins": raw["osmotic"]["n_bins"],
            "e_u2": raw["energy"].e_u2,
            "mu_direct": raw["energy"].mu_direct,
            "mu_identity": raw["energy"].mu_identity,
        }

    def check(self, out):
        s, nu = self.fixture.s, self.constants.nu
        m, c2 = self.constants.mass, self.constants.c ** 2
        e_u2 = 0.75 * nu ** 2 / s ** 2
        mu = -0.5 * m * c2 + 0.5 * m * e_u2
        final = out["final"]
        return [
            _check("sheared.cartesian_mean_z",
                   _batch_z(lambda r: r.mean(axis=0), 0.0, final), Z_LIMIT),
            _check("sheared.cartesian_variance_z",
                   _batch_z(lambda r: r.var(axis=0, ddof=1), s * s, final),
                   Z_LIMIT),
            _check("sheared.e_u2_relative_error",
                   abs(out["e_u2"] - e_u2) / e_u2, E_U2_RTOL),
            _check("sheared.energy_direct_error",
                   abs(out["mu_direct"] - mu), ENERGY_TOL * m * c2),
            _check("sheared.energy_identity_error",
                   abs(out["mu_identity"] - mu), ENERGY_TOL * m * c2),
            _check("sheared.osmotic_identity_shortfall",
                   OSMOTIC_MIN_FRACTION - out["osmotic_fraction"], 0.0),
            _check("sheared.osmotic_bins_missing",
                   20 - out["osmotic_bins"], 0),
        ]


WORKLOADS = {w.name: w for w in (PacketChart, FlatEnsemble, CurvedEnsemble)}

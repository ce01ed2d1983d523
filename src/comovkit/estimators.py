"""Statistics and quadrature on the spatial slice.

Ensemble side: binned density with the invariant-measure weight, current
and osmotic velocities recovered from forward/backward drifts, and the
covariant continuity residual. Analytic side: tensor-product
Gauss-Legendre expectations of the squared osmotic velocity, the
two-route energy functional, and the stochastic action.

All ensemble standard errors come from per-path batches (32 by default):
increments of one path are autocorrelated in time, and forward/backward
estimates on the same ensemble share their increments, so naive pooling
is dishonest in both directions. Linear combinations are always formed
batchwise via ``combine_drift_estimates``.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .diffusion import (
    DEFAULT_BATCHES,
    _bin_totals,
    backward_drift_estimate,
    batch_mean_se,
    combine_drift_estimates,
    forward_drift_estimate,
)
from .errors import (
    ImaginaryAction,
    InsufficientSamples,
    QuadratureDivergence,
)
from .fields import central_gradient

DEFAULT_ORDER = 32


# ---------------------------------------------------------------------------
# binned fields


@dataclass
class BinnedField:
    """Scalar estimate per bin of a regular 3-d lattice."""

    bins: object
    estimate: np.ndarray
    se: np.ndarray
    count: np.ndarray
    batch_estimate: np.ndarray = None
    meta: dict = field(default_factory=dict)

    def lattice(self):
        return self.estimate.reshape(self.bins.shape)


def _bin_volume(bins):
    widths = (np.asarray(bins.hi) - np.asarray(bins.lo)) / np.asarray(
        bins.shape
    )
    return widths, float(np.prod(widths))


def _sqrt_sigma_per_bin(bins, patch):
    return patch.sqrt_det(bins.centers())


def estimate_density(ensemble, bins, patch, n_batches=DEFAULT_BATCHES):
    """Histogram density with respect to the invariant measure.

    Counts are divided by sqrt|sigma| per bin so the estimate targets the
    density rho whose expectations use the weight rho sqrt|sigma| d^3 q;
    the result is normalized to sum(rho sqrt|sigma| vol) = 1 over the
    lattice.
    """
    k = bins.n_bins
    count, bcount = _bin_totals(bins, ensemble.pre, n_batches)
    _, vol = _bin_volume(bins)
    root_sig = _sqrt_sigma_per_bin(bins, patch)

    total = int(count.sum())
    if total == 0:
        raise InsufficientSamples("no ensemble states inside the bin lattice")
    est = count / (total * vol * root_sig)

    btot = bcount.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        best = bcount / (btot * vol * root_sig)
    n_eff = np.sum(btot[:, 0] > 0)
    se = (
        best.std(axis=0, ddof=1) / np.sqrt(n_eff)
        if n_eff >= 2
        else np.full(k, np.inf)
    )
    se = np.where(count >= 2, se, np.inf)
    return BinnedField(
        bins=bins, estimate=est, se=se, count=count, batch_estimate=best,
        meta={"total_inside": total, "volume": vol},
    )


@dataclass
class VelocityEstimate:
    """Current and osmotic velocities recovered from the two drifts."""

    centers: np.ndarray
    anchor: np.ndarray
    current: np.ndarray
    current_se: np.ndarray
    osmotic: np.ndarray
    osmotic_se: np.ndarray
    valid: np.ndarray
    count: np.ndarray


def velocities_from_drifts(fwd, bwd, patch=None, nu=None):
    """Combine drift estimates into (current, osmotic) velocity fields.

    The invariant drifts differ from the coordinate drifts by the metric
    contraction term, with opposite signs for the two time directions; the
    term cancels in the current velocity and adds to the osmotic one.
    """
    cur_mean, cur_se, cur_valid = combine_drift_estimates(fwd, bwd, 0.5, 0.5)
    osm_mean, osm_se, osm_valid = combine_drift_estimates(fwd, bwd, 0.5, -0.5)
    centers = fwd.centers
    anchor = 0.5 * (fwd.eval_points() + bwd.eval_points())
    if patch is not None and not getattr(patch, "is_constant", False):
        if nu is None:
            raise ValueError("nu is required for the metric correction")
        osm_mean = osm_mean + 0.5 * nu * patch.christoffel_contraction(anchor)
    return VelocityEstimate(
        centers=centers, anchor=anchor,
        current=cur_mean, current_se=cur_se,
        osmotic=osm_mean, osmotic_se=osm_se,
        valid=cur_valid & osm_valid,
        count=np.minimum(fwd.count, bwd.count),
    )


def _lattice_gradient(values, bins):
    """Per-axis central differences on the bin lattice; 0 on singleton axes."""
    widths, _ = _bin_volume(bins)
    arr = values.reshape(bins.shape)
    grads = []
    for axis in range(3):
        if bins.shape[axis] < 2:
            grads.append(np.zeros_like(arr))
        else:
            grads.append(np.gradient(arr, widths[axis], axis=axis))
    return np.stack([g.reshape(-1) for g in grads], axis=-1)


def continuity_residual(rho_values, velocity_values, bins, patch,
                        rho_batch=None, velocity_batch=None):
    """Covariant divergence (1/sqrt|sigma|) d_i(sqrt|sigma| rho v^i) per bin.

    For a stationary ensemble the time derivative term is dropped; the
    result notes that in its meta. Batch arrays, when given, yield
    per-batch residuals and an SE across batches.
    """
    root_sig = _sqrt_sigma_per_bin(bins, patch)

    def divergence(rho, vel):
        flux = root_sig[:, None] * rho[:, None] * vel
        parts = [
            _lattice_gradient(flux[:, i], bins)[:, i] for i in range(3)
        ]
        return (parts[0] + parts[1] + parts[2]) / root_sig

    resid = divergence(np.asarray(rho_values, dtype=float),
                       np.asarray(velocity_values, dtype=float))
    bres = None
    se = np.full(bins.n_bins, np.inf)
    count = np.zeros(bins.n_bins, dtype=int)
    if rho_batch is not None and velocity_batch is not None:
        bres = np.stack([
            divergence(rho_batch[b], velocity_batch[b])
            for b in range(rho_batch.shape[0])
        ])
        _, se, count = batch_mean_se(bres)
    return BinnedField(
        bins=bins, estimate=resid, se=se, count=count, batch_estimate=bres,
        meta={"stationary": True, "time_term_dropped": True},
    )


def osmotic_identity_report(ensemble, bins, patch, nu, min_count=500,
                            z=3.0, grad_log_density=None,
                            n_batches=DEFAULT_BATCHES):
    """Fraction of well-sampled bins where binned u matches the log slope.

    Target is (nu/2) sigma^{-1} grad ln rho: from the closed form when
    ``grad_log_density`` is given, otherwise from central differences of
    the log of the per-batch density estimate (paired with the velocity
    batches so the comparison keeps an honest error bar). The forward and
    backward drift estimates it conditions on are returned under
    ``forward`` and ``backward``.
    """
    fwd = forward_drift_estimate(ensemble, bins, min_count=min_count,
                                 n_batches=n_batches)
    bwd = backward_drift_estimate(ensemble, bins, min_count=min_count,
                                  n_batches=n_batches)
    centers = fwd.centers
    anchor = 0.5 * (fwd.eval_points() + bwd.eval_points())

    def raise_index(inv, grad):
        return (inv @ grad[..., None])[..., 0]

    if grad_log_density is not None:
        u_mean, u_se, valid = combine_drift_estimates(fwd, bwd, 0.5, -0.5)
        target = 0.5 * nu * raise_index(patch.inverse(anchor),
                                        grad_log_density(anchor))
        diff = u_mean - target
        diff_se = u_se
        count = np.minimum(fwd.count, bwd.count)
    else:
        density = estimate_density(ensemble, bins, patch,
                                   n_batches=n_batches)
        u_batch = 0.5 * (fwd.batch_mean - bwd.batch_mean)
        inv_centers = patch.inverse(centers)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_b = np.log(density.batch_estimate)
            diff_batch = np.stack([
                u_batch[b] - 0.5 * nu * raise_index(
                    inv_centers, _lattice_gradient(log_b[b], bins)
                )
                for b in range(u_batch.shape[0])
            ])
        diff, diff_se, n_eff = batch_mean_se(diff_batch)
        valid = fwd.valid & bwd.valid & (n_eff >= max(2, n_batches // 4))
        count = np.minimum(fwd.count, bwd.count)
    if not getattr(patch, "is_constant", False):
        # deterministic metric correction turning the drift combination
        # into the invariant osmotic velocity
        diff = diff + 0.5 * nu * patch.christoffel_contraction(anchor)

    usable = valid & (count >= min_count) & np.all(
        np.isfinite(diff_se), axis=-1
    )
    hits = np.all(np.abs(diff) <= z * diff_se, axis=-1) & usable
    n_usable = int(np.sum(usable))
    fraction = float(np.sum(hits) / n_usable) if n_usable else 0.0
    return {
        "fraction": fraction,
        "n_bins": n_usable,
        "z": z,
        "diff": diff,
        "diff_se": diff_se,
        "usable": usable,
        "centers": centers,
        "forward": fwd,
        "backward": bwd,
    }


# ---------------------------------------------------------------------------
# quadrature


@lru_cache(maxsize=32)
def _gl_1d(order):
    return np.polynomial.legendre.leggauss(int(order))


def _gl_axis(order, lo, hi):
    x, w = _gl_1d(order)
    half = 0.5 * (hi - lo)
    return half * x + 0.5 * (hi + lo), half * w


def _tensor_nodes(box, order):
    axes = [
        _gl_axis(order, box.lo[i], box.hi[i]) for i in range(3)
    ]
    mesh = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    wts = np.einsum(
        "i,j,k->ijk", axes[0][1], axes[1][1], axes[2][1]
    ).ravel()
    return pts, wts


def _metric_tables(patch, pts):
    """sigma, sigma^{-1} and sqrt|sigma| on the nodes (one value if constant)."""
    if getattr(patch, "is_constant", False):
        sig, inv, root = patch.factors(pts[0])
        return (
            np.broadcast_to(sig, (len(pts), 3, 3)),
            np.broadcast_to(inv, (len(pts), 3, 3)),
            np.full(len(pts), root),
        )
    return patch.factors(pts)


def _grad_log(density, pts, grad_log_density, box):
    if grad_log_density is not None:
        return np.asarray(grad_log_density(pts), dtype=float)
    # the density takes (n, 3) rows: the stencil's (n, 6, 3) go in flat
    return central_gradient(
        lambda p: np.log(density(p.reshape(-1, 3))).reshape(p.shape[:-1]),
        pts, 1e-5 * float(np.min(box.extent)))


def _shell_mask(box, pts, margin=0.1):
    lo = box.lo_array
    hi = box.hi_array
    pad = margin * (hi - lo)
    return np.any((pts < lo + pad) | (pts > hi - pad), axis=-1)


def expectation_u2(density, patch, box, nu, order=DEFAULT_ORDER,
                   grad_log_density=None, floor=None, tail_tol=1e-3):
    """E{u^2} = (nu/2)^2 integral of grad ln rho . sigma^{-1} . grad ln rho.

    The expectation uses the invariant measure rho sqrt|sigma| d^3 q,
    normalized over the quadrature box. Raises QuadratureDivergence when
    the outer shell of the box carries more than ``tail_tol`` of the
    integrand, i.e. the box truncates the tails.
    """
    pts, wts = _tensor_nodes(box, order)
    rho = np.asarray(density(pts), dtype=float)
    # the log gradient needs strictly positive density on every node;
    # deep tails are fine, exact zeros are not
    if floor is None:
        floor = 0.0
    if np.any(rho <= floor):
        raise QuadratureDivergence(
            "density not above the floor on quadrature nodes"
        )
    sig, inv, root = _metric_tables(patch, pts)
    norm_weight = wts * rho * root
    normalization = float(np.sum(norm_weight))

    grad = _grad_log(density, pts, grad_log_density, box)
    quad_form = np.einsum("ni,nij,nj->n", grad, inv, grad)
    contrib = 0.25 * nu**2 * quad_form * norm_weight
    total = float(np.sum(contrib))
    if total > 0.0:
        tail = float(np.sum(contrib[_shell_mask(box, pts)])) / total
    else:
        tail = 0.0
    if tail > tail_tol:
        raise QuadratureDivergence(
            f"outer-shell fraction {tail:.2e} exceeds {tail_tol:.2e}; "
            "enlarge the quadrature box"
        )
    return {
        "value": total / normalization,
        "normalization": normalization,
        "tail_fraction": tail,
        "order": order,
        "grad": grad,
        "points": pts,
        "weights": norm_weight,
        "metric": sig,
        "inverse_metric": inv,
    }


@dataclass
class EnergyReport:
    """Two-route energy functional with the velocity-ratio diagnostics."""

    mu_direct: float
    mu_identity: float
    e_u2: float
    gamma_tilde: float
    ratio: float
    delta: float
    order: int
    normalization: float

    def __post_init__(self):
        if not 0.0 < self.gamma_tilde <= 1.0:
            raise ValueError("gamma_tilde must lie in (0, 1]")
        if self.e_u2 < 0.0:
            raise ValueError("E{u^2} must be nonnegative")


def energy_report(density, patch, constants, box, delta=1.0,
                  order=DEFAULT_ORDER, time_order=16,
                  grad_log_density=None, tail_tol=1e-3):
    """Mean energy of the congruence, computed two ways.

    Direct route: factored 4-d tensor quadrature of
    (m/2)(V.V + U.U) ptilde sqrt|g| over the slab [-delta, delta] x box,
    with V.V = -c^2 exactly and U.U the squared osmotic velocity; ptilde
    is normalized over the same slab. Identity route:
    -mc^2/2 + (m/2) E{u^2}. Agreement certifies the assembly and the
    normalization, and for u = 0 both give -mc^2/2 exactly.
    """
    c2 = constants.c**2
    u2 = expectation_u2(
        density, patch, box, constants.nu, order=order,
        grad_log_density=grad_log_density, tail_tol=tail_tol,
    )
    # time factor: quadrature of sqrt(-g00(xi0)); cancels between the
    # numerator and the ptilde normalization but is assembled literally
    t_nodes, t_w = _gl_axis(time_order, -delta, delta)
    g00 = np.asarray(patch.g00(t_nodes), dtype=float)
    time_factor = float(np.sum(t_w * np.sqrt(-g00)))

    # direct route: raise the log-gradient, then lower with sigma
    grad = u2["grad"]
    inv = u2["inverse_metric"]
    u_up = 0.5 * constants.nu * np.einsum("nij,nj->ni", inv, grad)
    uu = np.einsum("ni,nij,nj->n", u_up, u2["metric"], u_up)
    w = u2["weights"]
    numerator = time_factor * float(
        np.sum(w * (-0.5 * c2 + 0.5 * uu))
    )
    denominator = time_factor * u2["normalization"]
    mu_direct = constants.mass * numerator / denominator

    e_u2 = u2["value"]
    mu_identity = -0.5 * constants.mass * c2 + 0.5 * constants.mass * e_u2
    ratio = e_u2 / c2
    return EnergyReport(
        mu_direct=mu_direct,
        mu_identity=mu_identity,
        e_u2=e_u2,
        gamma_tilde=1.0 / np.sqrt(1.0 + ratio),
        ratio=ratio,
        delta=delta,
        order=order,
        normalization=denominator,
    )


def slice_density(bundle, chart, xi0=0.0):
    """Stationary density on a comoving leaf, as a callable of xi space.

    Evaluates the squared amplitude at the inertial preimage of each
    spatial point on the xi0 leaf, with one batched inverse map per call.
    Pair it with a metric in the same chart coordinates
    (``chart_spatial_patch``).
    """
    def rho(points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        xi = np.concatenate([np.full((len(points), 1), float(xi0)), points],
                            axis=1)
        return bundle.density(chart.inverse_map(xi))

    return rho


def stochastic_action(density, patch, interval, constants, box,
                      order=DEFAULT_ORDER, grad_log_density=None,
                      current_sq=None, tail_tol=1e-3):
    """Action of the congruence over a coordinate-time interval.

    A = -mc^2 (t_b - t_a) sqrt(1 - (E{beta^2} - E{u^2})/c^2). The
    current-velocity magnitude defaults to zero (the stationary,
    gradient-congruence case), making the integrand time independent.
    Raises ImaginaryAction when the argument of the root is not positive.
    """
    t_a, t_b = float(interval[0]), float(interval[1])
    u2 = expectation_u2(
        density, patch, box, constants.nu, order=order,
        grad_log_density=grad_log_density, tail_tol=tail_tol,
    )
    e_b2 = 0.0
    if current_sq is not None:
        pts = u2["points"]
        e_b2 = float(
            np.sum(u2["weights"] * np.asarray(current_sq(pts), dtype=float))
        ) / u2["normalization"]
    argument = 1.0 - (e_b2 - u2["value"]) / constants.c**2
    if argument <= 0.0:
        raise ImaginaryAction(
            f"1 - (E{{beta^2}} - E{{u^2}})/c^2 = {argument:.3e} <= 0"
        )
    return -constants.mass * constants.c**2 * (t_b - t_a) * float(
        np.sqrt(argument)
    )

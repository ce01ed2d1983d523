"""Statistics and quadrature on the spatial slice.

Ensemble side: binned density with the invariant-measure weight, and
current and osmotic velocities recovered from forward/backward drifts.
Analytic side: tensor-product Gauss-Legendre expectations of the squared
osmotic velocity, the two-route energy functional, and the stochastic
action, each from a density and its closed-form log gradient;
``gaussian_density`` gives that pair for the isotropic Gaussian on the flat
slice and ``slice_density`` on a chart's origin leaf.

All ensemble standard errors come from ``diffusion.DEFAULT_BATCHES`` (32)
path batches: increments of one path are autocorrelated in time, and
forward/backward estimates on the same ensemble share their increments,
so naive pooling is dishonest in both directions. Linear combinations are
always formed batchwise via ``combine_drift_estimates``.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .diffusion import (
    _bin_totals,
    backward_drift_estimate,
    batch_mean_se,
    combine_drift_estimates,
    forward_drift_estimate,
    leaf_drift,
)
from .errors import (
    ImaginaryAction,
    InsufficientSamples,
    QuadratureDivergence,
)
from .fields import _lattice, _row_blocks, _rows_times

DEFAULT_ORDER = 32
# largest share of E{u^2} the quadrature box's outer shell may carry
TAIL_TOL = 1e-3


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


def _bin_volume(bins):
    widths = (np.asarray(bins.hi) - np.asarray(bins.lo)) / np.asarray(
        bins.shape
    )
    return widths, float(np.prod(widths))


def estimate_density(ensemble, bins, patch):
    """Histogram density with respect to the invariant measure.

    Counts are divided by sqrt|sigma| per bin so the estimate targets the
    density rho whose expectations use the weight rho sqrt|sigma| d^3 q;
    the result is normalized to sum(rho sqrt|sigma| vol) = 1 over the
    lattice.
    """
    count, bcount = _bin_totals(bins, ensemble.pre)
    _, vol = _bin_volume(bins)
    root_sig = patch.sqrt_det(bins.centers())

    total = int(count.sum())
    if total == 0:
        raise InsufficientSamples("no ensemble states inside the bin lattice")
    est = count / (total * vol * root_sig)

    btot = bcount.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        best = bcount / (btot * vol * root_sig)
    # a batch with no state inside the lattice (NaN row) does not count
    se = np.where(count >= 2, batch_mean_se(best)[1], np.inf)
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


def velocities_from_drifts(fwd, bwd):
    """Combine drift estimates into (current, osmotic) velocity fields.

    The half sum and half difference of the coordinate drifts, formed per
    path batch. On a curved patch the half difference is the coordinate
    drift, the invariant osmotic velocity less the Christoffel contraction
    term (``osmotic_identity_report`` compares it with ``leaf_drift``); the
    term cancels from the current velocity.
    """
    cur_mean, cur_se, cur_valid = combine_drift_estimates(fwd, bwd, 0.5, 0.5)
    osm_mean, osm_se, osm_valid = combine_drift_estimates(fwd, bwd, 0.5, -0.5)
    return VelocityEstimate(
        centers=fwd.centers,
        anchor=0.5 * (fwd.eval_points() + bwd.eval_points()),
        current=cur_mean, current_se=cur_se,
        osmotic=osm_mean, osmotic_se=osm_se,
        valid=cur_valid & osm_valid,
        count=np.minimum(fwd.count, bwd.count),
    )


def osmotic_identity_report(ensemble, bins, patch, nu, grad_log_density,
                            min_count=500, z=3.0):
    """Fraction of well-sampled bins where binned u matches the log slope.

    The half difference of the forward and backward drifts is compared
    with the coordinate drift ``leaf_drift`` of the closed-form log
    gradient ``grad_log_density`` at the bins' sample-mean anchors. The
    drift estimates it conditions on are returned under ``forward`` and
    ``backward``.
    """
    fwd = forward_drift_estimate(ensemble, bins, min_count=min_count)
    bwd = backward_drift_estimate(ensemble, bins, min_count=min_count)
    anchor = 0.5 * (fwd.eval_points() + bwd.eval_points())
    u_mean, diff_se, valid = combine_drift_estimates(fwd, bwd, 0.5, -0.5)
    diff = u_mean - leaf_drift(grad_log_density, patch, nu)(anchor)
    count = np.minimum(fwd.count, bwd.count)

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
        "centers": fwd.centers,
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


def _gl_axes(box, order):
    """(nodes, weights): the Gauss-Legendre axes of ``box``, three each."""
    return tuple(zip(*(_gl_axis(order, box.lo[i], box.hi[i])
                       for i in range(3))))


def _metric_tables(patch, pts):
    """sigma, sigma^{-1} and sqrt|sigma| on the nodes (one value if constant).

    A constant patch is factored at the origin, whatever the nodes, so
    ``factors`` remembers one factorization for every block."""
    if patch.is_constant:
        sig, inv, root = patch.factors(np.zeros(3))
        return (
            np.broadcast_to(sig, (len(pts), 3, 3)),
            np.broadcast_to(inv, (len(pts), 3, 3)),
            np.full(len(pts), root),
        )
    return patch.factors(pts)


def _shell_mask(box, pts, margin=0.1):
    lo = box.lo_array
    hi = box.hi_array
    pad = margin * (hi - lo)
    return np.any((pts < lo + pad) | (pts > hi - pad), axis=-1)


def expectation_u2(density, patch, box, nu, order=DEFAULT_ORDER, *,
                   grad_log_density):
    """E{u^2} = (nu/2)^2 integral of grad ln rho . sigma^{-1} . grad ln rho.

    The expectation uses the invariant measure rho sqrt|sigma| d^3 q,
    normalized over the quadrature box. Raises QuadratureDivergence when
    the density is not positive on a node, or when the outer shell of the
    box carries more than ``TAIL_TOL`` of the integrand, i.e. the box
    truncates the tails.

    One pass over blocks of ``fields.ROW_BLOCK`` nodes, the last maybe a
    single node, builds each block's nodes from the Gauss-Legendre axes and
    evaluates the density, its closed-form log gradient
    ``grad_log_density``, the metric tables and the shell flag there,
    keeping only per-node columns, which do not depend on the blocks;
    every sum is one sum over a whole column. The returned dict
    holds ``value``, ``normalization``, ``tail_fraction`` and ``order``,
    and per node: ``weights``, the quadrature weight times rho sqrt|sigma|,
    ``sqrt_det``, sqrt|sigma|, ``quad_form``, grad . sigma^{-1} . grad, and
    ``u_sigma_u``, u . sigma . u with u = (nu/2) sigma^{-1} grad, the
    squared osmotic velocity of the direct energy route.
    """
    nodes, weights = _gl_axes(box, order)
    # quadrature weight, times rho and sqrt|sigma| in place block by block
    norm_weight = np.einsum("i,j,k->ijk", *weights).ravel()
    n = len(norm_weight)
    root = np.empty(n)
    quad_form = np.empty(n)
    u_sigma_u = np.empty(n)
    shell = np.empty(n, dtype=bool)
    for block in _row_blocks(n):
        pts = _lattice(nodes, block)
        rho = np.asarray(density(pts), dtype=float)
        # the log gradient needs strictly positive density on every node;
        # deep tails are fine, exact zeros are not
        if np.any(rho <= 0.0):
            raise QuadratureDivergence(
                "density not positive on quadrature nodes"
            )
        g = np.asarray(grad_log_density(pts), dtype=float)
        sig, inv, root[block] = _metric_tables(patch, pts)
        quad_form[block] = np.einsum("ni,nij,nj->n", g, inv, g)
        u_up = 0.5 * nu * np.einsum("nij,nj->ni", inv, g)
        u_sigma_u[block] = np.einsum("ni,nij,nj->n", u_up, sig, u_up)
        shell[block] = _shell_mask(box, pts)
        weight = norm_weight[block]
        weight *= rho
        weight *= root[block]
    normalization = float(np.sum(norm_weight))

    contrib = 0.25 * nu**2 * quad_form * norm_weight
    total = float(np.sum(contrib))
    if total > 0.0:
        tail = float(np.sum(contrib[shell])) / total
    else:
        tail = 0.0
    if tail > TAIL_TOL:
        raise QuadratureDivergence(
            f"outer-shell fraction {tail:.2e} exceeds {TAIL_TOL:.2e}; "
            "enlarge the quadrature box"
        )
    return {
        "value": total / normalization,
        "normalization": normalization,
        "tail_fraction": tail,
        "order": order,
        "weights": norm_weight,
        "sqrt_det": root,
        "quad_form": quad_form,
        "u_sigma_u": u_sigma_u,
    }


@dataclass
class EnergyReport:
    """Two-route energy functional with the velocity-ratio diagnostics."""

    mu_direct: float
    mu_identity: float
    e_u2: float
    gamma_tilde: float
    order: int
    normalization: float

    def __post_init__(self):
        if not 0.0 < self.gamma_tilde <= 1.0:
            raise ValueError("gamma_tilde must lie in (0, 1]")
        if self.e_u2 < 0.0:
            raise ValueError("E{u^2} must be nonnegative")


def energy_report(density, patch, constants, box, delta=1.0,
                  order=DEFAULT_ORDER, time_order=16, *, grad_log_density):
    """Mean energy of the congruence, computed two ways.

    Direct route: factored 4-d tensor quadrature of
    (m/2)(V.V + U.U) ptilde sqrt|g| over the slab [-delta, delta] x box,
    with V.V = -c^2 exactly and U.U the squared osmotic velocity; ptilde
    is normalized over the same slab. Identity route:
    -mc^2/2 + (m/2) E{u^2}. Agreement certifies the assembly and the
    normalization, and for u = 0 both give -mc^2/2 exactly. The slab's
    time factor, the ``time_order``-node Gauss-Legendre weight sum over
    [-delta, delta], scales the numerator and the normalization alike:
    ``delta`` and ``time_order`` cancel out of ``mu_direct`` up to
    rounding. It takes sqrt(-g00) = 1, exact on a flat slice and on the
    chart's reference curve; on a packet chart g00 = -1 is an
    approximation that acceptance gate 02's max|g00 + 1| bounds.
    """
    c2 = constants.c**2
    u2 = expectation_u2(
        density, patch, box, constants.nu, order=order,
        grad_log_density=grad_log_density,
    )
    time_factor = float(np.sum(_gl_axis(time_order, -delta, delta)[1]))

    # direct route: u.sigma.u with u the raised log-gradient
    numerator = time_factor * float(
        np.sum(u2["weights"] * (-0.5 * c2 + 0.5 * u2["u_sigma_u"]))
    )
    denominator = time_factor * u2["normalization"]
    mu_direct = constants.mass * numerator / denominator

    e_u2 = u2["value"]
    mu_identity = -0.5 * constants.mass * c2 + 0.5 * constants.mass * e_u2
    return EnergyReport(
        mu_direct=mu_direct,
        mu_identity=mu_identity,
        e_u2=e_u2,
        gamma_tilde=1.0 / np.sqrt(1.0 + e_u2 / c2),
        order=order,
        normalization=denominator,
    )


def gaussian_density(sigma):
    """The isotropic Gaussian of width ``sigma`` on the flat slice, largest
    at the origin, and its log gradient -q / sigma^2, as the pair of
    callables ``(rho, grad_log_rho)``."""
    var = float(sigma) ** 2
    norm = (2.0 * np.pi * var) ** 1.5

    def rho(points):
        q = np.asarray(points, dtype=float)
        return np.exp(-0.5 * np.sum(q * q, axis=-1) / var) / norm

    def grad_log_rho(points):
        return np.multiply(points, -1.0 / var)

    return rho, grad_log_rho


def slice_density(bundle, chart):
    """Stationary density on the chart's origin leaf and its log gradient,
    as the pair of callables ``(rho, grad_log_rho)`` of xi space.

    Both read the leaf events x = (f(q), q) at q = q0 + E0^-1 xi with one
    batched height solve per call. ``rho`` is the squared amplitude p(x);
    along the leaf d_i p(f(q), q) = d_0 p f_i + d_i p with the height slope
    f_i = -S_i / S_0, so grad_xi ln rho = ((d_0 p f + d_{1:} p) / p) E0^-1
    in closed form. Pair them with a metric in the same chart coordinates
    (``chart_spatial_patch``).
    """
    surface = chart.surface

    def leaf(points):
        return surface.embed(chart.base_point(np.atleast_2d(points)))

    def rho(points):
        return bundle.density(leaf(points))

    def grad_log_rho(points):
        x = leaf(points)
        dp = bundle.density_gradient(x)
        f = surface._slope(x, bundle.phase_gradient(x))
        grad_q = (dp[..., :1] * f + dp[..., 1:]) / bundle.density(x)[..., None]
        return _rows_times(grad_q, chart.frame_matrix_inv)

    return rho, grad_log_rho


def stochastic_action(density, patch, interval, constants, box,
                      order=DEFAULT_ORDER, current_sq=None, *,
                      grad_log_density):
    """Action of the congruence over a coordinate-time interval.

    A = -mc^2 (t_b - t_a) sqrt(1 - (E{beta^2} - E{u^2})/c^2). The
    current-velocity magnitude defaults to zero (the stationary,
    gradient-congruence case), making the integrand time independent.
    A given ``current_sq`` is evaluated on the node blocks of the osmotic
    term, into one column with one weighted sum over it. Raises
    ImaginaryAction when the argument of the root is not positive.
    """
    t_a, t_b = float(interval[0]), float(interval[1])
    u2 = expectation_u2(
        density, patch, box, constants.nu, order=order,
        grad_log_density=grad_log_density,
    )
    e_b2 = 0.0
    if current_sq is not None:
        nodes = _gl_axes(box, order)[0]
        beta2 = np.empty(len(u2["weights"]))
        for block in _row_blocks(len(beta2)):
            beta2[block] = current_sq(_lattice(nodes, block))
        beta2 *= u2["weights"]
        e_b2 = float(np.sum(beta2)) / u2["normalization"]
    argument = 1.0 - (e_b2 - u2["value"]) / constants.c**2
    if argument <= 0.0:
        raise ImaginaryAction(
            f"1 - (E{{beta^2}} - E{{u^2}})/c^2 = {argument:.3e} <= 0"
        )
    return -constants.mass * constants.c**2 * (t_b - t_a) * float(
        np.sqrt(argument)
    )

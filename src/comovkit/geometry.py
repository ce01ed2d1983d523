"""Numerical differential geometry on the chart's spatial slices.

The comoving metric splits into a time block g00 (a function of the time
coordinate only; -1 in the proper-time gauge) and a spatial 3-metric
sigma on the level surface. A ``MetricPatch`` packages sigma together
with everything downstream code needs: inverse, volume factor, noise
factor G with G G^T = sigma^{-1}, Christoffel symbols, and their
contraction. Curvature comes from finite differences of the Christoffel
field; the error budget C h^2 is calibrated against a flat metric written
in polar coordinates, where every nonzero Riemann component is pure
numerical error. A unit-sphere patch provides the negative control that
must fail the flatness gate.

``MetricPatch`` methods take points of shape (..., 3) and return results
stacked over the leading axes, e.g. (..., 3, 3) for the metric; the
``sigma`` callables they wrap stay pointwise, except for the chart-surface
patches of ``MetricPatch.from_chart`` (base coordinates q) and
``chart_spatial_patch`` (chart coordinates xi), whose metric is one batched
height solve per call. Each patch remembers, per thread, the factorization
of the last batch of points it saw, so the drift correction and the noise
factor of one Euler-Maruyama step share one evaluation of sigma.
``riemann``, ``ricci_scalar``, ``pullback_metric``, the covariant-derivative
helpers and ``metric_compatibility_residual`` take batches as well (the
covector fields ``u`` they differentiate map (..., 3) points to (..., 3)
components), and ``flatness_report``, ``curvature_budget`` and
``geometry_diagnostics`` evaluate their lattices in one stacked call.
Every finite difference here is the package's central-difference
stencil, ``fields.central_gradient``: one stacked call of the
differentiated function on the shifted points.

All index layouts are explicit: Gamma[i, j, k] = Gamma^i_{jk},
riemann[i, k, l, m] = R^i_{klm}, sigma derivative D[i, j, k] =
d_i sigma_{jk}.
"""

import threading

import numpy as np

from .chart import TimeConvention
from .constants import ETA
from .errors import NotSpacelike
from .fields import central_gradient

DEFAULT_H = 1e-2
FD_STEP = 1e-3  # sigma and covector derivative step when none is given


def _stack_rows(func, name, q, shape):
    """Stack the pointwise ``func`` over the rows of q into (..., *shape).

    Raises ValueError naming ``func`` when a point gives another shape.
    """
    rows = q.reshape(-1, 3)
    vals = [func(p) for p in rows]
    wrong = f"{name} must evaluate to a {shape} array at every point"
    try:
        out = np.array(vals, dtype=float)
    except ValueError as err:  # points gave different shapes
        raise ValueError(wrong) from err
    if len(rows) and out.shape[1:] != shape:
        raise ValueError(f"{wrong}; got {out.shape[1:]}")
    return out.reshape(q.shape[:-1] + shape)


class MetricPatch:
    """A positive-definite 3-metric field with derived objects.

    ``sigma`` maps one 3-point to a symmetric (3, 3) matrix. Derivatives
    come from ``sigma_gradient`` when supplied (one 3-point to D[i, j, k] =
    d_i sigma_jk), otherwise from central differences with step FD_STEP.
    ``g00`` is the time-block function of xi0, taking floats or arrays
    (defaults to the proper-time gauge, -1).

    Every method takes points of shape (..., 3) and returns results stacked
    over the leading axes: ``metric``, ``inverse`` and ``noise_factor``
    give (..., 3, 3), ``sqrt_det`` gives (...) (a float for one point),
    ``sigma_derivatives`` and ``christoffel`` give (..., 3, 3, 3) and
    ``christoffel_contraction`` gives (..., 3). The two callables are
    evaluated point by point, and every point must give the same shape;
    the factorizations run stacked.

    ``factors`` (and with it ``inverse``, ``sqrt_det``, ``noise_factor``,
    ``christoffel`` and ``christoffel_contraction``) keeps the result for
    the last batch of points in a one-entry memo per thread, keyed by the
    shape and the raw bytes of the points. A drift correction followed by
    the noise factor at the same points therefore evaluates and factorizes
    sigma once. The memo assumes ``sigma`` is a pure function of the point,
    and it hands out read-only arrays.
    """

    def __init__(self, sigma, g00=None, sigma_gradient=None, name="",
                 is_constant=False):
        self._sigma = sigma
        self._dsigma = sigma_gradient
        self.g00 = g00 if g00 is not None else TimeConvention().g00
        self.name = name
        # constant metrics let the simulator hoist the noise factor out of
        # the step loop and drop the (identically zero) drift correction
        self.is_constant = is_constant
        # (key, factors) of the last factorization, one entry per thread
        self._last = threading.local()

    # --- metric data ---------------------------------------------------------
    def metric(self, q):
        q = np.asarray(q, dtype=float)
        return _stack_rows(self._sigma, "sigma", q, (3, 3))

    def factors(self, q):
        """sigma, sigma^{-1} and sqrt|sigma| from one stacked eigh.

        Repeated calls at the same points (same shape and bytes) on one
        thread return the same read-only arrays without evaluating sigma
        again. Raises NotSpacelike naming the first point where sigma is
        not positive definite; a failed factorization is not remembered.
        """
        q = np.asarray(q, dtype=float)
        key = (q.shape, q.tobytes())
        last = self._last
        if getattr(last, "key", None) == key:
            return last.value
        sig = self.metric(q)
        w, v = np.linalg.eigh(sig)
        bad = (w[..., 0] <= 0.0).reshape(-1)
        if np.any(bad):
            n = int(np.argmax(bad))
            raise NotSpacelike(
                "spatial metric not positive-definite at "
                f"{q.reshape(-1, 3)[n].tolist()}: "
                f"eigenvalues {w.reshape(-1, 3)[n].tolist()}"
            )
        inv = (v / w[..., None, :]) @ np.swapaxes(v, -1, -2)
        root = np.sqrt(np.prod(w, axis=-1))
        if root.ndim == 0:
            root = float(root)
        else:
            root.flags.writeable = False
        sig.flags.writeable = inv.flags.writeable = False
        last.key = key
        last.value = (sig, inv, root)
        return last.value

    def inverse(self, q):
        return self.factors(q)[1]

    def sqrt_det(self, q):
        return self.factors(q)[2]

    def noise_factor(self, q):
        """Lower-triangular G with G G^T = sigma^{-1}."""
        return np.linalg.cholesky(self.inverse(q))

    # --- derivatives ---------------------------------------------------------
    def sigma_derivatives(self, q, h=None):
        """D[..., i, j, k] = d sigma_jk / d q^i."""
        q = np.asarray(q, dtype=float)
        if self._dsigma is not None:
            return _stack_rows(self._dsigma, "sigma_gradient", q, (3, 3, 3))
        return central_gradient(self.metric, q, h or FD_STEP)

    def _christoffel(self, inv, q, h):
        d = self.sigma_derivatives(q, h=h)
        # term[..., l, j, k]
        term = (
            np.swapaxes(d, -3, -2)     # d_j sigma_lk -> [l, j, k]
            + np.moveaxis(d, -3, -1)   # d_k sigma_lj -> [l, j, k]
            - d                        # d_l sigma_jk
        )
        return 0.5 * np.einsum("...il,...ljk->...ijk", inv, term)

    def christoffel(self, q, h=None):
        """Gamma[i, j, k] = 1/2 sigma^{il} (d_j s_lk + d_k s_lj - d_l s_jk)."""
        return self._christoffel(self.inverse(q), q, h)

    def christoffel_contraction(self, q, h=None):
        """sigma^{jk} Gamma^i_{jk}: the curvature correction in drifts."""
        inv = self.inverse(q)
        return np.einsum(
            "...jk,...ijk->...i", inv, self._christoffel(inv, q, h)
        )

    # --- constructors ---------------------------------------------------------
    @classmethod
    def euclidean(cls):
        return cls(lambda q: np.eye(3), name="euclidean", is_constant=True)

    @classmethod
    def constant(cls, sigma_matrix, g00=None):
        mat = np.asarray(sigma_matrix, dtype=float)
        return cls(
            lambda q: mat.copy(),
            g00=g00,
            sigma_gradient=lambda q: np.zeros((3, 3, 3)),
            name="constant",
            is_constant=True,
        )

    @classmethod
    def from_chart(cls, chart):
        """Graph-coordinate surface metric of the chart's origin level set.

        Spatial points are the base coordinates q; the chart's linear frame
        normalization is a constant reparametrization that leaves all
        curvature quantities unchanged.
        """
        return _SurfacePatch(chart.surface, chart.time_convention.g00)


class _SurfacePatch(MetricPatch):
    """Chart-surface metric whose batches go to the surface in one call.

    With a ``frame`` (q0, E0^-1) the points are chart coordinates xi and
    the metric is E0^-T sigma_q(q0 + E0^-1 xi) E0^-1; without one they are
    the base coordinates q.
    """

    def __init__(self, surface, g00, frame=None, name="chart_surface"):
        super().__init__(None, g00=g00, name=name)
        self.surface = surface
        self.frame = frame

    def metric(self, q):
        if self.frame is None:
            return self.surface.metric(q)
        base, e_inv = self.frame
        sig = self.surface.metric(base + np.asarray(q, dtype=float) @ e_inv.T)
        return e_inv.T @ sig @ e_inv


def chart_spatial_patch(chart):
    """Slice metric in the chart's spatial coordinates xi as a MetricPatch.

    The chart's frame normalization is a constant linear map E0, so the
    surface metric transforms by congruence: sigma_xi = E0^-T sigma_q E0^-1
    evaluated at q = q0 + E0^-1 xi, with one surface call per batch. The
    time block comes from the chart's time convention (g00 = -1 for the
    proper-time gauge). This is the metric that pairs with densities of xi
    such as ``slice_density``.
    """
    return _SurfacePatch(chart.surface, chart.time_convention.g00,
                         frame=(chart.base_origin, chart.frame_matrix_inv),
                         name="chart-slice")


def polar_flat_patch(analytic_derivatives=True):
    """Flat space in cylindrical polar coordinates (r, theta, z).

    sigma = diag(1, r^2, 1): Gamma^r_tt = -r, Gamma^t_rt = 1/r, and every
    Riemann component is exactly zero, which makes this the calibration
    fixture for the finite-difference curvature budget.
    """

    def sigma(q):
        return np.diag([1.0, q[0] ** 2, 1.0])

    def dsigma(q):
        d = np.zeros((3, 3, 3))
        d[0, 1, 1] = 2.0 * q[0]
        return d

    return MetricPatch(
        sigma,
        sigma_gradient=dsigma if analytic_derivatives else None,
        name="polar_flat",
    )


def unit_sphere_patch(analytic_derivatives=True):
    """Unit 2-sphere times a line, coordinates (theta, phi, z).

    sigma = diag(1, sin^2 theta, 1); scalar curvature 2. Serves as the
    negative control that must fail the flatness gate.
    """

    def sigma(q):
        return np.diag([1.0, np.sin(q[0]) ** 2, 1.0])

    def dsigma(q):
        d = np.zeros((3, 3, 3))
        d[0, 1, 1] = np.sin(2.0 * q[0])
        return d

    return MetricPatch(
        sigma,
        sigma_gradient=dsigma if analytic_derivatives else None,
        name="unit_sphere",
    )


# ---------------------------------------------------------------------------
# chart-level metric evaluations


def pullback_metric(chart, xi):
    """g_munu(xi) = eta_ab (dx^a/dxi^mu)(dx^b/dxi^nu) via the FD Jacobian.

    Takes (..., 4) and returns (..., 4, 4) from one inverse-map call.
    """
    a = chart.inverse_jacobian(xi)
    return np.swapaxes(a, -1, -2) @ ETA @ a


def spatial_metric(chart, q):
    """sigma, inverse, volume factor, and noise factor at base point q."""
    sig, inv, root = MetricPatch.from_chart(chart).factors(q)
    return {
        "sigma": sig,
        "inverse": inv,
        "sqrt_det": root,
        "noise_factor": np.linalg.cholesky(inv),
    }


# ---------------------------------------------------------------------------
# curvature


def riemann(patch, q, h=DEFAULT_H):
    """R^i_{klm} at points (..., 3) from FD of the Christoffel field.

    Seven Christoffel rows per point: the centre, and its six axis
    neighbours as one stencil batch; the result is (..., 3, 3, 3, 3).
    """
    q = np.asarray(q, dtype=float)
    gamma = patch.christoffel(q, h=h)
    # dgamma[..., l, i, k, m] = d_l Gamma^i_km
    dgamma = central_gradient(lambda p: patch.christoffel(p, h=h), q, h)
    quad = np.einsum("...ial,...akm->...iklm", gamma, gamma)
    return (
        np.moveaxis(dgamma, -4, -2)  # d_l Gamma^i_km -> [i,k,l,m]
        - np.moveaxis(dgamma, -4, -1)  # d_m Gamma^i_kl
        + quad
        - np.swapaxes(quad, -1, -2)
    )


def ricci_scalar(patch, q, h=DEFAULT_H):
    """sigma^{km} R^i_{kim} at points (...,3); a float for one point."""
    ricci = np.einsum("...ikim->...km", riemann(patch, q, h=h))
    scalar = np.einsum("...km,...km->...", patch.inverse(q), ricci)
    return float(scalar) if scalar.ndim == 0 else scalar


_BUDGET_PROBES = np.array([
    [0.7, 0.3, 0.1],
    [1.3, -0.8, 0.4],
    [0.9, 1.1, -0.6],
    [1.7, 0.2, 0.8],
])


def curvature_budget(h=DEFAULT_H, safety=10.0):
    """FD curvature error budget C h^2, calibrated on the polar fixture.

    The polar patch is exactly flat, so the largest Riemann component it
    produces through the same FD pipeline (sigma derivatives included)
    measures the method error; the budget is that residual times a safety
    factor, floored at a roundoff allowance.
    """
    patch = polar_flat_patch(analytic_derivatives=False)
    resid = float(np.max(np.abs(riemann(patch, _BUDGET_PROBES, h=h))))
    return safety * max(resid, 1e-12)


def flatness_report(patch, points, h=DEFAULT_H, budget=None):
    """Max |R^i_klm| over sample points against the FD budget.

    Returns a JSON-able dict; ``flat`` is True iff the largest residual
    stays below the budget.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if budget is None:
        budget = curvature_budget(h=h)
    vals = np.max(np.abs(riemann(patch, points, h=h)), axis=(-4, -3, -2, -1))
    at = int(np.argmax(vals))
    worst = float(vals[at])
    return {
        "max_riemann": worst,
        "budget": float(budget),
        "fd_step": float(h),
        "n_points": int(len(points)),
        "worst_point": [float(v) for v in points[at]],
        "flat": bool(worst <= budget),
    }


# ---------------------------------------------------------------------------
# covariant derivatives


def covariant_derivative_covector(patch, u, q, h=None):
    """C[..., j, k] = d_j u_k - Gamma^l_{jk} u_l at points q (..., 3).

    ``u`` maps points (..., 3) to covariant components (..., 3).
    """
    q = np.asarray(q, dtype=float)
    h = h or FD_STEP
    gamma = patch.christoffel(q, h=h)
    return central_gradient(u, q, h) - np.einsum("...ljk,...l->...jk",
                                                 gamma, u(q))


def laplace_beltrami(patch, u, q, h=None):
    """(Delta u)_k = sigma^{ij} (nabla_i nabla_j u)_k for a covector field.

    Takes points (..., 3) and returns (..., 3). Metric compatibility of the
    computed Christoffel symbols is assumed (it holds to FD accuracy), so
    the operator is the trace of the second covariant derivative.
    """
    q = np.asarray(q, dtype=float)
    h = h or FD_STEP
    gamma = patch.christoffel(q, h=h)
    c0 = covariant_derivative_covector(patch, u, q, h=h)
    # dc[..., i, j, k] = d_i C_jk
    dc = central_gradient(
        lambda p: covariant_derivative_covector(patch, u, p, h=h), q, h)
    t = (
        dc
        - np.einsum("...mij,...mk->...ijk", gamma, c0)
        - np.einsum("...mik,...jm->...ijk", gamma, c0)
    )
    return np.einsum("...ij,...ijk->...k", patch.inverse(q), t)


def metric_compatibility_residual(patch, q, h=None):
    """max |nabla_i sigma_jk| over points (..., 3).

    Vanishes to FD accuracy for the patch's own Christoffel symbols.
    """
    q = np.asarray(q, dtype=float)
    h = h or FD_STEP
    d = patch.sigma_derivatives(q, h=h)
    gamma = patch.christoffel(q, h=h)
    sig = patch.metric(q)
    nabla = (
        d
        - np.einsum("...lij,...lk->...ijk", gamma, sig)
        - np.einsum("...lik,...jl->...ijk", gamma, sig)
    )
    return float(np.max(np.abs(nabla)))


# ---------------------------------------------------------------------------
# diagnostics


def geometry_diagnostics(chart, half_width=1.0, n_per_axis=3, xi0=0.0,
                         h=DEFAULT_H):
    """Lattice summary of metric blocks and curvature for one chart."""
    axes = [np.linspace(-half_width, half_width, n_per_axis)] * 3
    mesh = np.meshgrid(*axes, indexing="ij")
    spatial = np.stack([m.ravel() for m in mesh], axis=-1)
    patch = MetricPatch.from_chart(chart)
    budget = curvature_budget(h=h)

    xi = np.concatenate([np.full((len(spatial), 1), float(xi0)), spatial],
                        axis=1)
    g = pullback_metric(chart, xi)
    max_g0i = float(np.max(np.abs(g[:, 0, 1:])))
    max_g00_dev = float(np.max(np.abs(
        g[:, 0, 0] - chart.time_convention.g00(xi0))))

    base_pts = chart.base_origin + spatial @ chart.frame_matrix_inv.T
    eig_records = np.linalg.eigvalsh(patch.metric(base_pts)).tolist()
    flat = flatness_report(patch, base_pts, h=h, budget=budget)
    return {
        "xi0": float(xi0),
        "lattice_half_width": float(half_width),
        "n_points": int(len(spatial)),
        "max_abs_g0i": max_g0i,
        "max_abs_g00_deviation": max_g00_dev,
        "sigma_eigenvalues": eig_records,
        "metric_components": g.tolist(),
        "flatness": flat,
    }

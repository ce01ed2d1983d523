"""Numerical differential geometry on the chart's spatial slices.

The comoving metric splits into a time block g00 and a spatial 3-metric
sigma on the level surface. The chart time is the reference curve's arc,
so g00 = -1 on that curve; off it g00(xi) = -(dS.dS)(ref(xi0)) /
(dS.dS)(x(xi)), with ref(xi0) the reference curve's event at arc xi0, and
``geometry_diagnostics`` reports max|g00 + 1|. A ``MetricPatch`` packages
sigma together with everything downstream code needs: inverse, volume
factor, noise factor G with G G^T = sigma^{-1}, Christoffel symbols, and
their contraction. Curvature comes from one central difference of the
Christoffel field; the error budget C h^2 is calibrated against a flat
metric written in polar coordinates, where every nonzero Riemann component
is pure numerical error. A unit-sphere patch provides the negative control
that must fail the flatness gate.

``MetricPatch`` methods take points of shape (..., 3) and return results
stacked over the leading axes, e.g. (..., 3, 3) for the metric; the
``sigma`` callables they wrap stay pointwise, except for the one slice
patch, ``chart_spatial_patch(chart)``. Its points are the chart's spatial
coordinates xi, on the origin leaf at base point q = q0 + E0^-1 xi
(``ComovingChart.base_point``), and its metric is one batched height
solve per call. Its sigma derivatives are in closed form too: the slice
is the level set of the phase, so implicit differentiation turns the
phase gradient and Hessian at the surface events into the height
gradient f and Hessian f_ik (``ReferenceSurface.height_derivatives``);
carried to xi they give d sigma, the Christoffel symbols take sigma and
d sigma from one height solve per batch, and the Riemann tensor takes a
single finite difference, of the Christoffel field. Each
patch remembers, per thread, the factorization of the last batch of points
it saw, so the drift correction and the noise factor of one Euler-Maruyama
step share one evaluation of sigma.
``riemann``, ``ricci_scalar``, ``pullback_metric``, the covariant-derivative
helpers and ``metric_compatibility_residual`` take batches as well (the
covector fields ``u`` they differentiate map (..., 3) points to (..., 3)
components), and ``flatness_report``, ``curvature_budget`` and
``geometry_diagnostics`` evaluate their lattices in one stacked call.
Every ``MetricPatch`` table (sigma and sigma-gradient rows, the
factorization, the Christoffel algebra) is built point by point in blocks
of ``fields.ROW_BLOCK`` (512) rows into preallocated arrays, as is the
energy quadrature of ``estimators.expectation_u2``: the work arrays stay
the size of one block whatever the batch, and every row equals the
whole-batch value bit for bit.
Every finite difference here (sigma derivatives of a patch without a
``sigma_gradient``, Christoffel derivatives, covector derivatives) is the
package's central-difference stencil, ``fields.central_gradient``: one
stacked call of the differentiated function on the shifted points.

All index layouts are explicit: Gamma[i, j, k] = Gamma^i_{jk},
riemann[i, k, l, m] = R^i_{klm}, sigma derivative D[i, j, k] =
d_i sigma_{jk}.
"""

import threading
from functools import lru_cache

import numpy as np

from .constants import ETA
from .errors import NotSpacelike
from .fields import (
    _float_or_array,
    _in_row_blocks,
    _lattice,
    _row_blocks,
    _rows_times,
    central_gradient,
)

DEFAULT_H = 1e-2
FD_STEP = 1e-3  # sigma and covector derivative step when none is given


def _stack_rows(func, name, q, shape):
    """Stack the pointwise ``func`` over the rows of q into (..., *shape),
    filling one preallocated array ROW_BLOCK rows at a time.

    Raises ValueError naming ``func`` when a point gives another shape.
    """
    rows = q.reshape(-1, 3)
    out = np.empty((len(rows),) + shape)
    wrong = f"{name} must evaluate to a {shape} array at every point"
    for block in _row_blocks(len(rows)):
        vals = [func(p) for p in rows[block]]
        try:
            vals = np.array(vals, dtype=float)
        except ValueError as err:  # points gave different shapes
            raise ValueError(wrong) from err
        if vals.shape[1:] != shape:
            raise ValueError(f"{wrong}; got {vals.shape[1:]}")
        out[block] = vals
    return out.reshape(q.shape[:-1] + shape)


class MetricPatch:
    """A positive-definite 3-metric field with derived objects.

    ``sigma`` maps one 3-point to a symmetric (3, 3) matrix. Derivatives
    come from ``sigma_gradient`` when supplied (one 3-point to D[i, j, k] =
    d_i sigma_jk), otherwise from central differences with step FD_STEP.

    Every method takes points of shape (..., 3) and returns results stacked
    over the leading axes: ``metric``, ``inverse`` and ``noise_factor``
    give (..., 3, 3), ``sqrt_det`` gives (...) (a float for one point),
    ``sigma_derivatives`` and ``christoffel`` give (..., 3, 3, 3) and
    ``christoffel_contraction`` gives (..., 3). The two callables are
    evaluated point by point in blocks of ROW_BLOCK (512) rows, and every
    point must give the same shape; each block is factorized in closed
    form (``_factorize``; no LAPACK call) and its Christoffel algebra runs
    stacked, into preallocated arrays for the whole batch.

    ``factors`` (and with it ``inverse``, ``sqrt_det``, ``noise_factor``,
    ``christoffel`` and ``christoffel_contraction``) keeps the result for
    the last batch of points in a one-entry memo per thread, keyed by the
    shape and the raw bytes of the points. A drift correction followed by
    the noise factor at the same points therefore evaluates and factorizes
    sigma once. The memo assumes ``sigma`` is a pure function of the point,
    and it hands out read-only arrays.
    """

    is_constant = False  # see _ConstantPatch

    def __init__(self, sigma, sigma_gradient=None, name=""):
        self._sigma = sigma
        self._dsigma = sigma_gradient
        self.name = name
        # (key, factors) of the last factorization, one entry per thread
        self._last = threading.local()

    # --- metric data ---------------------------------------------------------
    def metric(self, q):
        q = np.asarray(q, dtype=float)
        return _stack_rows(self._sigma, "sigma", q, (3, 3))

    def factors(self, q):
        """sigma, sigma^{-1} and sqrt|sigma| in closed form, block by block
        of ROW_BLOCK rows (see ``_factorize``).

        Repeated calls at the same points (same shape and bytes) on one
        thread return the same read-only arrays without evaluating sigma
        again. Raises NotSpacelike naming the first point where sigma is
        not positive definite; a failed factorization is not remembered.
        """
        q = np.asarray(q, dtype=float)
        last = self._last
        if getattr(last, "key", None) == (q.shape, q.tobytes()):
            return last.value
        return self._factorize(q, self.metric(q))

    def _factorize(self, q, sig):
        """Factor sigma (..., 3, 3) at the points q (..., 3) per ROW_BLOCK
        rows from its lower triangle (adj / det, sqrt(det), Sylvester's test
        on the leading minors); remembered as this thread's last batch."""
        rows = sig.reshape(-1, 3, 3)
        inv = np.empty_like(rows)
        root = np.empty(len(rows))
        for block in _row_blocks(len(rows)):
            s, out = rows[block], inv[block]
            a, b, c = s[:, 0, 0], s[:, 1, 0], s[:, 2, 0]
            d, e, f = s[:, 1, 1], s[:, 2, 1], s[:, 2, 2]
            cof = {(0, 0): d * f - e * e, (0, 1): c * e - b * f,
                   (0, 2): b * e - c * d, (1, 1): a * f - c * c,
                   (1, 2): b * c - a * e, (2, 2): a * d - b * b}
            # det from the LDL^T pivots (cofactor expansion: kappa^2 eps)
            with np.errstate(divide="ignore", invalid="ignore"):
                p2, t = d - b * (b / a), e - c * (b / a)
                p3 = f - c * (c / a) - t * (t / p2)
                det = a * p2 * p3
            bad = ~((a > 0.0) & (p2 > 0.0) & (p3 > 0.0))
            if np.any(bad):
                k = int(np.argmax(bad))
                raise NotSpacelike(
                    "spatial metric not positive-definite at "
                    f"{q.reshape(-1, 3)[block.start + k].tolist()}: leading "
                    f"minors {[float(m[k]) for m in (a, a * p2, det)]}")
            for (i, j), x in cof.items():
                out[:, i, j] = out[:, j, i] = x / det
            root[block] = np.sqrt(det)
        inv = inv.reshape(sig.shape)
        root = root.reshape(sig.shape[:-2])
        if root.ndim == 0:
            root = float(root)
        else:
            root.flags.writeable = False
        sig.flags.writeable = inv.flags.writeable = False
        last = self._last
        last.key = (q.shape, q.tobytes())
        last.value = (sig, inv, root)
        return last.value

    def inverse(self, q):
        return self.factors(q)[1]

    def sqrt_det(self, q):
        return self.factors(q)[2]

    def noise_factor(self, q):
        """Lower-triangular G with G G^T = sigma^{-1}: the closed-form
        Cholesky factor of ``inverse``; NotSpacelike at a pivot <= 0."""
        inv = self.inverse(q)
        m = inv.reshape(-1, 3, 3)
        g = np.zeros_like(m)
        with np.errstate(invalid="ignore", divide="ignore"):
            g[:, 0, 0] = np.sqrt(m[:, 0, 0])
            g[:, 1:, 0] = m[:, 1:, 0] / g[:, :1, 0]
            g[:, 1, 1] = np.sqrt(m[:, 1, 1] - g[:, 1, 0] ** 2)
            g[:, 2, 1] = (m[:, 2, 1] - g[:, 2, 0] * g[:, 1, 0]) / g[:, 1, 1]
            g[:, 2, 2] = np.sqrt(m[:, 2, 2] - g[:, 2, 0] ** 2
                                 - g[:, 2, 1] ** 2)
        bad = ~np.all(np.diagonal(g, axis1=1, axis2=2) > 0.0, axis=-1)
        if np.any(bad):  # a pivot <= 0 leaves a diagonal entry 0 or NaN
            at = np.reshape(q, (-1, 3))[np.argmax(bad)].tolist()
            raise NotSpacelike(f"sigma^-1 has no Cholesky factor at {at}")
        return g.reshape(inv.shape)

    # --- derivatives ---------------------------------------------------------
    def sigma_derivatives(self, q, h=None):
        """D[..., i, j, k] = d sigma_jk / d q^i."""
        q = np.asarray(q, dtype=float)
        if self._dsigma is not None:
            return _stack_rows(self._dsigma, "sigma_gradient", q, (3, 3, 3))
        return central_gradient(self.metric, q, h or FD_STEP)

    def _inverse_and_derivatives(self, q, h):
        """sigma^{-1} (..., 3, 3) and D (..., 3, 3, 3) at points q."""
        return self.inverse(q), self.sigma_derivatives(q, h=h)

    @staticmethod
    def _christoffel(inv, d):
        # term[..., l, j, k]
        term = (
            np.swapaxes(d, -3, -2)     # d_j sigma_lk -> [l, j, k]
            + np.moveaxis(d, -3, -1)   # d_k sigma_lj -> [l, j, k]
            - d                        # d_l sigma_jk
        )
        return 0.5 * np.einsum("...il,...ljk->...ijk", inv, term)

    @staticmethod
    def _contraction(inv, d):
        # sigma^{il} (sigma^{jk} d_j s_lk - sigma^{jk} d_l s_jk / 2)
        v = (np.einsum("...jk,...jlk->...l", inv, d)
             - 0.5 * np.einsum("...jk,...ljk->...l", inv, d))
        return np.einsum("...il,...l->...i", inv, v)

    def _by_blocks(self, q, h, algebra):
        """``algebra(inv, d)`` on each block of ROW_BLOCK rows, stacked
        over the points' leading axes."""
        inv, d = self._inverse_and_derivatives(q, h)
        return _in_row_blocks(algebra, d.shape[:-3], inv, d)

    def christoffel(self, q, h=None):
        """Gamma[i, j, k] = 1/2 sigma^{il} (d_j s_lk + d_k s_lj - d_l s_jk)."""
        return self._by_blocks(q, h, self._christoffel)

    def christoffel_contraction(self, q):
        """sigma^{jk} Gamma^i_{jk}: the curvature correction in drifts."""
        return self._by_blocks(q, None, self._contraction)

    # --- constructors ---------------------------------------------------------
    @classmethod
    def euclidean(cls):
        return _ConstantPatch(lambda q: np.eye(3), name="euclidean")

    @classmethod
    def constant(cls, sigma_matrix):
        mat = np.asarray(sigma_matrix, dtype=float)
        return _ConstantPatch(
            lambda q: mat.copy(),
            sigma_gradient=lambda q: np.zeros((3, 3, 3)),
            name="constant",
        )


class _ConstantPatch(MetricPatch):
    """The patches of ``euclidean`` and ``constant``: ``simulate`` hoists
    their noise factor and the estimators drop their zero drift term."""

    is_constant = True


class _SurfacePatch(MetricPatch):
    """Metric of a chart's origin leaf in its spatial chart coordinates xi,
    whose batches go to the surface in one call.

    At q = ``chart.base_point(xi)`` = q0 + E0^-1 xi the metric is
    E0^-T sigma_q E0^-1 with sigma_q = 1 - f f the graph metric. Its
    derivatives come from the surface's closed-form height derivatives
    carried to xi: with g = E0^-T f and h = E0^-T f_ik E0^-1,
    d_a sigma_bc = -(h_ab g_c + g_b h_ac). The Christoffel symbols take
    sigma and its derivatives from that one height solve per batch.
    """

    def __init__(self, chart):
        super().__init__(None, name="chart-slice")
        self.chart = chart

    def metric(self, q):
        e_inv = self.chart.frame_matrix_inv
        return e_inv.T @ self.chart.surface.metric(
            self.chart.base_point(q)) @ e_inv

    def _metric_and_derivatives(self, q):
        """sigma and D[..., a, b, c] = d sigma_bc / d xi^a in closed form,
        from one height solve of the batch."""
        base = self.chart.base_point(q)
        surface, e_inv = self.chart.surface, self.chart.frame_matrix_inv
        f, fik = surface.height_derivatives(base)
        g = _rows_times(f, e_inv)  # E0^-T f, the height gradient in xi
        h = e_inv.T @ fik @ e_inv  # its Hessian in xi
        term = h[..., :, :, None] * -g[..., None, None, :]  # -h_ab g_c
        return (e_inv.T @ surface._metric_of(base, f) @ e_inv,
                term + np.swapaxes(term, -1, -2))

    def sigma_derivatives(self, q, h=None):
        """D[..., i, j, k] = d sigma_jk / d xi^i in closed form; ``h`` is
        not used."""
        return self._metric_and_derivatives(q)[1]

    def _inverse_and_derivatives(self, q, h):
        # sigma and its derivatives share one height solve; the
        # factorization is remembered as ``factors`` would remember it
        sig, d = self._metric_and_derivatives(q)
        return self._factorize(np.asarray(q, dtype=float), sig)[1], d


def chart_spatial_patch(chart):
    """The slice metric of the chart's origin leaf as a MetricPatch of the
    spatial chart coordinates xi, with one surface call per batch.

    The chart's frame normalization is a constant linear map E0, so the
    graph metric transforms by congruence: sigma_xi = E0^-T sigma_q E0^-1
    at q = q0 + E0^-1 xi. It pairs with densities of xi such as
    ``slice_density``.
    """
    return _SurfacePatch(chart)


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


def unit_sphere_patch():
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

    return MetricPatch(sigma, sigma_gradient=dsigma, name="unit_sphere")


# ---------------------------------------------------------------------------
# chart-level metric evaluations


def pullback_metric(chart, xi):
    """g_munu(xi) = eta_ab (dx^a/dxi^mu)(dx^b/dxi^nu) via the FD Jacobian.

    Takes (..., 4) and returns (..., 4, 4) from one inverse-map call.
    """
    a = chart.inverse_jacobian(xi)
    return np.swapaxes(a, -1, -2) @ ETA @ a


# ---------------------------------------------------------------------------
# curvature


def riemann(patch, q, h=DEFAULT_H):
    """R^i_{klm} at points (..., 3) from FD of the Christoffel field.

    Seven Christoffel rows per point: the six axis neighbours as one
    stencil batch, then the centre, so the patch's memo is left holding
    the factorization at q; the result is (..., 3, 3, 3, 3).
    """
    q = np.asarray(q, dtype=float)
    # dgamma[..., l, i, k, m] = d_l Gamma^i_km
    dgamma = central_gradient(lambda p: patch.christoffel(p, h=h), q, h)
    gamma = patch.christoffel(q, h=h)
    quad = np.einsum("...ial,...akm->...iklm", gamma, gamma)
    return (
        np.moveaxis(dgamma, -4, -2)  # d_l Gamma^i_km -> [i,k,l,m]
        - np.moveaxis(dgamma, -4, -1)  # d_m Gamma^i_kl
        + quad
        - np.swapaxes(quad, -1, -2)
    )


def ricci_scalar(patch, q):
    """sigma^{km} R^i_{kim} at points (...,3); a float for one point."""
    ricci = np.einsum("...ikim->...km", riemann(patch, q))
    return _float_or_array(
        np.einsum("...km,...km->...", patch.inverse(q), ricci))


_BUDGET_PROBES = np.array([
    [0.7, 0.3, 0.1],
    [1.3, -0.8, 0.4],
    [0.9, 1.1, -0.6],
    [1.7, 0.2, 0.8],
])


@lru_cache(maxsize=None)
def curvature_budget(h=DEFAULT_H):
    """FD curvature error budget C h^2, calibrated on the polar fixture.

    The polar patch is exactly flat, so the largest Riemann component it
    produces through the same FD pipeline (sigma derivatives included)
    measures the method error; the budget is ten times that residual,
    floored at a roundoff allowance. It depends on the step h alone, so
    it is computed once per step per process and cached.
    """
    patch = polar_flat_patch(analytic_derivatives=False)
    resid = float(np.max(np.abs(riemann(patch, _BUDGET_PROBES, h=h))))
    return 10.0 * max(resid, 1e-12)


def flatness_report(patch, points, budget=None):
    """Max |R^i_klm| over sample points against the FD budget, both at
    the stencil step DEFAULT_H.

    Returns a JSON-able dict; ``flat`` is True iff the largest residual
    stays below the budget.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if budget is None:
        budget = curvature_budget()
    vals = np.max(np.abs(riemann(patch, points)), axis=(-4, -3, -2, -1))
    at = int(np.argmax(vals))
    worst = float(vals[at])
    return {
        "max_riemann": worst,
        "budget": float(budget),
        "fd_step": DEFAULT_H,
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


def metric_compatibility_residual(patch, q):
    """max |nabla_i sigma_jk| over points (..., 3).

    Vanishes to FD accuracy (step FD_STEP) for the patch's own Christoffel
    symbols.
    """
    q = np.asarray(q, dtype=float)
    d = patch.sigma_derivatives(q)
    gamma = patch.christoffel(q)
    sig = patch.metric(q)
    nabla = (
        d
        - np.einsum("...lij,...lk->...ijk", gamma, sig)
        - np.einsum("...lik,...jl->...ijk", gamma, sig)
    )
    return float(np.max(np.abs(nabla)))


# ---------------------------------------------------------------------------
# diagnostics


def geometry_diagnostics(chart, half_width=1.0, n_per_axis=3, xi0=0.0):
    """Lattice summary of max|g0i|, max|g00 + 1|, sigma and curvature."""
    spatial = _lattice([np.linspace(-half_width, half_width, n_per_axis)] * 3)
    patch = chart_spatial_patch(chart)
    budget = curvature_budget()

    xi = np.concatenate([np.full((len(spatial), 1), float(xi0)), spatial],
                        axis=1)
    g = pullback_metric(chart, xi)
    max_g0i = float(np.max(np.abs(g[:, 0, 1:])))
    max_g00_dev = float(np.max(np.abs(g[:, 0, 0] + 1.0)))

    flat = flatness_report(patch, spatial, budget=budget)
    # the curvature's centre rows left sigma on the lattice in the memo
    eig_records = np.linalg.eigvalsh(patch.factors(spatial)[0]).tolist()
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

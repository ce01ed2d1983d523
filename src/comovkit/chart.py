"""Comoving coordinate charts from the phase flow and its level sets.

The construction: the current four-velocity V = eta dS / m is a timelike
gradient field, so the phase S falls strictly along every curve of the
congruence and labels its leaves. Parametrized by S, the congruence is

    dx^mu / dS = eta^{mu nu} d_nu S / (dS . dS),

which reaches the level S_target from any event x over the phase interval
[S(x), S_target], with no level event to locate. The level through the
chart origin is represented as a graph x0 = f(q) over the inertial spatial
coordinates. A point x is assigned

* time coordinate: the arc coordinate (c times proper time) at which the
  reference curve through the origin crosses the level of x. A copy of the
  origin rides in the same flow out to that level and carries the arc as a
  fifth state, d lambda / dS = -1 / (m |V|); the chart time is that arc;
* spatial coordinates: flow x to the origin level and read off the base
  coordinates of the foot point, linearly normalized at the origin so the
  chart is isometric there (the frame matrix is the principal square root of
  the induced surface metric).

The inverse map flows the origin in its arc parameter, dx / d lambda =
V / |V|, to find the target level, lifts the base point onto the origin
level and flows it there. Both maps and ``solve_height`` take a batch
ROW_BLOCK (512) rows at a time (``fields._in_row_blocks``), so every flow,
arc integration and height solve inside them sees at most one block and
their work memory is one block's whatever the batch; no row depends on
the others, so the values are those of one whole-batch call. Every flow
is classical RK4 over the whole block (Hairer, Norsett & Wanner, *Solving
ODEs I*, II.1), first with one step over each row's span. Its embedded
third-order companion, which reuses the next step's first stage, gives
each row an error estimate. Rows above
the chart tolerance, rows with a step end outside the domain and rows whose
flow field turned NaN at a stage are rerun with twice the steps, up to a
cap at which they raise StepFailure, LeftDomain or HypothesesFailed. The
domain is checked at step ends, so a curve that leaves it and comes back
within one step of the accepted count is not caught. Both maps, the
Jacobians and the pushforward take plain (..., 4) arrays of events; the
pushforward also takes the contravariant inertial components (..., 4) of
the vectors it maps. For a constant-gradient (plane-wave) field the flow
field is constant, RK4 is exact, and the chart is the closed-form Lorentz
boost into the rest frame.

Level-set heights that Newton leaves unconverged are found by one batched
bisection of the domain's time range.
"""

from dataclasses import dataclass, field

import numpy as np

from .constants import raise_index
from .errors import (
    HypothesesFailed,
    LeftDomain,
    NoBracket,
    NotSpacelike,
    OutOfDomain,
    RootFailure,
    StepFailure,
    ZeroSlope,
)
from .fields import (
    _float_or_array,
    _in_row_blocks,
    _rows_times,
    as_coords,
    central_gradient,
    check_theorem_hypotheses,
    dominance_certificate,
    four_velocity,
)

DEFAULT_RTOL = 1e-9
DEFAULT_ATOL = 1e-11
FLOW_STEPS = 1  # RK4 steps of a row's first attempt, over its whole span
MAX_FLOW_STEPS = 1024
JACOBIAN_STEP = 1e-3  # central-difference step of the map Jacobians


# ---------------------------------------------------------------------------
# the origin level set as a graph


class ReferenceSurface:
    """Graph x0 = f(q) of the phase level set through the chart origin.

    Every method takes base points q of shape (..., 3) and returns results
    stacked over the leading axes: ``height`` gives (...) (a float for one
    point), ``embed`` (..., 4), ``height_gradient`` (..., 3), ``metric``
    (..., 3, 3), ``height_derivatives`` the height gradient (..., 3) and
    Hessian (..., 3, 3), and ``orthogonality_residual`` (...) (a float for
    one point).
    """

    def __init__(self, bundle, origin):
        self.bundle = bundle
        self.origin = as_coords(origin).astype(float)
        self.level = float(bundle.phase(self.origin))
        self.scale = max(1.0, abs(self.level))
        self.slope_floor = 1e-10 * bundle.constants.mass * bundle.constants.c

    def height(self, q):
        return solve_height(self, q)

    def embed(self, q):
        q = np.asarray(q, dtype=float)
        return np.concatenate([np.asarray(self.height(q))[..., None], q],
                              axis=-1)

    def _slope(self, x, grad):
        """df/dq_i = -S_i / S_0 from the phase gradient at surface events x."""
        flat = np.abs(grad[..., 0]) < self.slope_floor
        if np.any(flat):
            n = int(np.argmax(flat.reshape(-1)))
            raise ZeroSlope(
                f"|dS/dx0| = {abs(grad.reshape(-1, 4)[n, 0]):.3e} below floor "
                f"at {x.reshape(-1, 4)[n].tolist()}"
            )
        return -grad[..., 1:] / grad[..., :1]

    def height_gradient(self, q):
        """df/dq_i = -S_i / S_0 at the surface point (implicit function)."""
        x = self.embed(q)
        return self._slope(x, self.bundle.phase_gradient(x))

    def metric(self, q):
        """Induced surface metric sigma_ij = delta_ij - f_i f_j."""
        return self._metric_of(q, self.height_gradient(q))

    @staticmethod
    def _metric_of(q, f):
        """sigma = 1 - f f from the height gradient f at base points q;
        NotSpacelike names the first point where |f| >= 1."""
        ff = np.einsum("...i,...i->...", f, f)
        bad = (1.0 - ff <= 0.0).reshape(-1)
        if np.any(bad):
            n = int(np.argmax(bad))
            raise NotSpacelike(
                f"|grad f| = {np.sqrt(ff.reshape(-1)[n]):.6g} >= 1 at "
                f"{np.reshape(q, (-1, 3))[n].tolist()}; the level set is not "
                "spacelike here"
            )
        return np.eye(3) - f[..., :, None] * f[..., None, :]

    def height_derivatives(self, q):
        """Height gradient f_i (..., 3), as ``height_gradient`` gives it,
        and Hessian f_ik (..., 3, 3) in closed form, from one height solve
        and one field evaluation at the surface events.

        Differentiating S(f(q), q) = level twice gives

            f_ik = -(S_ik + S_i0 f_k + S_0k f_i + S_00 f_i f_k) / S_0.
        """
        x = self.embed(q)
        _, grad, hess = self.bundle.density_and_phase_derivatives(x)
        f = self._slope(x, grad)
        mixed = hess[..., 1:, :1] * f[..., None, :]  # S_i0 f_k
        return f, -(hess[..., 1:, 1:] + mixed + np.swapaxes(mixed, -1, -2)
                    + hess[..., :1, :1] * f[..., :, None] * f[..., None, :]
                    ) / grad[..., :1, None]

    def orthogonality_residual(self, q):
        """max_i |eta(V, t_i)| for the tangent basis t_i = (f_i, e_i).

        Zero in exact arithmetic; measures height-solver error only.
        """
        x = self.embed(q)
        grad = self.bundle.phase_gradient(x)
        f = self._slope(x, grad)
        vcov = grad / self.bundle.constants.mass
        # covariant pairing with tangents: V_0 f_i + V_i
        return _float_or_array(
            np.max(np.abs(vcov[..., :1] * f + vcov[..., 1:]), axis=-1))


def solve_height(surface, q):
    """Solve S(x0, q) = level for x0 at base points q of shape (..., 3).

    A damped, trust-capped Newton runs on the whole batch, dropping points
    as they converge; each step takes the residual and the slope dS/dx0 from
    one ``phase_and_gradient`` call on the live points. Points it leaves
    unconverged (or converged outside the domain's x0 range) fall back
    together to one bisection of that range. The phase is strictly
    monotone in x0 wherever the hypotheses hold, so each root is unique.
    Residual tolerance is 1e-10 times the phase scale. Returns (...)
    heights, a float for one point. ZeroSlope and NoBracket name the
    offending base point. Batches run ROW_BLOCK base points at a time.
    """
    q = np.asarray(q, dtype=float)
    return _in_row_blocks(lambda rows: _solve_heights(surface, rows),
                          q.shape[:-1], q)


def _solve_heights(surface, q):
    """``solve_height`` on one batch of base points q (..., 3)."""
    bundle = surface.bundle
    rows = q.reshape(-1, 3)
    tol = 1e-10 * surface.scale
    tmin, tmax = bundle.domain.lo[0], bundle.domain.hi[0]

    t = np.full(len(rows), surface.origin[0])
    done = np.zeros(len(rows), dtype=bool)
    live = np.arange(len(rows))
    for _ in range(30):
        if not live.size:
            break
        phase, grad = bundle.phase_and_gradient(
            np.concatenate([t[live, None], rows[live]], axis=1))
        r = phase - surface.level
        # converged outside the domain height range: leave it to the bracket
        conv = np.abs(r) < tol
        done[live[conv & (tmin <= t[live]) & (t[live] <= tmax)]] = True
        live, r, slope = live[~conv], r[~conv], grad[~conv, 0]
        if not live.size:
            break
        flat = np.abs(slope) < surface.slope_floor
        if np.any(flat):
            n = int(np.argmax(flat))
            raise ZeroSlope(
                f"|dS/dx0| = {abs(slope[n]):.3e} below floor during height "
                f"solve for base point {rows[live[n]].tolist()}"
            )
        # keep Newton inside a sane trust region
        cap = 0.5 * (1.0 + np.abs(t[live]))
        t[live] = t[live] + np.clip(-r / slope, -cap, cap)
    rest = np.flatnonzero(~done)
    if rest.size:
        t[rest] = _bisect_heights(surface, rows[rest], tmin, tmax)
    return float(t[0]) if q.ndim == 1 else t.reshape(q.shape[:-1])


def _bisect_heights(surface, q, tmin, tmax):
    """Heights at base points (n, 3) by one batched bisection of [tmin, tmax].

    The phase is monotone in x0 under the chart hypotheses, so a sign change
    of S - level over the range holds its one root; NoBracket names the
    first base point without one. Every interval halves until it is
    narrower than 1e-14 (1 + max|t|) or stops shrinking.
    """

    def f(t):
        return surface.bundle.phase(
            np.concatenate([t[:, None], q], axis=1)) - surface.level

    lo, hi = np.full(len(q), tmin), np.full(len(q), tmax)
    f_lo = f(lo)
    unbracketed = np.sign(f_lo) * np.sign(f(hi)) > 0
    if np.any(unbracketed):
        raise NoBracket(f"no sign change of S - level on [{tmin}, {tmax}] "
                        f"for base point {q[np.argmax(unbracketed)].tolist()}")
    while True:
        mid = 0.5 * (lo + hi)
        tol = 1e-14 * (1.0 + np.maximum(np.abs(lo), np.abs(hi)))
        open_ = (hi - lo >= tol) & (lo < mid) & (mid < hi)
        if not np.any(open_):
            return mid
        f_mid = f(mid)
        # the root lies above mid where S - level keeps the sign it has at lo
        up = open_ & (np.sign(f_mid) == np.sign(f_lo))
        lo, f_lo = np.where(up, mid, lo), np.where(up, f_mid, f_lo)
        hi = np.where(open_ & ~up, mid, hi)


# ---------------------------------------------------------------------------
# flow to a phase level


@dataclass
class FlowStats:
    """Work counters of chart flows, filled by the maps that receive one.

    ``steps`` counts RK4 steps summed over rows, ``rhs_evaluations`` the
    phase-gradient rows evaluated (4 per step plus 1 per attempt), and
    ``max_error_estimate`` is the largest accepted per-row error estimate.
    ``attempts`` counts batched RK4 runs, one or more per row block of a
    map call, and ``rejected_rows`` the rows they rejected (above
    tolerance, outside the domain or with a NaN flow field), each time it
    rejected them. Rejected attempts count in the work but not in the
    estimate. Counters start at zero; the
    constructor takes none.
    """

    steps: int = field(default=0, init=False)
    rhs_evaluations: int = field(default=0, init=False)
    max_error_estimate: float = field(default=0.0, init=False)
    attempts: int = field(default=0, init=False)
    rejected_rows: int = field(default=0, init=False)

    def to_dict(self):
        return {
            "flow_attempts": int(self.attempts),
            "flow_rejected_rows": int(self.rejected_rows),
            "flow_steps": int(self.steps),
            "flow_rhs_evaluations": int(self.rhs_evaluations),
            "max_step_error_estimate": float(self.max_error_estimate),
        }


def _flow_field(bundle, x):
    """Contravariant phase gradient and dS . dS at events (n, 4).

    dS . dS is NaN where the gradient is not timelike, so the flow fields
    built from it are NaN there too.
    """
    grad = bundle.phase_gradient(x)
    up = raise_index(grad)
    norm = np.einsum("ni,ni->n", grad, up)
    return up, np.where(norm < 0.0, norm, np.nan)


def _phase_rhs(bundle):
    """(dx/dS, d lambda/dS) for states (x, lambda) of shape (n, 5)."""

    def rhs(y):
        up, norm = _flow_field(bundle, y[:, :4])
        return np.concatenate(
            [up / norm[:, None], -1.0 / np.sqrt(-norm)[:, None]], axis=1)

    return rhs


def _arc_rhs(bundle):
    """dx/d lambda = V / |V| for events of shape (n, 4)."""

    def rhs(y):
        up, norm = _flow_field(bundle, y)
        return up / np.sqrt(-norm)[:, None]

    return rhs


def _rk4(rhs, start, span, n_steps, domain):
    """n_steps classical RK4 steps from start over span (one per row).

    Returns the end states; per row, the summed local error estimate
    h |f(y_new) - k4| / 6, the gap to the embedded third-order solution
    (k1 + 2 k2 + 2 k3 + f(y_new)) h / 6, whose last stage is the next
    step's first; and per row whether a step end lies outside the domain.
    The domain is checked at step ends only (stage points may lie outside
    it). A stage where the flow field is NaN (the phase gradient is not
    timelike) leaves the row's estimate NaN, so no tolerance accepts it;
    at a start event it raises HypothesesFailed naming that event.
    """
    h = (span / n_steps)[:, None]
    lo, hi = domain.lo_array, domain.hi_array
    y = start
    k1 = rhs(y)
    bad = np.any(np.isnan(k1), axis=1)
    if np.any(bad):
        n = int(np.argmax(bad))
        raise HypothesesFailed(
            f"the phase gradient is not timelike at {start[n, :4].tolist()}; "
            "the field violates the chart hypotheses"
        )
    err = np.zeros(len(y))
    outside = np.zeros(len(y), dtype=bool)
    for _ in range(n_steps):
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        outside |= np.any((y[:, :4] < lo) | (y[:, :4] > hi), axis=1)
        k1 = rhs(y)
        err += np.max(np.abs(h * (k1 - k4)), axis=1) / 6.0
    return y, err, outside


def _integrate(rhs, start, span, domain, rtol, atol, stats):
    """Flow every row of start over its span, refining rejected rows.

    Every row first takes FLOW_STEPS RK4 steps over its whole span. A row
    is accepted when its error estimate is at most atol + rtol times its
    largest end component and no step end left the domain; the others are
    rerun together from their start with twice the steps. A row still
    rejected at the last count within MAX_FLOW_STEPS raises, naming its
    start event: LeftDomain if a step end left the domain, HypothesesFailed
    if its flow field was NaN, and StepFailure otherwise. Rows with a zero
    span stay at their start, which is exactly where a flow would leave
    them.
    """
    out = np.array(start, dtype=float)
    live = np.flatnonzero(span)
    n_steps = FLOW_STEPS
    while live.size:
        y, err, outside = _rk4(rhs, start[live], span[live], n_steps, domain)
        ok = (err <= atol + rtol * np.max(np.abs(y), axis=1)) & ~outside
        if stats is not None:
            stats.attempts += 1
            stats.rejected_rows += int(live.size - np.count_nonzero(ok))
            stats.steps += live.size * n_steps
            stats.rhs_evaluations += live.size * (4 * n_steps + 1)
            if np.any(ok):
                stats.max_error_estimate = max(stats.max_error_estimate,
                                               float(np.max(err[ok])))
        if 2 * n_steps > MAX_FLOW_STEPS and not np.all(ok):
            n = int(np.argmax(outside if np.any(outside) else ~ok))
            at = start[live[n], :4].tolist()
            if outside[n]:
                raise LeftDomain(f"congruence curve from {at} exits the "
                                 "field domain before reaching its target")
            if np.isnan(err[n]):
                raise HypothesesFailed(
                    "the phase gradient is not timelike along the congruence "
                    f"curve from {at}; the field violates the chart "
                    "hypotheses"
                )
            raise StepFailure(f"flow from {at} misses its tolerance with "
                              f"{n_steps} RK4 steps")
        out[live[ok]] = y[ok]
        live = live[~ok]
        n_steps *= 2
    return out


def _phase_flow(bundle, start, span, rtol, atol, stats):
    """Events (n, 4) flowed over phase spans (n,); returns (n, 5) (x, arc)."""
    states = np.concatenate([start, np.zeros((len(start), 1))], axis=1)
    return _integrate(_phase_rhs(bundle), states, span, bundle.domain,
                      rtol, atol, stats)


def flow_to_level(bundle, start, s_target, rtol=DEFAULT_RTOL,
                  atol=DEFAULT_ATOL, stats=None):
    """Follow the congruence from start until the phase reaches s_target.

    ``start`` is (..., 4) and ``s_target`` broadcasts against its leading
    axes; returns the crossing events (..., 4). The phase is strictly
    monotone along curves, so each crossing is unique, and in the phase
    parameter it lies at the end of the interval [S(start), s_target].
    """
    start = np.asarray(start, dtype=float)
    rows = start.reshape(-1, 4)
    target = np.broadcast_to(np.asarray(s_target, dtype=float),
                             start.shape[:-1]).reshape(-1)
    end = _phase_flow(bundle, rows, target - bundle.phase(rows), rtol, atol,
                      stats)
    return end[:, :4].reshape(start.shape)


# ---------------------------------------------------------------------------
# the chart


class ComovingChart:
    """Diffeomorphism between inertial and comoving coordinates.

    Immutable after construction: the maps keep no reference curve or
    cache, so concurrent calls share no mutable state. ``forward_map``,
    ``inverse_map``, ``jacobian``, ``inverse_jacobian`` and ``pushforward``
    take one event (4,) or a batch (..., 4), and each makes one map call
    over its batch, which flows it ROW_BLOCK (512) events at a time; pass
    a FlowStats as ``stats`` to count their flow work.

    With ``validate`` the chart refuses, with HypothesesFailed, a field
    whose hypotheses report fails. That report is ``hypothesis_report``
    when one is given (a caller that has already scanned the bundle hands
    its report over). Given none, the chart accepts a field whose
    ``dominance_certificate`` holds without scanning it, since the
    certificate proves the hypotheses on all of M^4, and otherwise scans
    the default lattice with ``check_theorem_hypotheses``. The report is
    kept as ``hypothesis_report``: the given one, the scan's, or None when
    no report was given and none was scanned.
    """

    def __init__(self, bundle, origin=None, rtol=DEFAULT_RTOL,
                 atol=DEFAULT_ATOL, validate=True, hypothesis_report=None):
        self.bundle = bundle
        if origin is None:
            origin = 0.5 * (bundle.domain.lo_array + bundle.domain.hi_array)
        self.origin = as_coords(origin).astype(float)
        if not bundle.domain.contains(self.origin):
            raise OutOfDomain("chart origin must lie inside the field domain")
        self.rtol = rtol
        self.atol = atol
        if validate and hypothesis_report is None:
            certificate = dominance_certificate(bundle)
            if not (certificate and certificate["certified"]):
                hypothesis_report = check_theorem_hypotheses(bundle)
        if validate and hypothesis_report is not None \
                and not hypothesis_report.passed:
            raise HypothesesFailed(
                "field fails the chart hypotheses: "
                + ", ".join(hypothesis_report.violated)
            )
        self.hypothesis_report = hypothesis_report

        self.surface = ReferenceSurface(bundle, self.origin)
        self.base_origin = self.origin[1:].copy()
        sigma0 = self.surface.metric(self.base_origin)
        w, rot = np.linalg.eigh(sigma0)
        if np.min(w) <= 0.0:
            raise NotSpacelike("origin surface metric is not positive definite")
        # principal square root: the unique symmetric positive frame matrix,
        # which realizes the identity-rotation normal frame at the origin
        self.frame_matrix = rot @ np.diag(np.sqrt(w)) @ rot.T
        self.frame_matrix_inv = rot @ np.diag(1.0 / np.sqrt(w)) @ rot.T

    def base_point(self, xi_sp):
        """Base coordinates q = q0 + E0^-1 xi (..., 3) of spatial chart
        coordinates xi (..., 3) on the origin leaf."""
        return self.base_origin + _rows_times(xi_sp, self.frame_matrix_inv.T)

    # --- maps ---------------------------------------------------------------
    def forward_map(self, x, stats=None):
        """Inertial events (..., 4) -> comoving coordinates (xi0, ..., xi3)."""
        x = as_coords(x)
        return _in_row_blocks(lambda rows: self._forward(rows, stats),
                              x.shape[:-1], x)

    def _forward(self, x, stats):
        rows = x.reshape(-1, 4)
        outside = ~self.bundle.domain.contains(rows)
        if np.any(outside):
            raise OutOfDomain(f"event {rows[np.argmax(outside)].tolist()} "
                              "outside the field domain")
        n = len(rows)
        s_x = self.bundle.phase(rows)
        level = self.surface.level
        # each event flows to the origin leaf while a copy of the origin
        # flows out to the event's leaf, carrying the reference arc
        start = np.concatenate([rows,
                                np.broadcast_to(self.origin, rows.shape)])
        end = _phase_flow(self.bundle, start,
                          np.concatenate([level - s_x, s_x - level]),
                          self.rtol, self.atol, stats)
        xi_sp = _rows_times(end[:n, 1:4] - self.base_origin,
                            self.frame_matrix.T)
        xi = np.concatenate([end[n:, 4:], xi_sp], axis=1)
        return xi.reshape(x.shape)

    def inverse_map(self, xi, stats=None):
        """Comoving coordinates (..., 4) -> inertial events."""
        xi = as_coords(xi)
        return _in_row_blocks(lambda rows: self._inverse(rows, stats),
                              xi.shape[:-1], xi)

    def _inverse(self, xi, stats):
        rows = xi.reshape(-1, 4)
        # the reference curve in its arc parameter, once per distinct time
        arcs, which = np.unique(rows[:, 0], return_inverse=True)
        ref = _integrate(_arc_rhs(self.bundle),
                         np.broadcast_to(self.origin, (len(arcs), 4)), arcs,
                         self.bundle.domain, self.rtol, self.atol, stats)
        s_target = self.bundle.phase(ref)[which]
        lift = self.surface.embed(self.base_point(rows[:, 1:]))
        return flow_to_level(self.bundle, lift, s_target, rtol=self.rtol,
                             atol=self.atol, stats=stats).reshape(xi.shape)

    # --- derivatives ---------------------------------------------------------
    def jacobian(self, x, stats=None):
        """d xi / d x (..., 4, 4) by central differences of the forward map."""
        x = as_coords(x)
        jac = np.swapaxes(central_gradient(
            lambda p: self.forward_map(p, stats=stats), x, JACOBIAN_STEP),
            -1, -2)
        singular = np.abs(np.linalg.det(jac)) < 1e-12
        if np.any(singular):
            n = int(np.argmax(singular.reshape(-1)))
            raise RootFailure("chart jacobian is numerically singular at "
                              f"{x.reshape(-1, 4)[n].tolist()}")
        return jac

    def inverse_jacobian(self, xi):
        """d x / d xi (..., 4, 4) by central differences of the inverse map."""
        return np.swapaxes(central_gradient(
            self.inverse_map, as_coords(xi), JACOBIAN_STEP), -1, -2)

    def pushforward(self, vec, x, stats=None):
        """Chart components (..., 4) of the vectors with contravariant
        inertial components vec (..., 4) at events x (..., 4)."""
        return np.einsum("...mn,...n->...m", self.jacobian(x, stats=stats),
                         vec)


# ---------------------------------------------------------------------------
# closed-form boost reference


def boost_to_rest_frame(velocity3, c=1.0):
    """Lorentz boost matrix into the rest frame of a constant 3-velocity.

    Applied to column events (x0, x). For v = 0.6 c along x1 the diagonal
    block is gamma = 1.25 and the time-space entries are -0.75.
    """
    v = np.asarray(velocity3, dtype=float)
    beta = v / c
    b2 = float(beta @ beta)
    if b2 >= 1.0:
        raise ValueError("boost velocity must be below c")
    if b2 == 0.0:
        return np.eye(4)
    gamma = 1.0 / np.sqrt(1.0 - b2)
    out = np.empty((4, 4))
    out[0, 0] = gamma
    out[0, 1:] = -gamma * beta
    out[1:, 0] = -gamma * beta
    out[1:, 1:] = np.eye(3) + (gamma - 1.0) * np.outer(beta, beta) / b2
    return out


def chart_diagnostics(chart, n_samples=40, seed=0):
    """Round-trip, orthogonality, pushforward and flow-work statistics.

    The result is JSON-able; ``flow_attempts``, ``flow_rejected_rows``,
    ``flow_steps``, ``flow_rhs_evaluations`` and ``max_step_error_estimate``
    are the FlowStats counters of its map calls. ``hypothesis_report`` is
    the chart's report, or a scan of the default lattice when the chart
    holds none (a certified field, or a chart built without ``validate``).
    """
    rng = np.random.default_rng(seed)
    dom = chart.bundle.domain
    half = np.minimum(dom.extent / 2.0, 2.0) * 0.7
    mid = 0.5 * (dom.lo_array + dom.hi_array)
    lo, hi = mid - half, mid + half
    pts = rng.uniform(lo, hi, size=(n_samples, 4))
    stats = FlowStats()
    back = chart.inverse_map(chart.forward_map(pts, stats=stats), stats=stats)
    rt = np.max(np.abs(back - pts), axis=1)
    push = chart.pushforward(raise_index(four_velocity(chart.bundle, pts)),
                             pts, stats=stats)
    spatial_resid = np.max(np.abs(push[:, 1:]), axis=1) / np.abs(push[:, 0])
    ortho = chart.surface.orthogonality_residual(
        rng.uniform(lo[1:], hi[1:], size=(10, 3)))
    report = chart.hypothesis_report or check_theorem_hypotheses(chart.bundle)
    return {
        "origin": chart.origin.tolist(),
        "time_convention": "proper_time",
        "round_trip_max": float(rt.max()),
        "round_trip_mean": float(rt.mean()),
        "pushforward_spatial_max": float(spatial_resid.max()),
        "orthogonality_max": float(ortho.max()),
        "hypothesis_report": report.to_dict(),
        "n_samples": int(n_samples),
        **stats.to_dict(),
    }

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
  fifth state, d lambda / dS = -1 / (m |V|); a TimeConvention may regauge it;
* spatial coordinates: flow x to the origin level and read off the base
  coordinates of the foot point, linearly normalized at the origin so the
  chart is isometric there (the frame matrix is the principal square root of
  the induced surface metric).

The inverse map flows the origin in its arc parameter, dx / d lambda =
V / |V|, to find the target level, lifts the base point onto the origin
level and flows it there. Every flow is one fixed-step classical RK4 over
the whole batch (Hairer, Norsett & Wanner, *Solving ODEs I*, II.1). Its
embedded third-order companion, which reuses the next step's first stage,
gives each row an error estimate; rows above the chart tolerance are rerun
with twice the steps, up to a cap that raises StepFailure. Both maps, the
Jacobians and the pushforward take (..., 4) arrays. For a constant-gradient
(plane-wave) field the flow field is constant, RK4 is exact, and the chart
is the closed-form Lorentz boost into the rest frame.

``Worldline`` and ``integrate_curve`` integrate one congruence curve in its
proper-time parameter with adaptive dense output; the chart does not use
them.
"""

import bisect
import threading
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

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
    FourVectorField,
    SpacetimePoint,
    as_coords,
    check_theorem_hypotheses,
    four_velocity_contravariant,
)

DEFAULT_RTOL = 1e-9
DEFAULT_ATOL = 1e-11
FLOW_STEPS = 4  # RK4 steps of a first attempt; rejected rows double them
MAX_FLOW_STEPS = 1024


def _contravariant(field):
    if isinstance(field, FourVectorField):
        if field.variance == "covariant":
            field = field.with_flipped_index()
        return field
    raise TypeError("expected a FourVectorField")


def _domain_exit_event(domain, margin=0.0):
    lo = domain.lo_array + margin
    hi = domain.hi_array - margin

    def event(t, state):
        x = state[:4]
        return float(min(np.min(x - lo), np.min(hi - x)))

    event.terminal = True
    event.direction = -1
    return event


# ---------------------------------------------------------------------------
# integral curves


class Worldline:
    """An integral curve of the congruence with dense output.

    The curve parameter tau satisfies dx/dtau = V^mu(x); the arc
    coordinate lambda accumulates integral sqrt(-dx_mu dx^mu), so for a
    unit-norm four-velocity lambda = c tau. Segments are integrated on
    demand in both directions; the phase is checked to decrease strictly
    along the curve at every accepted solver step. Growth and segment
    lookup hold one lock, so concurrent callers may share a curve.
    """

    def __init__(self, velocity, x0, domain=None, phase=None,
                 rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL):
        self.velocity = _contravariant(velocity)
        self.x0 = as_coords(x0, "inertial").astype(float)
        self.domain = domain
        self.phase = phase
        self.rtol = rtol
        self.atol = atol
        self.samples = [(0.0, SpacetimePoint(tuple(self.x0)))]
        self._segments = []  # (lo, hi, OdeSolution), sorted by lo
        self._starts = []
        self._cover = [0.0, 0.0]
        self._edge_state = {
            1: np.concatenate([self.x0, [0.0]]),
            -1: np.concatenate([self.x0, [0.0]]),
        }
        self._exit_tau = {1: None, -1: None}
        # reentrant: tau_from_arc grows the curve while reading arcs from it
        self._lock = threading.RLock()

    def _rhs(self, t, state):
        v = self.velocity(state[:4])
        speed = np.sqrt(-np.einsum("i,i->", v, raise_index(v)))
        return np.concatenate([v, [speed]])

    def _grow(self, direction, length):
        if self._exit_tau[direction] is not None:
            raise LeftDomain(
                "worldline leaves the field domain at tau = "
                f"{self._exit_tau[direction]:.6g}"
            )
        t0 = self._cover[1] if direction > 0 else self._cover[0]
        t1 = t0 + direction * length
        events = []
        if self.domain is not None:
            events.append(_domain_exit_event(self.domain))
        sol = solve_ivp(
            self._rhs, (t0, t1), self._edge_state[direction],
            method="RK45", dense_output=True, rtol=self.rtol,
            atol=self.atol, events=events or None,
        )
        if sol.status == -1:
            raise StepFailure(f"curve integration failed: {sol.message}")
        reached = sol.t[-1]
        lo, hi = (t0, reached) if direction > 0 else (reached, t0)
        if hi > lo:
            idx = bisect.bisect_left(self._starts, lo)
            self._segments.insert(idx, (lo, hi, sol.sol))
            self._starts.insert(idx, lo)
            for t, y in zip(sol.t, sol.y.T):
                if t != t0:
                    self.samples.append((float(t), SpacetimePoint(tuple(y[:4]))))
            self.samples.sort(key=lambda s: s[0])
        self._edge_state[direction] = sol.y[:, -1]
        if direction > 0:
            self._cover[1] = reached
        else:
            self._cover[0] = reached
        if sol.status == 1:  # domain-exit event fired
            self._exit_tau[direction] = reached
        if self.phase is not None and len(sol.t) > 1:
            s = self.phase(sol.y[:4].T)
            ds = np.diff(s) * direction
            if np.any(ds >= 0):
                raise HypothesesFailed(
                    "phase is not strictly decreasing along the curve; the "
                    "field violates the chart hypotheses"
                )

    def ensure(self, tau):
        """Extend integration so tau lies inside the covered span."""
        with self._lock:
            guard = 0
            while tau > self._cover[1]:
                self._grow(1, max(1.0, 1.1 * (tau - self._cover[1])))
                guard += 1
                if guard > 64:
                    raise RootFailure("worldline extension did not reach tau")
            guard = 0
            while tau < self._cover[0]:
                self._grow(-1, max(1.0, 1.1 * (self._cover[0] - tau)))
                guard += 1
                if guard > 64:
                    raise RootFailure("worldline extension did not reach tau")

    def _state(self, tau):
        with self._lock:
            self.ensure(tau)
            if not self._segments:
                return np.concatenate([self.x0, [0.0]])
            idx = max(bisect.bisect_right(self._starts, tau) - 1, 0)
            lo, hi, sol = self._segments[idx]
        if tau > hi + 1e-12 or tau < lo - 1e-12:
            if tau == 0.0:
                return np.concatenate([self.x0, [0.0]])
            raise RootFailure(f"tau = {tau:.6g} outside integrated segments")
        return sol(np.clip(tau, lo, hi))

    def point(self, tau):
        """Event on the curve at parameter tau."""
        return self._state(tau)[:4]

    def arc(self, tau):
        """Arc coordinate lambda (c times proper time) at parameter tau."""
        return float(self._state(tau)[4])

    def tau_from_arc(self, lam):
        """Invert the strictly increasing arc map by bracketed root-finding."""
        if lam == 0.0:
            return 0.0
        with self._lock:
            guard = 0
            while self.arc(self._cover[1]) < lam:
                self._grow(1, max(1.0, lam - self.arc(self._cover[1])))
                guard += 1
                if guard > 64:
                    raise RootFailure("arc target not reached")
            while self.arc(self._cover[0]) > lam:
                self._grow(-1, max(1.0, self.arc(self._cover[0]) - lam))
                guard += 1
                if guard > 64:
                    raise RootFailure("arc target not reached")
            lo, hi = self._cover
        return brentq(
            lambda t: self.arc(t) - lam, lo, hi,
            xtol=1e-13 * (1.0 + abs(lam)), rtol=8.9e-16,
        )

    @property
    def span(self):
        with self._lock:
            return tuple(self._cover)


def integrate_curve(velocity, x0, tau_span, domain=None, phase=None,
                    rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL):
    """Integrate the congruence curve through x0 over tau_span.

    Returns a Worldline covering at least [min(tau_span), max(tau_span)]
    (it can be extended later through ``ensure``). The four-velocity may be
    given in either variance; covariant input is raised with the flat
    metric first.
    """
    wl = Worldline(velocity, x0, domain=domain, phase=phase,
                   rtol=rtol, atol=atol)
    lo, hi = float(min(tau_span)), float(max(tau_span))
    if hi > 0:
        wl.ensure(hi)
    if lo < 0:
        wl.ensure(lo)
    return wl


# ---------------------------------------------------------------------------
# the origin level set as a graph


class ReferenceSurface:
    """Graph x0 = f(q) of the phase level set through the chart origin.

    Every method takes base points q of shape (..., 3) and returns results
    stacked over the leading axes: ``height`` gives (...) (a float for one
    point), ``embed`` (..., 4), ``height_gradient`` (..., 3), ``metric``
    (..., 3, 3) and ``orthogonality_residual`` (...) (a float for one point).
    """

    def __init__(self, bundle, origin, slope_floor=None):
        self.bundle = bundle
        self.origin = as_coords(origin, "inertial").astype(float)
        self.level = float(bundle.phase(self.origin))
        self.scale = max(1.0, abs(self.level))
        self.slope_floor = (
            slope_floor
            if slope_floor is not None
            else 1e-10 * bundle.constants.mass * bundle.constants.c
        )

    def height(self, q, guess=None):
        return solve_height(self, q, guess=guess)

    def embed(self, q):
        q = np.asarray(q, dtype=float)
        return np.concatenate([np.asarray(self.height(q))[..., None], q],
                              axis=-1)

    def _slope_at(self, x):
        """Phase gradient at surface events x and df/dq_i = -S_i / S_0."""
        grad = self.bundle.phase_gradient(x)
        flat = np.abs(grad[..., 0]) < self.slope_floor
        if np.any(flat):
            n = int(np.argmax(flat.reshape(-1)))
            raise ZeroSlope(
                f"|dS/dx0| = {abs(grad.reshape(-1, 4)[n, 0]):.3e} below floor "
                f"at {x.reshape(-1, 4)[n].tolist()}"
            )
        return grad, -grad[..., 1:] / grad[..., :1]

    def height_gradient(self, q):
        """df/dq_i = -S_i / S_0 at the surface point (implicit function)."""
        return self._slope_at(self.embed(q))[1]

    def metric(self, q):
        """Induced surface metric sigma_ij = delta_ij - f_i f_j."""
        f = self.height_gradient(q)
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

    def orthogonality_residual(self, q):
        """max_i |eta(V, t_i)| for the tangent basis t_i = (f_i, e_i).

        Zero in exact arithmetic; measures height-solver error only.
        """
        grad, f = self._slope_at(self.embed(q))
        vcov = grad / self.bundle.constants.mass
        # covariant pairing with tangents: V_0 f_i + V_i
        resid = np.max(np.abs(vcov[..., :1] * f + vcov[..., 1:]), axis=-1)
        return float(resid) if resid.ndim == 0 else resid


def solve_height(surface, q, guess=None):
    """Solve S(x0, q) = level for x0 at base points q of shape (..., 3).

    A damped, trust-capped Newton runs on the whole batch, dropping points
    as they converge; points it leaves unconverged (or converged outside
    the domain's x0 range) fall back one by one to bracket expansion and
    ``brentq``. The phase is strictly monotone in x0 wherever the
    hypotheses hold, so each root is unique. Residual tolerance is 1e-10
    times the phase scale. Returns (...) heights, a float for one point.
    ZeroSlope and NoBracket name the offending base point.
    """
    bundle = surface.bundle
    q = np.asarray(q, dtype=float)
    rows = q.reshape(-1, 3)
    tol = 1e-10 * surface.scale
    start = np.broadcast_to(
        np.asarray(surface.origin[0] if guess is None else guess, dtype=float),
        q.shape[:-1],
    ).reshape(-1)

    if bundle.domain is not None:
        tmin = bundle.domain.lo[0]
        tmax = bundle.domain.hi[0]
    else:
        tmin, tmax = -np.inf, np.inf

    t = start.copy()
    done = np.zeros(len(rows), dtype=bool)
    live = np.arange(len(rows))
    for _ in range(30):
        if not live.size:
            break
        x = np.concatenate([t[live, None], rows[live]], axis=1)
        r = bundle.phase(x) - surface.level
        # converged outside the domain height range: leave it to the bracket
        conv = np.abs(r) < tol
        done[live[conv & (tmin <= t[live]) & (t[live] <= tmax)]] = True
        live, x, r = live[~conv], x[~conv], r[~conv]
        if not live.size:
            break
        slope = bundle.phase_gradient(x)[:, 0]
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
    for n in np.flatnonzero(~done):
        t[n] = _bracket_height(surface, rows[n], start[n], tmin, tmax)
    return float(t[0]) if q.ndim == 1 else t.reshape(q.shape[:-1])


def _bracket_height(surface, q, x0, tmin, tmax):
    """Height at one base point by bracket expansion from x0 and brentq."""

    def f(t):
        return float(surface.bundle.phase(np.concatenate([[t], q]))) \
            - surface.level

    lo = hi = x0
    width = 0.5
    for _ in range(60):
        lo = max(lo - width, tmin)
        hi = min(hi + width, tmax)
        flo, fhi = f(lo), f(hi)
        if flo == 0.0:
            return lo
        if fhi == 0.0:
            return hi
        if flo * fhi <= 0.0:
            return brentq(f, lo, hi, xtol=1e-14 * (1.0 + abs(x0)))
        if lo == tmin and hi == tmax:
            break
        width *= 2.0
    raise NoBracket(
        f"no sign change of S - level found for base point {q.tolist()}"
    )


# ---------------------------------------------------------------------------
# time gauge


class TimeConvention:
    """Gauge for the chart time coordinate along the reference curve.

    Default ("proper_time"): xi0 equals the arc coordinate lambda, giving
    g00 = -1. A custom gauge supplies ``metric_time_time`` (the negative
    g00(xi0) component) together with ``arc_primitive``, the primitive
    lambda(xi0) = integral_0^xi0 sqrt(-g00(s)) ds, which must be strictly
    increasing and vanish at 0.
    """

    def __init__(self, name="proper_time", metric_time_time=None,
                 arc_primitive=None):
        custom = metric_time_time is not None or arc_primitive is not None
        if custom and (metric_time_time is None or arc_primitive is None):
            raise ValueError(
                "custom time conventions need both metric_time_time and "
                "arc_primitive"
            )
        self.name = name
        self._g00 = metric_time_time
        self._primitive = arc_primitive

    @property
    def is_proper_time(self):
        return self._g00 is None

    def g00(self, xi0):
        if self._g00 is None:
            return -1.0
        val = float(self._g00(xi0))
        if val >= 0.0:
            raise ValueError("g00 must be negative for a timelike coordinate")
        return val

    def lambda_from_time(self, xi0):
        """Arc coordinate at chart time xi0 (a float or an array)."""
        if self._primitive is None:
            return _float_or_array(xi0)
        return _map_values(self._primitive, xi0)

    def time_from_lambda(self, lam):
        """Chart time at arc coordinate lam (a float or an array)."""
        if self._primitive is None:
            return _float_or_array(lam)
        return _map_values(self._invert_primitive, lam)

    def _invert_primitive(self, lam):
        lo, hi = -1.0, 1.0
        for _ in range(200):
            if self._primitive(lo) <= lam <= self._primitive(hi):
                return brentq(
                    lambda t: self._primitive(t) - lam, lo, hi,
                    xtol=1e-13 * (1.0 + abs(lam)),
                )
            lo *= 2.0
            hi *= 2.0
        raise RootFailure("time gauge primitive could not be inverted")


def _float_or_array(values):
    out = np.asarray(values, dtype=float)
    return float(out) if out.ndim == 0 else out


def _map_values(func, values):
    """A pointwise scalar function applied over a float or an array."""
    out = np.vectorize(lambda v: float(func(float(v))), otypes=[float])(
        np.asarray(values, dtype=float))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# flow to a phase level


@dataclass
class FlowStats:
    """Work counters of chart flows, filled by the maps that receive one.

    ``steps`` counts RK4 steps summed over rows, ``rhs_evaluations`` the
    phase-gradient rows evaluated (4 per step plus 1 per attempt), and
    ``max_error_estimate`` is the largest accepted per-row error estimate.
    Rejected attempts count in the work but not in the estimate.
    """

    steps: int = 0
    rhs_evaluations: int = 0
    max_error_estimate: float = 0.0

    def to_dict(self):
        return {
            "flow_steps": int(self.steps),
            "flow_rhs_evaluations": int(self.rhs_evaluations),
            "max_step_error_estimate": float(self.max_error_estimate),
        }


def _flow_field(bundle, x):
    """Contravariant phase gradient and dS . dS at events (n, 4).

    Raises HypothesesFailed naming the first event where the gradient is not
    timelike.
    """
    grad = bundle.phase_gradient(x)
    up = raise_index(grad)
    norm = np.einsum("ni,ni->n", grad, up)
    bad = norm >= 0.0
    if np.any(bad):
        n = int(np.argmax(bad))
        raise HypothesesFailed(
            f"the phase gradient is not timelike at {x[n].tolist()}; the "
            "field violates the chart hypotheses"
        )
    return up, norm


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

    Returns the end states and, per row, the summed local error estimate
    h |f(y_new) - k4| / 6: the gap to the embedded third-order solution
    (k1 + 2 k2 + 2 k3 + f(y_new)) h / 6, whose last stage is the next
    step's first. Raises LeftDomain naming the start event of a row whose
    step ends outside the domain.
    """
    h = (span / n_steps)[:, None]
    lo, hi = domain.lo_array, domain.hi_array
    y = start
    k1 = rhs(y)
    err = np.zeros(len(y))
    for _ in range(n_steps):
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        outside = np.any((y[:, :4] < lo) | (y[:, :4] > hi), axis=1)
        if np.any(outside):
            n = int(np.argmax(outside))
            raise LeftDomain(
                f"congruence curve from {start[n, :4].tolist()} exits the "
                "field domain before reaching its target"
            )
        k1 = rhs(y)
        err += np.max(np.abs(h * (k1 - k4)), axis=1) / 6.0
    return y, err


def _integrate(rhs, start, span, domain, rtol, atol, stats):
    """Flow every row of start over its span, refining rejected rows.

    A row is accepted when its error estimate is at most atol + rtol times
    its largest end component; the others are rerun from their start with
    twice the steps, and a row still rejected at MAX_FLOW_STEPS raises
    StepFailure naming its start event. Rows with a zero span stay at
    their start, which is exactly where a flow would leave them.
    """
    out = np.array(start, dtype=float)
    live = np.flatnonzero(span)
    n_steps = FLOW_STEPS
    while live.size:
        if n_steps > MAX_FLOW_STEPS:
            raise StepFailure(
                f"flow from {start[live[0], :4].tolist()} misses its "
                f"tolerance with {MAX_FLOW_STEPS} RK4 steps"
            )
        y, err = _rk4(rhs, start[live], span[live], n_steps, domain)
        ok = err <= atol + rtol * np.max(np.abs(y), axis=1)
        if stats is not None:
            stats.steps += live.size * n_steps
            stats.rhs_evaluations += live.size * (4 * n_steps + 1)
            if np.any(ok):
                stats.max_error_estimate = max(stats.max_error_estimate,
                                               float(np.max(err[ok])))
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
    take one event (4,) or a batch (..., 4), and each makes one batched
    map call; pass a FlowStats as ``stats`` to count their flow work.
    """

    def __init__(self, bundle, origin=None, time_convention=None,
                 rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL, validate=True,
                 hypothesis_box=None):
        self.bundle = bundle
        if origin is None:
            origin = 0.5 * (bundle.domain.lo_array + bundle.domain.hi_array)
        self.origin = as_coords(origin, "inertial").astype(float)
        if not bundle.domain.contains(self.origin):
            raise OutOfDomain("chart origin must lie inside the field domain")
        self.time_convention = time_convention or TimeConvention()
        self.rtol = rtol
        self.atol = atol
        if validate:
            report = check_theorem_hypotheses(bundle, box=hypothesis_box)
            if not report.passed:
                raise HypothesesFailed(
                    "field fails the chart hypotheses: "
                    + ", ".join(report.violated)
                )
            self.hypothesis_report = report
        else:
            self.hypothesis_report = None

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

    # --- maps ---------------------------------------------------------------
    def forward_map(self, x, stats=None):
        """Inertial events (..., 4) -> comoving coordinates (xi0, ..., xi3)."""
        wrap = isinstance(x, SpacetimePoint)
        x = as_coords(x, "inertial")
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
        xi0 = self.time_convention.time_from_lambda(end[n:, 4])
        xi_sp = (end[:n, 1:4] - self.base_origin) @ self.frame_matrix.T
        xi = np.concatenate([xi0[:, None], xi_sp], axis=1)
        xi = xi.reshape(x.shape)
        return SpacetimePoint(tuple(xi), frame="comoving") if wrap else xi

    def inverse_map(self, xi, stats=None):
        """Comoving coordinates (..., 4) -> inertial events."""
        wrap = isinstance(xi, SpacetimePoint)
        xi = as_coords(xi, "comoving")
        rows = xi.reshape(-1, 4)
        lam = self.time_convention.lambda_from_time(rows[:, 0])
        # the reference curve in its arc parameter, once per distinct time
        arcs, which = np.unique(lam, return_inverse=True)
        ref = _integrate(_arc_rhs(self.bundle),
                         np.broadcast_to(self.origin, (len(arcs), 4)), arcs,
                         self.bundle.domain, self.rtol, self.atol, stats)
        s_target = self.bundle.phase(ref)[which]
        lift = self.surface.embed(
            self.base_origin + rows[:, 1:] @ self.frame_matrix_inv.T)
        x = flow_to_level(self.bundle, lift, s_target, rtol=self.rtol,
                          atol=self.atol, stats=stats).reshape(xi.shape)
        return SpacetimePoint(tuple(x), frame="inertial") if wrap else x

    # --- derivatives ---------------------------------------------------------
    def jacobian(self, x, step=1e-3, stats=None):
        """d xi / d x (..., 4, 4) by central differences of the forward map."""
        x = as_coords(x, "inertial")
        jac = _central_jacobian(
            lambda p: self.forward_map(p, stats=stats), x, step)
        singular = np.abs(np.linalg.det(jac)) < 1e-12
        if np.any(singular):
            n = int(np.argmax(singular.reshape(-1)))
            raise RootFailure("chart jacobian is numerically singular at "
                              f"{x.reshape(-1, 4)[n].tolist()}")
        return jac

    def inverse_jacobian(self, xi, step=1e-3, stats=None):
        """d x / d xi (..., 4, 4) by central differences of the inverse map."""
        return _central_jacobian(
            lambda p: self.inverse_map(p, stats=stats),
            as_coords(xi, "comoving"), step)

    def pushforward(self, field, x, step=1e-3, stats=None):
        """Contravariant components of a vector field in chart coordinates."""
        x = as_coords(x, "inertial")
        vec = _contravariant(field)(x)
        return np.einsum("...mn,...n->...m",
                         self.jacobian(x, step=step, stats=stats), vec)


def _central_jacobian(func, x, step):
    """jac[..., mu, nu] = d func^mu / d x^nu from one call on 8 shifts each."""
    shifts = step * np.eye(4)  # row nu displaces axis nu
    x = x[..., None, :]
    f = func(np.concatenate([x + shifts, x - shifts], axis=-2))
    return np.swapaxes((f[..., :4, :] - f[..., 4:, :]) / (2.0 * step), -1, -2)


# module-level operation aliases matching the library's functional API
def forward_map(chart, x):
    return chart.forward_map(x)


def inverse_map(chart, xi):
    return chart.inverse_map(xi)


def jacobian(chart, x, step=1e-3):
    return chart.jacobian(x, step=step)


def pushforward(chart, field, x, step=1e-3):
    return chart.pushforward(field, x, step=step)


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


def chart_diagnostics(chart, n_samples=40, seed=0, window=None):
    """Round-trip, orthogonality, pushforward and flow-work statistics.

    The result is JSON-able; ``flow_steps``, ``flow_rhs_evaluations`` and
    ``max_step_error_estimate`` are the FlowStats of its map calls.
    """
    rng = np.random.default_rng(seed)
    dom = chart.bundle.domain
    if window is None:
        half = np.minimum(dom.extent / 2.0, 2.0) * 0.7
        mid = 0.5 * (dom.lo_array + dom.hi_array)
        lo, hi = mid - half, mid + half
    else:
        lo, hi = window.lo_array, window.hi_array
    pts = rng.uniform(lo, hi, size=(n_samples, 4))
    stats = FlowStats()
    back = chart.inverse_map(chart.forward_map(pts, stats=stats), stats=stats)
    rt = np.max(np.abs(back - pts), axis=1)
    push = chart.pushforward(four_velocity_contravariant(chart.bundle), pts,
                             stats=stats)
    spatial_resid = np.max(np.abs(push[:, 1:]), axis=1) / np.abs(push[:, 0])
    ortho = chart.surface.orthogonality_residual(
        rng.uniform(lo[1:], hi[1:], size=(10, 3)))
    report = (
        chart.hypothesis_report.to_dict()
        if chart.hypothesis_report is not None
        else None
    )
    return {
        "origin": chart.origin.tolist(),
        "time_convention": chart.time_convention.name,
        "round_trip_max": float(rt.max()),
        "round_trip_mean": float(rt.mean()),
        "pushforward_spatial_max": float(spatial_resid.max()),
        "orthogonality_max": float(ortho.max()),
        "hypothesis_report": report,
        "n_samples": int(n_samples),
        **stats.to_dict(),
    }

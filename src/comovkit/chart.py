"""Comoving coordinate charts from integral curves and phase level sets.

The construction: through a chosen origin event run the integral curve of
the current four-velocity (the reference observer). Each level set of the
phase S is a spacelike hypersurface crossed exactly once by every curve of
the congruence; the level through the origin is represented as a graph
x0 = f(q) over the inertial spatial coordinates. A point x is assigned

* time coordinate: the arc coordinate (c times proper time) at which the
  reference curve crosses the level set containing x, found as the unique
  root of a strictly monotone 1-d equation, optionally regauged by a
  TimeConvention;
* spatial coordinates: flow x along the congruence to the origin level
  set and read off the base coordinates of the foot point, linearly
  normalized at the origin so the chart is isometric there (the frame
  matrix is the principal square root of the induced surface metric).

Both maps use the same leaf labeling, so the round trip is exact up to
solver tolerances. For a constant-gradient (plane-wave) field the whole
chart collapses to the closed-form Lorentz boost into the rest frame.
"""

import bisect
import threading

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
        if self._primitive is None:
            return float(xi0)
        return float(self._primitive(xi0))

    def time_from_lambda(self, lam):
        if self._primitive is None:
            return float(lam)
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


# ---------------------------------------------------------------------------
# flow to a phase level


def flow_to_level(bundle, start, s_target, rtol=DEFAULT_RTOL,
                  atol=DEFAULT_ATOL):
    """Follow the congruence from start until the phase reaches s_target.

    Returns the crossing event. The phase is strictly monotone along
    curves, so the crossing is unique; the flow direction is chosen from
    the sign of the required phase change.
    """
    start = np.asarray(start, dtype=float)
    s0 = float(bundle.phase(start))
    scale = max(1.0, abs(s0), abs(s_target))
    if abs(s0 - s_target) < 1e-13 * scale:
        return start.copy()
    direction = -1.0 if s_target > s0 else 1.0  # phase falls along +V
    vfield = four_velocity_contravariant(bundle)

    def rhs(t, x):
        return direction * vfield(x)

    def level(t, x):
        return float(bundle.phase(x)) - s_target

    level.terminal = True
    events = [level, _domain_exit_event(bundle.domain)]
    mass_rate = bundle.constants.mass * bundle.constants.c ** 2
    tau_max = 1.5 * abs(s0 - s_target) / (0.9 * mass_rate) + 0.5 / mass_rate
    sol = solve_ivp(rhs, (0.0, tau_max), start, method="RK45",
                    rtol=rtol, atol=atol, events=events)
    if sol.status == -1:
        raise StepFailure(f"level flow failed: {sol.message}")
    if sol.t_events[0].size:
        return sol.y_events[0][0]
    if sol.t_events[1].size:
        raise LeftDomain(
            "congruence curve exits the field domain before reaching the "
            "target phase level"
        )
    raise RootFailure("phase level not reached within the flow horizon")


# ---------------------------------------------------------------------------
# the chart


class ComovingChart:
    """Diffeomorphism between inertial and comoving coordinates.

    Immutable after construction; map and jacobian evaluations share no
    mutable state and are safe to call concurrently.
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

        self.worldline = integrate_curve(
            four_velocity_contravariant(bundle), self.origin, (0.0, 0.0),
            domain=bundle.domain, phase=bundle.phase, rtol=rtol, atol=atol,
        )
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

    # --- time labeling ----------------------------------------------------
    def _reference_phase(self, tau):
        return float(self.bundle.phase(self.worldline.point(tau)))

    def _tau_of_level(self, s_value, bracket=None):
        """Root of S(reference curve) = s_value; unique by monotonicity."""
        rate = self.bundle.constants.mass * self.bundle.constants.c ** 2
        s_origin = self.surface.level
        est = (s_origin - s_value) / rate
        if bracket is None:
            width = 0.5 * (1.0 + abs(est))
            lo, hi = est - width, est + width
        else:
            lo, hi = bracket
        def g(t):
            return self._reference_phase(t) - s_value
        for _ in range(80):
            self.worldline.ensure(hi)
            self.worldline.ensure(lo)
            glo, ghi = g(lo), g(hi)
            if glo == 0.0:
                return lo
            if ghi == 0.0:
                return hi
            if glo * ghi < 0.0:
                return brentq(g, lo, hi, xtol=1e-13 * (1.0 + abs(est)),
                              rtol=8.9e-16)
            width = hi - lo
            lo -= width
            hi += width
        raise RootFailure("could not bracket the reference-curve phase root")

    # --- maps ---------------------------------------------------------------
    def forward_map(self, x):
        """Inertial event -> comoving coordinates (xi0, xi1, xi2, xi3)."""
        wrap = isinstance(x, SpacetimePoint)
        x = as_coords(x, "inertial")
        if x.ndim > 1:
            return np.stack([self.forward_map(row) for row in x])
        if not self.bundle.domain.contains(x):
            raise OutOfDomain(f"event {x.tolist()} outside the field domain")
        s_x = float(self.bundle.phase(x))
        tau_star = self._tau_of_level(s_x)
        lam = self.worldline.arc(tau_star)
        xi0 = self.time_convention.time_from_lambda(lam)
        foot = flow_to_level(self.bundle, x, self.surface.level,
                             rtol=self.rtol, atol=self.atol)
        xi_sp = self.frame_matrix @ (foot[1:] - self.base_origin)
        xi = np.concatenate([[xi0], xi_sp])
        return SpacetimePoint(tuple(xi), frame="comoving") if wrap else xi

    def inverse_map(self, xi):
        """Comoving coordinates -> inertial event."""
        wrap = isinstance(xi, SpacetimePoint)
        xi = as_coords(xi, "comoving")
        if xi.ndim > 1:
            return np.stack([self.inverse_map(row) for row in xi])
        lam = self.time_convention.lambda_from_time(xi[0])
        tau_star = self.worldline.tau_from_arc(lam)
        s_target = self._reference_phase(tau_star)
        q = self.base_origin + self.frame_matrix_inv @ xi[1:]
        lift = self.surface.embed(q)
        x = flow_to_level(self.bundle, lift, s_target,
                          rtol=self.rtol, atol=self.atol)
        return SpacetimePoint(tuple(x), frame="inertial") if wrap else x

    # --- derivatives ---------------------------------------------------------
    def jacobian(self, x, step=1e-3):
        """d xi / d x by central differences of the forward map."""
        x = as_coords(x, "inertial")
        cols = []
        for nu in range(4):
            e = np.zeros(4)
            e[nu] = step
            cols.append(
                (self.forward_map(x + e) - self.forward_map(x - e))
                / (2.0 * step)
            )
        jac = np.stack(cols, axis=1)
        if abs(np.linalg.det(jac)) < 1e-12:
            raise RootFailure("chart jacobian is numerically singular")
        return jac

    def inverse_jacobian(self, xi, step=1e-3):
        """d x / d xi by central differences of the inverse map."""
        xi = as_coords(xi, "comoving")
        cols = []
        for nu in range(4):
            e = np.zeros(4)
            e[nu] = step
            cols.append(
                (self.inverse_map(xi + e) - self.inverse_map(xi - e))
                / (2.0 * step)
            )
        return np.stack(cols, axis=1)

    def pushforward(self, field, x, step=1e-3):
        """Contravariant components of a vector field in chart coordinates."""
        vec = _contravariant(field)(as_coords(x, "inertial"))
        return self.jacobian(x, step=step) @ vec


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
    """Round-trip, orthogonality, and pushforward statistics (JSON-able)."""
    rng = np.random.default_rng(seed)
    dom = chart.bundle.domain
    if window is None:
        half = np.minimum(dom.extent / 2.0, 2.0) * 0.7
        mid = 0.5 * (dom.lo_array + dom.hi_array)
        lo, hi = mid - half, mid + half
    else:
        lo, hi = window.lo_array, window.hi_array
    pts = rng.uniform(lo, hi, size=(n_samples, 4))
    rt = np.array([
        np.max(np.abs(chart.inverse_map(chart.forward_map(x)) - x))
        for x in pts
    ])
    push = np.array([chart.pushforward(
        four_velocity_contravariant(chart.bundle), x) for x in pts])
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
    }

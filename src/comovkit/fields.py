"""Scalar field bundles on Minkowski space and their derived velocity fields.

A *field bundle* packages a positive density p(x) and a phase S(x) on a
declared box domain, together with analytic first and second derivatives.
Two constructive families are provided:

* ``make_plane_wave`` - a single mode with the relativistic dispersion
  relation, p identically 1 and a globally linear phase;
* ``make_packet`` - a finite positive-weight superposition of such modes.
  The density is the squared modulus of the superposition, and the phase is
  the continuously unwrapped argument.

For superpositions the phase *value* needs a branch choice. A dominant mode
j0 (weight above the sum of the others) settles it in closed form: the
argument is theta_j0 plus the principal argument of the superposition
relative to that mode, which never leaves (-pi/2, pi/2), plus one whole-turn
count fixed at construction so that S at the domain's lower corner is the
principal argument there. S is then single valued and as smooth as the
field on all of space; a superposition without a dominant mode raises
BranchUnavailable when a phase value is asked for.

The gradient of the phase divided by the mass is the current four-velocity
field; the half-log-gradient of the density scaled by hbar/2m is the osmotic
four-velocity. ``check_theorem_hypotheses`` scans a lattice for the three
conditions the chart construction needs: nonvanishing time component of the
phase gradient, closedness of its derivative (symmetric second derivatives),
and timelike character.

``central_gradient`` and ``central_hessian`` are the package's one
finite-difference stencil: every derivative of a function that the package
does not know in closed form (the finite-difference view of a bundle,
chart Jacobians, sigma and Christoffel derivatives, the covariant and
wave-operator checks) is one stacked call of that function on the shifted
points.
"""

from dataclasses import dataclass, field

import numpy as np

from .constants import PhysicalConstants, raise_index
from .errors import BranchUnavailable, DensityZero, NodeInDomain

DENSITY_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# points, boxes, lattices


@dataclass(frozen=True)
class SpacetimePoint:
    """A frame-tagged event. Coordinates are (x0, x1, x2, x3)."""

    coords: tuple
    frame: str = "inertial"

    def __post_init__(self):
        arr = np.asarray(self.coords, dtype=float)
        if arr.shape != (4,) or not np.all(np.isfinite(arr)):
            raise ValueError("SpacetimePoint needs 4 finite coordinates")
        object.__setattr__(self, "coords", tuple(arr))
        if self.frame not in ("inertial", "comoving"):
            raise ValueError("frame must be 'inertial' or 'comoving'")

    @property
    def array(self):
        return np.asarray(self.coords, dtype=float)


def as_coords(point, frame="inertial"):
    """Coerce a SpacetimePoint or array-like to a (..., 4) float array.

    SpacetimePoint inputs must carry the expected frame tag; mixing frames
    is a hard error rather than a silent reinterpretation.
    """
    if isinstance(point, SpacetimePoint):
        if point.frame != frame:
            raise ValueError(
                f"point is tagged '{point.frame}' but a '{frame}' point is required"
            )
        return point.array
    arr = np.asarray(point, dtype=float)
    if arr.shape[-1] != 4:
        raise ValueError("expected coordinates with trailing dimension 4")
    return arr


@dataclass(frozen=True)
class Box:
    """Axis-aligned box, any dimension."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("box bounds must be 1-d arrays of equal length")
        if not np.all(hi > lo):
            raise ValueError("box must have positive extent on every axis")
        object.__setattr__(self, "lo", tuple(lo))
        object.__setattr__(self, "hi", tuple(hi))

    @property
    def ndim(self):
        return len(self.lo)

    @property
    def lo_array(self):
        return np.asarray(self.lo, dtype=float)

    @property
    def hi_array(self):
        return np.asarray(self.hi, dtype=float)

    @property
    def extent(self):
        return self.hi_array - self.lo_array

    def contains(self, x, margin=0.0):
        x = np.asarray(x, dtype=float)
        lo = self.lo_array + margin
        hi = self.hi_array - margin
        return np.all((x >= lo) & (x <= hi), axis=-1)

    def grid(self, shape):
        """Tensor lattice of the given per-axis point counts, as (N, ndim)."""
        axes = [
            np.linspace(self.lo[i], self.hi[i], int(shape[i]))
            for i in range(self.ndim)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1), axes


def default_plane_wave_box(half_width=1e6):
    return Box((-half_width,) * 4, (half_width,) * 4)


# ---------------------------------------------------------------------------
# the central-difference stencil


def central_gradient(func, x, h):
    """Central-difference gradient of ``func`` at points x (..., n).

    One call of ``func`` on the (..., 2n, n) shifted points x + h e_mu
    (rows 0..n-1) and x - h e_mu (rows n..2n-1); ``func`` maps (..., n)
    points to values (..., *v). Returns (..., n, *v) with the derivative
    axis right after the batch axes:

        d_mu f = (f(x + h e_mu) - f(x - h e_mu)) / (2 h)
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    shifts = h * np.eye(n)  # row mu displaces axis mu
    f = np.asarray(func(x[..., None, :] + np.concatenate([shifts, -shifts])))
    plus, minus = np.split(f, 2, axis=x.ndim - 1)
    return (plus - minus) / (2.0 * h)


def central_hessian(func, x, h):
    """Value, gradient and Hessian of ``func`` at points x (..., n).

    One call of ``func`` on (..., 1 + 2n^2, n) points: the centre, the 2n
    axis shifts x +- h e_mu and the 2n(n-1) diagonal corners
    x +- h e_mu +- h e_nu (mu < nu). Returns f(x) (..., *v), the gradient
    (..., n, *v) and the Hessian (..., n, n, *v), derivative axes right
    after the batch axes. The gradient is the quotient of
    ``central_gradient``; the Hessian takes

        d_mu d_mu f = (f(x + h e_mu) - 2 f(x) + f(x - h e_mu)) / h^2
        d_mu d_nu f = (f(x + h e_mu + h e_nu) - f(x + h e_mu - h e_nu)
                       - f(x - h e_mu + h e_nu) + f(x - h e_mu - h e_nu))
                      / (4 h^2)
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    shifts = h * np.eye(n)
    mu, nu = np.triu_indices(n, 1)
    a, b = shifts[mu], shifts[nu]
    # corners of each pair in the order (+,+), (+,-), (-,+), (-,-)
    corners = np.stack([a + b, a - b, -a + b, -a - b], axis=1)
    offsets = np.concatenate([np.zeros((1, n)), shifts, -shifts,
                              corners.reshape(-1, n)])
    batch = x.ndim - 1
    f = np.moveaxis(np.asarray(func(x[..., None, :] + offsets)), batch, 0)
    f0, plus, minus = f[0], f[1:n + 1], f[n + 1:2 * n + 1]
    c = f[2 * n + 1:].reshape((len(mu), 4) + f0.shape)
    hess = np.empty((n, n) + f0.shape, dtype=np.result_type(f, float))
    hess[np.arange(n), np.arange(n)] = (plus - 2.0 * f0 + minus) / h ** 2
    mixed = (c[:, 0] - c[:, 1] - c[:, 2] + c[:, 3]) / (4.0 * h ** 2)
    hess[mu, nu] = mixed
    hess[nu, mu] = mixed
    return (f0, np.moveaxis((plus - minus) / (2.0 * h), 0, batch),
            np.moveaxis(hess, (0, 1), (batch, batch + 1)))


# ---------------------------------------------------------------------------
# four-vector fields


class FourVectorField:
    """A four-component vector field with explicit variance and frame tags.

    Index raising/lowering with the constant Minkowski metric is only
    meaningful for inertial-frame fields; comoving-frame fields need the
    chart metric and refuse the operation here.
    """

    def __init__(self, components, variance, frame="inertial", name=""):
        if variance not in ("covariant", "contravariant"):
            raise ValueError("variance must be 'covariant' or 'contravariant'")
        if frame not in ("inertial", "comoving"):
            raise ValueError("frame must be 'inertial' or 'comoving'")
        self._components = components
        self.variance = variance
        self.frame = frame
        self.name = name

    def __call__(self, x):
        return self._components(np.asarray(x, dtype=float))

    def with_flipped_index(self):
        """Raise a covariant field / lower a contravariant one with eta."""
        if self.frame != "inertial":
            raise ValueError(
                "index raising with the flat metric is only valid in the inertial frame"
            )
        other = "contravariant" if self.variance == "covariant" else "covariant"
        return FourVectorField(
            lambda x: raise_index(self._components(x)),
            variance=other,
            frame=self.frame,
            name=self.name,
        )

    def minkowski_norm_squared(self, x):
        if self.frame != "inertial":
            raise ValueError("flat norm is only defined for inertial-frame fields")
        comp = self(x)
        return np.einsum("...i,...i->...", comp, raise_index(comp))


# ---------------------------------------------------------------------------
# bundles


class FieldBundle:
    """Density + phase pair with analytic derivatives on a box domain.

    Subclasses implement `_density*` and `_phase*`; the public accessors
    route through the derivative mode so a finite-difference view of the
    same bundle (``with_fd_derivatives``) exercises the generic fallback.
    """

    def __init__(self, constants, domain, derivative_mode="analytic",
                 fd_step=1e-3):
        self.constants = constants
        self.domain = domain
        self.derivative_mode = derivative_mode
        self.fd_step = fd_step

    # subclass interface -----------------------------------------------------
    def _density(self, x):
        raise NotImplementedError

    def _density_gradient(self, x):
        raise NotImplementedError

    def _density_hessian(self, x):
        raise NotImplementedError

    def _phase(self, x):
        raise NotImplementedError

    def _phase_gradient(self, x):
        raise NotImplementedError

    def _phase_hessian(self, x):
        raise NotImplementedError

    # public API ---------------------------------------------------------
    def density(self, x):
        return self._density(as_coords(x))

    def phase(self, x):
        return self._phase(as_coords(x))

    def density_gradient(self, x):
        x = as_coords(x)
        if self.derivative_mode == "analytic":
            return self._density_gradient(x)
        return central_gradient(self._density, x, self.fd_step)

    def density_hessian(self, x):
        x = as_coords(x)
        if self.derivative_mode == "analytic":
            return self._density_hessian(x)
        return central_hessian(self._density, x, self.fd_step)[2]

    def phase_gradient(self, x):
        x = as_coords(x)
        if self.derivative_mode == "analytic":
            return self._phase_gradient(x)
        return central_gradient(self._phase, x, self.fd_step)

    def phase_hessian(self, x):
        x = as_coords(x)
        if self.derivative_mode == "analytic":
            return self._phase_hessian(x)
        return central_hessian(self._phase, x, self.fd_step)[2]

    def amplitude(self, x):
        """Complex field sqrt(p) * exp(i S / hbar)."""
        x = as_coords(x)
        return np.sqrt(self.density(x)) * np.exp(
            1j * self.phase(x) / self.constants.hbar
        )

    def amplitude_gradient(self, x):
        """Analytic gradient of the complex field, from p and S derivatives."""
        x = as_coords(x)
        p = self.density(x)
        dp = self.density_gradient(x)
        ds = self.phase_gradient(x)
        amp = self.amplitude(x)
        log_grad = dp / (2.0 * p[..., None]) + 1j * ds / self.constants.hbar
        return amp[..., None] * log_grad

    def with_fd_derivatives(self, step):
        """A view of this bundle whose derivatives come from central FD."""
        import copy

        view = copy.copy(self)
        view.derivative_mode = "fd"
        view.fd_step = step
        return view

    def conjugate(self):
        """Phase-conjugated view of this bundle: same p, S -> -S."""
        return ConjugateBundle(self)


class ConjugateBundle(FieldBundle):
    """Complex conjugate of a bundle: density unchanged, phase negated.

    Conjugation maps positive-frequency solutions onto the opposite branch,
    so the four-current flips sign everywhere and the solution class swaps.
    Conjugating twice returns the original bundle object.
    """

    def __init__(self, base):
        super().__init__(base.constants, base.domain,
                         derivative_mode=base.derivative_mode,
                         fd_step=base.fd_step)
        self.base = base

    def conjugate(self):
        return self.base

    def _density(self, x):
        return self.base._density(x)

    def _density_gradient(self, x):
        return self.base._density_gradient(x)

    def _density_hessian(self, x):
        return self.base._density_hessian(x)

    def _phase(self, x):
        return -self.base._phase(x)

    def _phase_gradient(self, x):
        return -self.base._phase_gradient(x)

    def _phase_hessian(self, x):
        return -self.base._phase_hessian(x)


class PlaneWaveBundle(FieldBundle):
    """Single-mode bundle: p = 1 and S = hbar (k.x - omega t).

    omega defaults to the relativistic dispersion value; passing
    ``frequency`` overrides it (used for detuned negative controls).
    """

    def __init__(self, k, constants, domain, frequency=None):
        super().__init__(constants, domain)
        self.k = np.asarray(k, dtype=float)
        kc = constants.compton_wavenumber
        self.omega = (
            float(frequency)
            if frequency is not None
            else constants.c * np.sqrt(self.k @ self.k + kc ** 2)
        )
        # covariant phase wave-vector: partial_mu S / hbar
        self.kappa = np.concatenate(([-self.omega / constants.c], self.k))

    @property
    def velocity(self):
        """Three-velocity c^2 k / omega of the phase congruence."""
        return self.constants.c ** 2 * self.k / self.omega

    def _density(self, x):
        return np.ones(np.asarray(x).shape[:-1])

    def _density_gradient(self, x):
        return np.zeros(np.asarray(x).shape)

    def _density_hessian(self, x):
        return np.zeros(np.asarray(x).shape + (4,))

    def _phase(self, x):
        return self.constants.hbar * (np.asarray(x) @ self.kappa)

    def _phase_gradient(self, x):
        return np.broadcast_to(
            self.constants.hbar * self.kappa, np.asarray(x).shape
        ).copy()

    def _phase_hessian(self, x):
        return np.zeros(np.asarray(x).shape + (4,))


class PacketBundle(FieldBundle):
    """Positive-weight superposition of dispersion-relation modes.

    Every evaluation takes one exponential per mode, e_j = w_j exp(i
    theta_j), and p, S and their derivatives are exact sums over e. The
    carrier wave vector kappa_j0 cancels from the derivatives of p and from
    the phase Hessian, so those sums run over kappa_j - kappa_j0, which keeps
    their round-off at the scale of the modulation, not of the carrier. With a
    dominant mode j0 (weight above the sum of the others), phi = w_j0
    exp(i theta_j0) (1 + R) with |R| < 1 everywhere, so arg(1 + R) stays on
    the principal branch and the phase is single valued in closed form:

        S / hbar = theta_j0 + angle(sum_j w_j exp(i (theta_j - theta_j0)))
                   + 2 pi n0

    The whole-turn count n0, fixed at construction, anchors S(domain.lo) at
    the principal angle(phi(lo)); a single mode keeps S = hbar theta_0. The
    bundle holds no lazily built state.
    """

    def __init__(self, wavevectors, weights, constants, domain,
                 floor=None, _skip_node_check=False):
        super().__init__(constants, domain)
        self.wavevectors = np.atleast_2d(np.asarray(wavevectors, dtype=float))
        self.weights = np.asarray(weights, dtype=float)
        if self.wavevectors.shape != (self.weights.size, 3):
            raise ValueError("wavevectors must be (n_modes, 3) matching weights")
        if np.any(self.weights <= 0):
            raise ValueError("mode weights must be positive")
        if self.weights.size < 1:
            raise ValueError("at least one mode is required")
        kc = constants.compton_wavenumber
        self.omegas = constants.c * np.sqrt(
            np.einsum("jm,jm->j", self.wavevectors, self.wavevectors) + kc ** 2
        )
        # covariant per-mode wave four-vectors (rows: partial_mu theta_j)
        self.kappas = np.concatenate(
            [(-self.omegas / constants.c)[:, None], self.wavevectors], axis=1
        )
        # carrier-relative wave vectors and their flattened outer products
        self._dkappas = self.kappas - self.kappas[self.dominant_index]
        self._dkappa_outer = np.einsum(
            "jm,jn->jmn", self._dkappas, self._dkappas).reshape(-1, 16)
        self.floor = (
            float(floor) if floor is not None else 1e-6 * float(self.weights.sum())
        )
        self._n0 = 0.0
        if self.weights.size > 1 and self.dominance_margin > 0:
            lo = self.domain.lo_array
            self._n0 = float(np.round(
                (np.angle(self._amp(lo)) - self._branch_angle(lo)) / (2.0 * np.pi)
            ))
        if not _skip_node_check:
            self._check_for_nodes()

    # --- mode bookkeeping -------------------------------------------------
    @property
    def dominant_index(self):
        return int(np.argmax(self.weights))

    @property
    def dominance_margin(self):
        """w0 - sum of the other weights; positive means globally node-free."""
        j0 = self.dominant_index
        return float(self.weights[j0] - (self.weights.sum() - self.weights[j0]))

    def _mode_phases(self, x):
        return np.asarray(x) @ self.kappas.T  # (..., n_modes)

    def _amp(self, x):
        return np.exp(1j * self._mode_phases(x)) @ self.weights

    def _modes(self, x):
        """e_j = w_j exp(i theta_j) at events (..., 4), as (..., n_modes)."""
        return np.exp(1j * self._mode_phases(x)) * self.weights

    def _modes_outer(self, e):
        """sum_j e_j dkappa_j,mu dkappa_j,nu, as (..., 4, 4)."""
        return (e @ self._dkappa_outer).reshape(e.shape[:-1] + (4, 4))

    def _branch_angle(self, x):
        """theta_j0 + angle(sum_j w_j exp(i (theta_j - theta_j0))) at (..., 4)."""
        th = self._mode_phases(x)
        th0 = th[..., self.dominant_index]
        return th0 + np.angle(np.exp(1j * (th - th0[..., None])) @ self.weights)

    # --- node detection ---------------------------------------------------
    def _check_for_nodes(self):
        if self.dominance_margin > self.floor:
            return
        # No dominance certificate: scan a lattice and flag cells that could
        # hide a zero, using the Lipschitz bound |grad |phi|| <= sum w |kappa|.
        lip = float(self.weights @ np.linalg.norm(self.kappas, axis=1))
        extent = self.domain.extent
        shape = np.minimum(
            np.maximum((extent * lip / np.pi).astype(int) + 2, 5), 40
        )
        pts, _ = self.domain.grid(shape)
        mod = np.abs(self._amp(pts))
        spacing = float(np.max(extent / (shape - 1)))
        # half the cell diagonal bounds the distance to the nearest sample
        reach = 0.5 * spacing * 2.0
        threshold = max(self.floor, lip * reach)
        m = float(mod.min())
        if m < threshold:
            worst = pts[int(np.argmin(mod))]
            raise NodeInDomain(
                f"field modulus reaches {m:.3e} at {worst.tolist()} "
                f"(floor plus Lipschitz reach {threshold:.3e}); a zero may lie "
                "inside the domain"
            )

    # --- bundle interface ---------------------------------------------------
    def _density(self, x):
        a = self._amp(x)
        return (a * a.conj()).real

    def _density_gradient(self, x):
        # d_mu p = 2 Re(conj(a) d_mu a) with d_mu a -> i (e @ dkappas)
        e = self._modes(x)
        a = e.sum(axis=-1)
        return -2.0 * (a.conj()[..., None] * (e @ self._dkappas)).imag

    def _density_hessian(self, x):
        # 2 Re(conj(d_mu a) d_nu a + conj(a) d_mu d_nu a) with
        # d_mu a -> i q and d_mu d_nu a -> -sum_j e_j dkappa_j,mu dkappa_j,nu
        e = self._modes(x)
        a = e.sum(axis=-1)
        q = e @ self._dkappas
        return 2.0 * (
            np.einsum("...m,...n->...mn", q.conj(), q)
            - a.conj()[..., None, None] * self._modes_outer(e)
        ).real

    def _phase(self, x):
        if self.dominance_margin <= 0:
            raise BranchUnavailable(
                "phase values need a dominant mode (weight above the sum of "
                "the others); this superposition has no single-valued branch "
                "certificate"
            )
        return self.constants.hbar * (self._branch_angle(x)
                                      + 2.0 * np.pi * self._n0)

    def _phase_gradient(self, x):
        # Im(d_mu a / a) with d_mu a = i (e @ kappas): one exponential
        e = self._modes(x)
        return self.constants.hbar * (
            (e @ self.kappas) / e.sum(axis=-1)[..., None]).real

    def _phase_hessian(self, x):
        # Im(d_mu d_nu a / a - (d_mu a / a)(d_nu a / a)), d_mu a / a -> i g
        e = self._modes(x)
        a = e.sum(axis=-1)[..., None]
        g = (e @ self._dkappas) / a
        return self.constants.hbar * (
            np.einsum("...m,...n->...mn", g, g)
            - self._modes_outer(e) / a[..., None]
        ).imag


def make_plane_wave(k, constants=None, domain=None, frequency=None):
    """Plane-wave bundle with dispersion-relation frequency.

    Plane waves are globally analytic with unit density, so the default
    domain is a very large box; pass a Box to restrict it.
    """
    constants = constants or PhysicalConstants()
    domain = domain or default_plane_wave_box()
    return PlaneWaveBundle(k, constants, domain, frequency=frequency)


def make_packet(wavevectors, weights, domain, constants=None, floor=None):
    """Superposition bundle over a required box domain.

    Raises NodeInDomain when the modulus provably (dominance certificate)
    cannot stay above the floor, or when a lattice scan finds values below
    the floor plus the cell Lipschitz reach.
    """
    constants = constants or PhysicalConstants()
    if not isinstance(domain, Box):
        raise ValueError("packet bundles require an explicit Box domain")
    return PacketBundle(wavevectors, weights, constants, domain, floor=floor)


# ---------------------------------------------------------------------------
# derived velocity fields


def four_velocity(bundle):
    """Covariant current four-velocity V_mu = (partial_mu S) / m."""
    m = bundle.constants.mass

    def comp(x):
        return bundle.phase_gradient(x) / m

    return FourVectorField(comp, "covariant", "inertial", name="four_velocity")


def four_velocity_contravariant(bundle):
    return four_velocity(bundle).with_flipped_index()


def congruence_speed(bundle, x):
    """sqrt(-V_mu V^mu): c for on-shell plane waves, near c for packets."""
    v = four_velocity(bundle)(x)
    return np.sqrt(-np.einsum("...i,...i->...", v, raise_index(v)))


def osmotic_four_velocity(bundle, floor=DENSITY_FLOOR):
    """Covariant osmotic four-velocity U_mu = (hbar/2m) partial_mu ln p."""
    scale = bundle.constants.hbar / (2.0 * bundle.constants.mass)

    def comp(x):
        p = bundle.density(x)
        if np.any(p < floor):
            raise DensityZero(
                f"density fell below the positivity floor {floor:g}"
            )
        return scale * bundle.density_gradient(x) / np.asarray(p)[..., None]

    return FourVectorField(comp, "covariant", "inertial", name="osmotic_four_velocity")


# ---------------------------------------------------------------------------
# hypothesis checking


@dataclass
class HypothesisReport:
    """Lattice scan summary for the chart-construction hypotheses.

    (i)   the time component of the phase gradient never vanishes,
    (ii)  the derivative of the four-velocity is symmetric (closed form),
    (iii) the four-velocity is timelike everywhere.
    """

    min_abs_v0: float
    v0_sign_change: bool
    max_closedness: float
    timelike_fraction: float
    min_density: float
    v0_floor: float
    closedness_tol: float
    lattice_shape: tuple
    argmin_v0: tuple
    violated: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.violated

    def to_dict(self):
        return {
            "min_abs_v0": self.min_abs_v0,
            "v0_sign_change": self.v0_sign_change,
            "max_closedness": self.max_closedness,
            "timelike_fraction": self.timelike_fraction,
            "min_density": self.min_density,
            "v0_floor": self.v0_floor,
            "closedness_tol": self.closedness_tol,
            "lattice_shape": list(self.lattice_shape),
            "argmin_v0": list(self.argmin_v0),
            "violated": list(self.violated),
            "passed": self.passed,
        }


def check_theorem_hypotheses(bundle, box=None, shape=(7, 7, 7, 7),
                             v0_floor=None, closedness_tol=None):
    """Scan a lattice for the three chart-construction hypotheses.

    Returns a HypothesisReport; ``violated`` holds labels "(i)", "(ii)",
    "(iii)" for every failed condition, in that order.
    """
    c = bundle.constants.c
    if box is None:
        lo = bundle.domain.lo_array
        hi = bundle.domain.hi_array
        # plane-wave default domains are huge; scan a representative window
        half = np.minimum((hi - lo) / 2.0, 4.0)
        mid = (lo + hi) / 2.0
        box = Box(mid - half, mid + half)
    pts, _ = box.grid(shape)

    v = bundle.phase_gradient(pts) / bundle.constants.mass
    v0 = v[..., 0]
    vv = np.einsum("...i,...i->...", v, raise_index(v))
    hess = bundle.phase_hessian(pts)
    closedness = np.max(np.abs(hess - np.swapaxes(hess, -1, -2)), axis=(-1, -2))

    if v0_floor is None:
        v0_floor = 1e-8 * c
    if closedness_tol is None:
        scale = float(np.max(np.abs(hess))) + 1e-300
        closedness_tol = 1e-10 * scale + 1e-14

    min_abs_v0 = float(np.min(np.abs(v0)))
    # a sign change proves a zero of V_0 between lattice points even when
    # no sample lands near it
    sign_change = bool((np.max(v0) > 0.0) and (np.min(v0) < 0.0))
    max_closed = float(np.max(closedness))
    timelike = float(np.mean(vv < 0.0))
    argmin = pts[int(np.argmin(np.abs(v0)))]

    violated = []
    if min_abs_v0 <= v0_floor or sign_change:
        violated.append("(i)")
    if max_closed >= closedness_tol:
        violated.append("(ii)")
    if timelike < 1.0:
        violated.append("(iii)")

    return HypothesisReport(
        min_abs_v0=min_abs_v0,
        v0_sign_change=sign_change,
        max_closedness=max_closed,
        timelike_fraction=timelike,
        min_density=float(np.min(bundle.density(pts))),
        v0_floor=float(v0_floor),
        closedness_tol=float(closedness_tol),
        lattice_shape=tuple(int(s) for s in shape),
        argmin_v0=tuple(float(t) for t in argmin),
        violated=violated,
    )

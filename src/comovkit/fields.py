"""Scalar field bundles on Minkowski space and their derived velocity fields.

A *field bundle* packages a positive density p(x) and a phase S(x) on a
declared box domain, together with analytic first and second derivatives.
One constructive family is provided, ``PacketBundle``: a finite
positive-weight superposition of modes exp(i kappa_j . x) on the mass
shell. The density is the squared modulus of the superposition, and the
phase is the continuously unwrapped argument.

* ``make_packet`` builds a superposition over a required box domain;
* ``make_plane_wave`` builds the one-mode packet, with p identically 1 and
  a globally linear phase; its optional frequency override (detuned and
  negative-frequency controls) sets the mode's frequency.

For superpositions the phase *value* needs a branch choice. A dominant mode
j0 (weight above the sum of the others) settles it in closed form: the
argument is theta_j0 plus the principal argument of the superposition
relative to that mode, which never leaves (-pi/2, pi/2), plus one whole-turn
count fixed at construction so that S at the domain's lower corner is the
principal argument there. S is then single valued and as smooth as the
field on all of space; a superposition without a dominant mode raises
BranchUnavailable when a phase value is asked for.

Events and four-vectors are plain arrays: every accessor takes events
(..., 4) and returns its values stacked over the same leading axes, and a
row's values do not depend on the rows that share its call, one event
included (``_rows_times``). A batch of more than ROW_BLOCK events is
evaluated one block at a time into preallocated outputs
(``_in_row_blocks``), so an accessor's work memory is one block's
whatever the batch, and its values are those of one whole-batch call. The
gradient of the phase divided by the mass is the current four-velocity
(``four_velocity``); the half-log-gradient of the density scaled by hbar/2m
is the osmotic four-velocity (``osmotic_four_velocity``). Both return
covariant components; ``constants.raise_index`` gives the contravariant
ones. ``check_theorem_hypotheses`` scans a lattice for the three
conditions the chart construction needs: nonvanishing time component of the
phase gradient, closedness of its derivative (symmetric second derivatives),
and timelike character.

``density_and_phase_derivatives`` returns density, phase gradient and
phase Hessian together; a packet takes all three from one set of real mode
sums on the phases relative to its carrier mode (see ``PacketBundle``),
which is what the hypothesis scan and the slice-metric derivatives of the
chart surface read. The hypothesis scan builds and evaluates its lattice
in blocks of ROW_BLOCK events.

``central_gradient`` and ``central_hessian`` are the package's one
finite-difference stencil: every derivative of a function that the package
does not know in closed form (chart Jacobians, sigma derivatives of patches
without a closed form, Christoffel derivatives, the covariant and
wave-operator checks) is one stacked call of that function on the shifted
points. Bundles carry analytic derivatives only; the finite-difference view
of a bundle, which takes its derivatives from this stencil on the bundle's
density and phase, lives with the tests (``tests/conftest.py``).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import PhysicalConstants, raise_index
from .errors import BranchUnavailable, DensityZero, NodeInDomain

DENSITY_FLOOR = 1e-12
# rows per block of the field accessors, the chart maps and height solve,
# the geometry tables and the energy quadrature: work arrays stay
# O(ROW_BLOCK) whatever the batch, and no row depends on it
ROW_BLOCK = 512


# ---------------------------------------------------------------------------
# events, boxes, lattices


def as_coords(point):
    """Coerce an array-like to a (..., 4) float array of events."""
    arr = np.asarray(point, dtype=float)
    if arr.shape[-1:] != (4,):
        raise ValueError("expected coordinates with trailing dimension 4")
    return arr


def _rows_times(x, matrix):
    """Rows x (..., k) times a constant (k, m) matrix or (k,) vector, over
    two rows or more: numpy's one-row kernel rounds otherwise, so a lone row
    goes in twice and keeps the first result; no row depends on its batch."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 2 and len(x) > 1:
        return x @ matrix
    rows = x.reshape(-1, x.shape[-1])
    out = (np.concatenate((rows, rows)) if len(rows) == 1 else rows) @ matrix
    return out[:len(rows)].reshape(x.shape[:-1] + out.shape[1:])


def _row_blocks(n):
    """Slices of ROW_BLOCK consecutive rows covering rows 0 to n - 1."""
    return (slice(lo, min(lo + ROW_BLOCK, n))
            for lo in range(0, n, ROW_BLOCK))


def _in_row_blocks(func, lead, *arrays):
    """``func(*arrays)`` evaluated ROW_BLOCK rows at a time.

    Every array's leading axes are ``lead``; ``func`` maps rows (n, ...)
    of each to an array, or a tuple of arrays, of n rows, and no row may
    depend on the others. A batch of at most ROW_BLOCK rows goes to
    ``func`` as it is; a larger one is cut into row blocks whose results
    fill preallocated outputs, stacked over ``lead``, so the work memory
    is one block's whatever the batch.
    """
    n = math.prod(lead)
    if n <= ROW_BLOCK:
        return func(*arrays)
    rows = [a.reshape((n,) + a.shape[len(lead):]) for a in arrays]
    outs = None
    for block in _row_blocks(n):
        vals = func(*(r[block] for r in rows))
        one = not isinstance(vals, tuple)
        vals = (vals,) if one else vals
        if outs is None:
            outs = [np.empty((n,) + v.shape[1:], v.dtype) for v in vals]
        for out, v in zip(outs, vals):
            out[block] = v
    outs = tuple(out.reshape(lead + out.shape[1:]) for out in outs)
    return outs[0] if one else outs


def _float_or_array(values):
    """values as a float when they hold one point's scalar, else an array."""
    out = np.asarray(values, dtype=float)
    return float(out) if out.ndim == 0 else out


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

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        return np.all((x >= self.lo_array) & (x <= self.hi_array), axis=-1)

    def grid(self, shape):
        """Tensor lattice of the given per-axis point counts, as (N, ndim)."""
        return _lattice([np.linspace(self.lo[i], self.hi[i], int(shape[i]))
                         for i in range(self.ndim)])


def _lattice(axes, rows=None):
    """Points ``rows`` (a slice; all when None) of the C-order tensor
    lattice of the 1-d ``axes``, as (n, len(axes)), copied from the axes."""
    shape = tuple(len(axis) for axis in axes)
    rows = slice(0, int(np.prod(shape))) if rows is None else rows
    index = np.unravel_index(np.arange(rows.start, rows.stop), shape)
    return np.stack([axis[i] for axis, i in zip(axes, index)], axis=-1)


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
# bundles


class FieldBundle:
    """Density + phase pair with analytic derivatives on a box domain.

    Subclasses implement `_density*` and `_phase*` on (..., 4) float
    events; the public accessors coerce the events and call them on
    blocks of at most ROW_BLOCK events.
    """

    def __init__(self, constants, domain):
        self.constants = constants
        self.domain = domain

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
    def _blocked(self, func, x):
        """``func`` on the events x (..., 4), ROW_BLOCK events at a time."""
        x = as_coords(x)
        return _in_row_blocks(func, x.shape[:-1], x)

    def density(self, x):
        return self._blocked(self._density, x)

    def phase(self, x):
        return self._blocked(self._phase, x)

    def density_gradient(self, x):
        return self._blocked(self._density_gradient, x)

    def density_hessian(self, x):
        return self._blocked(self._density_hessian, x)

    def phase_gradient(self, x):
        return self._blocked(self._phase_gradient, x)

    def phase_and_gradient(self, x):
        """Phase (...) and phase gradient (..., 4) at events x (..., 4),
        equal bit for bit to ``phase`` and ``phase_gradient``."""
        return self._blocked(self._phase_and_gradient, x)

    def phase_hessian(self, x):
        return self._blocked(self._phase_hessian, x)

    def density_and_phase_derivatives(self, x):
        """Density (...), phase gradient (..., 4) and phase Hessian
        (..., 4, 4) at events x (..., 4)."""
        return self._blocked(self._density_and_phase_derivatives, x)

    def _density_and_phase_derivatives(self, x):
        """This default composes the subclass interface; a bundle that can
        take all three from one evaluation of its field overrides it with
        values equal to theirs, as it may ``_phase_and_gradient``."""
        return (self._density(x), self._phase_gradient(x),
                self._phase_hessian(x))

    def _phase_and_gradient(self, x):
        return self._phase(x), self._phase_gradient(x)

    def amplitude(self, x):
        """Complex field sqrt(p) * exp(i S / hbar)."""
        x = as_coords(x)
        return np.sqrt(self.density(x)) * np.exp(
            1j * self.phase(x) / self.constants.hbar
        )


class PacketBundle(FieldBundle):
    """Positive-weight superposition of modes exp(i kappa_j . x).

    Mode j has the covariant wave four-vector kappa_j = (-omega_j / c, k_j)
    with omega_j on the mass shell c sqrt(k_j^2 + k_c^2) unless
    ``frequencies`` sets it (detuned and negative-frequency controls). A
    plane wave is the one-mode packet: p = 1 and S = hbar kappa_0 . x.

    With j0 the dominant mode (largest weight), the field is exp(i
    theta_j0) R with R = sum_j w_j exp(i dtheta_j) on the relative phases
    dtheta_j = (kappa_j - kappa_j0) . x. The factor exp(i theta_j0)
    has unit modulus and cancels from every derivative of p and from the
    phase Hessian, so every evaluation is real arithmetic on c_j = w_j cos
    dtheta_j and s_j = w_j sin dtheta_j: R = A + iB with A = sum c and
    B = sum s, and the derivatives of R are sums of c and s against
    dkappa_j and dkappa_j x dkappa_j. The round-off of these sums is at the
    scale of the modulation, not of the carrier. With a dominant mode
    (weight above the sum of the others) |R - w_j0| < w_j0 everywhere, so
    arg R stays on the principal branch and the phase is single valued in
    closed form:

        S / hbar = theta_j0 + atan2(B, A) + 2 pi n0

    The whole-turn count n0, fixed at construction, anchors S(domain.lo) at
    the principal argument of the field there; a single mode keeps S = hbar
    theta_0. The bundle holds no lazily built state.
    """

    def __init__(self, wavevectors, weights, constants, domain,
                 frequencies=None, _skip_node_check=False):
        super().__init__(constants, domain)
        self.wavevectors = np.atleast_2d(np.asarray(wavevectors, dtype=float))
        self.weights = np.asarray(weights, dtype=float)
        if self.wavevectors.shape != (self.weights.size, 3):
            raise ValueError("wavevectors must be (n_modes, 3) matching weights")
        if np.any(self.weights <= 0):
            raise ValueError("mode weights must be positive")
        if self.weights.size < 1:
            raise ValueError("at least one mode is required")
        if frequencies is None:
            kc = constants.compton_wavenumber
            frequencies = constants.c * np.sqrt(np.einsum(
                "jm,jm->j", self.wavevectors, self.wavevectors) + kc ** 2)
        self.omegas = np.asarray(frequencies, dtype=float)
        if self.omegas.shape != self.weights.shape:
            raise ValueError("frequencies must be (n_modes,) matching weights")
        # covariant per-mode wave four-vectors (rows: partial_mu theta_j)
        self.kappas = np.concatenate(
            [(-self.omegas / constants.c)[:, None], self.wavevectors], axis=1
        )
        j0 = int(np.argmax(self.weights))
        # w0 - sum of the other weights; positive means globally node-free
        self.dominance_margin = float(
            self.weights[j0] - (self.weights.sum() - self.weights[j0]))
        self._carrier = self.kappas[j0]
        # carrier-relative wave vectors; the weighted columns (1, dkappa)
        # and dkappa x dkappa that ``_mode_sums`` takes cos and sin to
        dk = self._dkappas = self.kappas - self._carrier
        w = self.weights[:, None]
        self._first_sums = w * np.concatenate([np.ones_like(w), dk], axis=1)
        self._second_sums = w * np.einsum("jm,jn->jmn", dk, dk).reshape(-1, 16)
        # the least modulus the node check accepts
        self.floor = 1e-6 * float(self.weights.sum())
        self._n0 = 0.0
        if self.weights.size > 1 and self.dominance_margin > 0:
            # the whole turns that bring S(lo) / hbar to its principal value
            lo = self.domain.lo_array
            self._n0 = -float(np.round(self._branch_angle(
                lo, *self._mode_sums(lo, 1)[:2]) / (2.0 * np.pi)))
        if not _skip_node_check:
            self._check_for_nodes()

    def conjugate(self):
        """The complex conjugate sum_j w_j exp(-i kappa_j . x): the packet of
        the negated modes, with the same density and the phase negated.

        Conjugation maps positive-frequency solutions onto the opposite
        branch, so the four-current flips sign everywhere and the solution
        class swaps. The density is unchanged, so the node check does not
        run again; conjugating twice gives a packet equal to this one.
        """
        return PacketBundle(-self.wavevectors, self.weights, self.constants,
                            self.domain, frequencies=-self.omegas,
                            _skip_node_check=True)

    # --- mode sums ----------------------------------------------------------
    def _mode_sums(self, x, order):
        """Real mode sums of R = sum_j w_j exp(i dtheta_j) at events (..., 4).

        With c_j = w_j cos dtheta_j and s_j = w_j sin dtheta_j, returns
        A = sum c and B = sum s (...) and P = c . dkappa and Q = s . dkappa
        (..., 4); with ``order`` 2 also Mc = c . (dkappa x dkappa) and Ms
        likewise (..., 4, 4). So R = A + iB, d R = i (P + iQ) and
        d d R = -(Mc + i Ms). The cos and sin rows go through each product
        together, and A, B, P, Q come from the same product at every order,
        so every accessor rounds them alike.
        """
        dth = _rows_times(x, self._dkappas.T)
        lead, n = dth.shape[:-1], dth.shape[-1]
        cs = np.empty((2,) + dth.shape)
        np.cos(dth, out=cs[0])
        np.sin(dth, out=cs[1])
        cs = cs.reshape(-1, n)
        first = (cs @ self._first_sums).reshape((2,) + lead + (5,))
        sums = [first[0, ..., 0], first[1, ..., 0],
                first[0, ..., 1:], first[1, ..., 1:]]
        if order == 2:
            second = (cs @ self._second_sums).reshape((2,) + lead + (4, 4))
            sums += [second[0], second[1]]
        return sums

    @staticmethod
    def _arg_gradient(a, b, p, q):
        """d arg R = Im(d R / R) = (A P + B Q) / |R|^2, as (..., 4)."""
        a, b = a[..., None], b[..., None]
        return (a * p + b * q) / (a * a + b * b)

    def _gradient_of(self, gr):
        return self.constants.hbar * (self._carrier + gr)

    def _hessian_of(self, a, b, p, q, mc, ms, gr):
        """hbar Im(dd R / R - (d R / R)(d R / R)) from the sums and
        gr = d arg R, with -Re(d R / R) = gi = (A Q - B P) / |R|^2."""
        rho = (a * a + b * b)[..., None]
        gi = (a[..., None] * q - b[..., None] * p) / rho
        outer = gr[..., :, None] * gi[..., None, :]
        a, b = a[..., None, None], b[..., None, None]
        return self.constants.hbar * (outer + np.swapaxes(outer, -1, -2)
                                      - (a * ms - b * mc) / rho[..., None])

    def _branch_angle(self, x, a, b):
        """theta_j0 + atan2(B, A) at events (..., 4) from the sums A, B."""
        return _rows_times(x, self._carrier) + np.arctan2(b, a)

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
        pts = self.domain.grid(shape)
        mod = np.sqrt(self._density(pts))
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
        a, b = self._mode_sums(x, 1)[:2]
        return a * a + b * b

    def _density_gradient(self, x):
        # d p = 2 Re(conj(R) d R)
        a, b, p, q = self._mode_sums(x, 1)
        return 2.0 * (b[..., None] * p - a[..., None] * q)

    def _density_hessian(self, x):
        # dd p = 2 Re(conj(d R) d R + conj(R) dd R)
        a, b, p, q, mc, ms = self._mode_sums(x, 2)
        a, b = a[..., None, None], b[..., None, None]
        return 2.0 * (p[..., :, None] * p[..., None, :]
                      + q[..., :, None] * q[..., None, :] - a * mc - b * ms)

    def _phase_of(self, x, a, b):
        if self.dominance_margin <= 0:
            raise BranchUnavailable(
                "phase values need a dominant mode (weight above the sum of "
                "the others); this superposition has no single-valued branch "
                "certificate"
            )
        return self.constants.hbar * (self._branch_angle(x, a, b)
                                      + 2.0 * np.pi * self._n0)

    def _phase(self, x):
        return self._phase_of(x, *self._mode_sums(x, 1)[:2])

    def _phase_gradient(self, x):
        return self._gradient_of(self._arg_gradient(*self._mode_sums(x, 1)))

    def _phase_and_gradient(self, x):
        """Phase and phase gradient from one set of first-order mode sums,
        equal bit for bit to ``phase`` and ``phase_gradient``."""
        sums = self._mode_sums(x, 1)
        return (self._phase_of(x, *sums[:2]),
                self._gradient_of(self._arg_gradient(*sums)))

    def _phase_hessian(self, x):
        sums = self._mode_sums(x, 2)
        return self._hessian_of(*sums, self._arg_gradient(*sums[:4]))

    def _density_and_phase_derivatives(self, x):
        """Density, phase gradient and phase Hessian from one set of mode
        sums, equal bit for bit to ``density``, ``phase_gradient`` and
        ``phase_hessian``."""
        sums = self._mode_sums(x, 2)
        a, b = sums[:2]
        gr = self._arg_gradient(*sums[:4])
        return (a * a + b * b, self._gradient_of(gr),
                self._hessian_of(*sums, gr))


def make_plane_wave(k, constants=None, domain=None, frequency=None):
    """Plane wave of wavevector k: the one-mode ``PacketBundle``.

    The frequency is on the mass shell unless ``frequency`` sets it (used
    for detuned and negative-frequency controls). Plane waves are globally
    analytic with unit density, so the default domain is a very large box;
    pass a Box to restrict it.
    """
    constants = constants or PhysicalConstants()
    domain = domain or Box((-1e6,) * 4, (1e6,) * 4)
    return PacketBundle([k], [1.0], constants, domain, frequencies=(
        None if frequency is None else [frequency]))


def make_packet(wavevectors, weights, domain, constants=None):
    """Superposition bundle over a required box domain.

    Raises NodeInDomain when the modulus provably (dominance certificate)
    cannot stay above the floor (1e-6 times the weight sum), or when a
    lattice scan finds values below the floor plus the cell Lipschitz
    reach.
    """
    constants = constants or PhysicalConstants()
    if not isinstance(domain, Box):
        raise ValueError("packet bundles require an explicit Box domain")
    return PacketBundle(wavevectors, weights, constants, domain)


# ---------------------------------------------------------------------------
# derived velocity fields


def four_velocity(bundle, x):
    """Covariant current four-velocity V_mu = (partial_mu S) / m at events
    x (..., 4), as (..., 4)."""
    return bundle.phase_gradient(x) / bundle.constants.mass


def osmotic_four_velocity(bundle, x):
    """Covariant osmotic four-velocity U_mu = (hbar/2m) partial_mu ln p at
    events x (..., 4), as (..., 4); DensityZero where p < DENSITY_FLOOR."""
    scale = bundle.constants.hbar / (2.0 * bundle.constants.mass)
    p = bundle.density(x)
    if np.any(p < DENSITY_FLOOR):
        raise DensityZero("density fell below the positivity floor "
                          f"{DENSITY_FLOOR:g}")
    return scale * bundle.density_gradient(x) / np.asarray(p)[..., None]


# ---------------------------------------------------------------------------
# hypothesis checking


@dataclass
class HypothesisReport:
    """Lattice scan summary for the chart-construction hypotheses.

    (i)   the time component of the phase gradient never vanishes,
    (ii)  the derivative of the four-velocity is symmetric (closed form),
    (iii) the four-velocity is timelike everywhere.

    ``certificate`` is the bundle's ``dominance_certificate`` (None for a
    bundle that is not a packet): where the scan samples its lattice, a
    certified bundle's hypotheses hold on all of M^4.
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
    certificate: dict
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
            "certificate": self.certificate,
            "violated": list(self.violated),
            "passed": self.passed,
        }


def dominance_certificate(bundle):
    """Closed-form proof of hypotheses (i) and (iii) on all of M^4, or None
    for a bundle that is not a ``PacketBundle``.

    With j0 the dominant mode and m = w_j0 - sum_{j != j0} w_j the
    dominance margin, S / hbar = theta_j0 + arg R + const with R = sum_j
    w_j exp(i dtheta_j) (see ``PacketBundle``), so

        d_mu S / hbar - kappa_j0,mu = Im(d_mu R / R),
        d_mu R = i sum_j w_j dkappa_j,mu exp(i dtheta_j),   |R| >= m > 0.

    Hence, at every event,

        |d_mu S / hbar - kappa_j0,mu| <= D_mu = sum_j w_j |dkappa_j,mu| / m
        |d_sp S / hbar - k_j0|        <= D_sp = sum_j w_j |dk_j| / m

    (Euclidean norm over the spatial axes). So |d_0 S| / hbar >= |kappa_j0,0|
    - D_0 and |d_sp S| / hbar <= |k_j0| + D_sp everywhere, and:

    * (i) holds when hbar (|kappa_j0,0| - D_0) / mass > 1e-8 c, the scan's
      ``v0_floor``: V_0 then keeps the sign of kappa_j0,0 and stays above
      the floor;
    * (iii) holds when |kappa_j0,0| - D_0 > |k_j0| + D_sp, since then
      |d_0 S| > |d_sp S| and V is timelike for ETA = diag(-1, 1, 1, 1);
    * (ii) holds by construction: V is the gradient of S, whose Hessian
      is symmetric.

    Both bounds hold for any phases dtheta_j, so the rounding of the
    phases themselves does not enter; the evaluated gradient differs from
    the exact one by the rounding of the mode sums and of the quotient
    (A P + B Q) / (A^2 + B^2). To first order in the unit round-off u,
    with W = sum_j w_j and n modes, that is at most 4 (n + 2) u (W / m)^2
    D_mu, plus a few u times |kappa_j0,mu| from the carrier. Each bound is
    widened by the round-off allowance 16 (n + 2) u ((W / m)^2 D +
    |carrier part|), four times that estimate, which also covers the
    rounding of the timelike test's quadratic form. The margins are

        v0_margin       = hbar (|kappa_j0,0| - D_0 - a_0) / mass - 1e-8 c
        timelike_margin = (|kappa_j0,0| - D_0 - a_0) - (|k_j0| + D_sp + a_sp)

    with a_0, a_sp the allowances, and ``certified`` holds when both are
    positive. A packet without a dominant mode (m <= 0) has infinite D
    and is not certified. The certificate proves what a lattice scan can
    only sample, on all of M^4 rather than on a window of the domain; the
    scan proves only that its lattice points pass, and stays the route for
    an uncertified field.

    Returns a dict with ``certified``, ``D`` (D_0 .. D_3), ``D_spatial``,
    ``v0_margin`` and ``timelike_margin``.
    """
    if not isinstance(bundle, PacketBundle):
        return None
    const = bundle.constants
    w, m = bundle.weights, bundle.dominance_margin
    carrier, dk = bundle._carrier, bundle._dkappas
    k_sp = float(np.linalg.norm(carrier[1:]))
    if m > 0.0:
        d = w @ np.abs(dk) / m
        d_sp = float(w @ np.linalg.norm(dk[:, 1:], axis=1)) / m
        rel = 16.0 * (w.size + 2) * np.finfo(float).eps
        grow = (float(w.sum()) / m) ** 2
        low0 = abs(carrier[0]) - d[0] - rel * (grow * d[0] + abs(carrier[0]))
        high_sp = k_sp + d_sp + rel * (grow * d_sp + k_sp)
    else:
        d, d_sp = np.full(4, np.inf), np.inf
        low0, high_sp = -np.inf, np.inf
    v0_margin = const.hbar * low0 / const.mass - 1e-8 * const.c
    timelike_margin = low0 - high_sp
    return {
        "certified": bool(v0_margin > 0.0 and timelike_margin > 0.0),
        "D": [float(v) for v in d],
        "D_spatial": float(d_sp),
        "v0_margin": float(v0_margin),
        "timelike_margin": float(timelike_margin),
    }


HYPOTHESIS_SHAPE = (7, 7, 7, 7)  # the default hypotheses lattice
# flat (4, 4) indices of the entries (i, j) above the diagonal and (j, i)
_UPPER = np.ravel_multi_index(np.triu_indices(4, 1), (4, 4))
_LOWER = np.ravel_multi_index(np.triu_indices(4, 1)[::-1], (4, 4))


def check_theorem_hypotheses(bundle, box=None, shape=HYPOTHESIS_SHAPE):
    """Scan a lattice for the three chart-construction hypotheses.

    Each block of ROW_BLOCK (512) lattice events is built from the axes
    and takes its density, phase gradient and phase Hessian from one
    ``density_and_phase_derivatives`` call, so the scan's memory grows
    with the block, not the lattice; the reductions over blocks equal
    those over one whole-lattice call. Condition (i) fails where |V_0|
    reaches ``v0_floor`` = 1e-8 c or V_0 changes sign, and (ii) where the
    Hessian's asymmetry reaches ``closedness_tol`` = 1e-10 max|Hessian| +
    1e-14; the report carries both. Returns a HypothesisReport, with the
    bundle's ``dominance_certificate`` attached; ``violated`` holds labels
    "(i)", "(ii)", "(iii)" for every failed condition of the scan, in that
    order.
    """
    c = bundle.constants.c
    if box is None:
        lo = bundle.domain.lo_array
        hi = bundle.domain.hi_array
        # plane-wave default domains are huge; scan a representative window
        half = np.minimum((hi - lo) / 2.0, 4.0)
        mid = (lo + hi) / 2.0
        box = Box(mid - half, mid + half)
    axes = [np.linspace(box.lo[i], box.hi[i], int(shape[i]))
            for i in range(box.ndim)]
    n_events = int(np.prod([len(axis) for axis in axes]))

    min_density = min_abs_v0 = np.inf
    max_v0, min_v0 = -np.inf, np.inf
    max_closed = max_hess = 0.0
    n_timelike = 0
    argmin = 0
    for block in _row_blocks(n_events):
        density, grad, hess = bundle.density_and_phase_derivatives(
            _lattice(axes, block))
        v = grad / bundle.constants.mass
        v0 = v[:, 0]
        abs_v0 = np.abs(v0)
        n = int(abs_v0.argmin())
        # strict: the first minimum over the lattice, as one argmin finds it
        if abs_v0[n] < min_abs_v0:
            min_abs_v0, argmin = float(abs_v0[n]), block.start + n
        max_v0, min_v0 = max(max_v0, v0.max()), min(min_v0, v0.min())
        vv = np.einsum("...i,...i->...", v, raise_index(v))
        n_timelike += int(np.count_nonzero(vv < 0.0))
        # the six pairs i < j of |H_ij - H_ji|, and max|H| as the larger of
        # max H and -min H: the maxima of the whole-matrix forms
        flat = hess.reshape(-1, 16)
        max_closed = max(max_closed, np.abs(
            flat[:, _UPPER] - flat[:, _LOWER]).max())
        max_hess = max(max_hess, flat.max(), -flat.min())
        min_density = min(min_density, density.min())

    v0_floor = 1e-8 * c
    closedness_tol = 1e-10 * (max_hess + 1e-300) + 1e-14

    # a sign change proves a zero of V_0 between lattice points even when
    # no sample lands near it
    sign_change = bool((max_v0 > 0.0) and (min_v0 < 0.0))
    timelike = n_timelike / n_events

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
        max_closedness=float(max_closed),
        timelike_fraction=timelike,
        min_density=float(min_density),
        v0_floor=float(v0_floor),
        closedness_tol=float(closedness_tol),
        lattice_shape=tuple(int(s) for s in shape),
        argmin_v0=tuple(float(t) for t in
                        _lattice(axes, slice(argmin, argmin + 1))[0]),
        certificate=dominance_certificate(bundle),
        violated=violated,
    )

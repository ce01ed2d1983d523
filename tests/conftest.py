"""Shared fixtures: canonical field bundles reused across the test suite,
the finite-difference view of a bundle, the family thresholds every Monte
Carlo assertion uses, and the tracemalloc peak the memory gates read."""

import tracemalloc

import numpy as np
import pytest
from scipy import stats

from comovkit.constants import PhysicalConstants
from comovkit.fields import (
    Box,
    FieldBundle,
    central_gradient,
    central_hessian,
    make_packet,
    make_plane_wave,
)

# nine-mode packet: dominant carrier at rest plus a narrow shell of side
# modes, weights sum to 3.5 with dominance margin 0.5; the 0.05 bandwidth
# keeps the congruence speed within 2e-3 of c so the chart metric blocks
# stay inside the 1e-4 verification budget
PACKET9_WAVEVECTORS = np.array(
    [
        [0.0, 0.0, 0.0],
        [0.05, 0.0, 0.0],
        [-0.05, 0.0, 0.0],
        [0.0, 0.05, 0.0],
        [0.0, -0.05, 0.0],
        [0.0, 0.0, 0.05],
        [0.0, 0.0, -0.05],
        [0.05, 0.05, 0.05],
        [-0.05, -0.05, -0.05],
    ]
)
PACKET9_WEIGHTS = np.array([2.0, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.15, 0.15])

# false-alarm rate per seed of each statistical family check, stated before
# the ensembles are drawn: a correct estimator fails a given check on at
# most one master seed in a thousand
FALSE_ALARM = 1e-3


def t_limit(family, dof, rate):
    """Per-comparison two-sided limit on |t| for a family of ``family`` t
    statistics with ``dof`` degrees of freedom (``np.inf`` for z scores).

    A correct estimator exceeds it anywhere in the family with probability
    at most ``rate`` per seed. This is the Bonferroni limit, which holds
    however the family's members are correlated.
    """
    return float(stats.t.isf(0.5 * rate / family, dof))


def family_check(t, dof, profile):
    """Test a family of two-sided t statistics for a bias at FALSE_ALARM.

    The rate is split in three equal parts, one per statistic:

    - the largest |t|, against ``t_limit``: a bias in a few members;
    - the sum of squared normal scores (each |t| mapped to the normal
      score with the same tail probability), against chi-square with one
      degree of freedom per member, exact for independent members (binned
      estimates over disjoint samples nearly are): a bias spread over many
      members in any pattern;
    - the pooled t along ``profile``, the pattern in which a stated bias
      moves the members, ``profile . t / |profile|``, against the limit of
      a single member: a bias in that pattern, as ``test_04``'s pooled z
      does for a constant offset. The limit is exact for a profile on one
      member and conservative for a spread one.

    The max-|t| limit grows with the family size; the two pooled
    statistics keep a small bias spread over many members detectable.
    Returns a dict with the three statistics, their limits and ``reject``.
    """
    t = np.ravel(np.asarray(t, dtype=float))
    profile = np.ravel(np.asarray(profile, dtype=float))
    part = FALSE_ALARM / 3.0
    z = stats.norm.isf(stats.t.sf(np.abs(t), dof))
    out = {
        "family": t.size,
        "dof": dof,
        "rate": FALSE_ALARM,
        "max_t": float(np.max(np.abs(t))),
        "t_limit": t_limit(t.size, dof, part),
        "chi2": float(np.sum(z * z)),
        "chi2_limit": float(stats.chi2.isf(part, t.size)),
        "pooled_t": float(abs(profile @ t) / np.linalg.norm(profile)),
        "pooled_limit": t_limit(1, dof, part),
    }
    out["reject"] = (out["max_t"] > out["t_limit"]
                     or out["chi2"] > out["chi2_limit"]
                     or out["pooled_t"] > out["pooled_limit"])
    return out


def family_checks(t, biased, dof):
    """``family_check`` of a family at the truth, ``t``, and under its
    power-control bias, ``biased``, both pooled along ``biased - t``.

    A correct estimator passes the first; the second must reject.
    """
    profile = np.ravel(biased) - np.ravel(t)
    return family_check(t, dof, profile), family_check(biased, dof, profile)


def traced_peak(call):
    """(result, peak traced bytes during the call); numpy reports its
    buffers to tracemalloc."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


class FiniteDifferenceView(FieldBundle):
    """A bundle's density and phase with central-difference derivatives.

    Every derivative is one ``central_gradient`` or ``central_hessian``
    call of step ``step`` on this view's ``_density`` or ``_phase``, which
    are the base bundle's; it checks the analytic derivatives and runs
    the package's generic code on a bundle without them.
    """

    def __init__(self, base, step):
        super().__init__(base.constants, base.domain)
        self.base = base
        self.step = step

    def _density(self, x):
        return self.base._density(x)

    def _phase(self, x):
        return self.base._phase(x)

    def _density_gradient(self, x):
        return central_gradient(self._density, x, self.step)

    def _density_hessian(self, x):
        return central_hessian(self._density, x, self.step)[2]

    def _phase_gradient(self, x):
        return central_gradient(self._phase, x, self.step)

    def _phase_hessian(self, x):
        return central_hessian(self._phase, x, self.step)[2]


NEAR_STANDING_WAVEVECTORS = np.array([[0.75, 0.0, 0.0], [-0.9, 0.0, 0.0]])
NEAR_STANDING_WEIGHTS = np.array([1.0, 0.98])


@pytest.fixture(scope="session")
def constants():
    return PhysicalConstants()


@pytest.fixture(scope="session")
def boost_wave(constants):
    """Plane wave moving at 0.6c along x1."""
    return make_plane_wave([0.75, 0.0, 0.0], constants)


@pytest.fixture(scope="session")
def packet9(constants):
    box = Box((-4.0,) * 4, (4.0,) * 4)
    return make_packet(PACKET9_WAVEVECTORS, PACKET9_WEIGHTS, box, constants)


@pytest.fixture(scope="session")
def boost_chart(boost_wave):
    from comovkit.chart import ComovingChart

    return ComovingChart(boost_wave, origin=np.zeros(4))


@pytest.fixture(scope="session")
def rest_chart(constants):
    from comovkit.chart import ComovingChart

    return ComovingChart(make_plane_wave([0.0, 0.0, 0.0], constants),
                         origin=np.zeros(4))


@pytest.fixture(scope="session")
def packet9_chart(packet9):
    from comovkit.chart import ComovingChart

    return ComovingChart(packet9, origin=np.zeros(4))


@pytest.fixture(scope="session")
def near_standing(constants):
    """Two nearly opposed modes; node-free but with a vanishing-V0 locus."""
    box = Box((-0.3, -2.5, -0.1, -0.1), (0.3, 0.5, 0.1, 0.1))
    return make_packet(
        NEAR_STANDING_WAVEVECTORS, NEAR_STANDING_WEIGHTS, box, constants
    )

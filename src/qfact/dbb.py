"""Pilot-wave guidance engine for closed-form interference states.

Covers the stable two-plane-wave state (cosine fringe amplitude, constant
guided velocity along Ox, zero quantum force from a constant potential),
the ionization-kick trace model with its 1/lambda direction scaling, the
two-layer desk experiment built on those pieces, and a Monte-Carlo check
of the extended Born conjecture on plane-wave sums.

Conventions: plane waves are written exp(i(p.r - W t)/hbar), so the guided
momentum is hbar times the spatial gradient of the total phase.  This
module carries explicit SI-like constants; the oracle modules upstream are
dimensionless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import check_array_size
from .seeding import trial_generator

_POSITIONS, _KICKS = 0, 1  # a run's streams: positions; ionization counts and kicks
_MAX_BATCH = 1 << 16  # most candidates in one rejection round: bounds memory

# The rejection samplers first compare each candidate's uniform with a float32
# surrogate of its density (a squeeze); a candidate whose uniform lies within
# the margin of the surrogate is decided on the float64 density instead, so
# every decision is the one the float64 density makes.
#
# Fringe: cos(float32(x))^2 against cos(x)^2, x = chi z + delta/2 in
# [-5 pi, 5 pi] (8 periods of pi/chi, and |delta/2| <= pi).  The cast moves
# x by at most 5 pi 2^-24 = 9.4e-7, and |d cos^2(x)/dx| = |sin 2x| <= 1;
# float32 cos errs by at most 4 ulp (2.4e-7), which the square doubles to
# 4.8e-7; the square itself rounds by 6e-8.  The sum, 1.5e-6, stays under a
# quarter of the margin.
_FRINGE_MARGIN = 1e-5
# Box: |sum_n a_n exp(i phi_n)|^2 in float32 against |psi|^2 / (sum |w_n|)^2,
# a_n = w_n / sum |w_n|, so that sum |a_n| = 1.  Each phase is reduced by a
# multiple of 2 pi in float64 (error under 2^20 2^-52 = 2.3e-10 below the
# phase limit) and cast to float32 (|phi| <= pi: at most 2^-23 = 1.2e-7).
# Per term, float32 cos and sin err by at most 4 ulp each (2.4e-7 each), the
# cast of a_n and the products by 3 2^-24 (1.8e-7): 8e-7 of |a_n| in all, so
# 8e-7 over the sum; each of the N - 1 additions rounds by at most 2^-24 of a
# partial sum bounded by 1, in the real and the imaginary part (8.4e-8 each).
# The squared modulus, bounded by 1, moves by at most twice the error of psi
# plus 1.8e-7 for its own rounding: 1.8e-6 + 1.7e-7 N <= 2e-6 N for N >= 1
# waves, under a quarter of the margin of N 2^-16 = 1.5e-5 N.
_BOX_MARGIN = 2.0 ** -16  # per plane wave, in units of the density bound
# a round whose largest phase reaches this takes the float64 path throughout:
# the box bound above holds below it, and no inf or NaN reaches float32
_BOX_PHASE_LIMIT = 2.0 ** 20


# --------------------------------------------------------------------------
# two-plane-wave interference state
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoWaveState:
    """Symmetric superposition of two plane waves of frequency nu and phase
    speed V whose directions make angles +-theta0 with Oz, with relative
    phase delta_phase.  The amplitude is sqrt(2) cos(chi z + delta/2) with
    chi = 2 pi (nu/V) cos(theta0); the corpuscle is guided along Ox at the
    constant speed (c^2/V) sin(theta0).  c and h take their SI values."""

    nu: float            # wave frequency, 1/s
    V: float             # phase speed, m/s
    theta0: float        # half-angle between the branches and Oz, rad
    delta_phase: float   # relative phase of the two branches, rad
    m0: float            # rest mass, kg
    M: float             # quantum mass, kg
    c: ClassVar[float] = 299_792_458.0
    h: ClassVar[float] = 6.626_070_15e-34

    def __post_init__(self):
        if min(self.nu, self.V, self.m0, self.M) <= 0:
            raise ValueError("nu, V, m0, M must all be positive")
        if self.chi <= 0:
            raise ValueError("chi = 2 pi (nu/V) cos(theta0) must be positive")
        try:  # extreme parameters overflow or underflow what a run derives
            derived = (self.guided_speed, self.fringe_period,
                       self.h * self.nu / self.V, default_kappa(self))
        except ArithmeticError as exc:
            raise ValueError(f"a derived quantity is out of range ({exc})") from None
        if not all(map(math.isfinite, (*vars(self).values(), *derived))):
            raise ValueError("parameters and derived quantities must be finite")
        if abs(self.guided_speed) >= self.c:
            raise ValueError("guided speed (c^2/V) sin(theta0) must stay below c")
        # every relative phase has a representative here; a far larger one
        # rounds the z-dependence out of cos(chi z + delta/2) in floats
        if abs(self.delta_phase) > 2.0 * math.pi:
            raise ValueError("delta_phase must lie in [-2 pi, 2 pi]")

    @classmethod
    def from_corpuscle_speed(cls, v12: float, theta0: float, delta_phase: float,
                             m0: float) -> "TwoWaveState":
        """Consistent parametrization from the corpuscle speed v12 common to
        both branches: M is the relativistic mass, nu = M c^2 / h, V = c^2/v12."""
        if not 0 < v12 < cls.c:
            raise ValueError("corpuscle speed must lie in (0, c)")
        gamma = 1.0 / math.sqrt(1.0 - (v12 / cls.c) ** 2)
        m_quantum = gamma * m0
        return cls(nu=m_quantum * cls.c ** 2 / cls.h, V=cls.c ** 2 / v12,
                   theta0=theta0, delta_phase=delta_phase, m0=m0, M=m_quantum)

    @property
    def hbar(self) -> float:
        return self.h / (2.0 * math.pi)

    @property
    def chi(self) -> float:
        return 2.0 * math.pi * (self.nu / self.V) * math.cos(self.theta0)

    @property
    def guided_speed(self) -> float:
        return (self.c ** 2 / self.V) * math.sin(self.theta0)

    @property
    def fringe_period(self) -> float:
        """Period of the squared amplitude along Oz."""
        return math.pi / self.chi

    def branch_momenta(self) -> tuple[np.ndarray, np.ndarray]:
        """De Broglie momenta of the two component plane waves (magnitude
        h nu / V, directions at +-theta0 from Oz in the xz-plane)."""
        p12 = self.h * self.nu / self.V
        s, c0 = math.sin(self.theta0), math.cos(self.theta0)
        return (np.array([p12 * s, 0.0, p12 * c0]),
                np.array([p12 * s, 0.0, -p12 * c0]))

    def total_phase(self, x, z, t) -> np.ndarray:
        """Phase (radians) of the factorized state at (x, z, t)."""
        return (2.0 * math.pi * self.nu
                * (np.asarray(x) * math.sin(self.theta0) / self.V - np.asarray(t))
                + self.delta_phase / 2.0)

    def fringe_window(self, n_periods: int) -> tuple[float, float]:
        half = 0.5 * n_periods * self.fringe_period
        return (-half, half)


def _fringe_arg(s: TwoWaveState, z) -> np.ndarray:
    """The argument chi z + delta/2 of the fringe cosine."""
    return s.chi * np.asarray(z, dtype=float) + s.delta_phase / 2.0


def fringe_density(s: TwoWaveState, z) -> np.ndarray:
    """Squared amplitude, normalized to peak 1."""
    return np.cos(_fringe_arg(s, z)) ** 2


def guided_velocity(s: TwoWaveState) -> np.ndarray:
    """Constant velocity of the corpuscular singularity: along Ox only."""
    return np.array([s.guided_speed, 0.0, 0.0])


def guided_momentum(s: TwoWaveState) -> np.ndarray:
    return s.M * guided_velocity(s)


def quantum_force(s: TwoWaveState, z) -> float:
    """-dQ/dz: identically zero since Q is constant (holds at nodes too)."""
    return 0.0


def default_kappa(s: TwoWaveState) -> float:
    """Kick scale h^2 chi / (4 pi c^2 m0^2), metres of fringe displacement
    per radian of relative-phase change."""
    return s.h ** 2 * s.chi / (4.0 * math.pi * s.c ** 2 * s.m0 ** 2)


def ionization_kick(dd, kappa: float, out=None):
    """Fringe displacement from interactions: delta_z = -kappa * delta_delta,
    elementwise; ``out`` may be ``dd`` itself."""
    if kappa < 0:
        raise ValueError("kappa must be non-negative")
    return np.multiply(-kappa, dd, out=out)


# --------------------------------------------------------------------------
# rejection sampling
# --------------------------------------------------------------------------

def _rejection_sample(n: int, rate: float, propose) -> tuple[np.ndarray, ...]:
    """The first n accepted candidates, in draw order: ``propose(m)`` draws m
    candidates and returns the accepted ones as arrays over their last axis.
    A round draws (missing + 3 sqrt(missing)) / rate candidates, at most
    ``_MAX_BATCH``, so that one round usually covers what is missing.  The n
    outputs are allocated once the first round fixes their shapes, so a count
    too large for memory fails at once."""
    out, done = None, 0
    while done < n:
        missing = n - done
        part = propose(min(_MAX_BATCH, math.ceil(
            (missing + 3.0 * math.sqrt(missing)) / rate)))
        if out is None:
            for a in part:
                check_array_size((*a.shape[:-1], n), a.dtype)
            out = tuple(np.empty((*a.shape[:-1], n), a.dtype) for a in part)
        take = min(part[0].shape[-1], missing)
        for dest, a in zip(out, part):
            dest[..., done:done + take] = a[..., :take]
        done += take
    return out


def _fringe_squeeze(s: TwoWaveState, z) -> np.ndarray:
    """float32 surrogate cos(float32(chi z + delta/2))^2 of the fringe density."""
    squeeze = np.cos(_fringe_arg(s, z).astype(np.float32))
    squeeze *= squeeze
    return squeeze


def _sample_fringe(s: TwoWaveState, gen: np.random.Generator, n: int,
                   n_periods: int) -> np.ndarray:
    """n draws of z from the fringe density, by rejection against its peak
    over a window of whole periods, where the acceptance rate is 1/2.  The
    float32 squeeze decides every candidate whose uniform lies more than
    _FRINGE_MARGIN from it; the float64 density decides the rest."""
    lo, hi = s.fringe_window(n_periods)

    def propose(m):
        z = gen.uniform(lo, hi, m)
        u = gen.random(m)
        gap = u - _fringe_squeeze(s, z)
        keep = gap <= 0.0
        np.abs(gap, out=gap)
        near = np.flatnonzero(gap <= _FRINGE_MARGIN)
        keep[near] = u[near] <= fringe_density(s, z[near])
        return (np.compress(keep, z),)

    return _rejection_sample(n, 0.5, propose)[0]


# --------------------------------------------------------------------------
# the two-layer trace experiment
# --------------------------------------------------------------------------

# histogram bins: direction over [-2 theta0, 2 theta0]; z at L2 per period
DIRECTION_BINS, FRINGE_BINS_PER_PERIOD = 201, 20
Z_PERIODS = 8  # fringe periods of the window the initial z is drawn from
KICK_HALF_WIDTH = math.pi / 2.0  # scale of the relative-phase change per kick

@dataclass(frozen=True)
class ExpConfig:
    """Two-layer trace experiment settings.

    lambda_sep is the L1 -> L2 flight distance; kappa the kick scale (None
    picks the state's default); the relative-phase change per ionization is
    KICK_HALF_WIDTH times a draw of kick_law: uniform on [-1, 1] or normal.
    """

    lambda_sep: float
    kappa: float | None = None
    kick_law: str = "uniform"
    n_trials: int = 10_000
    lambda_scaling_factors: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0)

    def __post_init__(self):
        if self.lambda_sep <= 0:
            raise ValueError("lambda_sep must be positive")
        # the largest fringe displacement: kappa * KICK_HALF_WIDTH per kick,
        # and a trial's two uniform kicks can sum to twice that
        reach = (2.0 if self.kick_law == "uniform" else 1.0) * KICK_HALF_WIDTH
        if self.kappa is not None and not (
                self.kappa >= 0 and math.isfinite(self.kappa * reach)):
            raise ValueError("kappa must be non-negative, and kappa * "
                             "KICK_HALF_WIDTH finite, twice that for uniform "
                             "kicks")
        if self.kick_law not in ("uniform", "normal"):
            raise ValueError(f"kick_law must be 'uniform' or 'normal', "
                             f"got {self.kick_law!r}")
        if self.n_trials < 1:
            raise ValueError("n_trials must be positive")


@dataclass
class Histogram1D:
    edges: np.ndarray
    mass: np.ndarray

    @classmethod
    def from_samples(cls, samples, edges) -> "Histogram1D":
        counts, _ = np.histogram(samples, bins=edges)
        return cls(edges=np.asarray(edges, dtype=float),
                   mass=counts / max(len(samples), 1))


@dataclass
class ExpSummary:
    n_trials: int
    guided_p: np.ndarray                  # reference value p0 (vector)
    reference_spectrum: tuple[np.ndarray, np.ndarray]  # two-peak branch momenta
    mean_estimated_p: np.ndarray
    sigma_px: float
    sigma_z: float
    heisenberg_product: float
    hbar_half: float
    direction_hist: Histogram1D          # angle of estimated p with Ox
    fringe_hist: Histogram1D             # z at L2
    lambda_table: list[tuple[float, float]]  # (lambda, mean |gamma^(0->1)|)
    phase_relation_conserved: bool


def _trial_draws(s: TwoWaveState, cfg: ExpConfig, seed: int,
                 n: int) -> tuple[np.ndarray, np.ndarray]:
    """The initial z of n trials from the fringe density, and the total
    fringe displacement of their one or two ionization kicks (even odds):
    stream 1 gives the counts, then both kicks as one (2, n) block."""
    kappa = default_kappa(s) if cfg.kappa is None else cfg.kappa
    z0 = _sample_fringe(s, trial_generator(seed, _POSITIONS), n, Z_PERIODS)
    gen = trial_generator(seed, _KICKS)
    n_ion = gen.integers(1, 3, n)
    dd = (gen.uniform(-1.0, 1.0, (2, n)) if cfg.kick_law == "uniform"
          else gen.standard_normal((2, n)))
    dd *= KICK_HALF_WIDTH
    kicks = ionization_kick(dd, kappa, out=dd)
    # 0.0 + the first kick + the second where there is one (a -0.0 second
    # term adds nothing); adding 0.0 last gives that sum's sign of zero
    total = np.where(n_ion == 2, kicks[1], -0.0)
    total += kicks[0]
    total += 0.0
    return z0, total


def simulate_exp(s: TwoWaveState, cfg: ExpConfig, seed: int) -> ExpSummary:
    """Run the two-layer experiment on an ensemble of specimens.

    Per trial: sample the initial z from the fringe density, register the
    first ionization at L1, apply one or two ionization kicks, fly at the
    guided velocity to L2, register there, and estimate the momentum as
    M (r2 - r1)/(t2 - t1).

    Positions and kicks are drawn whole from the streams (seed, 0) and
    (seed, 1), so trial i depends on n_trials as well as on the seed.
    """
    n = cfg.n_trials
    v = guided_velocity(s)
    if v[0] <= 0:
        raise ValueError("guided speed must be positive to reach L2")
    z0, kick_total = _trial_draws(s, cfg, seed, n)

    dt = cfg.lambda_sep / v[0]
    # one buffer holds p_x = M dx / dt (every trial flies dx = lambda_sep),
    # then the lambda table's angles, then dz and p_z = M dz / dt
    buf = np.full(n, cfg.lambda_sep)
    buf *= s.M
    buf /= dt
    mean_px = buf.mean()
    # shift-invariant spreads: identical samples give exactly zero sigma
    buf -= buf[0]
    sigma_px = float(np.std(buf))

    lam_table = []
    for f in cfg.lambda_scaling_factors:
        lam = f * cfg.lambda_sep
        np.divide(kick_total, lam, out=buf)
        np.arctan(buf, out=buf)
        lam_table.append((lam, float(np.mean(np.abs(buf, out=buf)))))

    z2 = np.add(z0, kick_total, out=kick_total)
    dz = np.subtract(z2, z0, out=buf)
    z0 -= z0[0]
    sigma_z = float(np.std(z0))
    gamma = np.arctan2(dz, cfg.lambda_sep, out=z0)  # z0 is spent
    pz = dz
    pz *= s.M
    pz /= dt

    theta = s.theta0
    dir_edges = np.linspace(-2.0 * theta, 2.0 * theta, DIRECTION_BINS + 1)
    lo, hi = s.fringe_window(Z_PERIODS)
    pad = 0.5 * s.fringe_period
    n_fringe_bins = FRINGE_BINS_PER_PERIOD * (Z_PERIODS + 1)
    fringe_edges = np.linspace(lo - pad, hi + pad, n_fringe_bins + 1)

    fringe_hist = Histogram1D.from_samples(z2, fringe_edges)
    conserved = _fringe_phase_conserved(s, fringe_hist)

    return ExpSummary(
        n_trials=n,
        guided_p=guided_momentum(s),
        reference_spectrum=s.branch_momenta(),
        mean_estimated_p=np.array([mean_px, 0.0, pz.mean()]),
        sigma_px=sigma_px,
        sigma_z=sigma_z,
        heisenberg_product=sigma_px * sigma_z,
        hbar_half=s.hbar / 2.0,
        direction_hist=Histogram1D.from_samples(gamma, dir_edges),
        fringe_hist=fringe_hist,
        lambda_table=lam_table,
        phase_relation_conserved=conserved,
    )


def _fringe_phase_conserved(s: TwoWaveState, hist: Histogram1D) -> bool:
    """The L2 position histogram keeps its maxima on the chi-periodic comb:
    mass near density maxima must dominate mass near the nodes."""
    centers = 0.5 * (hist.edges[:-1] + hist.edges[1:])
    density = fringe_density(s, centers)
    near_max = density > 0.9
    near_node = density < 0.1
    if not near_max.any() or not near_node.any():
        return False
    return bool(hist.mass[near_max].mean() > 10.0 * hist.mass[near_node].mean())


def straight_line_positions(s: TwoWaveState, r0, times) -> np.ndarray:
    """Kick-free trajectory: uniform motion at the guided velocity."""
    r0 = np.asarray(r0, dtype=float)
    t = np.asarray(times, dtype=float)[:, None]
    return r0[None, :] + t * guided_velocity(s)[None, :]


# --------------------------------------------------------------------------
# plane-wave sums and the extended Born conjecture
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PlaneWaveSum:
    """Finite sum of plane waves sum_n w_n exp(i p_n . r / hbar) on a
    periodic cube of side ``box``."""

    components: tuple[tuple[complex, tuple[float, float, float]], ...]
    box: float
    hbar: float = 1.0

    def __post_init__(self):
        if not self.components or any(len(p) != 3 for _, p in self.components):
            raise ValueError("need at least one component, each momentum 3-D")
        if not any(abs(w) > 0 for w, _ in self.components):
            raise ValueError("weights must not all vanish")
        seen = set()
        for _, p in self.components:
            if (key := tuple(map(float, p))) in seen:
                raise ValueError(f"momentum {list(key)} appears twice")
            seen.add(key)
        if self.box <= 0 or self.hbar <= 0:
            raise ValueError("box side and hbar must be positive")
        with np.errstate(all="ignore"):  # extreme inputs overflow or underflow
            reach = np.abs((self.momenta[1:] - self.momenta[0]) / self.hbar).sum(
                axis=1) * self.box  # bound on each term's phase across the box
            sums = pair_sum_spectrum(self)[0]
            totals = (self.density_bound(), _pair_weights(self).sum())
        if not (np.isfinite(reach).all() and np.isfinite(sums).all()
                and all(np.finfo(float).tiny <= x < math.inf for x in totals)):
            raise ValueError("a derived quantity is out of range")

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for w, _ in self.components], dtype=np.complex128)

    @property
    def momenta(self) -> np.ndarray:
        return np.array([p for _, p in self.components], dtype=float)

    def terms(self, r) -> np.ndarray:
        """Terms w_n exp(i (p_n - p_0) . r / hbar) of psi, shape (N, ...) for r
        of shape (..., 3).  The factor exp(i p_0 . r / hbar) they leave out
        cancels in |psi|^2 and in grad(arg psi)."""
        return self.terms_at(self.phases(r))

    def phases(self, r) -> np.ndarray:
        """Phases (p_n - p_0) . r / hbar of the terms n >= 1, shape (N - 1, ...)
        for r of shape (..., 3)."""
        p = self.momenta
        return np.tensordot((p[1:] - p[0]) / self.hbar, r, axes=(1, -1))

    def terms_at(self, phases) -> np.ndarray:
        """The terms of ``terms`` from their ``phases``."""
        w = self.weights
        out = np.empty(w.shape + phases.shape[1:], dtype=np.complex128)
        out[0] = w[0]
        np.exp(1j * phases, out=out[1:])
        out[1:] *= w[1:].reshape(-1, *[1] * (phases.ndim - 1))
        return out

    def field(self, r) -> np.ndarray:
        """psi(r) for r of shape (..., 3)."""
        return (np.exp(1j * np.dot(r, self.momenta[0]) / self.hbar)
                * self.terms(r).sum(axis=0))

    def density_bound(self) -> float:
        """Sharp bound (sum |w_n|)^2 on |psi|^2 for rejection sampling."""
        return float(np.sum(np.abs(self.weights)) ** 2)

    def guided_momentum_at(self, r) -> np.ndarray:
        """hbar grad(arg psi), shape (..., 3)."""
        return _guided_momentum(self.momenta, self.terms(r))


def _guided_momentum(momenta: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """hbar grad(arg psi) = Re(sum_n t_n p_n / sum_n t_n) from the terms t_n
    of ``PlaneWaveSum.terms`` at the same points, which it overwrites with
    their shares t_n / sum_n t_n; shape (..., 3)."""
    terms /= terms.sum(axis=0)
    return np.moveaxis(np.tensordot(momenta, terms.real, axes=(0, 0)), 0, -1)


def _box_squeeze(w: PlaneWaveSum, phases: np.ndarray) -> np.ndarray:
    """float32 surrogate of |psi|^2 / w.density_bound() from the float64
    ``w.phases`` (below _BOX_PHASE_LIMIT), each first reduced by a multiple
    of 2 pi in float64: |sum_n a_n exp(i phi_n)|^2, a_n = w_n / sum |w_n|."""
    a = w.weights / np.sum(np.abs(w.weights))
    a_re, a_im = (x.astype(np.float32)[:, None] for x in (a.real, a.imag))
    turns = np.rint(phases * (0.5 / math.pi))
    turns *= 2.0 * math.pi
    reduced = np.subtract(phases, turns, out=turns).astype(np.float32)
    cos, sin = np.cos(reduced), np.sin(reduced)
    re = a_re[0] + (a_re[1:] * cos - a_im[1:] * sin).sum(axis=0)
    im = a_im[0] + (a_re[1:] * sin + a_im[1:] * cos).sum(axis=0)
    re *= re
    im *= im
    re += im
    return re


def _box_proposal(w: PlaneWaveSum, gen: np.random.Generator):
    """Acceptance rate and ``propose`` of the rejection sampler for |psi|^2
    in the box against its sharp bound: ``propose(m)`` draws m candidates
    from ``gen`` and returns the accepted ones' ``w.terms``, shape (N, k).
    The rate is sum |w_n|^2 / (sum |w_n|)^2, exact with distinct momenta on
    the box's reciprocal lattice (``box_acceptance_rate`` is exact off it
    too); it only sizes the rounds.  The float32 squeeze rejects every
    candidate whose uniform lies more than _BOX_MARGIN per wave above it;
    the float64 terms decide the rest.  Each round's phases come from one
    product over the whole round, as BLAS may round a subset differently."""
    amps = np.abs(w.weights) / np.max(np.abs(w.weights))
    bound = w.density_bound()
    margin = _BOX_MARGIN * len(amps)

    def propose(m):
        r = gen.random((3, m)) * w.box
        u = gen.random(m)
        phases = w.phases(r.T)
        if np.max(np.abs(phases), initial=0.0) < _BOX_PHASE_LIMIT:
            squeeze = _box_squeeze(w, phases)
            squeeze += margin
            live = np.flatnonzero(u <= squeeze)
            u, phases = u.take(live), phases.take(live, axis=1)
        # otherwise the float64 terms decide every candidate
        terms = w.terms_at(phases)
        psi = terms.sum(axis=0)
        keep = np.flatnonzero(u * bound <= psi.real ** 2 + psi.imag ** 2)
        return (terms.take(keep, axis=1),)

    return np.sum(amps ** 2) / np.sum(amps) ** 2, propose


# a Born check draws n_samples / box_acceptance_rate candidates on average.
# It may draw up to 2**64, centuries at 10^8 a second, so that a count too
# large for memory (2**62 at a rate of 1/2) still fails as one.
BOX_CANDIDATE_BUDGET = 2 ** 64


def box_acceptance_rate(w: PlaneWaveSum) -> float:
    """Exact acceptance rate of the box sampler, the mean of |psi|^2 over the
    box over its bound: sum_nm a_n conj(a_m) prod_axes g(x_nm), with a_n =
    w_n / sum |w_n|, x_nm = (p_n - p_m) box / hbar and g(x) the mean of
    e^{ixu} over u in [0, 1]: sin(x)/x + i (1 - cos x)/x, and 1 at x = 0."""
    k = (w.momenta - w.momenta[0]) / w.hbar * w.box  # finite, as the load checks
    with np.errstate(all="ignore"):  # x = 0 is set below; |g| <= 2/|x| -> 0
        x = k[:, None, :] - k[None, :, :]
        g = np.sin(x) / x + 2j * (np.sin(0.5 * x) ** 2 / x)
    g[x == 0] = 1.0
    g[np.isinf(x)] = 0.0
    a = w.weights / np.sum(np.abs(w.weights))
    return float((a @ g.prod(axis=2) @ a.conj()).real)


def check_box_budget(w: PlaneWaveSum, n_samples: int) -> None:
    """Refuse a Born check whose box sampler would draw more than
    BOX_CANDIDATE_BUDGET candidates, or whose acceptance rate is within
    rounding of 0: each of the N^2 terms of ``box_acceptance_rate`` errs by
    at most 16 eps |a_n a_m|, and their sum adds at most 2N eps of
    sum |a_n a_m| = 1, so a rate up to (2N + 16) eps may be 0."""
    rate = box_acceptance_rate(w)
    noise = (2 * len(w.components) + 16) * np.finfo(float).eps
    if not rate > noise or n_samples / rate > BOX_CANDIDATE_BUDGET:
        raise ValueError(
            f"the box sampler's acceptance rate is {rate:.3g} (rounding noise "
            f"{noise:.2g}): {n_samples} samples would need more candidates "
            f"than the budget of 2**64")


def pair_sum_spectrum(w: PlaneWaveSum) -> tuple[np.ndarray, np.ndarray]:
    """Conjectured extended momentum spectrum: pairwise component sums
    p_i + p_j (i < j) weighted by |w_i w_j|^2, normalized; a single plane
    wave keeps its own momentum with weight 1."""
    p = w.momenta
    if len(p) == 1:
        return p.copy(), np.array([1.0])
    i, j = np.triu_indices(len(p), 1)
    wts = _pair_weights(w)
    return p[i] + p[j], wts / wts.sum()


def _pair_weights(w: PlaneWaveSum) -> np.ndarray:
    """|w_i w_j|^2 over the pairs i < j in row order, or [1] for one wave."""
    amps = np.abs(w.weights)
    if len(amps) == 1:
        return np.array([1.0])
    i, j = np.triu_indices(len(amps), 1)
    return (amps[i] * amps[j]) ** 2


def _joint_histogram(samples: np.ndarray, edges: list[np.ndarray],
                     weights: np.ndarray | None = None) -> np.ndarray:
    """``np.histogramdd(samples, edges, weights=weights)[0]`` for samples of
    shape (n, D) inside uniform edges: each axis's bin index is computed by
    arithmetic, then fixed up against its edge array as ``np.histogram``
    does, so every sample lands in the bin histogramdd gives it (the last
    bin closed).  Counts come out as integers.  Non-finite edges give
    meaningless counts, as in histogramdd, and outputs the CLI refuses."""
    shape = tuple(len(e) - 1 for e in edges)
    check_array_size(shape)  # the counts that bincount returns
    flat = np.zeros(len(samples), dtype=np.intp)
    index, buf = np.empty_like(flat), np.empty(len(samples))
    for x, e, bins in zip(samples.T, edges, shape):
        if bins == 1:  # every sample lies inside: all in bin 0
            continue
        with np.errstate(invalid="ignore", over="ignore"):
            np.subtract(x, e[0], out=buf)
            buf *= bins / (e[-1] - e[0])
            np.copyto(index, buf, casting="unsafe")
        np.clip(index, 0, bins - 1, out=index)  # the last edge: the last bin
        index -= x < np.take(e, index, out=buf)
        upper = np.append(e[1:-1], np.inf)  # the last bin is closed
        index += x >= np.take(upper, index, out=buf)
        flat *= bins
        flat += index
    return np.bincount(flat, weights, minlength=math.prod(shape)).reshape(shape)


@dataclass
class BornCheckRecord:
    n_samples: int
    mean_guided_p: np.ndarray
    guided_hists: list[Histogram1D]      # one per Cartesian axis
    candidate_spectrum: tuple[np.ndarray, np.ndarray]
    total_variation: float
    histogram_mass_total: float


def extended_born_check(w: PlaneWaveSum, n_samples: int, seed: int,
                        bins: int = 64) -> BornCheckRecord:
    """Sample positions from |psi|^2, read the guided momentum at each, and
    compare its distribution with the conjectured pair-sum spectrum.

    The total-variation distance is taken on a common 3-D binning that
    covers both supports; each 1-D marginal histogram normalizes to 1.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    check_box_budget(w, n_samples)
    guided = _guided_momentum(w.momenta, _rejection_sample(
        n_samples, *_box_proposal(w, trial_generator(seed, _POSITIONS)))[0])

    cand_vecs, cand_wts = pair_sum_spectrum(w)
    lows = np.minimum(guided.min(axis=0), cand_vecs.min(axis=0))
    highs = np.maximum(guided.max(axis=0), cand_vecs.max(axis=0))
    scale = max(float(np.max(-lows)), float(np.max(highs)), 1e-12)
    edges = []
    for axis in range(3):
        lo, hi = float(lows[axis]), float(highs[axis])
        if hi - lo <= 1e-9 * scale:
            # spread is numerical noise: the axis is a delta, use one bin
            pad = max(1e-9 * scale, 1e-12)
            edges.append(np.array([lo - pad, hi + pad]))
        else:
            span = (hi - lo) * 0.05
            check_array_size((bins + 1,))
            edges.append(np.linspace(lo - span, hi + span, bins + 1))

    # the edges cover every sample: the marginals are the 1-D histograms
    counts = _joint_histogram(guided, edges)
    marginals = [Histogram1D(edges[axis], counts.sum(axis=tuple(
        a for a in range(3) if a != axis)) / n_samples) for axis in range(3)]
    g_hist = counts / n_samples
    diff = np.subtract(g_hist, _joint_histogram(cand_vecs, edges, cand_wts))
    tv = 0.5 * float(np.abs(diff, out=diff).sum())
    return BornCheckRecord(
        n_samples=n_samples,
        mean_guided_p=guided.mean(axis=0),
        guided_hists=marginals,
        candidate_spectrum=(cand_vecs, cand_wts),
        total_variation=tv,
        histogram_mass_total=float(g_hist.sum()),
    )

"""Pilot-wave guidance engine for closed-form interference states.

Covers the stable two-plane-wave state (cosine fringe amplitude, constant
guided velocity along Ox, constant quantum potential, zero quantum force),
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

from .errors import NodeSingularityError
from .seeding import trial_generator

_POSITIONS, _KICKS = 0, 1  # a run's streams: positions; ionization counts and kicks
_MAX_BATCH = 1 << 16  # most candidates in one rejection round: bounds memory


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

    # genesis attachment protocol ------------------------------------------

    def sample_position(self, gen: np.random.Generator) -> np.ndarray:
        """One point of the fringe density, drawn from ``gen``."""
        return np.array([0.0, 0.0, _sample_fringe(self, gen, 1, Z_PERIODS)[0]])

    def momentum_at(self, r, t) -> np.ndarray:
        return guided_momentum(self)


def amplitude(s: TwoWaveState, z) -> np.ndarray:
    """Wave amplitude sqrt(2) cos(chi z + delta/2); stationary in time."""
    return np.sqrt(2.0) * np.cos(s.chi * np.asarray(z, dtype=float)
                                 + s.delta_phase / 2.0)


def fringe_density(s: TwoWaveState, z) -> np.ndarray:
    """Squared amplitude, normalized to peak 1."""
    return np.cos(s.chi * np.asarray(z, dtype=float) + s.delta_phase / 2.0) ** 2


def guided_velocity(s: TwoWaveState) -> np.ndarray:
    """Constant velocity of the corpuscular singularity: along Ox only."""
    return np.array([s.guided_speed, 0.0, 0.0])


def guided_momentum(s: TwoWaveState) -> np.ndarray:
    return s.M * guided_velocity(s)


def quantum_potential(s: TwoWaveState, z) -> float:
    """Q = (h^2 / 8 pi^2 m0) box(a)/a; for the cosine amplitude box(a)/a is
    the constant chi^2, so Q does not depend on z (off the nodes, where the
    quotient is undefined)."""
    if np.min(np.abs(amplitude(s, z))) < 1e-12:
        raise NodeSingularityError("quantum potential undefined on an amplitude node")
    return (s.h ** 2 / (8.0 * math.pi ** 2 * s.m0)) * s.chi ** 2


def quantum_force(s: TwoWaveState, z) -> float:
    """-dQ/dz: identically zero since Q is constant (holds at nodes too)."""
    return 0.0


def default_kappa(s: TwoWaveState) -> float:
    """Kick scale h^2 chi / (4 pi c^2 m0^2), metres of fringe displacement
    per radian of relative-phase change."""
    return s.h ** 2 * s.chi / (4.0 * math.pi * s.c ** 2 * s.m0 ** 2)


def ionization_kick(dd: float, kappa: float) -> float:
    """Fringe displacement from one interaction: delta_z = -kappa * delta_delta."""
    if kappa < 0:
        raise ValueError("kappa must be non-negative")
    return -kappa * dd


def trace_angles(kicks, spacings) -> np.ndarray:
    """Running direction of the trace with Ox: after interaction i the angle
    is arctan of the accumulated sum of kick/spacing ratios."""
    kicks = np.asarray(kicks, dtype=float)
    spacings = np.asarray(spacings, dtype=float)
    if kicks.shape != spacings.shape:
        raise ValueError("kicks and spacings must have equal length")
    if np.any(spacings <= 0):
        raise ValueError("spacings must be positive")
    return np.arctan(np.cumsum(kicks / spacings))


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
            out = tuple(np.empty((*a.shape[:-1], n), a.dtype) for a in part)
        take = min(part[0].shape[-1], missing)
        for dest, a in zip(out, part):
            dest[..., done:done + take] = a[..., :take]
        done += take
    return out


def _sample_fringe(s: TwoWaveState, gen: np.random.Generator, n: int,
                   n_periods: int) -> np.ndarray:
    """n draws of z from the fringe density, by rejection against its peak
    over a window of whole periods, where the acceptance rate is 1/2."""
    lo, hi = s.fringe_window(n_periods)

    def propose(m):
        z = gen.uniform(lo, hi, m)
        return (np.compress(gen.random(m) <= fringe_density(s, z), z),)

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
        if self.kappa is not None and not (
                self.kappa >= 0 and math.isfinite(self.kappa * KICK_HALF_WIDTH)):
            raise ValueError("kappa must be non-negative, and kappa * "
                             "KICK_HALF_WIDTH finite")
        if self.kick_law not in ("uniform", "normal"):
            raise ValueError(f"kick_law must be 'uniform' or 'normal', "
                             f"got {self.kick_law!r}")
        if self.n_trials < 1:
            raise ValueError("n_trials must be positive")


@dataclass
class TraceRecord:
    """Registered ionizations of one specimen and what was read off them."""

    ionizations: list[tuple[np.ndarray, float]]
    estimated_p: np.ndarray
    gammas: np.ndarray

    def __post_init__(self):
        times = [t for _, t in self.ionizations]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("ionization times must be strictly increasing")


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
    kicks = ionization_kick(KICK_HALF_WIDTH * dd, kappa)
    return z0, kicks.sum(axis=0, where=np.arange(2)[:, None] < n_ion)


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
    z2 = z0 + kick_total
    dx = np.full(n, cfg.lambda_sep)
    dz = z2 - z0
    px = s.M * dx / dt
    pz = s.M * dz / dt
    gamma = np.arctan2(dz, dx)

    # shift-invariant spreads: identical samples give exactly zero sigma
    sigma_px = float(np.std(px - px[0]))
    sigma_z = float(np.std(z0 - z0[0]))

    theta = s.theta0
    dir_edges = np.linspace(-2.0 * theta, 2.0 * theta, DIRECTION_BINS + 1)
    lo, hi = s.fringe_window(Z_PERIODS)
    pad = 0.5 * s.fringe_period
    n_fringe_bins = FRINGE_BINS_PER_PERIOD * (Z_PERIODS + 1)
    fringe_edges = np.linspace(lo - pad, hi + pad, n_fringe_bins + 1)

    lam_table = []
    for f in cfg.lambda_scaling_factors:
        lam = f * cfg.lambda_sep
        lam_table.append((lam, float(np.mean(np.abs(np.arctan(kick_total / lam))))))

    fringe_hist = Histogram1D.from_samples(z2, fringe_edges)
    conserved = _fringe_phase_conserved(s, fringe_hist)

    return ExpSummary(
        n_trials=n,
        guided_p=guided_momentum(s),
        reference_spectrum=s.branch_momenta(),
        mean_estimated_p=np.array([px.mean(), 0.0, pz.mean()]),
        sigma_px=sigma_px,
        sigma_z=sigma_z,
        heisenberg_product=sigma_px * sigma_z,
        hbar_half=s.hbar / 2.0,
        direction_hist=Histogram1D.from_samples(gamma, dir_edges),
        fringe_hist=fringe_hist,
        lambda_table=lam_table,
        phase_relation_conserved=conserved,
    )


def run_trace(s: TwoWaveState, cfg: ExpConfig, seed: int) -> TraceRecord:
    """One specimen through the two layers, keeping the raw registrations:
    the draws of ``simulate_exp`` with ``n_trials=1`` from the same seed."""
    z0s, kicks = _trial_draws(s, cfg, seed, 1)
    z0, kick = float(z0s[0]), float(kicks[0])
    v = guided_velocity(s)
    t2 = cfg.lambda_sep / v[0]
    r1 = np.array([0.0, 0.0, z0])
    r2 = np.array([cfg.lambda_sep, 0.0, z0 + kick])
    estimated = s.M * (r2 - r1) / t2
    gammas = np.arctan(np.array([kick]) / cfg.lambda_sep)
    return TraceRecord(ionizations=[(r1, 0.0), (r2, t2)],
                       estimated_p=estimated, gammas=gammas)


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
            totals = (self.density_bound(), _pair_weights(self).sum())
        if not (np.isfinite(reach).all()
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
        w, p = self.weights, self.momenta
        phases = np.tensordot((p[1:] - p[0]) / self.hbar, r, axes=(1, -1))
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

    # genesis attachment protocol ------------------------------------------

    def sample_position(self, gen: np.random.Generator) -> np.ndarray:
        """One point of |psi|^2, drawn from ``gen``."""
        return _sample_box(self, gen, 1)[0][0]

    def momentum_at(self, r, t) -> np.ndarray:
        return self.guided_momentum_at(np.asarray(r, dtype=float))


def _guided_momentum(momenta: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """hbar grad(arg psi) = Re(sum_n t_n p_n / sum_n t_n) from the terms t_n
    of ``PlaneWaveSum.terms`` at the same points; shape (..., 3)."""
    share = (terms / terms.sum(axis=0)).real
    return np.moveaxis(np.tensordot(momenta, share, axes=(0, 0)), 0, -1)


def _sample_box(w: PlaneWaveSum, gen: np.random.Generator, n: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """n points of |psi|^2 in the box, shape (n, 3), and their ``w.terms``,
    by rejection against its sharp bound; with distinct momenta on the box's
    reciprocal lattice the acceptance rate is sum |w_n|^2 / (sum |w_n|)^2."""
    amps = np.abs(w.weights) / np.max(np.abs(w.weights))

    def propose(m):
        r = gen.random((3, m)) * w.box
        terms = w.terms(r.T)
        psi = terms.sum(axis=0)
        keep = gen.random(m) * w.density_bound() <= psi.real ** 2 + psi.imag ** 2
        return np.compress(keep, r, axis=1), np.compress(keep, terms, axis=1)

    r, terms = _rejection_sample(n, np.sum(amps ** 2) / np.sum(amps) ** 2, propose)
    return r.T, terms


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
    gen = trial_generator(seed, _POSITIONS)
    guided = _guided_momentum(w.momenta, _sample_box(w, gen, n_samples)[1])

    cand_vecs, cand_wts = pair_sum_spectrum(w)
    scale = max(float(np.max(np.abs(guided))), float(np.max(np.abs(cand_vecs))),
                1e-12)
    edges = []
    for axis in range(3):
        allv = np.concatenate([guided[:, axis], cand_vecs[:, axis]])
        lo, hi = float(allv.min()), float(allv.max())
        if hi - lo <= 1e-9 * scale:
            # spread is numerical noise: the axis is a delta, use one bin
            pad = max(1e-9 * scale, 1e-12)
            edges.append(np.array([lo - pad, hi + pad]))
        else:
            span = (hi - lo) * 0.05
            edges.append(np.linspace(lo - span, hi + span, bins + 1))

    # the edges cover every sample: the marginals are the 1-D histograms
    counts, _ = np.histogramdd(guided, bins=edges)
    marginals = [Histogram1D(edges[axis], counts.sum(axis=tuple(
        a for a in range(3) if a != axis)) / n_samples) for axis in range(3)]
    g_hist = counts / n_samples
    c_hist, _ = np.histogramdd(cand_vecs, bins=edges, weights=cand_wts)
    tv = 0.5 * float(np.abs(g_hist - c_hist).sum())
    return BornCheckRecord(
        n_samples=n_samples,
        mean_guided_p=guided.mean(axis=0),
        guided_hists=marginals,
        candidate_spectrum=(cand_vecs, cand_wts),
        total_variation=tv,
        histogram_mass_total=float(g_hist.sum()),
    )

"""State expansion reconstruction from measured frequency laws.

Amplitudes come straight from square roots of frequencies.  Phases are the
unknowns: they are fit by multi-start Levenberg-Marquardt on the consistency
residual, a sum of squares that is zero at the answer for exact laws,

    R(alpha) = sum_B sum_k ( |sum_j tau^B_kj sqrt(pi_A(j)) e^{i alpha_j}|^2
                             - pi_B(k) )^2

with the first phase gauged to zero.  A restart stops when R falls to the
stop tolerance, when its damping passes the cap, or when a kept step lowers
R by a relative FLOOR_FTOL or less (MINPACK's relative-reduction test): it
has then reached a floor above zero, a local minimum that no further step
can turn into an exact fit.  A law set that admits no phase assignment
(residual above tolerance after every restart) is rejected as not
representable by any single state vector.

``StateReconstructor`` wraps the procedure in a fit/predict estimator
that holds one ``RetrievalConfig``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import finprob
from .errors import (
    DimensionMismatchError,
    EmptyLawError,
    InconsistentLawsError,
    UnlinkedObservableError,
    check_array_size,
)
from .hilbert import TransformMatrix, dirac_transform
from .seeding import RESTART_STREAM, trial_generator

AMPLITUDE_SUM_TOL = 1e-8
ZERO_AMP = 1e-12
# Levenberg-Marquardt damping: start, factors on a kept and a rejected step,
# floor (J's anchor column is zero) and the cap past which a restart stalls
DAMPING_START, DAMPING_SHRINK, DAMPING_GROW = 1e-3, 0.3, 10.0
DAMPING_FLOOR, DAMPING_CAP = 1e-15, 1e10
# a kept step that lowers R by this relative amount or less ends its restart:
# a restart heading for R = 0 converges geometrically and never gets this slow
FLOOR_FTOL = 1e-8
# a restart still descending after this many steps stops where it is
MAX_ITER = 500
# restarts whose phases differ by more than this are different basins
BASIN_GAP = 1e-3


@dataclass(frozen=True)
class RetrievalConfig:
    restarts: int = 32
    tol: float = 1e-10          # accept the fit when R falls at or below this
    stop_tol: float | None = None  # descend no further; None: tol * 1e-10
    seed: int = 0               # keys the restarts' stream, RESTART_STREAM

    def __post_init__(self):
        if self.stop_tol is None:
            object.__setattr__(self, "stop_tol", self.tol * 1e-10)
        settings = (self.restarts, self.tol, self.stop_tol)
        if any(isinstance(x, (bool, np.bool_)) for x in settings) or not (
                isinstance(self.restarts, (int, np.integer)) and self.restarts >= 1
                and 0 < self.tol < np.inf and 0 <= self.stop_tol < np.inf):
            raise ValueError("need an integer restarts >= 1, a finite tol > 0 and a "
                             f"finite stop_tol >= 0, none a bool, got {settings!r}")

    @classmethod
    def for_sampled_laws(cls, n_trials: int, n_terms: int,
                         **settings) -> "RetrievalConfig":
        """Tolerance scaled to sampling noise: ten times the squared binomial
        sigma (at worst 1/(2 sqrt n)) summed over all residual terms, unless
        ``settings``, the other fields, set one."""
        return cls(**{"tol": 10.0 * n_terms * 0.25 / n_trials, **settings})


@dataclass
class RetrievalReport:
    residual: float
    restarts_used: int
    converged: bool
    ambiguity_flag: str  # unique | conjugate-pair | underdetermined
    # second member of the ambiguity set, when one exists (the conjugate
    # solution generalizes to a reflection when the transform is complex)
    alternate_phases: np.ndarray | None = None


@dataclass
class ExpansionSet:
    """Per-observable amplitude and phase arrays of one reconstructed state.

    Gauge: the first phase of the reference observable is 0.  Phases of
    zero-amplitude components are 0 by convention.
    """

    reference_observable: str
    amplitudes: dict[str, np.ndarray]
    phases: dict[str, np.ndarray]

    def __post_init__(self):
        for name, amp in self.amplitudes.items():
            total = float(np.sum(np.asarray(amp) ** 2))
            if abs(total - 1.0) > AMPLITUDE_SUM_TOL:
                raise ValueError(
                    f"amplitudes for {name!r} must have unit square sum, got {total!r}")

    def coefficients(self) -> np.ndarray:
        """The reference observable's complex coefficients."""
        name = self.reference_observable
        return self.amplitudes[name] * np.exp(1j * self.phases[name])

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ExpansionSet":
        return cls(doc["reference_observable"],
                   {k: np.asarray(v, dtype=float) for k, v in doc["amplitudes"].items()},
                   {k: np.asarray(v, dtype=float) for k, v in doc["phases"].items()})


def law_vector(law) -> np.ndarray:
    """Frequency vector of a FactualLaw, or a plain probability vector
    passed through (exact laws enter the pipeline as arrays)."""
    if isinstance(law, finprob.FactualLaw):
        return finprob.frequency_vector(law)
    vec = np.asarray(law, dtype=float)
    if vec.ndim != 1 or vec.size == 0:
        raise EmptyLawError("law vector must be a non-empty 1-D array")
    if not (np.isfinite(vec).all() and abs(vec.sum() - 1.0) <= 1e-8
            and np.all(vec >= 0)):
        raise ValueError("law vector must be a finite probability vector")
    return vec


def amplitudes_from_law(law) -> np.ndarray:
    """|c_j| = sqrt(frequency_j), in spectrum order."""
    return np.sqrt(law_vector(law))


def _wrap_phase(alpha: np.ndarray) -> np.ndarray:
    """Map phases into (-pi, pi]."""
    wrapped = np.mod(alpha + np.pi, 2 * np.pi) - np.pi
    wrapped[wrapped == -np.pi] = np.pi
    return wrapped


def _residual_terms(alpha: np.ndarray, amp: np.ndarray, tau: np.ndarray,
                    law: np.ndarray, anchor: int = 0):
    """Residual terms r_k = |d_k|^2 - pi_B(k) of the stacked partners, shape
    (m, K), and their Jacobian dr_k/dalpha_j = -2 Im(conj(d_k) tau_kj c_j),
    shape (m, K, d), with the anchor column zero (gauge freedom).  Each row
    sums its own products tau_kj c_j, since a BLAS product over all rows may
    round a row differently with the number of rows."""
    tc = tau * (amp * np.exp(1j * alpha))[:, None, :]
    d = tc.sum(axis=2)
    r = np.abs(d) ** 2 - law
    jac = -2.0 * np.imag(d.conj()[:, :, None] * tc)
    jac[:, :, anchor] = 0.0
    return r, jac


def _descend(alpha: np.ndarray, amp: np.ndarray, tau: np.ndarray,
             law: np.ndarray, stop_tol: float, anchor: int = 0):
    """Levenberg-Marquardt on the partners' stacked transforms and laws for
    the working set, the restarts still descending: each step solves
    (J^T J + lambda I) s = J^T r and keeps alpha - s where it lowers R;
    lambda shrinks on a kept step, grows on a rejected one.  A restart stops
    at R <= stop_tol, at lambda > DAMPING_CAP, when a kept step lowers R by a
    relative FLOOR_FTOL or less (a floor above zero), or after MAX_ITER
    steps, and leaves the set with its phases and R written to ``alpha`` and
    the returned values: no restart's answer depends on the others."""
    r, jac = _residual_terms(alpha, amp, tau, law, anchor)
    out = np.sum(r ** 2, axis=1)
    idx = np.flatnonzero(out > stop_tol)  # the working set's rows of alpha
    a, value, r, jac = alpha[idx], out[idx], r[idx], jac[idx]
    damping = np.full(idx.size, DAMPING_START)
    for _ in range(MAX_ITER):
        if idx.size == 0:
            break
        jt = np.swapaxes(jac, 1, 2)
        normal = jt @ jac + damping[:, None, None] * np.eye(alpha.shape[1])
        cand = a - np.linalg.solve(normal, jt @ r[..., None])[..., 0]
        cand_r, cand_jac = _residual_terms(cand, amp, tau, law, anchor)
        cand_value = np.sum(cand_r ** 2, axis=1)
        ok = cand_value < value
        floor = ok & (value - cand_value <= FLOOR_FTOL * value)
        for x, y in ((a, cand), (value, cand_value), (r, cand_r), (jac, cand_jac)):
            np.copyto(x.T, y.T, where=ok)  # ok picks rows, the last axis of x.T
        damping = np.maximum(
            damping * np.where(ok, DAMPING_SHRINK, DAMPING_GROW), DAMPING_FLOOR)
        stop = (value <= stop_tol) | (damping > DAMPING_CAP) | floor
        if stop.any():
            alpha[idx[stop]], out[idx[stop]] = a[stop], value[stop]
            idx, a, value, r, jac, damping = (
                x[~stop] for x in (idx, a, value, r, jac, damping))
    alpha[idx], out[idx] = a, value
    return alpha, out


def _basins(cands: np.ndarray, first: np.ndarray, amp: np.ndarray) -> list:
    """Representatives of the basins among ``first`` and the rows of
    ``cands``, in that order: a row opens a new basin when its phases differ
    from every representative so far by a circular gap above BASIN_GAP on
    some component that carries amplitude."""
    carried = amp > ZERO_AMP
    basins = [first]
    while True:
        gap = np.abs(np.mod(cands[:, carried] - basins[-1][carried] + np.pi,
                            2 * np.pi) - np.pi)
        cands = cands[np.max(gap, axis=1, initial=0.0) > BASIN_GAP]
        if not cands.shape[0]:
            return basins
        basins.append(cands[0])
        cands = cands[1:]


def retrieve_phases(law_a,
                    laws_others: dict,
                    taus: dict[str, TransformMatrix],
                    cfg: RetrievalConfig = RetrievalConfig()
                    ) -> tuple[np.ndarray, RetrievalReport]:
    """Fit reference phases to the partner laws.

    Args:
        law_a: measured law of the reference observable (FactualLaw or
            exact probability vector).
        laws_others: measured laws of partner observables, keyed by name.
        taus: transform from the reference to each partner, keyed by name.
        cfg: optimizer settings.

    Returns:
        (phases, report); phases are gauged with the first entry 0.

    Raises:
        InconsistentLawsError: best residual stays above cfg.tol, i.e. no
            state vector reproduces the law set through the transforms.
    """
    if not laws_others:
        raise ValueError("need at least one partner observable")
    amp = amplitudes_from_law(law_a)
    d = amp.shape[0]
    partners = []
    for name, law in laws_others.items():
        if name not in taus:
            raise UnlinkedObservableError(f"no transform to partner {name!r}")
        tau = taus[name]
        if tau.dim != d:
            raise DimensionMismatchError(
                f"transform to {name!r} has dim {tau.dim}, reference has {d}")
        partners.append((tau.entries, law_vector(law)))
    tau, law = map(np.concatenate, zip(*partners))

    # anchor the optimization gauge on the largest amplitude: fixing a
    # near-zero component would leave a nearly flat global-rotation direction
    anchor = int(np.argmax(amp))
    check_array_size((cfg.restarts, d))
    alpha0 = np.zeros((cfg.restarts, d))
    alpha0[1:] = trial_generator(cfg.seed, RESTART_STREAM).uniform(
        -np.pi, np.pi, size=(cfg.restarts - 1, d))
    alpha0[:, anchor] = 0.0

    alphas, values = _descend(alpha0, amp, tau, law, cfg.stop_tol, anchor)
    # best first, in the standard gauge: first phase 0, and 0 where no amplitude
    order = np.argsort(values, kind="stable")
    values = values[order]
    alphas = _wrap_phase(alphas[order] - alphas[order, :1])
    alphas[:, amp <= ZERO_AMP] = 0.0
    best_val = float(values[0])

    if best_val > cfg.tol:
        raise InconsistentLawsError(
            f"law set is not representable: best residual {best_val:.3e} "
            f"exceeds tolerance {cfg.tol:.3e} after {cfg.restarts} restarts")

    # cluster the converged restarts: one basin means a unique solution, two
    # mean the conjugate/reflected pair, more mean the data underdetermine
    # the phases (expected with a single partner basis)
    tie = max(cfg.tol, best_val * 4.0 + 1e-15)
    basins = _basins(alphas[1:np.count_nonzero(values <= tie)], alphas[0], amp)
    flag = ("unique", "conjugate-pair", "underdetermined")[min(len(basins), 3) - 1]

    report = RetrievalReport(residual=best_val, restarts_used=cfg.restarts,
                             converged=best_val <= cfg.tol, ambiguity_flag=flag,
                             alternate_phases=basins[1] if len(basins) > 1 else None)
    return alphas[0], report


def assemble_equivalent(law_map: dict,
                        phases_a: np.ndarray,
                        taus: dict[str, TransformMatrix],
                        reference: str) -> ExpansionSet:
    """Derive every other observable's coefficients from the reference
    expansion through the basis transforms."""
    if reference not in law_map:
        raise KeyError(f"reference {reference!r} missing from law map")
    amplitudes = {reference: amplitudes_from_law(law_map[reference])}
    phases = {reference: np.asarray(phases_a, dtype=float)}
    c_ref = amplitudes[reference] * np.exp(1j * phases[reference])
    for name in law_map:
        if name == reference:
            continue
        if name not in taus:
            raise UnlinkedObservableError(f"no transform to {name!r}")
        derived = dirac_transform(c_ref, taus[name])
        amplitudes[name] = amp = np.abs(derived)
        phases[name] = np.where(amp <= ZERO_AMP, 0.0, np.angle(derived))
    return ExpansionSet(reference_observable=reference,
                        amplitudes=amplitudes, phases=phases)


def predict_heldout(expansion: ExpansionSet, tau_to_c: TransformMatrix
                    ) -> np.ndarray:
    """Probability law the expansion predicts for a held-out observable,
    in eigenvalue-index order."""
    if tau_to_c.source != expansion.reference_observable:
        raise UnlinkedObservableError(
            f"transform starts at {tau_to_c.source!r}, expansion reference is "
            f"{expansion.reference_observable!r}")
    if tau_to_c.target == expansion.reference_observable:
        return expansion.amplitudes[expansion.reference_observable] ** 2
    return np.abs(dirac_transform(expansion.coefficients(), tau_to_c)) ** 2


class StateReconstructor:
    """Fit/predict estimator around the phase-retrieval pipeline.

    fit() consumes measured laws plus reference-to-partner transforms and
    stores the reconstructed expansion; predict() maps a transform to the
    probability law of its target observable.

    Parameters
    ----------
    reference : str or None
        Reference observable; defaults to the first key of the law map.
    **settings
        Fields of :class:`RetrievalConfig`, stored as ``config``; an unknown
        one raises TypeError.
    """

    def __init__(self, reference=None, **settings):
        self.reference = reference
        self.config = RetrievalConfig(**settings)

    def fit(self, laws: dict, taus) -> "StateReconstructor":
        """Fit phases to the partner laws and assemble the expansion.

        Args:
            laws: map observable name -> measured law (FactualLaw or exact
                probability vector); the reference must be present, every
                other entry acts as a partner.
            taus: iterable of TransformMatrix objects rooted at the reference.
        """
        reference = self.reference if self.reference is not None else next(iter(laws))
        tau_map = {t.target: t for t in taus if t.source == reference}
        partners = {name: law for name, law in laws.items() if name != reference}
        phases, report = retrieve_phases(laws[reference], partners, tau_map,
                                         self.config)
        self.expansion_ = assemble_equivalent(laws, phases, tau_map, reference)
        self.report_ = report
        return self

    def predict(self, tau: TransformMatrix) -> np.ndarray:
        if not hasattr(self, "expansion_"):
            raise RuntimeError("fit the reconstructor before predicting")
        return predict_heldout(self.expansion_, tau)

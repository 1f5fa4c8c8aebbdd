import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qfact import hilbert
from qfact.errors import DestructiveAnnihilationError, DimensionMismatchError
from qfact.hilbert import (
    HamiltonianSpec,
    ObservableSpec,
    OracleState,
    born_law,
    compose_superposition,
    cross_term_expansion,
    dirac_transform,
    evolve,
    random_observable,
    random_state,
    random_unitary,
    transform_between,
)
from qfact.genesis import Simple, run_successions


def born_law_oracle(state_amps, eigenbasis):
    """Independent route: explicit inner products and squared moduli."""
    dim = len(state_amps)
    out = []
    for j in range(dim):
        inner = 0j
        for i in range(dim):
            inner += eigenbasis[i][j].conjugate() * state_amps[i]
        out.append(abs(inner) ** 2)
    return out


# --- born law ---------------------------------------------------------------

def test_born_law_eigenstate(rng):
    obs = random_observable("A", 4, rng)
    psi = OracleState(obs.eigenbasis[:, 0])
    law = born_law(psi, obs)
    assert law[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(law[1:] < 1e-12)


def test_born_law_balanced_superposition(std_basis_2):
    psi = OracleState(np.array([1, 1]) / np.sqrt(2))
    assert born_law(psi, std_basis_2) == pytest.approx([0.5, 0.5], abs=1e-12)


def test_born_law_matches_independent_oracle(rng):
    psi = random_state(4, rng)
    obs = random_observable("A", 4, rng)
    expected = born_law_oracle(list(psi.amplitudes), obs.eigenbasis.tolist())
    assert born_law(psi, obs) == pytest.approx(expected, abs=1e-12)


def test_born_law_dimension_mismatch(rng, std_basis_2):
    with pytest.raises(DimensionMismatchError):
        born_law(random_state(3, rng), std_basis_2)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=8))
def test_born_law_in_unit_interval_and_normalized(seed, dim):
    rng = np.random.default_rng(seed)
    law = born_law(random_state(dim, rng), random_observable("A", dim, rng))
    assert np.all(law >= 0) and np.all(law <= 1 + 1e-12)
    assert abs(law.sum() - 1.0) < 1e-10


# --- sampling ---------------------------------------------------------------

def coded_indices(psi, obs, n, seed) -> list[int]:
    """The index each of n generate-then-measure successions of psi codes:
    with blocks of one succession, block k holds succession k's outcome."""
    law = run_successions(Simple("G", state=psi), obs, n, 0.02, 0.05, 1, seed)
    return law.blocks.argmax(axis=1).tolist()


def test_sample_eigenstate_always_its_index(rng):
    obs = random_observable("A", 3, rng)
    psi = OracleState(obs.eigenbasis[:, 2])
    assert all(coded_indices(psi, obs, 20, k) == [2] * 20 for k in range(20))


def test_sample_balanced_within_three_sigma(std_basis_2):
    psi = OracleState(np.array([1, 1]) / np.sqrt(2))
    n = 100_000
    hits = sum(coded_indices(psi, std_basis_2, n, 2718))
    sigma = np.sqrt(0.25 / n)
    assert abs(hits / n - 0.5) <= 3 * sigma


def test_sampling_deterministic_for_fixed_seed(rng):
    psi = random_state(4, rng)
    obs = random_observable("A", 4, rng)
    seq_a = coded_indices(psi, obs, 50, 5)
    assert seq_a == coded_indices(psi, obs, 50, 5)
    assert len(set(seq_a)) > 1


# --- dirac transform --------------------------------------------------------

def test_dirac_transform_identity(std_basis_2):
    tau = hilbert.TransformMatrix("A", "A", np.eye(2))
    c = np.array([0.6, 0.8j])
    assert dirac_transform(c, tau) == pytest.approx(c)


def test_dirac_transform_balanced_mixing(std_basis_2, mixing_basis_2):
    tau = transform_between(std_basis_2, mixing_basis_2)
    d = dirac_transform(np.array([1.0, 0.0]), tau)
    assert np.abs(d) == pytest.approx([1 / np.sqrt(2), 1 / np.sqrt(2)], abs=1e-12)


def test_dirac_transform_preserves_norm(rng):
    for _ in range(20):
        dim = int(rng.integers(2, 9))
        tau = hilbert.TransformMatrix("A", "B", random_unitary(dim, rng))
        c = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        d = dirac_transform(c, tau)
        # independent norm computation
        norm_c = sum(abs(x) ** 2 for x in c) ** 0.5
        norm_d = sum(abs(x) ** 2 for x in d) ** 0.5
        assert abs(norm_c - norm_d) < 1e-12


def test_dirac_transform_inverse_is_identity(rng):
    tau = hilbert.TransformMatrix("A", "B", random_unitary(5, rng))
    c = rng.normal(size=5) + 1j * rng.normal(size=5)
    back_tau = hilbert.TransformMatrix("B", "A", tau.entries.conj().T)
    back = dirac_transform(dirac_transform(c, tau), back_tau)
    assert back == pytest.approx(c, abs=1e-10)


# --- evolution --------------------------------------------------------------

def random_hamiltonian(dim, rng, hbar=1.0):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HamiltonianSpec((z + z.conj().T) / 2, hbar=hbar)


def test_evolve_dt_zero_identity(rng):
    psi = random_state(3, rng)
    h = random_hamiltonian(3, rng)
    assert evolve(psi, h, 0.0) is psi


def test_evolve_diagonal_preserves_born_law(rng):
    obs = random_observable("A", 4, rng)
    # Hamiltonian diagonal in the observable's eigenbasis: phases only
    energies = np.array([0.3, 1.1, 2.9, 4.0])
    hmat = (obs.eigenbasis * energies) @ obs.eigenbasis.conj().T
    h = HamiltonianSpec(hmat)
    psi = random_state(4, rng)
    before = born_law(psi, obs)
    after = born_law(evolve(psi, h, 1.7), obs)
    assert after == pytest.approx(before, abs=1e-10)


def test_evolve_unitary_and_semigroup(rng):
    psi = random_state(5, rng)
    h = random_hamiltonian(5, rng)
    full = evolve(psi, h, 0.7)
    assert abs(np.linalg.norm(full.amplitudes) - 1.0) < 1e-10
    split = evolve(evolve(psi, h, 0.3), h, 0.4)
    assert split.amplitudes == pytest.approx(full.amplitudes, abs=1e-9)


def test_evolve_matches_scipy_expm_oracle(rng):
    # dual route: eigendecomposition propagator vs library matrix exponential
    psi = random_state(4, rng)
    h = random_hamiltonian(4, rng, hbar=0.9)
    dt = 0.37
    expected = expm(-1j * h.matrix * dt / h.hbar) @ psi.amplitudes
    got = evolve(psi, h, dt).amplitudes
    assert got == pytest.approx(expected, abs=1e-10)


def test_evolve_commuting_observable_conserved(rng):
    obs = random_observable("A", 3, rng)
    energies = np.array([1.0, 2.0, 5.0])
    h = HamiltonianSpec((obs.eigenbasis * energies) @ obs.eigenbasis.conj().T)
    comm = h.matrix @ obs.matrix() - obs.matrix() @ h.matrix
    assert np.linalg.norm(comm) < 1e-10
    psi = random_state(3, rng)
    assert born_law(evolve(psi, h, 2.2), obs) == \
        pytest.approx(born_law(psi, obs), abs=1e-10)


# --- superposition ----------------------------------------------------------

def test_compose_zero_weight_returns_first_component(rng):
    psi1, psi2 = random_state(3, rng), random_state(3, rng)
    out = compose_superposition([1.0, 0.0], [psi1, psi2])
    assert out.amplitudes == pytest.approx(psi1.amplitudes, abs=1e-12)


def test_compose_complete_destructive_interference(rng):
    psi = random_state(3, rng)
    neg = OracleState(-psi.amplitudes)
    with pytest.raises(DestructiveAnnihilationError):
        compose_superposition([0.5, 0.5], [psi, neg])


def test_compose_weights_are_scale_free(rng):
    # weights of any scale give the same state; only a cancelling sum fails
    psi1, psi2 = random_state(3, rng), random_state(3, rng)
    out = compose_superposition([1e-13, 0.0], [psi1, psi2])
    assert out.amplitudes == pytest.approx(psi1.amplitudes, abs=1e-12)
    with pytest.raises(DestructiveAnnihilationError):
        compose_superposition([1e-13, 1e-13], [psi1, OracleState(-psi1.amplitudes)])
    # a subnormal weight, and weights whose squares overflow
    for w in (1e-320, 1e200):
        out = compose_superposition([w, 0.0], [psi1, psi2])
        assert out.amplitudes == pytest.approx(psi1.amplitudes, abs=1e-12)
    out = compose_superposition([1e308 + 1e308j, 0.0], [psi1, psi2])
    assert out.amplitudes == pytest.approx(
        np.exp(1j * np.pi / 4) * psi1.amplitudes, abs=1e-12)
    with pytest.raises(DestructiveAnnihilationError):
        compose_superposition([1e308, 1e308], [psi1, OracleState(-psi1.amplitudes)])


def interference_expansion_oracle(weights, coeff_lists):
    """Hand expansion of |sum_i w_i c_ji|^2 into squared and cross terms."""
    dim = len(coeff_lists[0])
    total = []
    for j in range(dim):
        amp = 0j
        for w, cl in zip(weights, coeff_lists):
            amp += w * cl[j]
        total.append(abs(amp) ** 2)
    return total


def test_composite_law_matches_four_term_expansion(rng):
    psi1, psi2 = random_state(3, rng), random_state(3, rng)
    obs = random_observable("A", 3, rng)
    w = [0.8, 0.6 * np.exp(0.4j)]
    comp = compose_superposition(w, [psi1, psi2])
    expansion = cross_term_expansion(w, [psi1, psi2], obs)
    oracle = interference_expansion_oracle(
        w, [hilbert.coefficients(p, obs).tolist() for p in (psi1, psi2)])
    assert expansion.total == pytest.approx(oracle, abs=1e-12)
    assert born_law(comp, obs) == pytest.approx(
        expansion.normalized_law(), abs=1e-12)
    # diagonal + cross decomposition is exact
    assert expansion.total == pytest.approx(
        expansion.diagonal.sum(axis=0) + expansion.cross, abs=1e-14)


def test_interference_inequality_witness(std_basis_2):
    # composite law cannot be written as any convex mixture of the parts
    psi1 = OracleState(np.array([1, 1]) / np.sqrt(2))
    psi2 = OracleState(np.array([1, -1]) / np.sqrt(2))
    comp = compose_superposition([1, 1] / np.sqrt(2), [psi1, psi2])
    law_c = born_law(comp, std_basis_2)
    law_1 = born_law(psi1, std_basis_2)
    law_2 = born_law(psi2, std_basis_2)
    gaps = [np.max(np.abs(law_c - (t * law_1 + (1 - t) * law_2)))
            for t in np.linspace(0, 1, 101)]
    assert min(gaps) > 0.1


# --- construction invariants ------------------------------------------------

def test_state_requires_unit_norm():
    with pytest.raises(ValueError):
        OracleState(np.array([1.0, 1.0]))


def test_state_rejects_nan_amplitudes():
    with pytest.raises(ValueError, match="unit norm"):
        OracleState(np.array([np.nan, 0.0]))


def test_observable_rejects_degenerate_spectrum():
    with pytest.raises(ValueError):
        ObservableSpec("A", np.array([0.0, 0.0]), np.eye(2))


def test_observable_rejects_non_unitary_basis():
    with pytest.raises(ValueError):
        ObservableSpec("A", np.array([0.0, 1.0]),
                       np.array([[1.0, 0.2], [0.0, 1.0]]))


def test_hamiltonian_rejects_non_hermitian():
    with pytest.raises(ValueError):
        HamiltonianSpec(np.array([[0.0, 1.0], [0.0, 0.0]]))

import numpy as np
import pytest

from qfact import finprob, hilbert, probtree, reconstruct
from qfact.errors import UnlinkedObservableError
from qfact.genesis import Simple, run_laws
from qfact.hilbert import ObservableSpec, OracleState, basis_observable, born_law, random_observable, random_state, transform_between
from qfact.probtree import build_tree, meta_correlation, partition_branches


def commutator_oracle(a, b):
    """Independent commutator: explicit dense products."""
    ma, mb = a.matrix(), b.matrix()
    return np.max(np.abs(ma @ mb - mb @ ma))


@pytest.fixture
def abc_observables():
    # A, B share the standard eigenbasis (they commute); C mixes it
    a = basis_observable("A", 2, np.array([0.0, 1.0]))
    b = basis_observable("B", 2, np.array([-3.0, 2.0]))
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    c = ObservableSpec("C", np.array([-1.0, 1.0]), h)
    return a, b, c


# --- partition --------------------------------------------------------------

def test_shared_eigenbasis_single_group(abc_observables):
    a, b, _ = abc_observables
    groups = partition_branches([a, b])
    assert len(groups) == 1
    assert set(groups[0].members) == {"A", "B"}


def test_noncommuting_pair_two_groups(abc_observables):
    a, _, c = abc_observables
    assert commutator_oracle(a, c) > 1e-3
    groups = partition_branches([a, c])
    assert [g.members for g in groups] == [("A",), ("C",)]


def test_three_observables_ab_commute_c_alone(abc_observables):
    a, b, c = abc_observables
    assert commutator_oracle(a, b) < 1e-12
    assert commutator_oracle(a, c) > 1e-3
    assert commutator_oracle(b, c) > 1e-3
    groups = partition_branches([a, b, c])
    assert [set(g.members) for g in groups] == [{"A", "B"}, {"C"}]


# --- build_tree -------------------------------------------------------------

def test_single_observable_trunk_only(rng, abc_observables):
    a, _, _ = abc_observables
    g = Simple("G", state=random_state(2, rng))
    tree = build_tree(g, [a], 1_000, 0.02, 0.05, 100, 3)
    assert tree.trunk_only
    assert tree.trunk == "G"
    assert tree.law_for("A").n_total == 1_000


def test_two_noncommuting_observables_two_stable_branches(abc_observables):
    a, _, c = abc_observables
    psi = OracleState(np.array([0.8, 0.6j]))
    tree = build_tree(Simple("G", state=psi), [a, c], 100_000,
                      0.02, 0.05, 10_000, 11)
    assert not tree.trunk_only
    assert len(tree.branches) == 2
    for name in ("A", "C"):
        assert finprob.check_convergence(tree.law_for(name)).stable


def test_branch_law_depends_only_on_slot_not_on_companions(abc_observables):
    # each observable's law is a function of (seed, its task slot): adding
    # more observables to the plan never perturbs an existing branch
    a, _, c = abc_observables
    psi = OracleState(np.array([0.8, 0.6j]))
    g = Simple("G", state=psi)
    pair = build_tree(g, [a, c], 5_000, 0.02, 0.05, 1_000, 31)
    alone = build_tree(g, [a], 5_000, 0.02, 0.05, 1_000, 31)
    assert pair.law_for("A") == alone.law_for("A")


def test_tree_laws_are_run_laws(abc_observables):
    g = Simple("G", state=OracleState(np.array([0.8, 0.6j])))
    tree = build_tree(g, list(abc_observables), 5_000, 0.02, 0.05, 500, 12)
    laws = run_laws(g, list(abc_observables), 5_000, 0.02, 0.05, 500, 12)
    assert {name: tree.law_for(name) for name in tree.observable_names()} == laws


def test_tree_bit_identical_for_same_seed(abc_observables):
    a, _, c = abc_observables
    psi = OracleState(np.array([0.8, 0.6j]))
    t1 = build_tree(Simple("G", state=psi), [a, c], 20_000, 0.02, 0.05, 1_000, 77)
    t2 = build_tree(Simple("G", state=psi), [a, c], 20_000, 0.02, 0.05, 1_000, 77)
    assert t1.law_for("A") == t2.law_for("A")
    assert t1.law_for("C") == t2.law_for("C")


def test_commuting_joint_marginals_consistent(rng):
    # commuting observables in one branch: individually sampled laws agree
    # with the jointly induced ones within binomial noise
    a = basis_observable("A", 2, np.array([0.0, 1.0]))
    b = basis_observable("B", 2, np.array([-3.0, 2.0]))
    psi = random_state(2, rng)
    n = 100_000
    tree = build_tree(Simple("G", state=psi), [a, b], n, 0.02, 0.05, 10_000, 13)
    pi = born_law(psi, a)
    for name, obs in (("A", a), ("B", b)):
        freq = finprob.frequency_vector(tree.law_for(name))
        sigma = np.sqrt(pi * (1 - pi) / n)
        assert np.all(np.abs(freq - pi) <= 3 * sigma)


# --- meta correlation -------------------------------------------------------

def exact_expansion(psi, reference):
    c = hilbert.coefficients(psi, reference)
    gauged = c * np.exp(-1j * np.angle(c[0]))
    return reconstruct.ExpansionSet(reference.name,
                                    {reference.name: np.abs(gauged)},
                                    {reference.name: np.angle(gauged)})


def oracle_consistent_tree(psi, observables):
    branches = [(probtree.CompatibilityGroup((o.name,)),
                 {o.name: born_law(psi, o)}) for o in observables]
    return probtree.ProbabilityTree("G", branches,
                                    probtree.MetaCorrelationRecord(), False)


def test_exact_oracle_residual_tiny(rng):
    psi = random_state(3, rng)
    a = random_observable("A", 3, rng)
    b = random_observable("B", 3, rng)
    c = random_observable("C", 3, rng)
    tree = oracle_consistent_tree(psi, [a, b, c])
    taus = [transform_between(a, b), transform_between(a, c)]
    rec = meta_correlation(tree, exact_expansion(psi, a), taus)
    assert rec.max_residual() < 1e-10
    assert all(p.consistent for p in rec.pairs)
    assert tree.mpc is rec


def test_sampled_laws_residual_below_sampling_bound(rng):
    psi = random_state(2, rng)
    a = random_observable("A", 2, rng)
    b = random_observable("B", 2, rng)
    n = 1_000_000
    tree = build_tree(Simple("G", state=psi), [a, b], n, 0.02, 0.05, 10_000, 21)
    rec = meta_correlation(tree, exact_expansion(psi, a), [transform_between(a, b)])
    assert rec.max_residual() < 0.01


def test_non_quantum_pair_flagged(std_basis_2):
    expansion = reconstruct.ExpansionSet(
        "A", {"A": np.array([1.0, 0.0])}, {"A": np.zeros(2)})
    tree = probtree.ProbabilityTree("G", [
        (probtree.CompatibilityGroup(("A",)), {"A": np.array([1.0, 0.0])}),
        (probtree.CompatibilityGroup(("B",)), {"B": np.array([0.5, 0.5])})],
        probtree.MetaCorrelationRecord(), False)
    tau = hilbert.TransformMatrix("A", "B", np.eye(2))
    rec = meta_correlation(tree, expansion, [tau])
    assert rec.pairs[0].residual == pytest.approx(0.5, abs=1e-15)
    assert not rec.pairs[0].consistent


def test_missing_transform_raises(rng):
    psi = random_state(2, rng)
    a = random_observable("A", 2, rng)
    b = random_observable("B", 2, rng)
    tree = oracle_consistent_tree(psi, [a, b])
    with pytest.raises(UnlinkedObservableError):
        meta_correlation(tree, exact_expansion(psi, a), [])


def test_residual_shrinks_with_sample_size(rng):
    psi = OracleState(np.array([0.8, 0.36 + 0.48j]))
    a = basis_observable("A", 2)
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    b = ObservableSpec("B", np.array([-1.0, 1.0]), h)
    tau = transform_between(a, b)
    residuals = []
    for n, seed in ((10_000, 1), (100_000, 2), (1_000_000, 3)):
        tree = build_tree(Simple("G", state=psi), [a, b], n,
                          0.02, 0.05, min(n, 10_000), seed)
        rec = meta_correlation(tree, exact_expansion(psi, a), [tau])
        residuals.append(rec.max_residual())
    assert residuals[0] > residuals[2]

import numpy as np
import pytest

from qfact import dbb, genesis, hilbert, probtree, reconstruct
from qfact.seeding import RESTART_STREAM, trial_generator


@pytest.mark.parametrize("seed,stream,first", [
    (0, 0, 509833894882763671),
    (7, 1, 5908212101824444063),
    (8088, 2_000_000, 3250149145557621144),
    (2 ** 63 - 1, 3, 4157504304936442696),
    (2 ** 64 - 1, 0, 3741480399089047658),
    (7, RESTART_STREAM, 7690752803876495326),
    # a numpy integer seed draws as the equal int
    (np.int64(8088), 2_000_000, 3250149145557621144),
])
def test_trial_generator_keys_are_pinned(seed, stream, first):
    # frozen draws in the acceptance criteria and the restart starts of
    # phase retrieval are keyed on these streams; a seed is taken mod 2**64
    assert int(trial_generator(seed, stream).integers(2 ** 63)) == first


def test_keyed_runs_take_an_integer_seed():
    # a keyed run's draws depend only on its integer seed, so a Generator,
    # which would give another law on every call, is refused
    obs = hilbert.basis_observable("A", 2)
    g = genesis.Simple("G", state=hilbert.OracleState(np.array([0.6, 0.8])))
    wave = dbb.TwoWaveState.from_corpuscle_speed(1e6, 0.1, 0.3, 9.109e-31)
    waves = dbb.PlaneWaveSum(components=((1.0, (1, 0, 2)),), box=2 * np.pi)
    # (0.6, 0.8) seen through the Hadamard basis: the restarts are keyed too
    hadamard = {"B": hilbert.TransformMatrix(
        "A", "B", np.array([[1, 1], [1, -1]]) / np.sqrt(2))}
    runs = [
        lambda seed: genesis.run_laws(g, [obs], 100, 0.02, 0.05, 10, seed),
        lambda seed: probtree.build_tree(g, [obs], 100, 0.02, 0.05, 10, seed),
        lambda seed: dbb.simulate_exp(wave, dbb.ExpConfig(1e-6, n_trials=10), seed),
        lambda seed: dbb.extended_born_check(waves, 10, seed),
        lambda seed: reconstruct.retrieve_phases(
            np.array([0.36, 0.64]), {"B": np.array([0.98, 0.02])}, hadamard,
            reconstruct.RetrievalConfig(seed=seed)),
    ]
    for run in runs:
        run(1)
        with pytest.raises(TypeError):
            run(np.random.default_rng(1))


def test_specimen_api_takes_only_a_generator():
    # a seed or None here would draw from an unkeyed stream of its own
    calls = [
        lambda rng: hilbert.random_state(2, rng),
        lambda rng: hilbert.random_unitary(2, rng),
        lambda rng: hilbert.random_observable("A", 2, rng),
    ]
    for call in calls:
        call(np.random.default_rng(1))
        for rng in (1, None):
            with pytest.raises(TypeError, match="expected a numpy Generator"):
                call(rng)

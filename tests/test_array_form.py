"""Explicit mixtures, profile export and the swap gap work on arrays; these
tests pin them exactly (==, not approx) to per-atom and per-round oracles."""

import itertools

import numpy as np
import pytest

import oracles
from phiregret import (
    BehavioralDescriptor,
    CorrelatedProfile,
    MonomialTable,
    NormalFormGame,
    SupportMix,
    expectation_oracle,
    hypercube_problem,
    parse_problem,
    run_ce,
    swap_gap,
)
from phiregret import nfg
from phiregret.errors import CapacityError
from phiregret.maps import beta_support


def subsets(d, rng):
    """A few nonempty terminal sets of sizes 1, 2, 3 and d."""
    out = [(z,) for z in range(d)]
    out += list(itertools.combinations(range(d), 2))[:10]
    out += [tuple(rng.choice(d, size=min(3, d), replace=False)) for _ in range(5)]
    return out + [tuple(range(d))]


def assert_matches_per_atom_sums(mix, rng):
    atoms = mix.atoms
    assert mix.n_atoms == len(atoms)
    assert np.array_equal(mix.mean(), oracles.support_mean(atoms))
    sets = subsets(mix.matrix.shape[1], rng)
    values = mix.monomial_expectation(MonomialTable(sets))
    for value, subset in zip(values, sets, strict=True):
        assert value == oracles.support_monomial(atoms, subset)


def test_one_atom_support():
    mix = SupportMix([(1.0, [0, 1, 1, 0])])
    assert mix.n_atoms == 1
    assert_matches_per_atom_sums(mix, np.random.default_rng(0))


@pytest.mark.parametrize("width", [1, 7])
@pytest.mark.parametrize("n_atoms", [2, 9, 37, 300])
def test_random_supports_match_per_atom_sums(n_atoms, width):
    rng = np.random.default_rng(n_atoms)
    for _ in range(5):
        weights = rng.dirichlet(np.ones(n_atoms))
        matrix = (rng.random((n_atoms, width)) < 0.6).astype(float)
        mix = SupportMix.from_arrays(weights, matrix)
        assert_matches_per_atom_sums(mix, rng)
        again = SupportMix(mix.atoms)
        assert np.array_equal(again.weights, weights)
        assert np.array_equal(again.matrix, matrix)


@pytest.mark.parametrize("n_bits", [1, 3, 6])
def test_behavioral_supports_match_the_definition(n_bits):
    problem = hypercube_problem(n_bits)
    rng = np.random.default_rng(n_bits)
    for _ in range(4):
        x = problem.random_point(rng)
        mix = beta_support(problem, x)
        assert mix.n_atoms == 2**n_bits
        ref = oracles.behavioral_support(problem, x)
        assert [w for w, _ in mix.atoms] == [w for w, _ in ref]
        assert np.array_equal(mix.matrix, np.array([y for _, y in ref]))
        assert_matches_per_atom_sums(mix, rng)


def test_from_arrays_needs_one_row_per_weight():
    with pytest.raises(ValueError, match="weights"):
        SupportMix.from_arrays(np.ones(2) / 2, np.zeros((3, 4)))
    with pytest.raises(ValueError, match="weights"):
        SupportMix.from_arrays(np.ones(1), np.zeros(4))
    with pytest.raises(ValueError, match="weights"):
        SupportMix([])


def two_cubes_problem(n_bits):
    """A first choice between two observation points, each opening an
    n-bit hypercube: 2 * 2^n_bits pure strategies."""
    lines = ["tfsdp two_cubes", "r D - -"]
    for side in "ab":
        lines.append(f"{side} O r {side}")
        for j in range(n_bits):
            lines += [f"{side}{j} D {side} {j}", f"{side}{j}:0 T {side}{j} 0",
                      f"{side}{j}:1 T {side}{j} 1"]
    return parse_problem("\n".join(lines))


def test_capacity_is_checked_before_a_block_is_built():
    problem = hypercube_problem(6)
    x = problem.uniform_point()
    assert beta_support(problem, x, cap=64).n_atoms == 64
    with pytest.raises(CapacityError, match="32 atoms"):
        beta_support(problem, x, cap=32)
    problem = two_cubes_problem(3)
    x = problem.uniform_point()
    mix = beta_support(problem, x, cap=16)
    assert [w for w, _ in mix.atoms] == [w for w, _ in oracles.behavioral_support(problem, x)]
    with pytest.raises(CapacityError, match="15 atoms"):
        beta_support(problem, x, cap=15)


def test_hypercube_export_is_byte_identical_to_per_row_writer():
    problem = hypercube_problem(4)
    rng = np.random.default_rng(9)
    profile = CorrelatedProfile(2, dims=[problem.n_terminals, 3])
    for _ in range(5):
        comps = [BehavioralDescriptor(problem, problem.random_point(rng)) for _ in range(2)]
        w = rng.dirichlet(np.ones(3))
        profile.add_round([comps, SupportMix.from_arrays(w, np.eye(3))])
    text = profile.export_csv()
    assert text == oracles.export_rows(profile)
    again = CorrelatedProfile.from_csv(text)
    assert oracles.export_rows(again) == text
    for t in range(profile.rounds):
        for i in range(2):
            for comp in again.components(t, i):
                assert_matches_per_atom_sums(comp, rng)


def polymatrix_game(rng):
    edges = {
        (0, 1): (rng.uniform(-0.4, 0.4, (3, 2)), rng.uniform(-0.4, 0.4, (2, 3))),
        (1, 2): (rng.uniform(-0.4, 0.4, (2, 4)), rng.uniform(-0.4, 0.4, (4, 2))),
        (0, 2): (rng.uniform(-0.4, 0.4, (3, 4)), rng.uniform(-0.4, 0.4, (4, 3))),
    }
    return NormalFormGame.polymatrix([3, 2, 4], edges)


def dense_game(rng):
    shape = (3, 2, 4)
    return NormalFormGame.dense([rng.uniform(-1, 1, size=shape) for _ in shape])


@pytest.mark.parametrize("make_game", [dense_game, polymatrix_game])
@pytest.mark.parametrize("block", [nfg.ROUND_BLOCK, 7])
def test_swap_gap_matches_per_round_oracle(make_game, block, monkeypatch):
    monkeypatch.setattr(nfg, "ROUND_BLOCK", block)
    game = make_game(np.random.default_rng(4))
    res = run_ce(game, eps=0.3, horizon=60)
    ref = oracles.swap_gap(res.profile, game, expectation_oracle)
    assert np.array_equal(res.certified_gaps, ref)
    again = CorrelatedProfile.from_csv(res.profile.export_csv())
    assert np.array_equal(swap_gap(again, game), ref)


def test_batched_oracle_matches_round_by_round():
    rng = np.random.default_rng(6)
    for game in (dense_game(rng), polymatrix_game(rng)):
        dists = [rng.dirichlet(np.ones(a), size=(5, 2)) for a in game.action_counts]
        batched = expectation_oracle(game, dists)
        for t, s in itertools.product(range(5), range(2)):
            rows = expectation_oracle(game, [d[t, s] for d in dists])
            for i in range(game.n_players):
                assert np.array_equal(batched[i][t, s], rows[i])
    with pytest.raises(ValueError, match="shape"):
        expectation_oracle(game, [dists[0][0], dists[1], dists[2]])

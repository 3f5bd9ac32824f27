"""A profile kept as per-player columns (``from_columns``) and one kept as
component objects (``add_round``) export the same bytes as the
one-atom-at-a-time writer ``oracles.export_rows``, read back bit for bit and
give round means bit-identical to ``uniform_mean``."""

import numpy as np
import pytest

import oracles
from phiregret import BehavioralDescriptor, CorrelatedProfile, SupportMix, hypercube_problem
from phiregret import profile as profile_module
from phiregret.profile import ROW_BLOCK, uniform_mean


def random_columns(rng, widths, rounds, most=3):
    """Per player (weights, matrix, sizes, comp_rounds): 1 to ``most``
    components a round of 1-6 atoms each, zero weights and repeated atoms
    included."""
    columns = []
    for d in widths:
        sizes = rng.integers(1, 7, size=int(rng.integers(1, most + 1, size=rounds).sum()))
        comp_rounds = np.sort(np.concatenate(
            [np.arange(rounds), rng.integers(0, rounds, size=len(sizes) - rounds)]))
        weights = np.concatenate([rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.9)
                                  for n in sizes.tolist()])
        weights[np.cumsum(sizes) - 1] += 1.0 - np.add.reduceat(weights, np.cumsum(sizes) - sizes)
        matrix = (rng.random((sizes.sum(), d)) < 0.5).astype(float)
        columns.append((weights, matrix, sizes, comp_rounds))
    return columns


def objects_of(columns, rounds):
    """The same profile built by add_round from one SupportMix per component."""
    profile = CorrelatedProfile(len(columns), dims=[c[1].shape[1] for c in columns])
    per_player = []
    for weights, matrix, sizes, comp_rounds in columns:
        starts = (np.cumsum(sizes) - sizes).tolist()
        mixes = [SupportMix.from_arrays(weights[s:s + n].copy(), matrix[s:s + n].copy())
                 for s, n in zip(starts, sizes.tolist())]
        per_player.append([[m for m, r in zip(mixes, comp_rounds) if r == t]
                           for t in range(rounds)])
    for t in range(rounds):
        profile.add_round([lists[t] for lists in per_player])
    return profile


def mixed_profile(rng, rounds):
    """add_round profile of three hypercube players (widths 2, 4 and 6)
    whose rounds mix behavioral descriptors with explicit mixtures."""
    problems = [hypercube_problem(n) for n in (1, 2, 3)]
    profile = CorrelatedProfile(3, dims=[p.n_terminals for p in problems])
    for _ in range(rounds):
        row = []
        for problem in problems:
            comps = []
            for _ in range(int(rng.integers(1, 4))):
                if rng.random() < 0.5:
                    comps.append(BehavioralDescriptor(problem, problem.random_point(rng)))
                else:
                    atoms = problem.enumerate_pure_strategies()
                    pick = rng.choice(len(atoms), size=int(rng.integers(1, 5)))
                    comps.append(SupportMix.from_arrays(
                        rng.dirichlet(np.ones(len(pick))), np.array(atoms, dtype=float)[pick]))
            row.append(comps)
        profile.add_round(row)
    return profile


def assert_means_match(profile, reference):
    """round_mean and stacked_means equal uniform_mean over the reference's
    components, byte for byte."""
    for i in range(profile.n_players):
        want = [uniform_mean(reference.components(t, i)) for t in range(profile.rounds)]
        for t in range(profile.rounds):
            assert profile.round_mean(t, i).tobytes() == want[t].tobytes()
        assert profile.stacked_means(i).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("most", [1, 3])
@pytest.mark.parametrize("seed", range(4))
def test_column_profile_exports_as_the_row_writer(seed, most):
    rng = np.random.default_rng([71, seed])
    widths, rounds = [int(d) for d in rng.integers(1, 9, size=rng.integers(1, 4))], 40
    columns = random_columns(rng, widths, rounds, most)
    profile = CorrelatedProfile.from_columns(widths, columns, rounds)
    twin = objects_of(columns, rounds)
    text = profile.export_csv()
    assert text == oracles.export_rows(profile) == twin.export_csv()
    assert_means_match(profile, twin)
    again = CorrelatedProfile.from_csv(text)
    assert again.export_csv() == text
    assert_means_match(again, twin)
    for i, (got, want) in enumerate(zip(again.columns, columns)):
        for a, b in zip(got, want):
            assert np.array_equal(a, b), i


def test_more_than_two_blocks_of_rows_export_as_the_row_writer():
    rng = np.random.default_rng(72)
    widths, rounds = [3, 7, 1], 300
    columns = random_columns(rng, widths, rounds)
    assert sum(len(c[0]) for c in columns) > 2 * ROW_BLOCK
    profile = CorrelatedProfile.from_columns(widths, columns, rounds)
    text = profile.export_csv()
    assert text == oracles.export_rows(profile)
    assert CorrelatedProfile.from_csv(text).export_csv() == text


@pytest.mark.parametrize("block", [1, 7, ROW_BLOCK])
def test_descriptors_and_mixtures_export_as_the_row_writer(block, monkeypatch):
    monkeypatch.setattr(profile_module, "ROW_BLOCK", block)
    profile = mixed_profile(np.random.default_rng(73), 130)
    text = profile.export_csv()
    assert text.count("\n") - 1 > 2 * ROW_BLOCK
    assert text == oracles.export_rows(profile)
    again = CorrelatedProfile.from_csv(text)
    assert again.export_csv() == text
    assert_means_match(again, objects_of(again.columns, again.rounds))
    for t in range(profile.rounds):
        for i in range(3):
            np.testing.assert_allclose(again.round_mean(t, i), profile.round_mean(t, i),
                                       atol=1e-12)


def test_a_column_profile_takes_later_rounds_as_objects():
    rng = np.random.default_rng(74)
    columns = random_columns(rng, [2, 5], 6)
    profile = CorrelatedProfile.from_columns([2, 5], columns, 6)
    profile.round_mean(0, 0)
    extra = [SupportMix.from_arrays([0.25, 0.75], np.eye(2)),
             [SupportMix.from_arrays([1.0], np.ones((1, 5)))] * 2]
    profile.add_round(extra)
    twin = objects_of(columns, 6)
    twin.add_round(extra)
    assert profile.columns is None and profile.rounds == 7
    assert profile.export_csv() == oracles.export_rows(twin) == twin.export_csv()
    assert_means_match(profile, twin)


BAD_COLUMNS = {
    "width": lambda w, m, s, r: (w, m[:, :2], s, r),
    "sizes": lambda w, m, s, r: (w, m, s + 1, r),
    "zero size": lambda w, m, s, r: (w, m, np.concatenate(([0], s)), np.concatenate(([0], r))),
    "missing round": lambda w, m, s, r: (w, m, s, np.maximum(r, 1)),
    "late round": lambda w, m, s, r: (w, m, s, np.minimum(r + 1, 4)),
    "unsorted": lambda w, m, s, r: (w, m, s, r[::-1]),
}


@pytest.mark.parametrize("kind", sorted(BAD_COLUMNS))
def test_from_columns_rejects_columns_that_are_not_a_profile(kind):
    columns = random_columns(np.random.default_rng(75), [3], 4)[0]
    with pytest.raises(ValueError, match="player 1: the columns are not 4 rounds"):
        CorrelatedProfile.from_columns([3], [BAD_COLUMNS[kind](*columns)], 4)


def test_means_wait_until_read(monkeypatch):
    calls = []
    segment_means = profile_module.segment_means

    def counted(weights, matrix, sizes):
        calls.append(matrix.shape[1])
        return segment_means(weights, matrix, sizes)

    monkeypatch.setattr(profile_module, "segment_means", counted)
    profile = CorrelatedProfile.from_columns(
        [4, 2], random_columns(np.random.default_rng(76), [4, 2], 5), 5)
    profile.export_csv()
    assert calls == []
    profile.round_mean(3, 1)
    profile.stacked_means(1)
    profile.components(2, 1)
    assert calls == [2]

"""A profile kept as per-player columns (``from_columns``) and one kept as
component objects (``add_round``) export the same bytes as the
one-atom-at-a-time writer ``oracles.export_rows``, read back bit for bit and
give round means bit-identical to ``oracles.uniform_mean``."""

import gc
import itertools
import tracemalloc

import numpy as np
import pytest

import oracles
from phiregret import (
    BehavioralDescriptor,
    CorrelatedProfile,
    SupportMix,
    deviation_dag,
    efg_self_play,
    hypercube_problem,
    parse_efg,
)
from phiregret import maps
from phiregret import profile as profile_module
from phiregret.maps import caratheodory
from phiregret.profile import ROW_BLOCK

from conftest import assert_same_columns


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
        want = [oracles.uniform_mean(reference.components(t, i)) for t in range(profile.rounds)]
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


@pytest.mark.parametrize("stack_atoms", [1, 7, maps.STACK_ATOMS])
@pytest.mark.parametrize("block", [1, 7, ROW_BLOCK])
def test_descriptors_and_mixtures_export_as_the_row_writer(block, stack_atoms, monkeypatch):
    monkeypatch.setattr(profile_module, "ROW_BLOCK", block)
    monkeypatch.setattr(maps, "STACK_ATOMS", stack_atoms)
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


def rollover_columns(rng):
    """Columns of 1 100 rounds for players of widths 1 and 12, so that t
    passes 9 -> 10, 99 -> 100 and 999 -> 1000; round 5 of the first player
    has 12 components (ell passes 9 -> 10) and one of its round-8
    components has 120 atoms (j passes 9 -> 10 and 99 -> 100)."""
    rounds, columns = 1100, []
    for d, extra in ((1, {4: [1] * 12, 7: [3, 120]}), (12, {})):
        per_round = [extra.get(t, [1 + t % 2]) for t in range(rounds)]
        sizes = np.array([n for counts in per_round for n in counts])
        comp_rounds = np.repeat(np.arange(rounds), [len(counts) for counts in per_round])
        weights = np.concatenate([rng.dirichlet(np.ones(n)) for n in sizes.tolist()])
        weights[np.cumsum(sizes) - 1] += 1.0 - np.add.reduceat(weights, np.cumsum(sizes) - sizes)
        matrix = (rng.random((sizes.sum(), d)) < 0.5).astype(float)
        columns.append((weights, matrix, sizes, comp_rounds))
    return columns, rounds


@pytest.mark.parametrize("block", [1, 7, ROW_BLOCK])
def test_index_digits_roll_over_inside_a_block(block, monkeypatch):
    monkeypatch.setattr(profile_module, "ROW_BLOCK", block)
    columns, rounds = rollover_columns(np.random.default_rng(77))
    profile = CorrelatedProfile.from_columns([1, 12], columns, rounds)
    text = profile.export_csv()
    for piece in ("\n9,1,", "\n10,1,", "\n99,2,", "\n100,1,", "\n999,2,", "\n1000,1,",
                  "\n5,1,9,1,", "\n5,1,10,1,", "\n8,1,2,99,", "\n8,1,2,100,"):
        assert piece in text
    assert text == oracles.export_rows(profile)
    assert objects_of(columns, rounds).export_csv() == text
    assert CorrelatedProfile.from_csv(text).export_csv() == text


def wide_cube_profile():
    """The profile of 20 rounds of self-play on an 11-bit against a 2-bit
    hypercube game with seeded payoffs, written as the benchmark's efg-wide
    workload writes its seed-1 game: a column of behavioral descriptors of
    up to 2 048 atoms each for the first player."""
    rng = np.random.default_rng([1, 0])
    corners = {n: np.array(list(itertools.product((0, 1), repeat=n)))[:, ::-1] for n in (11, 2)}
    u = rng.uniform(-1.0, 1.0, size=(22, 4))
    expand = {n: np.eye(2 * n)[2 * np.arange(n) + c].sum(1) for n, c in corners.items()}
    u /= np.max(np.abs(expand[11] @ u @ expand[2].T))
    lines = ["efg efg-wide-1-0"]
    for player, n in ((1, 11), (2, 2)):
        lines += [f"player {player}", "root O - -"]
        for j in range(n):
            lines += [f"b{j} D root {j}", f"b{j}:0 T b{j} 0", f"b{j}:1 T b{j} 1"]
    lines.append("payoffs")
    for a, b in itertools.product(range(22), range(4)):
        lines.append(f"b{a // 2}:{a % 2} b{b // 2}:{b % 2} {float(u[a, b])!r}")
    game = parse_efg("\n".join(lines) + "\n")
    dags = [deviation_dag(p, "med:1") for p in game.problems]
    return efg_self_play(game, dags, rounds=20, L=50).profile


def test_export_holds_one_block_of_supports_at_a_time():
    """Export's traced peak stays under 8 bytes, one float, per character of
    the text it writes. That covers the text twice (the block strings and
    their join), the row columns and one block of supports with its copy;
    holding every support's float matrix and their concatenation at once
    does not fit."""
    profile = wide_cube_profile()
    text = profile.export_csv()
    assert text.count("\n") - 1 > 2 * ROW_BLOCK
    assert text == oracles.export_rows(profile)
    gc.collect()
    tracemalloc.start()
    try:
        again = profile.export_csv()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again == text
    assert peak < 8 * len(text), (peak, len(text))


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


def cara_profile(rng, rounds):
    """add_round profile of one 3-bit hypercube player whose rounds hold two
    Caratheodory supports of random points each."""
    problem = hypercube_problem(3)
    profile = CorrelatedProfile(1, dims=[problem.n_terminals])
    for _ in range(rounds):
        profile.add_round([[caratheodory(problem, problem.random_point(rng)) for _ in range(2)]])
    return profile


EXPORTS = {
    "columns": lambda rng: CorrelatedProfile.from_columns(
        [3, 7, 1], random_columns(rng, [3, 7, 1], 120), 120),
    "objects": lambda rng: objects_of(random_columns(rng, [2, 5], 40), 40),
    "descriptors": lambda rng: mixed_profile(rng, 130),
    "rollover": lambda rng: CorrelatedProfile.from_columns([1, 12], *rollover_columns(rng)),
    "cara": lambda rng: cara_profile(rng, 60),
}


@pytest.mark.parametrize("block", [1, 7, ROW_BLOCK])
@pytest.mark.parametrize("kind", sorted(EXPORTS))
def test_exported_text_is_taken_by_the_array_reader(kind, block, monkeypatch):
    monkeypatch.setattr(profile_module, "ROW_BLOCK", block)
    text = EXPORTS[kind](np.random.default_rng(78)).export_csv()
    assert profile_module._read_columns(text) is not None
    # with CR-LF line ends too, and into the same columns
    got = profile_module._read_columns(text.replace("\n", "\r\n"))
    assert got is not None
    assert_same_columns(got, profile_module._read_columns(text))


def test_the_wide_cube_export_is_taken_by_the_array_reader():
    assert profile_module._read_columns(wide_cube_profile().export_csv()) is not None


BAD_COLUMNS = {
    "width": lambda w, m, s, r: (w, m[:, :2], s, r),
    "sizes": lambda w, m, s, r: (w, m, s + 1, r),
    "zero size": lambda w, m, s, r: (w, m, np.concatenate(([0], s)), np.concatenate(([0], r))),
    "missing round": lambda w, m, s, r: (w, m, s, np.maximum(r, 1)),
    "late round": lambda w, m, s, r: (w, m, s, np.minimum(r + 1, 4)),
    "unsorted": lambda w, m, s, r: (w, m, s, r[::-1]),
    "float sizes": lambda w, m, s, r: (w, m, s.astype(float), r),
    "float rounds": lambda w, m, s, r: (w, m, s, r.astype(float)),
    # weights that import refuses, so export's text would not read back
    "nan weight": lambda w, m, s, r: (np.r_[np.nan, w[1:]], m, s, r),
    "negative weight": lambda w, m, s, r: (np.r_[-0.5, w[1:]], m, s, r),
    "inf weight": lambda w, m, s, r: (np.r_[np.inf, w[1:]], m, s, r),
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

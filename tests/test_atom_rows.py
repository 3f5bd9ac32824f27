"""Atom rows are held as uint8: every producer yields uint8 0/1 rows,
``SupportMix`` refuses any other entry, a profile whose rows are floats
exports and audits bit for bit as its uint8 copy, and an export plus
re-import stays within a measured memory bound."""

import gc
import tracemalloc

import numpy as np
import pytest

from conftest import TWO_STAGE_TEXT
from phiregret import (
    CorrelatedProfile,
    EFGame,
    NormalFormGame,
    SupportMix,
    deviation_dag,
    efg_self_play,
    hypercube_problem,
    parse_problem,
    phi_equilibrium_gap,
    run_ce,
    swap_gap,
)
from phiregret import profile as profile_module


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


def dense_game(seed, counts=(5, 5, 5)):
    rng = np.random.default_rng(seed)
    return NormalFormGame.dense([rng.uniform(-1, 1, size=counts) for _ in counts])


def efg_profile():
    """A two_stage against 2-bit hypercube self-play profile, read back from
    its CSV as columns, with its game."""
    rng = np.random.default_rng(3)
    p1, p2 = parse_problem(TWO_STAGE_TEXT), hypercube_problem(2, "bits")
    u = [rng.uniform(-1, 1, size=(p1.n_terminals, p2.n_terminals)) for _ in range(2)]
    game = EFGame([p1, p2], u, name="small", normalize=True)
    res = efg_self_play(game, ["med:1", "med:1"], rounds=12, L=10)
    return CorrelatedProfile.from_csv(res.profile.export_csv()), game


def as_floats(profile):
    """The column profile with float64 copies of its atom rows."""
    columns = [(w, m.astype(float), s, r) for w, m, s, r in profile.columns]
    return CorrelatedProfile.from_columns(profile.dims, columns, profile.rounds)


def test_float_rows_export_and_audit_as_their_uint8_copy():
    game = dense_game(11)
    rows = run_ce(game, 0.5, audit=False).profile
    floats = as_floats(rows)
    assert rows.export_csv() == floats.export_csv()
    assert hexes(swap_gap(rows, game)) == hexes(swap_gap(floats, game))
    rows, game = efg_profile()
    floats = as_floats(rows)
    assert rows.export_csv() == floats.export_csv()
    for player in range(2):
        dag = deviation_dag(game.problems[player], "med:1")
        want = phi_equilibrium_gap(rows, game, player, dag)
        assert float(phi_equilibrium_gap(floats, game, player, dag)).hex() == float(want).hex()


def test_every_producer_yields_uint8_rows():
    profile = run_ce(dense_game(12), 0.5, audit=False).profile
    assert all(m.dtype == np.uint8 for _, m, _, _ in profile.columns)
    text = profile.export_csv()
    for read in (profile_module._read_columns, profile_module._read_rows):
        dims, columns, rounds = read(text)
        assert all(m.dtype == np.uint8 for _, m, _, _ in columns)
    assert profile.components(0, 0)[0].matrix.dtype == np.uint8
    cube = hypercube_problem(3)
    assert cube.pure_support(cube.graph.uniform_share, 64)[1].dtype == np.uint8
    assert cube.enumerate_pure_strategies().dtype == float


def test_a_uint8_matrix_is_kept_uncopied():
    matrix = np.eye(3, dtype=np.uint8)
    assert SupportMix.from_arrays(np.ones(3) / 3, matrix).matrix is matrix
    assert SupportMix([(0.5, [0.0, 1.0]), (0.5, [1, 0])]).matrix.dtype == np.uint8


@pytest.mark.parametrize("bad", [0.5, 2.0, -1.0, np.nan, np.uint8(2)])
def test_a_support_mix_refuses_an_entry_other_than_0_or_1(bad):
    matrix = np.eye(2, dtype=np.result_type(bad))
    matrix[1, 0] = bad
    with pytest.raises(ValueError, match="only 0s and 1s"):
        SupportMix.from_arrays([0.5, 0.5], matrix)
    with pytest.raises(ValueError, match="only 0s and 1s"):
        SupportMix([(0.5, matrix[0]), (0.5, matrix[1])])
    with pytest.raises(ValueError, match="not 1 rounds of 0/1 components"):
        CorrelatedProfile.from_columns([2], [([0.5, 0.5], matrix, [2], [0])], 1)


def test_export_and_reimport_peak_within_a_measured_bound():
    """3 players x 5 actions at eps 0.25: 1 031 rounds, 15 465 CSV rows.
    Measured peak 2.08 MB (row arrays freed before the join, import without
    a whole-file copy); the same steps on float64 rows and whole-file
    temporaries peaked at 2.68 MB."""
    profile = run_ce(dense_game(5), 0.25, audit=False).profile
    gc.collect()
    tracemalloc.start()
    try:
        text = profile.export_csv()
        again = CorrelatedProfile.from_csv(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again.export_csv() == text
    assert peak < 2_350_000, peak

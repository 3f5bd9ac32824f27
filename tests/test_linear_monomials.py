"""An explicit mixture reads its degree-1 monomial expectations off its mean,
and a column profile its round means in one call; every value is pinned
with == to the atom-by-atom oracle or the per-round call it replaces."""

import numpy as np
import pytest

import oracles
from phiregret import CorrelatedProfile, MonomialTable, SupportMix, deviation_dag, hypercube_problem
from phiregret import maps, profile as profile_module
from phiregret.maps import RoundMixtures, beta_support

D = 12  # coordinates of the random 0/1 rows


def tables(problem=None):
    """Tables of mixed degrees (0, 1, 2 and 3, one row repeated), of degree 1
    only, of no rows, of one constant row only and, given a problem, the
    table of its ``med:1`` deviation DAG, as the efg-wide audit reads it."""
    out = {
        "mixed": MonomialTable([(3,), (), (1, 2), (0,), (0, 5, 9), (11,), (2, 7), (3,)]),
        "linear": MonomialTable([(z,) for z in (4, 0, 11, 7, 0)]),
        "empty": MonomialTable([]),
        "constant": MonomialTable([()]),
    }
    if problem is not None:
        out["med:1"] = deviation_dag(problem, "med:1").monomials
    return out


def monomials(table):
    return [tuple(row[row >= 0].tolist()) for row in table.terms]


def oracle(atoms, table):
    return [oracles.support_monomial(atoms, mono) for mono in monomials(table)]


def random_mixes(rng):
    """Mixtures of random 0/1 rows: weights that do not sum to 1, a single
    atom, and rows whose last coordinate is always 1."""
    mixes = []
    for n in (1, 2, 5, 40):
        weights = rng.random(n) / 3.0
        rows = (rng.random((n, D)) < 0.5).astype(np.uint8)
        mixes.append(SupportMix.from_arrays(weights, rows))
    rows = rows.copy()
    rows[:, -1] = 1
    mixes.append(SupportMix([(w, row) for w, row in zip(weights.tolist(), rows)]))
    return mixes


CUBE = hypercube_problem(6)  # 2 * 6 = D terminals, as an efg-wide seat's problem with 6 bits


def cube_point(rng, interior):
    """A point of CUBE whose ``interior`` bits (a count) are mixed, the others
    pure, so that its behavioral support has 2**interior atoms."""
    bits = 6
    share = rng.uniform(0.05, 0.95, bits)
    pure = rng.permutation(bits)[: bits - interior]
    share[pure] = rng.integers(0, 2, len(pure))
    return np.stack([1.0 - share, share], axis=1).ravel()


def behavioral_mixes(rng):
    """The explicit behavioral supports of interior points, of points with
    some bits pure, of a vertex and of the start, as the efg-wide profile
    holds them."""
    points = [cube_point(rng, k) for k in (6, 3, 1, 0)] + [CUBE.start]
    return [beta_support(CUBE, x) for x in points]


@pytest.mark.parametrize("kind", ["random", "behavioral"])
def test_a_mixture_reads_linear_rows_off_its_mean(kind):
    rng = np.random.default_rng(61)
    mixes = random_mixes(rng) if kind == "random" else behavioral_mixes(rng)
    for name, table in tables(CUBE if kind == "behavioral" else None).items():
        for mix in mixes:
            got = mix.monomial_expectation(table)
            assert got.shape == (table.n,) and got.flags.writeable, name
            assert not np.shares_memory(got, mix.mean())
            assert got.tolist() == oracle(mix.atoms, table), name
            linear = [(u, mono[0]) for u, mono in enumerate(monomials(table)) if len(mono) == 1]
            for u, z in linear:
                assert got[u].tobytes() == mix.mean()[z].tobytes()


@pytest.mark.parametrize("kind", ["random", "behavioral"])
def test_a_stack_reads_linear_rows_off_its_means(kind):
    rng = np.random.default_rng(62)
    if kind == "random":
        weights = rng.random((6, 9)) / 4.0
        rows = (rng.random((6, 9, D)) < 0.5).astype(np.uint8)
    else:
        mix = beta_support(CUBE, np.array([cube_point(rng, 3) for _ in range(4)]))
        weights, rows = mix.weights.reshape(4, 8), mix.matrix.reshape(4, 8, D)
    stack = SupportMix.from_arrays(weights, rows)
    for name, table in tables(CUBE if kind == "behavioral" else None).items():
        got = stack.monomial_expectation(table)
        assert got.shape == (len(weights), table.n), name
        for i, (w, m) in enumerate(zip(weights, rows)):
            assert got[i].tolist() == oracle(list(zip(w.tolist(), m)), table), name


def profile_columns(rng):
    """``from_columns`` arguments of a two-player profile of 5 rounds of one
    to three components: random 0/1 rows (player 1) and CUBE behavioral
    supports (player 2), with atom counts repeated out of order so that
    stacks both are and are not views of the columns."""
    sizes = [[3, 1], [3], [7, 3, 1], [1], [7, 7]], [[16, 1], [8], [1, 16, 16], [8], [16, 4]]
    columns = []
    for p, per_round in enumerate(sizes):
        weights, rows, counts, comp_rounds = [], [], [], []
        for t, comps in enumerate(per_round):
            for n in comps:
                if p == 0:
                    mix = SupportMix.from_arrays(rng.random(n) / n, rng.random((n, D)) < 0.5)
                else:
                    mix = beta_support(CUBE, cube_point(rng, n.bit_length() - 1))
                weights.append(mix.weights)
                rows.append(mix.matrix)
                counts.append(mix.n_atoms)
                comp_rounds.append(t)
        assert counts == sum(per_round, [])
        columns.append((np.concatenate(weights), np.concatenate(rows), np.array(counts),
                        np.array(comp_rounds)))
    return [D, D], columns, 5


def column_profile(rng):
    return CorrelatedProfile.from_columns(*profile_columns(rng))


def round_oracle(profile, player, table):
    """Each round's components' oracle values, each scaled by 1 / count and
    added in order."""
    out = []
    for t in range(profile.rounds):
        comps = profile.components(t, player)
        values = [np.array(oracle(c.atoms, table)) * (1.0 / len(comps)) for c in comps]
        total = values[0]
        for v in values[1:]:
            total = total + v
        out.append(total)
    return np.array(out).reshape(profile.rounds, table.n)


@pytest.mark.parametrize("stack_atoms", [1, 7, maps.STACK_ATOMS])
def test_column_rounds_read_linear_rows_off_the_component_means(stack_atoms, monkeypatch):
    monkeypatch.setattr(maps, "STACK_ATOMS", stack_atoms)
    profile = column_profile(np.random.default_rng(63))
    for player, named in enumerate([tables(), tables(CUBE)]):
        rounds = profile.mixtures(player)
        objects = RoundMixtures([profile.components(t, player) for t in range(profile.rounds)])
        for name, table in named.items():
            got = rounds.monomial_expectation(table)
            assert got.tobytes() == round_oracle(profile, player, table).tobytes(), name
            assert got.tobytes() == objects.monomial_expectation(table).tobytes(), name


def test_a_column_profile_stacks_its_round_means_in_one_call(monkeypatch):
    profile = column_profile(np.random.default_rng(64))
    calls = []
    round_mean = CorrelatedProfile.round_mean
    monkeypatch.setattr(CorrelatedProfile, "round_mean",
                        lambda self, t, p: calls.append(t) or round_mean(self, t, p))
    for player in (0, 1):
        rows = np.array([round_mean(profile, t, player) for t in range(profile.rounds)])
        assert profile.stacked_means(player).tobytes() == rows.tobytes()
    assert len(calls) == 2 and all(t.tolist() == list(range(5)) for t in calls)
    empty = (np.empty(0), np.empty((0, 3), np.uint8), np.empty(0, np.intp), np.empty(0, np.intp))
    none = CorrelatedProfile.from_columns([3], [empty], 0)
    assert none.stacked_means(0).shape == (0, 3)


def test_from_columns_makes_the_columns_read_only():
    profile = column_profile(np.random.default_rng(65))
    for cols in profile.columns:
        for col in cols:
            assert not col.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                col[0] = 0


def test_component_views_check_their_own_rows(monkeypatch):
    args = profile_columns(np.random.default_rng(66))
    scans = []
    zero_one = maps.zero_one
    monkeypatch.setattr(maps, "zero_one", lambda m: scans.append(m.shape) or zero_one(m))
    monkeypatch.setattr(profile_module, "zero_one", maps.zero_one)
    profile = CorrelatedProfile.from_columns(*args)
    assert scans == [cols[1].shape for cols in profile.columns]  # once an input
    scans.clear()
    for p, cols in enumerate(profile.columns):
        parts = [c for t in range(profile.rounds) for c in profile.components(t, p)]
        assert len(parts) == 9 and all(np.shares_memory(c.matrix, cols[1]) for c in parts)
        assert scans == [c.matrix.shape for c in parts]  # once a view
        scans.clear()


def test_rows_past_1_are_refused_in_views_and_audits():
    bad = np.frombuffer(bytes([0, 1, 2, 1]), np.uint8).reshape(2, 2)  # read-only
    with pytest.raises(ValueError, match="only 0s and 1s"):
        SupportMix.from_arrays([0.5, 0.5], bad[:2])
    weights, rows = np.full(4, 0.5), np.zeros((4, 2), np.uint8)
    columns = (weights, rows, np.array([2, 2]), np.array([0, 1]))
    profile = CorrelatedProfile.from_columns([2], [columns], 2)
    rows.setflags(write=True)  # the owner may be made writable again
    rows[0, 0] = 2
    with pytest.raises(ValueError, match="only 0s and 1s"):
        profile.components(0, 0)
    with pytest.raises(ValueError, match="only 0s and 1s"):
        profile.mixtures(0).monomial_expectation(MonomialTable([(0,), (0, 1)]))
    copy = rows.copy()
    copy.setflags(write=False)
    with pytest.raises(ValueError, match="only 0s and 1s"):
        SupportMix.from_arrays([0.5, 0.5], copy[:2])

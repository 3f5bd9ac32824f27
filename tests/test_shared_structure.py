"""A game whose players list the same tree parses it once, and a deviation
DAG still held by a caller is handed back instead of being built again.
Sharing changes no result: a game with shared structure and the same game
with player 2's node ids renamed (so nothing is shared) agree bit for bit."""

import gc
import weakref

import numpy as np
import pytest

from phiregret import (
    CapacityError,
    EFGame,
    deviation_dag,
    efg_self_play,
    hypercube_problem,
    parse_efg,
    parse_problem,
    phi_equilibrium_gap,
)
from phiregret import efg
from phiregret.cli import main


def cube_lines(n, prefix=""):
    lines = [f"{prefix}root O - -"]
    for j in range(n):
        lines += [f"{prefix}b{j} D {prefix}root {j}",
                  f"{prefix}b{j}:0 T {prefix}b{j} 0", f"{prefix}b{j}:1 T {prefix}b{j} 1"]
    return lines


def game_text(n=2, seed=3, prefix2="", player2=None):
    """An n-bit cube against an n-bit cube; player 2's ids take ``prefix2``,
    or its section is ``player2`` (whose terminals keep the cube's ids)."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, size=(2 * n, 2 * n)) / (4 * n)
    lines = ["efg shared", "player 1", *cube_lines(n), "player 2"]
    lines += player2 if player2 is not None else cube_lines(n, prefix2)
    lines.append("payoffs")
    for a in range(2 * n):
        for b in range(2 * n):
            lines.append(f"b{a // 2}:{a % 2} {prefix2}b{b // 2}:{b % 2} "
                         f"{float(u[a, b])!r} {float(-0.5 * u[a, b])!r}")
    return "\n".join(lines) + "\n"


# -- one problem for identical sections ----------------------------------


def test_identical_sections_share_one_problem_named_after_player_1():
    game = parse_efg(game_text())
    assert game.problems[0] is game.problems[1]
    assert game.problems[0].name == "shared-p1"


def test_comments_blank_lines_and_padding_do_not_stop_sharing():
    padded = ["  " + ln + "   # a comment" for ln in cube_lines(2)]
    padded.insert(2, "")
    padded.insert(4, "# a whole-line comment")
    game = parse_efg(game_text(player2=padded))
    assert game.problems[0] is game.problems[1]


def test_one_renamed_id_or_one_reordered_line_means_no_sharing():
    renamed = cube_lines(2)
    renamed[1:4] = ["c0 D root 0", "b0:0 T c0 0", "b0:1 T c0 1"]
    reordered = cube_lines(2)
    reordered[2], reordered[3] = reordered[3], reordered[2]
    relabelled = cube_lines(2)  # as many lines as player 1's, one label differs
    relabelled[2] = "b0:0 T b0 zero"
    for lines in (renamed, reordered, relabelled):
        game = parse_efg(game_text(player2=lines))
        assert game.problems[0] is not game.problems[1]
        assert game.problems[1].name == "shared-p2"


def test_a_shorter_section_is_not_shared():
    text = game_text(player2=cube_lines(2)[:-3])  # player 2 plays one bit
    game = parse_efg("\n".join(ln for ln in text.splitlines() if " b1:" not in ln))
    assert game.problems[0] is not game.problems[1]
    assert game.problems[1].n_terminals == 2


# -- the DAG memo ---------------------------------------------------------


def count_builds(monkeypatch):
    calls = []
    real = efg.interleave

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(efg, "interleave", counted)
    return calls


def test_a_held_dag_is_returned_for_the_same_normalized_spec(monkeypatch):
    calls = count_builds(monkeypatch)
    problem = hypercube_problem(2)
    dag = deviation_dag(problem, "med:2")
    assert deviation_dag(problem, " MED:2 ") is dag
    assert deviation_dag(problem, "med:2", cap=efg.STATE_CAP) is dag
    assert len(calls) == 1


def test_another_spec_cap_or_problem_object_builds_a_new_dag(monkeypatch):
    calls = count_builds(monkeypatch)
    problem = hypercube_problem(2)
    dag = deviation_dag(problem, "med:2")
    others = [deviation_dag(problem, "med:1"), deviation_dag(problem, "med:2", cap=10_000),
              deviation_dag(hypercube_problem(2), "med:2")]
    assert all(o is not dag for o in others)
    assert len({id(o) for o in others}) == 3
    assert len(calls) == 4
    dt = deviation_dag(problem, "dt:1")
    assert deviation_dag(problem, "DT:1") is dt
    assert deviation_dag(problem, "dt:1", cap=9999) is not dt


def test_a_dropped_dag_is_built_afresh(monkeypatch):
    calls = count_builds(monkeypatch)
    problem = hypercube_problem(2)
    dag = deviation_dag(problem, "med:1")
    ref = weakref.ref(dag)
    del dag
    gc.collect()
    assert ref() is None
    assert (problem, "med:1", efg.STATE_CAP) not in efg._HELD  # the memo keeps no dead entry
    assert deviation_dag(problem, "med:1") is not None
    assert len(calls) == 2


def test_failing_specs_raise_on_every_call_and_are_not_remembered():
    problem = parse_problem("tfsdp t\nr D - -\na T r x\nb T r y")
    held = len(efg._HELD)
    for spec, error in (("med:x", ValueError), ("bogus", ValueError),
                        ("dt:1", ValueError), ("med:-1", ValueError)):
        for _ in range(2):
            with pytest.raises(error):
                deviation_dag(problem, spec)
    for _ in range(2):
        with pytest.raises(CapacityError):
            deviation_dag(hypercube_problem(3), "med:2", cap=50)
    assert len(efg._HELD) == held


# -- a DAG must be built on its player's tree -----------------------------


SKEWED = parse_problem("tfsdp skewed\nr D - -\nt1 T r a\no O r b\nd D o -\n"
                       "t2 T d c\nt3 T d e\nt4 T d f")


def test_a_dag_for_another_tree_with_as_many_terminals_is_refused():
    cube = hypercube_problem(2)
    assert SKEWED.n_terminals == cube.n_terminals == 4
    u = np.random.default_rng(5).uniform(-0.1, 0.1, size=(4, 4))
    game = EFGame.zero_sum(SKEWED, cube, u)
    wrong = deviation_dag(cube, "med:1")
    with pytest.raises(ValueError, match="deviation DAG does not match the player's problem"):
        efg_self_play(game, [wrong, "med:1"], rounds=5, L=5)
    res = efg_self_play(game, ["med:1", "med:1"], rounds=5, L=5)
    with pytest.raises(ValueError, match="deviation DAG does not match the player's problem"):
        phi_equilibrium_gap(res.profile, game, 0, wrong)
    right = deviation_dag(SKEWED, "med:1")
    gap = phi_equilibrium_gap(res.profile, game, 0, right)
    assert gap == pytest.approx(res.run_for(0).phi_regret(), abs=1e-12)


def test_a_dag_on_an_equal_tree_is_accepted():
    game = parse_efg(game_text())
    twin = parse_efg(game_text()).problems[0]  # the same tree, another object
    for dag in (deviation_dag(twin, "med:1"), deviation_dag(game.problems[1], "dt:1")):
        assert dag.base is not game.problems[0]
        res = efg_self_play(game, [dag, dag], rounds=3, L=5)
        gap = phi_equilibrium_gap(res.profile, game, 1, dag)
        assert gap == pytest.approx(res.run_for(1).phi_regret(), abs=1e-12)


# -- sharing changes no result --------------------------------------------


def outcome(text, spec, delta, pinned):
    game = parse_efg(text)
    devs = [spec, spec]
    if pinned:
        devs[1] = game.problems[1].start
    res = efg_self_play(game, devs, rounds=6, delta=delta, L=7, checkpoints=(2, 4))
    runs = [res.run_for(i) for i in range(2) if res.minimizers[i] is not None]
    gaps = [phi_equilibrium_gap(res.profile, game, i, res.minimizers[i].dag)
            for i in range(2) if res.minimizers[i] is not None]
    floats = [r.phi_regret() for r in runs] + [r.external_regret() for r in runs] + gaps
    records = [(r.round, *map(float.hex, (r.phi_regret, r.external_regret, r.fp_error_bound)))
               for run in runs for r in run.records]
    return game, res.profile.export_csv(), records, [float.hex(v) for v in floats]


@pytest.mark.parametrize("pinned", [False, True])
@pytest.mark.parametrize("delta", ["beta", "cara"])
@pytest.mark.parametrize("spec", ["external", "med:1", "med:2", "dt:2"])
def test_shared_and_unshared_games_agree_bit_for_bit(spec, delta, pinned):
    shared, *seen = outcome(game_text(), spec, delta, pinned)
    apart, *renamed = outcome(game_text(prefix2="q"), spec, delta, pinned)
    assert shared.problems[0] is shared.problems[1]
    assert apart.problems[0] is not apart.problems[1]
    assert seen == renamed


def test_efg_run_and_audit_print_and_write_the_same(tmp_path, capsys):
    printed, written = [], []
    for label, text in (("shared", game_text(3)), ("apart", game_text(3, prefix2="q"))):
        game, out, curves = (tmp_path / f"{label}{ext}" for ext in (".efg", ".csv", "-curves.csv"))
        game.write_text(text)
        assert main(["efg-run", "--game", str(game), "--dev", "med:2", "--rounds", "20",
                     "--fixed-point-iters", "10", "--out", str(out), "--curves", str(curves)]) == 0
        assert main(["audit", "--profile", str(out), "--game", str(game), "--dev", "med:2"]) == 0
        lines = capsys.readouterr().out.replace(str(tmp_path / label), "FILE").splitlines()
        printed.append([ln.rsplit(" elapsed=", 1)[0] for ln in lines])
        written.append((out.read_bytes(), curves.read_bytes()))
    assert printed[0] == printed[1]
    assert written[0] == written[1]

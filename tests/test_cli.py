"""End-to-end runs of the command-line entry points."""

import functools

import numpy as np
import pytest

from phiregret import (
    CorrelatedProfile,
    EFGame,
    NormalFormGame,
    dump_efg,
    dump_nfg,
    efg,
    hypercube_problem,
    matching_pennies,
)
from phiregret.cli import main

from conftest import TWO_STAGE_TEXT


@pytest.fixture
def pennies_file(tmp_path):
    path = tmp_path / "pennies.nfg"
    path.write_text(dump_nfg(matching_pennies()))
    return str(path)


@pytest.fixture
def efg_file(tmp_path):
    p1 = hypercube_problem(1, "bit-a")
    p2 = hypercube_problem(1, "bit-b")
    u = np.array([[0.5, -0.25], [-0.5, 0.5]])
    game = EFGame.zero_sum(p1, p2, u, name="skew")
    path = tmp_path / "skew.efg"
    path.write_text(dump_efg(game))
    return str(path)


def test_nfg_ce_writes_profile_and_curves(tmp_path, pennies_file, capsys):
    out = tmp_path / "profile.csv"
    curves = tmp_path / "curves.csv"
    rc = main([
        "nfg-ce", "--game", pennies_file, "--eps", "0.3",
        "--out", str(out), "--curves", str(curves),
    ])
    assert rc == 0
    text = capsys.readouterr().out
    assert "certified" in text
    assert "swap-gap per player:" in text
    assert out.read_text().startswith("t,player,ell,j,alpha,pure-strategy-bits")
    lines = curves.read_text().splitlines()
    assert lines[0] == "round,phi_regret,external_regret,fp_error_bound"
    assert len(lines) > 1


def test_audit_reproduces_nfg_gaps(tmp_path, pennies_file, capsys):
    out = tmp_path / "profile.csv"
    assert main(["nfg-ce", "--game", pennies_file, "--eps", "0.3", "--out", str(out)]) == 0
    first = capsys.readouterr().out
    certified = first.splitlines()[2].split(": ")[1].split()

    assert main(["audit", "--profile", str(out), "--game", pennies_file]) == 0
    audit = capsys.readouterr().out
    gaps = [ln.split("swap gap ")[1] for ln in audit.strip().splitlines()]
    for claimed, measured in zip(certified, gaps):
        assert float(measured) == pytest.approx(float(claimed), abs=1e-9)


def test_nfg_audit_rejects_tree_deviations(pennies_file, tmp_path):
    out = tmp_path / "profile.csv"
    main(["nfg-ce", "--game", pennies_file, "--eps", "0.4", "--out", str(out)])
    with pytest.raises(SystemExit, match="swap"):
        main(["audit", "--profile", str(out), "--game", pennies_file, "--dev", "med:1"])


def test_nfg_audit_reads_dev_as_specs_are_read(pennies_file, tmp_path, capsys):
    """``--dev`` is stripped and lowercased, as ``deviation_dag`` reads a spec."""
    out = tmp_path / "profile.csv"
    main(["nfg-ce", "--game", pennies_file, "--eps", "0.4", "--out", str(out)])
    capsys.readouterr()
    assert main(["audit", "--profile", str(out), "--game", pennies_file]) == 0
    plain = capsys.readouterr().out
    for spelling in ("SWAP", " swap"):
        assert main(["audit", "--profile", str(out), "--game", pennies_file,
                     "--dev", spelling]) == 0
        assert capsys.readouterr().out == plain


def test_polymatrix_flag_on_dense_file(pennies_file):
    with pytest.raises(SystemExit, match="polymatrix"):
        main(["nfg-ce", "--game", pennies_file, "--eps", "0.3", "--polymatrix"])


def test_efg_run_and_audit_agree(tmp_path, efg_file, capsys):
    out = tmp_path / "profile.csv"
    curves = tmp_path / "curves.csv"
    rc = main([
        "efg-run", "--game", efg_file, "--dev", "med:1", "--rounds", "80",
        "--fixed-point-iters", "20", "--out", str(out), "--curves", str(curves),
    ])
    assert rc == 0
    run_text = capsys.readouterr().out
    measured = [
        float(ln.split("phi-regret=")[1].split()[0])
        for ln in run_text.splitlines() if ln.startswith("player")
    ]
    assert len(measured) == 2

    lines = curves.read_text().splitlines()
    assert lines[0] == "player,round,phi_regret,external_regret,fp_error_bound"
    assert {ln.split(",")[0] for ln in lines[1:]} == {"1", "2"}

    rc = main(["audit", "--profile", str(out), "--game", efg_file, "--dev", "med:1"])
    assert rc == 0
    audit = capsys.readouterr().out
    gaps = [float(ln.split("gap ")[1]) for ln in audit.strip().splitlines()]
    for claimed, audited in zip(measured, gaps):
        assert audited == pytest.approx(claimed, abs=1e-6)


def test_efg_audit_requires_dev(tmp_path, efg_file):
    out = tmp_path / "profile.csv"
    main(["efg-run", "--game", efg_file, "--dev", "external", "--rounds", "5",
          "--fixed-point-iters", "5", "--out", str(out)])
    with pytest.raises(SystemExit, match="--dev"):
        main(["audit", "--profile", str(out), "--game", efg_file])


def test_audit_unknown_header(tmp_path, pennies_file):
    out = tmp_path / "profile.csv"
    main(["nfg-ce", "--game", pennies_file, "--eps", "0.4", "--out", str(out)])
    bad = tmp_path / "bad.game"
    bad.write_text("xfg pennies\n")
    with pytest.raises(SystemExit, match="unrecognized game header"):
        main(["audit", "--profile", str(out), "--game", str(bad)])


def test_separation_table_output(capsys):
    assert main(["separation", "--k", "2"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "depth 0: gap 0.000000000"
    assert out[1] == "depth 1: gap 0.000000000"
    assert out[2] == "depth 2: gap 1.000000000"


def test_gadget_output(capsys):
    assert main(["gadget", "--t1", "0.25", "--t2", "0.5", "--eps", "0.001"]) == 0
    value = float(capsys.readouterr().out.strip())
    assert value == pytest.approx(0.75, abs=0.001)


def test_parse_failure_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.nfg"
    bad.write_text("nfg broken\nthis is not a game\n")
    assert main(["nfg-ce", "--game", str(bad), "--eps", "0.3"]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["nfg-ce", "--game", str(tmp_path / "nope.nfg"), "--eps", "0.3"]) == 2
    assert "error:" in capsys.readouterr().err


def test_a_directory_for_a_file_exits_2(tmp_path, capsys):
    assert main(["efg-run", "--game", str(tmp_path), "--dev", "external", "--rounds", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_gadget_domain_exits_2(capsys):
    assert main(["gadget", "--t1", "2.0", "--t2", "0.5", "--eps", "0.01"]) == 2
    assert "error:" in capsys.readouterr().err


def test_efg_file_from_tree_text(tmp_path, capsys):
    # build a game file by hand around the two-stage tree and run it
    body1 = "\n".join(TWO_STAGE_TEXT.strip().splitlines()[1:])
    lines = ["efg handmade", "player 1", body1, "player 2"]
    lines += ["0 O - -", "1 D 0 bit", "2 T 1 zero", "3 T 1 one"]
    lines += ["payoffs", "1 2 0.9", "5 3 -0.4", "7 2 0.25"]
    path = tmp_path / "hand.efg"
    path.write_text("\n".join(lines) + "\n")
    rc = main(["efg-run", "--game", str(path), "--dev", "external",
               "--rounds", "10", "--fixed-point-iters", "10"])
    assert rc == 0
    assert "player 2: phi-regret=" in capsys.readouterr().out


def _game_file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_audit_of_a_profile_for_a_smaller_tree_exits_2(tmp_path, efg_file, capsys):
    out = tmp_path / "profile.csv"
    main(["efg-run", "--game", efg_file, "--dev", "med:1", "--rounds", "5",
          "--fixed-point-iters", "5", "--out", str(out)])
    # player 2 still fits, so only player 1's strategy length is wrong
    u = np.array([[0.5, -0.25], [-0.5, 0.5], [0.3, 0.0], [0.0, 0.1]]) / 2
    game = EFGame.zero_sum(hypercube_problem(2, "a"), hypercube_problem(1, "b"), u)
    wide = _game_file(tmp_path, "wide.efg", dump_efg(game))
    capsys.readouterr()
    assert main(["audit", "--profile", str(out), "--game", wide, "--dev", "med:1"]) == 2
    assert "error: the profile's strategy lengths [2, 2]" in capsys.readouterr().err


def test_audit_of_a_profile_with_fewer_players_exits_2(tmp_path, pennies_file, capsys):
    out = tmp_path / "profile.csv"
    main(["nfg-ce", "--game", pennies_file, "--eps", "0.4", "--out", str(out)])
    game = NormalFormGame.dense([np.zeros((2, 2, 2))] * 3)
    three = _game_file(tmp_path, "three.nfg", dump_nfg(game))
    capsys.readouterr()
    assert main(["audit", "--profile", str(out), "--game", three]) == 2
    assert "error: the profile has 2 players, the game 3" in capsys.readouterr().err


def test_audit_of_a_zero_round_profile_reports_zero_gaps(tmp_path, efg_file,
                                                        pennies_file, capsys):
    # a header-only profile reads back with no players; there is nothing to check
    out = tmp_path / "profile.csv"
    assert main(["efg-run", "--game", efg_file, "--dev", "med:1", "--rounds", "0",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["audit", "--profile", str(out), "--game", efg_file, "--dev", "med:1"]) == 0
    assert main(["audit", "--profile", str(out), "--game", pennies_file]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "player 1: med:1 gap 0.000000000",
        "player 2: med:1 gap 0.000000000",
        "player 1: swap gap 0.000000000",
        "player 2: swap gap 0.000000000",
    ]


def test_nonpositive_eps_exits_2(pennies_file, capsys):
    assert main(["nfg-ce", "--game", pennies_file, "--eps", "0"]) == 2
    assert "eps must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["inf", "nan"])
def test_nonfinite_eps_exits_2(pennies_file, capsys, eps):
    assert main(["nfg-ce", "--game", pennies_file, "--eps", eps]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: eps must be positive and finite, got {eps}" in err


@pytest.mark.parametrize("eps", ["1e-300", "1e-160"])
def test_tiny_eps_exits_2(pennies_file, capsys, eps):
    assert main(["nfg-ce", "--game", pennies_file, "--eps", eps]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: eps {float(eps)} is too small" in err


def test_negative_rounds_exits_2(efg_file, capsys):
    assert main(["efg-run", "--game", efg_file, "--dev", "med:1", "--rounds", "-3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: rounds must be nonnegative, got -3" in err


def test_zero_fixed_point_iters_exits_2(efg_file, capsys):
    rc = main(["efg-run", "--game", efg_file, "--dev", "med:1", "--rounds", "3",
               "--fixed-point-iters", "0"])
    assert rc == 2
    assert "L >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["med:abc", "dt:", "med:1.5", "dt:-2"])
def test_bad_deviation_depth_exits_2(tmp_path, efg_file, capsys, spec):
    out = tmp_path / "profile.csv"
    assert main(["efg-run", "--game", efg_file, "--dev", "external", "--rounds", "3",
                 "--fixed-point-iters", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    want = f"error: deviation spec {spec!r}: K must be a nonnegative integer"
    assert main(["efg-run", "--game", efg_file, "--dev", spec, "--rounds", "3"]) == 2
    assert want in capsys.readouterr().err
    assert main(["audit", "--profile", str(out), "--game", efg_file, "--dev", spec]) == 2
    out_text, err = capsys.readouterr()
    assert out_text == ""
    assert want in err


def test_capacity_error_exits_2(efg_file, capsys, monkeypatch):
    # the real cap takes 200k states to reach; a small one trips the same check
    small_cap = functools.partial(efg.deviation_dag, cap=50)
    monkeypatch.setattr(efg, "deviation_dag", small_cap)
    rc = main(["efg-run", "--game", efg_file, "--dev", "dt:16", "--rounds", "3"])
    assert rc == 2
    assert "error: query tree exceeds 50 states" in capsys.readouterr().err


def test_efg_run_prints_the_last_checkpoint_without_solving_again(efg_file, capsys,
                                                                  monkeypatch):
    from phiregret import cli, fixedpoint

    solves = []
    solve = fixedpoint.best_reduced_strategy
    play = cli.efg_self_play
    played = {}

    def counted(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)

    def recorded(*args, **kwargs):
        played["res"] = play(*args, **kwargs)
        played["solves"] = len(solves)
        return played["res"]

    monkeypatch.setattr(fixedpoint, "best_reduced_strategy", counted)
    monkeypatch.setattr(cli, "efg_self_play", recorded)
    assert main(["efg-run", "--game", efg_file, "--dev", "med:1", "--rounds", "300"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert played["solves"] == 2  # one checkpoint per seat
    assert len(solves) == played["solves"]
    # the lines the per-call methods printed before, solved again here
    expected = [
        f"player {i + 1}: phi-regret={run.phi_regret():.6f} "
        f"external={run.external_regret():.6f} fp-bound={run.fp_error_bound():.6f}"
        for i, run in enumerate(map(played["res"].run_for, (0, 1)))
    ]
    assert printed[1:] == expected

    assert main(["efg-run", "--game", efg_file, "--dev", "med:1", "--rounds", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        f"player {i}: phi-regret=0.000000 external=0.000000 fp-bound=0.000000"
        for i in (1, 2)
    ]


def test_efg_run_records_a_profile_only_when_it_writes_one(tmp_path, efg_file, capsys,
                                                           monkeypatch):
    calls = []
    add_round = CorrelatedProfile.add_round

    def counted(self, components):
        calls.append(1)
        return add_round(self, components)

    monkeypatch.setattr(CorrelatedProfile, "add_round", counted)
    argv = ["efg-run", "--game", efg_file, "--dev", "med:1", "--rounds", "20"]
    printed = []
    for extra in (["--out", str(tmp_path / "p.csv")], []):
        assert main(argv + extra) == 0
        lines = capsys.readouterr().out.splitlines()
        printed.append([lines[0].rsplit(" elapsed=", 1)[0], *lines[1:3]])
        assert len(calls) == 20
    assert printed[0] == printed[1]

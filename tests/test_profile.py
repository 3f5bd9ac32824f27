"""Correlated profile storage and its bit-exact CSV round trip."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from phiregret import (
    BehavioralDescriptor,
    CorrelatedProfile,
    MonomialTable,
    ParseError,
    SupportMix,
    hypercube_problem,
    parse_problem,
)
from phiregret import profile as profile_module

from conftest import TWO_STAGE_TEXT, assert_same_columns


def one_hot(n, i):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def test_add_round_and_means():
    profile = CorrelatedProfile(2, dims=[3, 2])
    a = SupportMix([(0.5, one_hot(3, 0)), (0.5, one_hot(3, 2))])
    b = SupportMix([(1.0, one_hot(2, 1))])
    profile.add_round([[a], b])  # bare component == one-component mixture
    assert profile.rounds == 1
    assert profile.components(0, 1) == [b]
    np.testing.assert_allclose(profile.round_mean(0, 0), [0.5, 0.0, 0.5])
    np.testing.assert_allclose(profile.round_mean(0, 1), [0.0, 1.0])

    profile.add_round([[a, SupportMix([(1.0, one_hot(3, 1))])], [b]])
    # two components average with equal weight
    np.testing.assert_allclose(profile.round_mean(1, 0), [0.25, 0.5, 0.25])
    stacked = profile.stacked_means(0)
    assert stacked.shape == (2, 3)
    np.testing.assert_allclose(stacked[0], [0.5, 0.0, 0.5])


def test_add_round_shape_errors():
    profile = CorrelatedProfile(2)
    with pytest.raises(ValueError, match="2 players"):
        profile.add_round([SupportMix([(1.0, one_hot(2, 0))])])
    with pytest.raises(ValueError, match="at least one component"):
        profile.add_round([[], [SupportMix([(1.0, one_hot(2, 0))])]])


def test_add_round_rejects_a_component_of_the_wrong_length():
    profile = CorrelatedProfile(2, dims=[3, 2])
    with pytest.raises(ValueError, match="player 1: a component of strategy length 4, expected 3"):
        profile.add_round([SupportMix([(1.0, one_hot(4, 0))]), SupportMix([(1.0, one_hot(2, 0))])])
    problem = parse_problem(TWO_STAGE_TEXT)  # 5 terminals
    with pytest.raises(ValueError, match="player 2: a component of strategy length 5, expected 2"):
        profile.add_round([SupportMix([(1.0, one_hot(3, 0))]),
                           [SupportMix([(1.0, one_hot(2, 0))]),
                            BehavioralDescriptor(problem, problem.random_point(np.random.default_rng(1)))]])
    assert profile.rounds == 0

    unsized = CorrelatedProfile(2)  # lengths come from the first round
    unsized.add_round([SupportMix([(1.0, one_hot(3, 0))]), SupportMix([(1.0, one_hot(2, 0))])])
    with pytest.raises(ValueError, match="player 2: a component of strategy length 3, expected 2"):
        unsized.add_round([SupportMix([(1.0, one_hot(3, 1))]), SupportMix([(1.0, one_hot(3, 0))])])
    assert unsized.rounds == 1 and unsized.dims == [3, 2]
    assert CorrelatedProfile.from_csv(unsized.export_csv()).export_csv() == unsized.export_csv()


def test_csv_round_trip_is_bit_exact():
    rng = np.random.default_rng(11)
    profile = CorrelatedProfile(2, dims=[4, 4])
    for _ in range(6):
        row = []
        for _p in range(2):
            w = rng.dirichlet(np.ones(3))
            atoms = [(float(w[i]), (rng.random(4) < 0.5).astype(float)) for i in range(3)]
            row.append([SupportMix(atoms), SupportMix([(1.0, one_hot(4, 1))])])
        profile.add_round(row)
    text = profile.export_csv()
    again = CorrelatedProfile.from_csv(text)
    assert again.rounds == profile.rounds
    assert again.n_players == profile.n_players
    assert again.export_csv() == text  # bitwise stable
    for t in range(profile.rounds):
        for i in range(2):
            np.testing.assert_array_equal(
                again.round_mean(t, i), profile.round_mean(t, i)
            )


def test_export_expands_behavioral_components():
    problem = parse_problem(TWO_STAGE_TEXT)
    x = np.array([0.5, 0.5, 0.0, 0.25, 0.25])
    desc = BehavioralDescriptor(problem, x)
    profile = CorrelatedProfile(1)
    profile.add_round([[desc]])
    again = CorrelatedProfile.from_csv(profile.export_csv())
    # descriptors are rewritten as explicit atoms without moving the mean
    np.testing.assert_allclose(again.round_mean(0, 0), x, atol=1e-12)
    comp = again.components(0, 0)[0]
    assert isinstance(comp, SupportMix)
    for _w, y in comp.atoms:
        assert problem.membership_violation(y) is None


def test_header_is_required():
    with pytest.raises(ParseError, match="header"):
        CorrelatedProfile.from_csv("t,player,alpha\n1,1,1.0\n")


HEADER = "t,player,ell,j,alpha,pure-strategy-bits"


BAD_ROWS = [
    ("1,1,1,1,1.0", "expected 6 fields"),
    ("0,1,1,1,1.0,10", "1-based"),
    ("1,0,1,1,1.0,10", "1-based"),
    ("1,1,0,1,1.0,10", "1-based"),
    ("1,1,1,1,-0.5,10", "negative atom weight"),
    ("1,1,1,1,0.5,10\n1,1,1,2,0.5,100", "inconsistent strategy length"),
    ("x,1,1,1,1.0,10", "line 2"),
]


@pytest.mark.parametrize("row, message", BAD_ROWS)
def test_bad_rows_are_rejected(row, message):
    with pytest.raises(ParseError, match=message):
        CorrelatedProfile.from_csv(HEADER + "\n" + row + "\n")


def test_round_with_a_silent_player_is_rejected():
    text = HEADER + "\n1,1,1,1,1.0,10\n2,1,1,1,1.0,01\n2,2,1,1,1.0,10\n"
    with pytest.raises(ParseError, match="no atoms for player 2"):
        CorrelatedProfile.from_csv(text)


def test_hypercube_round_trip_preserves_monomials():
    problem = hypercube_problem(2, "bits")
    rng = np.random.default_rng(5)
    profile = CorrelatedProfile(1, dims=[problem.n_terminals])
    for _ in range(4):
        profile.add_round([[BehavioralDescriptor(problem, problem.random_point(rng))]])
    again = CorrelatedProfile.from_csv(profile.export_csv())
    for t in range(4):
        orig = profile.components(t, 0)[0]
        back = again.components(t, 0)[0]
        table = MonomialTable([(0,), (1, 2), (0, 3), (0, 1, 2, 3)])
        for got, want in zip(
            back.monomial_expectation(table), orig.monomial_expectation(table), strict=True
        ):
            assert got == pytest.approx(want, abs=1e-12)


UNWRITTEN_ROWS = [
    ("1,1,1,1,1.0,12", "line 2: pure-strategy bits '12'"),
    ("1,1,1,1,1.0,1x", "line 2: pure-strategy bits"),
    ("1,1,1,1,1.0,", "line 2: pure-strategy bits ''"),
    ("1,1,1,0,1.0,10", "line 2: indices are 1-based"),
    ("1,1,1,x,1.0,10", "line 2: invalid literal"),
    ("1,1,1,1.0,1.0,10", "line 2: invalid literal"),
    ("1,1,1,1,nan,10", "line 2: atom weight nan is not finite"),
    ("1,1,1,1,inf,10", "line 2: atom weight inf is not finite"),
    ("1,1,1,1,0.25,10\n1,1,1,2,0.25,01", "line 2: component weights sum to 0.5"),
    ("1,1,1,1,1.0,10\n1,1,2,1,0.5,01\n1,1,2,2,0.5000001,10",
     r"line 3: component weights sum to 1\.00000"),
]


@pytest.mark.parametrize("rows, message", UNWRITTEN_ROWS)
def test_rows_export_never_writes_are_rejected(rows, message):
    with pytest.raises(ParseError, match=message):
        CorrelatedProfile.from_csv(HEADER + "\n" + rows + "\n")


def test_weights_within_tolerance_of_one_are_accepted():
    text = HEADER + "\n1,1,1,1,0.3,10\n1,1,1,2,0.7000000001,01\n"
    profile = CorrelatedProfile.from_csv(text)
    assert profile.components(0, 0)[0].weights.tolist() == [0.3, 0.7000000001]


J_ROWS = [
    ("1,1,1,7,0.5,10\n1,1,1,7,0.5,01", "line 2: j is 7, expected 1"),
    ("1,1,1,1,0.5,10\n1,1,1,1,0.5,01", "line 3: j is 1, expected 2"),
    ("1,1,1,2,0.5,10\n1,1,1,1,0.5,01", "line 2: j is 2, expected 1"),
    ("1,1,1,1,0.5,10\n1,1,1,3,0.5,01", "line 3: j is 3, expected 2"),
]


@pytest.mark.parametrize("rows, message", J_ROWS)
def test_j_must_count_the_atoms_of_a_component_in_file_order(rows, message):
    with pytest.raises(ParseError, match=message):
        CorrelatedProfile.from_csv(HEADER + "\n" + rows + "\n")


def test_j_counts_within_its_own_component_when_components_interleave():
    text = HEADER + "\n1,1,2,1,0.5,10\n1,1,1,1,1.0,11\n1,1,2,2,0.5,01\n"
    profile = CorrelatedProfile.from_csv(text)
    assert [c.n_atoms for c in profile.components(0, 0)] == [1, 2]
    with pytest.raises(ParseError, match="line 4: j is 1, expected 2"):
        CorrelatedProfile.from_csv(text.replace("1,1,2,2,", "1,1,2,1,"))


@pytest.mark.parametrize(
    "rows", [rows for rows, _ in BAD_ROWS + UNWRITTEN_ROWS + J_ROWS]
    + ["1,1,2,1,0.5,10\n1,1,1,1,1.0,11\n1,1,2,1,0.5,01"])
def test_only_the_row_reader_names_an_error(rows):
    text = HEADER + "\n" + rows + "\n"
    assert profile_module._read_columns(text) is None
    with pytest.raises(ParseError) as want:
        profile_module._read_rows(text)
    with pytest.raises(ParseError) as got:
        CorrelatedProfile.from_csv(text)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "rows",
    [
        "1,1,1,1,1.0000000009999999,10",  # too near the bound for a running sum
        "+1,1,1,1,1.0,10",
        f"1,1,{10**18},1,1.0,10",
        "1,1,1,1,1.0,\u0661",
        "1,1,1,1,0.5,10\n\n1,1,1,2,0.5,01",
        "1,1,1,1,0.5,10\r1,1,1,2,0.5,01",
    ],
)
def test_a_text_the_array_reader_declines_is_read_row_by_row(rows):
    text = HEADER + "\n" + rows + "\n"
    assert profile_module._read_columns(text) is None
    _assert_same(_outcome(CorrelatedProfile.from_csv, text), _outcome(oracles.from_csv_rows, text))


def test_the_array_reader_takes_cr_lf_line_ends_as_the_row_reader_does():
    text = HEADER + "\r\n1,1,1,1,0.5,10\r\n1,1,1,2,0.5,01\n1,2,1,1,1.0,1\r\n"
    got, want = profile_module._read_columns(text), profile_module._read_rows(text)
    assert got is not None
    assert_same_columns(got, want)


def test_the_first_bad_line_is_named_whatever_the_kind():
    rows = [f"1,1,1,{j},0.125,10" for j in range(1, 9)]
    rows[7] = "1,1,1,8,oops,10"  # line 9
    rows[2] = "1,1,1,3,0.125,12"  # line 4
    with pytest.raises(ParseError, match=r"^line 4: pure-strategy bits '12'"):
        CorrelatedProfile.from_csv(HEADER + "\n" + "\n".join(rows) + "\n")


def test_a_silent_player_is_named_before_a_later_round_bad_weights():
    rows = []
    for t in range(1, 6):
        for player in (1, 2):
            if (t, player) != (2, 2):
                rows.append(f"{t},{player},1,1,{0.5 if t == 5 else 1.0},10")
    with pytest.raises(ParseError, match=r"^round 2: no atoms for player 2$"):
        CorrelatedProfile.from_csv(HEADER + "\n" + "\n".join(rows) + "\n")


def test_a_player_past_int64_names_the_first_silent_player():
    # the row parser builds a list as long as the largest player number
    text = HEADER + f"\n1,1,1,1,1.0,10\n1,{2**64},1,1,1.0,1\n"
    with pytest.raises(ParseError, match="^round 1: no atoms for player 2$"):
        CorrelatedProfile.from_csv(text)


@pytest.mark.parametrize(
    "rows",
    [
        # ell past int64 only orders the components
        f"1,1,{2**70 + 1},1,1.0,10\n1,1,{2**70},1,1.0,01\n1,1,{2**63},1,1.0,11",
        # a round past int64 leaves an earlier one without atoms
        f"1,1,1,1,1.0,10\n{2**70},1,1,1,1.0,01",
        f"1,1,1,1,1.0,10\n1,1,1,{-2**70},1.0,01",
        # blank lines, surrounding spaces and CR line ends count as lines
        "\r\n 1,1,1,1,0.5,10 \r\n\r\n1,1,1,2,0.5,01\r\n\n1,1,1,3,x,01",
        "\n\n",
        # index fields int() reads but are not 1-18 ASCII digits
        "+1,1,1,1,0.5,10\n1, 1,1_0,1,0.5,01",
        "\u0661,\u0663,1,0007,1.0,10",
        "1,1,1,1,0.5,10\n1,1,1,+2,0.5,01\n1,1,1,3,0.0,11",
        f"1,1,{10**18 + 7},1,1.0,10\n1,1,{10**29 + 1},1,1.0,01",
        f"{10**18 + 7},1,1,1,1.0,10",
        f"{10**29},1,1,1,1.0,10",
        "1,1,1,1,1.0,10\n1,1,1,- 1,1.0,10",
        "1,,1,1,1.0,10",
        "1,1,9999999999999999999,1,1.0,10\n1,1,1,1,1.0,01",
        # a 19-digit player field leaves player 2 without atoms
        "1,1,1,1,1.0,10\n1,1234567890123456789,1,1,1.0,1",
        # what str.splitlines and str.strip take as line ends and padding
        "1,1,1,1,0.25,10\v1,1,1,2,0.25,01\f1,1,1,3,0.25,11\x1c1,1,1,4,0.25,00",
        "1,1,1,1,0.5,10\x851,1,1,2,0.5,01\u20281,2,1,1,1.0,1",
        "\t1,1,1,1,0.5,10\t\n\t\t1,1,1,2,0.5,01 \t",
        "\t1,1,1,1,0.5,10\t\n1,1,1,2,0.5,01\t",
        "1,1,1,1,0.5,10\n1,1,1,2,0.5,0\t1",
        # non-ASCII bits and alpha in forms float() reads
        "1,1,1,1,1.0,1\uff11",
        "1,1,1,1,1e0,10",
        "1,1,1,1, 0.5,10\n1,1,1,2,.5,01",
    ],
)
def test_unusual_rows_read_as_the_row_parser_reads_them(rows):
    text = HEADER + "\n" + rows + "\n"
    want, got = _outcome(oracles.from_csv_rows, text), _outcome(CorrelatedProfile.from_csv, text)
    _assert_same(got, want)


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc)


def _assert_same(got, want):
    """Both the same ParseError message, or profiles whose components have
    bitwise equal weights, matrices and means."""
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert (got.n_players, got.rounds, got.dims) == (want.n_players, want.rounds, want.dims)
    for t in range(want.rounds):
        for i in range(want.n_players):
            pairs = zip(got.components(t, i), want.components(t, i), strict=True)
            for g, w in pairs:
                for a, b in ((g.weights, w.weights), (g.matrix, w.matrix), (g.mean(), w.mean())):
                    assert a.dtype == b.dtype and a.shape == b.shape
                    assert a.tobytes() == b.tobytes()
            assert got.round_mean(t, i).tobytes() == want.round_mean(t, i).tobytes()


@st.composite
def profile_csvs(draw):
    """CSV text of a random valid profile: 1-3 players with strategy lengths
    1-6, 1-3 components per round and player under distinct ell labels, 1-6
    atoms each (zero weights included), the components' rows interleaved in
    random order with each component's own rows kept in j order, blank lines
    and LF or CRLF line ends."""
    dims = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    comps = []
    for t in range(1, draw(st.integers(1, 3)) + 1):
        for player, d in enumerate(dims, start=1):
            ells = draw(st.lists(st.integers(1, 9), min_size=1, max_size=3, unique=True))
            for ell in ells:
                counts = draw(st.lists(st.integers(0, 5), min_size=1, max_size=6)
                              .filter(any))
                total = sum(counts)
                comps.append([
                    f"{t},{player},{ell},{j},{c / total!r},"
                    + "".join(draw(st.sampled_from("01")) for _ in range(d))
                    for j, c in enumerate(counts, start=1)
                ])
    slots = [k for k, rows in enumerate(comps) for _ in rows]
    lines = [comps[k].pop(0) for k in draw(st.permutations(slots))]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  "])))
    return draw(st.sampled_from(["\n", "\r\n"])).join([HEADER, *lines]) + "\n"


@settings(max_examples=100, deadline=None)
@given(profile_csvs())
def test_import_matches_the_row_parser_bit_for_bit(text):
    got = CorrelatedProfile.from_csv(text)
    _assert_same(got, oracles.from_csv_rows(text))
    assert CorrelatedProfile.from_csv(got.export_csv()).export_csv() == got.export_csv()


SEEDED = {
    "fields": lambda f: f[:5],
    "int": lambda f: [f[0], "1.5", *f[2:]],
    "float": lambda f: [*f[:4], "0.5x", f[5]],
    "index": lambda f: [f[0], f[1], "0", *f[3:]],
    "nan": lambda f: [*f[:4], "nan", f[5]],
    "inf": lambda f: [*f[:4], "-inf", f[5]],
    "negative": lambda f: [*f[:4], "-0.25", f[5]],
    "bits": lambda f: [*f[:5], f[5][:-1] + "2"],
    "empty bits": lambda f: [*f[:5], ""],
    "length": lambda f: [*f[:5], f[5] + "0"],
    "weight": lambda f: [*f[:4], "0.875", f[5]],
    "silent": lambda f: [],
    "padded": lambda f: [f[0], f" {f[1]}", f"+{f[2]}", f"0{f[3]}\t", f" {f[4]}", f[5]],
}


@settings(max_examples=100, deadline=None)
@given(profile_csvs(), st.sampled_from(sorted(SEEDED)), st.data())
def test_a_seeded_error_reads_as_the_row_parser_reads_it(text, kind, data):
    newline = "\r\n" if "\r\n" in text else "\n"
    lines = text.split(newline)
    rows = [k for k, line in enumerate(lines) if "," in line and k > 0]
    k = data.draw(st.sampled_from(rows))
    fields = SEEDED[kind](lines[k].strip().split(","))
    if kind == "silent":  # drop every row of this line's round and player
        key = lines[k].strip().split(",")[:2]
        lines = [ln for ln in lines if ln.strip().split(",")[:2] != key or ln == lines[0]]
    else:
        lines[k] = ",".join(fields)
    text = newline.join(lines)
    _assert_same(_outcome(CorrelatedProfile.from_csv, text),
                 _outcome(oracles.from_csv_rows, text))

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import counterexample_deviation
from oracles import MixtureStrategy
from phiregret import (
    BehavioralDescriptor,
    CorrelatedProfile,
    MonomialTable,
    SupportMix,
    parse_problem,
)
from phiregret.maps import (
    RoundMixtures,
    caratheodory,
    consistent_map,
    extended_map_eval,
    segment_means,
)


def test_support_mix_mean_and_expectations():
    mix = SupportMix([(0.25, [1, 0, 0]), (0.75, [0, 1, 1])])
    assert np.allclose(mix.mean(), [0.25, 0.75, 0.75])
    table = MonomialTable([frozenset(), frozenset([1, 2]), frozenset([0, 1])])
    empty, both, none = mix.monomial_expectation(table)
    assert empty == 1.0
    assert both == pytest.approx(0.75)
    assert none == pytest.approx(0.0)


def test_support_mix_mean_is_frozen():
    mix = SupportMix([(1.0, [1, 0])])
    with pytest.raises(ValueError):
        mix.mean()[0] = 3.0


def test_column_components_are_from_arrays_views_bit_for_bit():
    rng = np.random.default_rng(17)
    sizes = np.array([1, 5, 2**11, 5, 1, 2**11])
    weights = rng.random(sizes.sum()) / 7.0
    matrix = (rng.random((sizes.sum(), 9)) < 0.5).astype(np.uint8)
    columns = (weights, matrix, sizes, np.array([0, 0, 1, 2, 2, 2]))
    profile = CorrelatedProfile.from_columns([9], [columns], 3)
    parts = [comp for t in range(3) for comp in profile.components(t, 0)]
    assert profile.components(1, 0)[0] is parts[2]  # cut once
    means = segment_means(weights, matrix, sizes)
    start = 0
    for part, n, mean in zip(parts, sizes.tolist(), means, strict=True):
        alone = SupportMix.from_arrays(weights[start:start + n].copy(),
                                       matrix[start:start + n].copy())
        assert part.mean().tobytes() == alone.mean().tobytes() == mean.tobytes()
        assert not part.mean().flags.writeable
        assert part.weights.tobytes() == alone.weights.tobytes()
        assert part.matrix.tobytes() == alone.matrix.tobytes()
        assert np.shares_memory(part.weights, weights)
        assert np.shares_memory(part.matrix, matrix)
        start += n


def test_behavioral_support_matches_oracle(two_stage):
    rng = np.random.default_rng(7)
    for _ in range(8):
        x = two_stage.random_point(rng)
        desc = BehavioralDescriptor(two_stage, x)
        ours = sorted(
            ((tuple(map(int, y)), w) for w, y in desc.support().atoms),
        )
        ref = sorted(
            ((tuple(map(int, y)), w) for w, y in oracles.behavioral_support(two_stage, x)),
        )
        assert len(ours) == len(ref)
        for (ya, wa), (yb, wb) in zip(ours, ref):
            assert ya == yb
            assert wa == pytest.approx(wb, abs=1e-12)


def test_behavioral_descriptor_mean_is_base(two_stage):
    x = two_stage.uniform_point()
    desc = BehavioralDescriptor(two_stage, x)
    assert np.array_equal(desc.mean(), x)
    # consistency: support expectation reproduces the base point
    assert np.allclose(desc.support().mean(), x, atol=1e-12)


def test_behavioral_monomial_expectation_vs_oracle(two_stage):
    rng = np.random.default_rng(8)
    x = two_stage.random_point(rng)
    desc = BehavioralDescriptor(two_stage, x)
    monos = [frozenset(), frozenset([0]), frozenset([1, 3]),
             frozenset([1, 4]), frozenset([0, 1]), frozenset([1, 2, 3])]
    values = desc.monomial_expectation(MonomialTable(monos))
    for value, mono in zip(values, monos, strict=True):
        assert value == pytest.approx(
            oracles.monomial_expectation(two_stage, x, mono), abs=1e-12
        )


def test_caratheodory_properties(two_stage, hypercube3):
    rng = np.random.default_rng(9)
    for p in (two_stage, hypercube3):
        for _ in range(6):
            x = p.random_point(rng)
            mix = caratheodory(p, x)
            assert mix.n_atoms <= p.n_terminals
            total = 0.0
            for w, y in mix.atoms:
                assert w > 0
                total += w
                assert set(np.unique(y)) <= {0.0, 1.0}
                assert p.membership(y)
            assert total == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(mix.mean(), x, atol=1e-9)


def test_extended_map_eval_stays_in_polytope(two_stage):
    rng = np.random.default_rng(10)
    phi = counterexample_deviation()
    for _ in range(25):
        x = two_stage.random_point(rng)
        for delta in ("beta", "cara"):
            out = extended_map_eval(phi, two_stage, x, delta=delta)
            two_stage.require_membership(out, context=delta)


def test_extended_maps_agree_for_linear_deviations(two_stage):
    """Consistent maps preserve expectations, so every delta gives the same
    extension of a degree-1 deviation."""
    rng = np.random.default_rng(11)
    from phiregret import random_low_degree_deviation

    phi = random_low_degree_deviation(two_stage, rng, degree=1)
    for _ in range(10):
        x = two_stage.random_point(rng)
        a = extended_map_eval(phi, two_stage, x, delta="beta")
        b = extended_map_eval(phi, two_stage, x, delta="cara")
        assert np.allclose(a, b, atol=1e-9)
        assert np.allclose(a, oracles.eval_point(phi, x), atol=1e-9)


def test_mixture_strategy_aggregates():
    a = SupportMix([(1.0, [1, 0])])
    b = SupportMix([(0.5, [1, 0]), (0.5, [0, 1])])
    pi = MixtureStrategy([(0.5, a), (0.5, b)])
    assert np.allclose(pi.mean(), [0.75, 0.25])
    assert pi.monomial_expectation(MonomialTable([frozenset([0])]))[0] == pytest.approx(0.75)
    f = counterexample_deviation()
    mix = SupportMix([(1.0, [1, 0, 0, 0, 0]), (0.0, [0, 1, 0, 1, 0])])
    single = MixtureStrategy([(1.0, mix)])
    assert np.allclose(f(single), f(mix), atol=1e-14)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_behavioral_support_is_distribution(seed):
    problem = parse_problem(
        "tfsdp two_stage\n0 D - -\n1 T 0 x1\n2 O 0 go\n3 D 2 left\n"
        "4 D 2 right\n5 T 3 x2\n6 T 3 x3\n7 T 4 x4\n8 T 4 x5"
    )
    rng = np.random.default_rng(seed)
    x = problem.random_point(rng)
    mix = BehavioralDescriptor(problem, x).support()
    weights = [w for w, _ in mix.atoms]
    assert min(weights) > 0
    assert sum(weights) == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(mix.mean(), x, atol=1e-9)


def test_extended_map_eval_goes_through_the_one_dispatch(two_stage):
    """Each map's image is the former per-map branch's, bit for bit, and the
    caller's point is neither changed nor frozen."""
    from phiregret import random_low_degree_deviation

    rng = np.random.default_rng(12)
    phi = random_low_degree_deviation(two_stage, rng, degree=2)
    for _ in range(10):
        x = two_stage.random_point(rng)
        before = x.copy()
        for delta, comp in (("beta", BehavioralDescriptor(two_stage, x)),
                            ("cara", caratheodory(two_stage, x))):
            assert extended_map_eval(phi, two_stage, x, delta).tobytes() == phi(comp).tobytes()
        assert x.flags.writeable and np.array_equal(x, before)
    start = two_stage.start
    assert np.array_equal(consistent_map(two_stage, start, "beta").vals, two_stage.start_values)
    for call in (lambda: extended_map_eval(phi, two_stage, start, delta="nope"),
                 lambda: consistent_map(two_stage, start, "nope")):
        with pytest.raises(ValueError, match="^unknown consistent map 'nope'$"):
            call()


def test_round_mixtures_refuse_an_empty_round():
    comp = SupportMix([(1.0, [1, 0])])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no divide-by-zero warning first
        for rounds, message in (([[]], "round 1 of 1 has no components"),
                                ([[comp], [], []], "round 2 of 3 has no components")):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                RoundMixtures(rounds)
        one = np.array([[1.0, 0.0]])
        with pytest.raises(ValueError, match="^round 2 of 2 has no components$"):
            RoundMixtures.from_columns(np.ones(1), one, [1], [1, 0], one)


def test_round_mixtures_of_no_rounds_have_no_rows():
    rounds = RoundMixtures([])
    assert rounds.counts.dtype == np.intp
    assert rounds.mean().shape == (0, 0)

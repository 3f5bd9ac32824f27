"""The ``Graph`` constructor against the one it replaced
(``oracles.graph_reference``): on the same input arrays, every derived array
is equal, dtype included, and the blocks and levels come in the same order."""

import numpy as np
import pytest

import oracles
from conftest import TWO_STAGE_TEXT, random_problem
from phiregret import build_dt_problem, hypercube_problem, interleave, parse_problem
from phiregret.dags import join
from phiregret.errors import StructureError
from phiregret.tfsdp import CODE, Graph


def _trees():
    rng = np.random.default_rng(41)
    trees = [(f"cube{n}", hypercube_problem(n)) for n in range(1, 12)]
    trees += [("two_stage", parse_problem(TWO_STAGE_TEXT)),
              ("lone_terminal", parse_problem("tfsdp one\nr T - -"))]
    return trees + [(f"random{i}", random_problem(rng)) for i in range(12)]


def _graphs():
    trees = _trees()
    graphs = [(name, p.graph) for name, p in trees]
    small = [(name, p) for name, p in trees if p.n_nodes <= 13]
    graphs += [(f"{name}-med{k}", interleave(p, k).graph) for name, p in small for k in (1, 2, 3)]
    graphs += [(f"dt{n}-{k}{'d' * d}", build_dt_problem(n, k, distinct=d).graph)
               for n in (1, 2, 3, 4) for k in (0, 1, 2) for d in (False, True)]
    dags = [interleave(p, 1) for _, p in small[:4]] + [build_dt_problem(2, 1)]
    graphs += [(f"join{i}", join(dags[i:i + 2])[0].graph) for i in range(len(dags) - 1)]
    graphs.append(("join_all", join(dags)[0].graph))
    # 0 O -> 1, 3; 1 D -> 2, 3; 3 D -> 4, 5: edges 0 -> 3, 1 -> 2 and 3 -> 4, 5 climb two levels
    O, D, T = CODE["O"], CODE["D"], CODE["T"]
    graphs.append(("two_level_edges", Graph([O, D, T, D, T, T], [0, 2, 4, 4, 6, 6, 6],
                                            [1, 3, 2, 3, 4, 5], [0, 1, 3, 2, 4, 4])))
    return graphs


GRAPHS = _graphs()


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("name,graph", GRAPHS, ids=[name for name, _ in GRAPHS])
def test_graph_matches_the_reference_constructor(name, graph):
    got = Graph(graph.code, graph.ptr, graph.dst, graph.level)
    want = oracles.graph_reference(graph.code, graph.ptr, graph.dst, graph.level)
    assert (got.n, got.n_edges) == (want.n, want.n_edges)
    for field in ("code", "ptr", "dst", "level", "src", "terminals", "decision_edge",
                  "uniform_share"):
        assert _same(getattr(got, field), getattr(want, field)), field
    assert not got.uniform_share.flags.writeable
    assert len(got.levels) == len(want.levels)
    for got_level, want_level in zip(got.levels, want.levels):
        assert all(map(_same, got_level, want_level))
    assert len(got.blocks) == len(want.blocks)
    for (code, *arrays), (want_code, *want_arrays) in zip(got.blocks, want.blocks):
        assert type(code) is type(want_code) and code == want_code
        assert all(map(_same, arrays, want_arrays))


def test_an_edge_that_does_not_climb_is_rejected_by_both():
    args = ([CODE["D"], CODE["T"], CODE["T"]], [0, 2, 2, 2], [1, 2], [0, 0, 1])
    with pytest.raises(StructureError, match="not topological"):
        Graph(*args)
    with pytest.raises(StructureError, match="not topological"):
        oracles.graph_reference(*args)

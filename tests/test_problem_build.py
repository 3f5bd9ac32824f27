"""The ``DecisionProblem`` constructor and ``binarize`` against the ones they
replaced (``oracles.ReferenceProblem``): on the same rows, in three
parents-first orders (as given, depth first and random), every attribute is
equal, element types and dtypes included, and every structure error has the
same message, which names the first bad row."""

import re

import numpy as np
import pytest

import oracles
from conftest import TWO_STAGE_TEXT, random_problem
from phiregret import DecisionProblem, hypercube_problem, parse_problem
from phiregret.errors import StructureError
from phiregret.tfsdp import DECISION, OBSERVATION, TERMINAL, NodeRow

ATTRIBUTES = ("name", "n_nodes", "root", "n_terminals", "node_ids", "kind", "edge_label",
              "children", "parent", "decision_edges", "depth", "transform_log", "terminals",
              "terminal_index", "terminal_bits", "observation_edges", "start", "start_values")
GRAPH_ATTRIBUTES = ("n", "n_edges", "code", "ptr", "dst", "level", "src", "terminals",
                    "decision_edge", "uniform_share", "levels", "blocks", "sum_pass")


def rows_of(problem):
    """A problem's rows in its BFS order, as its dump writes them."""
    return [NodeRow(problem.node_ids[v], problem.kind[v],
                    None if v == problem.root else problem.node_ids[problem.parent[v]],
                    problem.edge_label[v])
            for v in range(problem.n_nodes)]


def random_rows(rng, max_actions, max_depth=3, max_rows=150):
    """Rows, each subtree right after its root, of a random tree whose
    decision points have 2 to ``max_actions`` children and may sit right
    under another decision point (the constructor repairs that); the root
    sometimes has a label."""
    rows = []

    def grow(parent, label, kind, depth):
        node = f"{kind.lower()}{len(rows)}"
        rows.append(NodeRow(node, kind, parent, label))
        if kind == TERMINAL:
            return
        n_kids = rng.integers(2, max_actions + 1) if kind == DECISION else rng.integers(1, 4)
        for i in range(n_kids):
            if depth >= max_depth or rng.random() < 0.5:
                child = TERMINAL
            else:
                child = DECISION if kind == OBSERVATION or rng.random() < 0.5 else OBSERVATION
            grow(node, f"e{i}", child, depth + 1)

    root_kind = DECISION if rng.random() < 0.7 else OBSERVATION
    grow(None, "top" if rng.random() < 0.3 else None, root_kind, 0)
    return rows if len(rows) <= max_rows else random_rows(rng, max_actions, max_depth, max_rows)


def orders(rows, rng):
    """The rows as given, depth first and in a random parents-first order
    (siblings may swap)."""
    kids = {}
    for row in rows:
        kids.setdefault(row.parent, []).append(row)
    dfs = []

    def walk(parent):
        for row in kids.get(parent, []):
            dfs.append(row)
            walk(row.node_id)

    walk(None)
    ready, shuffled = list(kids[None]), []
    while ready:
        row = ready.pop(int(rng.integers(len(ready))))
        shuffled.append(row)
        ready += kids.get(row.node_id, [])
    return {"given": rows, "dfs": dfs, "random": shuffled}


def _corpus():
    rng = np.random.default_rng(2701)
    trees = [(f"cube{n}", rows_of(hypercube_problem(n))) for n in range(1, 21)]
    trees += [("two_stage", rows_of(parse_problem(TWO_STAGE_TEXT))),
              ("lone_terminal", [NodeRow("r", TERMINAL, None, None)]),
              ("dummy_id_taken", [NodeRow("a", DECISION, None, None),
                                  NodeRow("b&obs", TERMINAL, "a", "x"),
                                  NodeRow("b", DECISION, "a", "y"),
                                  NodeRow("b1", TERMINAL, "b", "l"),
                                  NodeRow("b2", TERMINAL, "b", "r")])]
    trees += [(f"random{i}", rows_of(random_problem(rng))) for i in range(100)]
    trees += [(f"chained{i}", random_rows(rng, max_actions=7)) for i in range(100)]
    return [(name, orders(rows, rng)) for name, rows in trees]


CORPUS = _corpus()


def same(a, b):
    """Equal values of one type; arrays of one dtype, shape, bytes and
    write flag; sequences element by element."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return (a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
                and a.flags.writeable == b.flags.writeable)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(same, a, b))
    return a == b


def assert_same_problem(got, want):
    for field in ATTRIBUTES:
        assert same(getattr(got, field), getattr(want, field)), field
    for field in GRAPH_ATTRIBUTES:
        assert same(getattr(got.graph, field), getattr(want.graph, field)), field


@pytest.mark.parametrize("name,orders", CORPUS, ids=[name for name, _ in CORPUS])
def test_problem_matches_the_reference_constructor(name, orders):
    for rows in orders.values():
        assert_same_problem(DecisionProblem(rows, name), oracles.ReferenceProblem(rows, name))


WIDE = [(name, orders) for name, orders in CORPUS if not name.startswith(("cube", "random"))]


@pytest.mark.parametrize("name,orders", WIDE, ids=[name for name, _ in WIDE])
def test_binarize_matches_the_reference(name, orders):
    for rows in orders.values():
        source = DecisionProblem(rows, name)
        got, got_map, got_log = source.binarize()
        want, want_map, want_log = oracles.ReferenceProblem(rows, name).binarize()
        # the reference drops the root's label, which binarize keeps
        head, root, *rest = want.dump().splitlines()
        root = f"{root.rsplit(' ', 1)[0]} {source.edge_label[source.root] or '-'}"
        assert got.dump() == "\n".join([head, root, *rest])
        assert same(got_map, want_map)
        assert got_log == want_log


def test_binarize_keeps_the_root_label():
    problem, _, _ = parse_problem("tfsdp t\nr D - top\na T r x\nb T r y").binarize()
    text = problem.dump()
    assert text.splitlines()[1] == "r D - top"
    assert parse_problem(text).dump() == text


def test_the_corpus_reaches_every_branch():
    """Some trees are repaired, some binarized and some reordered, and the
    widest decision point has seven actions."""
    repaired = binarized = reordered = widest = 0
    for _, orders in CORPUS:
        rows = orders["given"]
        kids = {row.node_id: [] for row in rows}
        for row in rows[1:]:
            kids[row.parent].append(row.node_id)
        decisions = {row.node_id for row in rows if row.kind == DECISION}
        repaired += any(row.parent in decisions for row in rows if row.node_id in decisions)
        width = max((len(kids[node_id]) for node_id in decisions), default=0)
        binarized += width > 2
        widest = max(widest, width)
        shuffled = {node_id: [] for node_id in kids}
        for row in orders["random"][1:]:
            shuffled[row.parent].append(row.node_id)
        reordered += shuffled != kids
    assert repaired > 50 and binarized > 80 and reordered > 100 and widest == 7


D, O, T = DECISION, OBSERVATION, TERMINAL
ALTERNATE = ("; points must alternate and this shape is not repairable by dummy observation "
             "insertion")
ERRORS = [
    ("unknown_kind", [("a", "Q", None, None)], "node 'a': unknown kind 'Q'"),
    ("duplicate_id", [("a", D, None, None), ("t", T, "a", "x"), ("t", T, "a", "y")],
     "duplicate node id 't'"),
    ("multiple_roots", [("a", D, None, None), ("t", T, "a", "x"), ("u", T, "a", "y"),
                        ("b", T, None, None)], "multiple roots: 'a' and 'b'"),
    ("parent_not_defined", [("a", D, None, None), ("t", T, "zzz", "x"), ("u", T, "a", "y")],
     "node 't': parent 'zzz' not defined yet (parents must precede children)"),
    ("own_parent", [("a", T, "a", None)],
     "node 'a': parent 'a' not defined yet (parents must precede children)"),
    ("terminal_child", [("r", D, None, None), ("t", T, "r", "x"), ("u", T, "t", "y"),
                        ("v", T, "r", "z")], "terminal 't' has child 'u'"),
    ("no_root", [], "no root node (exactly one node must have parent '-')"),
    ("small_decision", [("a", D, None, None), ("t", T, "a", "only")],
     "decision point 'a' has 1 children (needs at least 2)"),
    ("empty_observation", [("r", D, None, None), ("o", O, "r", "x"), ("t", T, "r", "y")],
     "observation point 'o' has no children"),
    ("observation_under_observation", [("a", O, None, None), ("b", O, "a", "x"),
                                       ("t", T, "b", "y")],
     "observation point 'b' directly under observation point 'a'" + ALTERNATE),
    # two faults: the first bad row is named, row checks before child counts
    ("kind_before_duplicate_in_one_row", [("a", D, None, None), ("t", T, "a", "x"),
                                          ("t", "Q", "a", "y")], "node 't': unknown kind 'Q'"),
    ("duplicate_before_unknown_kind", [("a", D, None, None), ("t", T, "a", "x"),
                                       ("t", T, "a", "y"), ("u", "Q", "a", "z")],
     "duplicate node id 't'"),
    ("three_roots", [("a", T, None, None), ("b", T, None, None), ("c", T, None, None)],
     "multiple roots: 'a' and 'b'"),
    ("terminal_child_before_undefined_parent", [("r", D, None, None), ("t", T, "r", "x"),
                                                ("u", T, "t", "y"), ("v", T, "zzz", "z")],
     "terminal 't' has child 'u'"),
    ("row_check_before_child_count", [("a", D, None, None), ("t", T, "a", "x"),
                                      ("u", T, "zzz", "y")],
     "node 'u': parent 'zzz' not defined yet (parents must precede children)"),
    # d is the first bad row but b comes first breadth-first
    ("child_counts_in_row_order", [("r", O, None, None), ("a", D, "r", "x"), ("o", O, "a", "l"),
                                   ("d", D, "o", "m"), ("d1", T, "d", "n"), ("t", T, "a", "r"),
                                   ("b", D, "r", "y"), ("b1", T, "b", "p")],
     "decision point 'd' has 1 children (needs at least 2)"),
    ("observation_under_observation_before_a_later_empty_observation",
     [("a", O, None, None), ("d", D, "a", "x"), ("e", O, "d", "l"), ("t", T, "d", "r"),
      ("b", O, "a", "y")],
     "observation point 'b' directly under observation point 'a'" + ALTERNATE),
    ("observation_under_observation_before_empty_observation",
     [("a", D, None, None), ("o", O, "a", "x"), ("p", O, "o", "y"), ("t", T, "p", "z"),
      ("e", O, "a", "w")],
     "observation point 'p' directly under observation point 'o'" + ALTERNATE),
]


@pytest.mark.parametrize("name,rows,message", ERRORS, ids=[name for name, _, _ in ERRORS])
def test_a_structure_error_names_the_first_bad_row(name, rows, message):
    for build in (DecisionProblem, oracles.ReferenceProblem):
        with pytest.raises(StructureError, match=f"^{re.escape(message)}$"):
            build(rows)

import itertools
import random
from fractions import Fraction

import pytest

from tropfw import forests
from tropfw.covector import CovectorGraph, enumerate_bounded_cells
from tropfw.errors import InfeasibleError, ValidationError
from tropfw.forests import (SpanningForest, edge_weights, realize_cell,
                            spanning_forest, weights_from_forest)
from tropfw.fw import solve_fw
from tropfw.points import DataSet, WeightVector
from tropfw.transport import TransportationInstance, solve_transport

from .gen import random_dataset

RUNNING = DataSet.from_rows([[0, 0, 0], [1, -1, 0]])


def test_forest_of_acyclic_graph_is_identity():
    g = CovectorGraph(2, 3, frozenset({(0, 0), (1, 1), (1, 2)}))
    assert spanning_forest(g).edges == g.edges
    g2 = CovectorGraph(2, 3, frozenset({(0, 0), (0, 2), (1, 1), (1, 2)}))
    assert spanning_forest(g2).edges == g2.edges


def test_forest_of_four_cycle():
    g = CovectorGraph(2, 2, frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}))
    f = spanning_forest(g)
    assert f.edges == frozenset({(0, 0), (0, 1), (1, 0)})


def test_weights_running_example():
    f = spanning_forest(CovectorGraph(2, 3, frozenset({(0, 0), (1, 1), (1, 2)})))
    w = weights_from_forest(f, 3)
    assert tuple(w) == (Fraction(1, 3), Fraction(2, 3))
    lam = edge_weights(f, 3)
    assert all(v == Fraction(1, 3) for v in lam.values())

    f2 = spanning_forest(
        CovectorGraph(2, 3, frozenset({(0, 0), (0, 2), (1, 1), (1, 2)}))
    )
    w2 = weights_from_forest(f2, 3)
    assert tuple(w2) == (Fraction(1, 2), Fraction(1, 2))
    lam2 = edge_weights(f2, 3)
    assert lam2[(0, 2)] == Fraction(1, 6) and lam2[(1, 2)] == Fraction(1, 6)
    assert lam2[(0, 0)] == Fraction(1, 3) and lam2[(1, 1)] == Fraction(1, 3)


def test_single_point_weights():
    f = spanning_forest(CovectorGraph(1, 3, frozenset({(0, 0), (0, 1), (0, 2)})))
    assert tuple(weights_from_forest(f, 3)) == (Fraction(1),)


def test_lambda_sums_per_right_node():
    rng = random.Random(113)
    for _ in range(10):
        V = random_dataset(rng, rng.randint(2, 4), rng.randint(3, 4))
        for c in enumerate_bounded_cells(V):
            f = spanning_forest(c.graph)
            lam = edge_weights(f, V.n)
            for j in range(V.n):
                assert sum(
                    v for (a, b), v in lam.items() if b == j
                ) == Fraction(1, V.n)
            w = weights_from_forest(f, V.n)
            assert sum(w) == 1
            assert all(x > 0 for x in w)


def test_realize_cell_running_example():
    g = CovectorGraph(2, 3, frozenset({(0, 0), (1, 1), (1, 2)}))
    w, res = realize_cell(RUNNING, g)
    assert tuple(w) == (Fraction(1, 3), Fraction(2, 3))
    assert res.cell.graph == g
    assert res.cell.dim == 1

    g2 = CovectorGraph(2, 3, frozenset({(0, 0), (0, 2), (1, 1), (1, 2)}))
    w2, res2 = realize_cell(RUNNING, g2)
    assert tuple(w2) == (Fraction(1, 2), Fraction(1, 2))
    assert res2.cell.dim == 0


def test_realize_all_running_cells():
    for c in enumerate_bounded_cells(RUNNING):
        w, res = realize_cell(RUNNING, c.graph)
        assert res.cell.graph == c.graph
        assert res.vertices == c._vertices


def test_round_trip_random():
    rng = random.Random(127)
    for _ in range(5):
        V = random_dataset(rng, rng.randint(2, 4), 3)
        for c in enumerate_bounded_cells(V):
            w, res = realize_cell(V, c.graph)
            assert res.cell.graph == c.graph
            assert solve_fw(V, w).cell.graph == c.graph


def _all_spanning_forests(G):
    """Brute force: every edge subset of the right size with G's component
    partition."""
    size = G.m + G.n - G.component_count()
    for sub in itertools.combinations(sorted(G.edges), size):
        try:
            H = CovectorGraph(G.m, G.n, frozenset(sub))
        except ValidationError:  # a left node without an edge
            continue
        if H.components() == G.components():
            yield SpanningForest(G.m, G.n, H.edges, G.components())


def test_every_spanning_forest_realizes_its_cell():
    # realize_cell tries one forest only; on tied data, where cell graphs
    # have cycles, every other forest must realize the cell as well.
    rng = random.Random(139)
    cyclic = forests_checked = 0
    for _ in range(12):
        m, n = rng.randint(2, 4), rng.randint(3, 4)
        V = DataSet.from_rows(
            [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        )
        for c in enumerate_bounded_cells(V):
            if len(c.graph.edges) == m + n - c.graph.component_count():
                continue  # a forest already
            cyclic += 1
            for F in _all_spanning_forests(c.graph):
                w = weights_from_forest(F, n)
                assert solve_fw(V, w).cell.graph == c.graph
                forests_checked += 1
    assert cyclic >= 20 and forests_checked > cyclic


def test_non_cell_refused_after_one_forward_solve(monkeypatch):
    # The complete graph is not a cell of these three points.
    V = DataSet.from_rows([[0, 0, 0], [1, -1, 0], [2, 0, -1]])
    G = CovectorGraph(3, 3, frozenset(itertools.product(range(3), repeat=2)))
    calls = []

    def counted(V, w):
        calls.append(w)
        return solve_fw(V, w)

    monkeypatch.setattr(forests, "solve_fw", counted)
    with pytest.raises(InfeasibleError):
        realize_cell(V, G)
    assert len(calls) == 1


def test_barycenter_membership():
    # The forest's lambda-plan is feasible for (w, (1/n)1) with support in
    # G, and the transport solver confirms optimality within G.
    rng = random.Random(131)
    V = random_dataset(rng, 3, 3)
    for c in enumerate_bounded_cells(V):
        f = spanning_forest(c.graph)
        w = weights_from_forest(f, V.n)
        lam = edge_weights(f, V.n)
        inst = TransportationInstance.from_fw(V, w)
        # feasibility of the lambda-plan
        for i in range(V.m):
            assert sum(
                v for (a, b), v in lam.items() if a == i
            ) == inst.supplies[i]
        value = sum(inst.payoff[i][j] * v for (i, j), v in lam.items())
        plan, opt = solve_transport(inst)
        assert value == opt  # the lambda-plan is itself optimal
        if solve_fw(V, w).cell.graph == c.graph:
            support = {
                (i, j)
                for i in range(V.m)
                for j in range(V.n)
                if plan[i][j] > 0
            }
            assert support <= c.graph.edges


def test_non_spanning_forest_rejected():
    g = CovectorGraph(2, 3, frozenset({(0, 0), (1, 0)}))
    f = spanning_forest(g)
    with pytest.raises(ValidationError):
        weights_from_forest(f, 3)

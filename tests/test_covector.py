import itertools
import random
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropfw import lp
from tropfw.covector import (CovectorGraph, _descend_to_vertex,
                             _direction_rows, _walk_to_boundary,
                             cell_constraint_rows, cell_dim, cell_from_graph,
                             cell_vertices, covector_at,
                             enumerate_bounded_cells, in_tconv, pseudovertices,
                             tropical_projection)
from tropfw.errors import ScaleGuardError, ValidationError
from tropfw.fw import solve_fw
from tropfw.linalg import rank
from tropfw.points import DataSet, TropicalPoint, WeightVector, normalize

from .gen import random_dataset, random_point, random_weights

RUNNING = DataSet.from_rows([[0, 0, 0], [1, -1, 0]])


def test_graph_validation():
    with pytest.raises(ValidationError):
        CovectorGraph(2, 3, frozenset({(0, 0)}))  # left node 1 uncovered
    with pytest.raises(ValidationError):
        CovectorGraph(2, 3, frozenset({(0, 3), (1, 0)}))  # out of range


def test_graph_json_round_trip():
    g = CovectorGraph(2, 3, frozenset({(0, 0), (1, 1), (1, 2)}))
    assert CovectorGraph.from_json_dict(g.to_json_dict()) == g
    assert g.to_json_dict()["edges"] == [[1, 1], [2, 2], [2, 3]]


def test_covector_at_hand_values():
    x = normalize([Fraction(1, 3), Fraction(-2, 3), Fraction(1, 3)])
    g = covector_at(RUNNING, x)
    # row 0: argmax of (1/3,-2/3,1/3) -> {0,2}; row 1: x - (1,-1,0) ->
    # (-2/3,1/3,1/3) -> {1,2}
    assert g.edges == frozenset({(0, 0), (0, 2), (1, 1), (1, 2)})


def test_covector_weight_independent_of_representative():
    rng = random.Random(21)
    for _ in range(30):
        V = random_dataset(rng, 3, 3)
        x = random_point(rng, 3)
        shifted = normalize(x.shifted(Fraction(7, 3)))
        assert covector_at(V, x) == covector_at(V, shifted)


def test_running_example_cells():
    cells = enumerate_bounded_cells(RUNNING)
    assert len(cells) == 5
    dims = sorted(c.dim for c in cells)
    assert dims == [0, 0, 0, 1, 1]
    by_edges = {c.graph.edges: c for c in cells}
    seg = by_edges[frozenset({(0, 0), (1, 1), (1, 2)})]
    assert [v.coords for v in cell_vertices(seg)] == [
        (Fraction(1, 3), Fraction(-2, 3), Fraction(1, 3)),
        (Fraction(1), Fraction(-1), Fraction(0)),
    ]
    apex = by_edges[frozenset({(0, 0), (0, 2), (1, 1), (1, 2)})]
    assert apex.dim == 0
    assert cell_vertices(apex)[0].coords == (
        Fraction(1, 3), Fraction(-2, 3), Fraction(1, 3),
    )


def test_pseudovertices_contain_data_points():
    rng = random.Random(13)
    for _ in range(10):
        V = random_dataset(rng, 3, 3)
        pv = pseudovertices(V)
        pts = set(pv.values())
        for v in V:
            assert v in pts
        for g, p in pv.items():
            assert g.component_count() == 1
            assert covector_at(V, p) == g


def _grid_points(n, lo, hi, den):
    vals = [Fraction(k, den) for k in range(lo * den, hi * den + 1)]
    for combo in itertools.product(vals, repeat=n - 1):
        yield normalize(list(combo) + [Fraction(0)])


def test_enumeration_against_sampling_oracle():
    # Every bounded covector graph hit by a dense grid must be enumerated,
    # and every enumerated witness must realize its graph.
    rng = random.Random(31)
    for _ in range(6):
        V = random_dataset(rng, rng.randint(2, 3), 3, max_den=2)
        cells = enumerate_bounded_cells(V)
        enumerated = {c.graph for c in cells}
        for x in _grid_points(3, -14, 14, 4):
            g = covector_at(V, x)
            if g.right_covered():
                assert g in enumerated
        for c in cells:
            assert covector_at(V, c.witness) == c.graph
            assert c.graph.right_covered()


def test_cell_dim_rank_vs_components():
    # Oracle: n - 1 minus the rank of the cell's equality system.
    rng = random.Random(37)
    for _ in range(15):
        V = random_dataset(rng, rng.randint(2, 4), rng.randint(3, 4))
        for c in enumerate_bounded_cells(V):
            eqs, _ = cell_constraint_rows(V, c.graph)
            by_rank = V.n - 1 - rank([list(coeffs) for coeffs, _ in eqs])
            assert c.dim == cell_dim(V, c.graph) == by_rank


def test_cells_partition_dimensions_and_vertices():
    rng = random.Random(41)
    for _ in range(8):
        V = random_dataset(rng, rng.randint(2, 4), 3)
        cells = enumerate_bounded_cells(V)
        for c in cells:
            verts = cell_vertices(c)
            assert len(verts) >= c.dim + 1
            for v in verts:
                g = covector_at(V, v)
                assert c.graph.edges <= g.edges
                # vertex satisfies the closed-cell constraints
                eqs, ineqs = cell_constraint_rows(V, c.graph)
                for coeffs, rhs in eqs:
                    assert sum(a * b for a, b in zip(coeffs, v.coords)) == rhs
                for coeffs, rhs in ineqs:
                    assert sum(a * b for a, b in zip(coeffs, v.coords)) >= rhs


def test_cell_from_graph_matches_enumeration():
    rng = random.Random(43)
    V = random_dataset(rng, 3, 3)
    for c in enumerate_bounded_cells(V):
        rebuilt = cell_from_graph(V, c.graph)
        assert not rebuilt.is_empty
        assert rebuilt.dim == c.dim
        assert rebuilt.bounded
        assert covector_at(V, rebuilt.witness) == c.graph
        assert cell_vertices(rebuilt) == cell_vertices(c)


def test_cell_from_graph_empty_marker():
    # Row 0 tied on {0,1} forces x0 - x1 == 0, but row 1 tied on {0,1}
    # forces x0 - x1 == -2: infeasible.
    V = DataSet.from_rows([[0, 0, 0], [1, -1, 0]])
    g = CovectorGraph(2, 3, frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}))
    assert cell_from_graph(V, g).is_empty


def test_cell_from_graph_unrealizable_marker():
    # Feasible closed polyhedron whose every point carries extra ties.
    V = DataSet.from_rows([[0, 0, 0], [0, 0, 0]])
    g = CovectorGraph(2, 3, frozenset({(0, 0), (1, 0), (1, 1)}))
    assert cell_from_graph(V, g).is_empty


def _bounded_by_lp(V, G):
    """Oracle: the cell is bounded iff no coordinate grows without bound
    on it (n LPs over the cell's constraints)."""
    eqs, ineqs = cell_constraint_rows(V, G)
    prog = lp.LinearProgram()
    for j in range(V.n):
        prog.add_var(f"x{j}")
    prog.add_eq({f"x{j}": 1 for j in range(V.n)}, 0)
    for coeffs, rhs in eqs:
        prog.add_eq({f"x{j}": c for j, c in enumerate(coeffs)}, rhs)
    for coeffs, rhs in ineqs:
        prog.add_ge({f"x{j}": c for j, c in enumerate(coeffs)}, rhs)
    results = prog.solve_sequence([({f"x{j}": 1}, True) for j in range(V.n)])
    return all(r.status != lp.UNBOUNDED for r in results)


def test_boundedness_lp_agrees_with_right_cover():
    rng = random.Random(47)
    bounded = 0
    for _ in range(25):
        V = random_dataset(rng, rng.randint(2, 3), 3)
        x = random_point(rng, 3)
        # x itself, and its projection onto the hull (a bounded cell)
        for y in (x, normalize(tropical_projection(V, x))):
            g = covector_at(V, y)
            cell = cell_from_graph(V, g)
            assert not cell.is_empty
            assert cell.bounded == g.right_covered() == _bounded_by_lp(V, g)
            bounded += cell.bounded
    assert 25 <= bounded < 50  # both answers occur


def test_in_tconv_routes_agree():
    # Oracle: x lies in the hull iff the tropical projection fixes it.
    rng = random.Random(53)
    for _ in range(25):
        V = random_dataset(rng, rng.randint(2, 4), 3)
        x = random_point(rng, 3)
        assert in_tconv(V, x) == (tropical_projection(V, x) == x.coords)
    # Data points always lie in their own hull.
    V = random_dataset(rng, 3, 4)
    for v in V:
        assert in_tconv(V, v) and tropical_projection(V, v) == v.coords


def test_projection_dominates_and_is_idempotent():
    rng = random.Random(59)
    for _ in range(25):
        V = random_dataset(rng, 3, 3)
        x = random_point(rng, 3)
        p = tropical_projection(V, x)
        assert all(a >= b for a, b in zip(p, x.coords))
        q = normalize(p)
        assert tropical_projection(V, q) == q.coords


def test_scale_guard():
    rng = random.Random(61)
    V = random_dataset(rng, 6, 4)
    with pytest.raises(ScaleGuardError):
        enumerate_bounded_cells(V)


def test_dim_zero_cells_have_unique_point():
    rng = random.Random(67)
    V = random_dataset(rng, 3, 3)
    for c in enumerate_bounded_cells(V):
        if c.dim == 0:
            verts = cell_vertices(c)
            assert len(verts) == 1
            assert verts[0] == c.witness


def _scan_vertices(cell):
    """Oracle: the vertex walk with every proper coordinate subset as a
    direction at every vertex, 2^n - 2 of them."""
    V, G = cell.data, cell.graph
    v0, G0 = _descend_to_vertex(V, cell.witness)
    verts = {G0: v0}
    queue = deque([(G0, v0)])
    while queue:
        Gp, p = queue.popleft()
        for size in range(1, V.n):
            for S in itertools.combinations(range(V.n), size):
                S = frozenset(S)
                rows_h = _direction_rows(Gp, S)
                H = CovectorGraph(V.m, V.n, frozenset(
                    (i, j) for i, row in enumerate(rows_h) for j in row))
                if not G.edges <= H.edges or H.component_count() != 2:
                    continue
                q = _walk_to_boundary(V, p, rows_h, S)
                assert q is not None
                Gq = covector_at(V, q)
                if Gq not in verts:
                    verts[Gq] = q
                    queue.append((Gq, q))
    return sorted(verts.values(), key=lambda t: t.coords)


def _walk_matches_scan(cell):
    cached = cell._vertices
    cell._vertices = None  # force the walk instead of the cached list
    walked = cell_vertices(cell)
    assert walked == _scan_vertices(cell)
    if cached is not None:
        assert walked == cached
    return walked


def test_vertex_walk_matches_subset_scan_on_enumerated_cells():
    rng = random.Random(71)
    shapes = [(2, 7), (3, 6), (4, 5), (5, 4), (6, 3), (3, 4), (2, 5)]
    cells = 0
    for m, n in shapes * 2:
        V = random_dataset(rng, m, n, max_den=rng.choice([1, 12]))
        for c in enumerate_bounded_cells(V):
            _walk_matches_scan(c)
            cells += 1
    assert cells > 500


def test_vertex_walk_matches_subset_scan_on_fw_cells():
    rng = random.Random(73)
    for _ in range(25):
        m, n = rng.randint(2, 8), rng.randint(3, 7)
        V = random_dataset(rng, m, n, max_den=rng.choice([1, 4]))
        w = random_weights(rng, m) if rng.random() < 0.5 else WeightVector.uniform(m)
        res = solve_fw(V, w)
        assert _walk_matches_scan(res.cell) == res.vertices


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 4).flatmap(lambda m: st.integers(3, 5).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                     min_size=m, max_size=m),
            st.lists(st.integers(-6, 6), min_size=n, max_size=n),
        )))
)
def test_vertex_walk_matches_subset_scan_property(data):
    rows, probe = data
    V = DataSet.from_rows(rows)
    x = normalize(tropical_projection(V, normalize(probe)))
    cell = cell_from_graph(V, covector_at(V, x))
    assert cell.bounded and not cell.is_empty
    verts = _walk_matches_scan(cell)
    assert len(verts) >= cell.dim + 1

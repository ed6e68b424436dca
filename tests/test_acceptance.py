"""The ten acceptance criteria, one test each.

Each test prints a single pass/fail line (bypassing capture) so the
criterion status is visible in any test log.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from tropfw.cli import main as cli_main
from tropfw.covector import covector_at, enumerate_bounded_cells
from tropfw.forests import edge_weights, realize_cell, spanning_forest
from tropfw.fw import solve_fw
from tropfw.points import DataSet, TropicalPoint, WeightVector, normalize
from tropfw.signomial import (TropicalLinearForm, WeightedObjective, argmax_set,
                              eval_objective, on_hypersurface)
from tropfw.transport import central_cayley_cell
from tropfw.trees import (check_pareto, consensus, rooted_triples,
                          tree_to_ultrametric, ultrametric_to_tree)

from .gen import random_dataset, random_tree, random_weights
from .test_trees import _permute_tree

RUNNING = DataSet.from_rows([[0, 0, 0], [1, -1, 0]])


@contextmanager
def criterion(capsys, num, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {num:2d} ({label}): FAIL")
        raise
    with capsys.disabled():
        print(f"criterion {num:2d} ({label}): PASS")


def _grid_min(V, w, step, radius):
    obj = WeightedObjective(V, w)
    den = step.denominator
    vals = [Fraction(k, den) for k in range(-radius * den, radius * den + 1)]
    best = None
    for combo in itertools.product(vals, repeat=V.n - 1):
        v = eval_objective(obj, normalize(list(combo) + [Fraction(0)]))
        if best is None or v < best:
            best = v
    return best


def test_criterion_1_running_example_weighted(capsys):
    with criterion(capsys, 1, "weighted running example"):
        t0 = time.monotonic()
        w = WeightVector((Fraction(1, 3), Fraction(2, 3)))
        res = solve_fw(RUNNING, w)
        assert res.optimal_value == Fraction(1, 3)
        assert res.cell.graph.edges == frozenset({(0, 0), (1, 1), (1, 2)})
        assert [v.coords for v in res.vertices] == [
            (Fraction(1, 3), Fraction(-2, 3), Fraction(1, 3)),
            (Fraction(1), Fraction(-1), Fraction(0)),
        ]
        assert time.monotonic() - t0 < 1.0
        # oracle brackets (and here attains) the optimum
        assert _grid_min(RUNNING, w, Fraction(1, 12), 4) == Fraction(1, 3)


def test_criterion_2_running_example_unweighted(capsys):
    with criterion(capsys, 2, "unweighted central cell"):
        t0 = time.monotonic()
        res = solve_fw(RUNNING, WeightVector.uniform(2))
        assert res.cell.dim == 0
        assert res.witness.coords == (
            Fraction(1, 3), Fraction(-2, 3), Fraction(1, 3),
        )
        assert res.cell.graph.edges == frozenset(
            {(0, 0), (0, 2), (1, 1), (1, 2)}
        )
        assert time.monotonic() - t0 < 1.0


def test_criterion_3_cell_census(capsys, tmp_path):
    with criterion(capsys, 3, "bounded cell census"):
        t0 = time.monotonic()
        pts = tmp_path / "pts.json"
        pts.write_text('[["0","0","0"],["1","-1","0"]]')
        out = tmp_path / "cells.json"
        assert cli_main(["cells", str(pts), "--out", str(out)]) == 0
        cells = json.loads(out.read_text())
        assert len(cells) == 5
        assert sorted(c["dim"] for c in cells) == [0, 0, 0, 1, 1]
        assert time.monotonic() - t0 < 1.0


def _corpus():
    rng = random.Random(20240)
    out = []
    for _ in range(200):
        m, n = rng.randint(2, 5), rng.choice([3, 4])
        out.append((random_dataset(rng, m, n), random_weights(rng, m)))
    return out


def test_criterion_4_round_trip(capsys):
    with criterion(capsys, 4, "enumerate/realize round trip, 200 instances"):
        t0 = time.monotonic()
        for V, w in _corpus():
            cells = enumerate_bounded_cells(V)
            graphs = {c.graph for c in cells}
            res = solve_fw(V, w)
            assert res.cell.bounded
            assert res.cell.graph in graphs
            for c in cells:
                w2, r2 = realize_cell(V, c.graph)
                assert r2.cell.graph == c.graph
        assert time.monotonic() - t0 < 300


def test_criterion_5_forest_weight_identities(capsys):
    with criterion(capsys, 5, "forest weight identities"):
        for V, _ in _corpus():
            for c in enumerate_bounded_cells(V):
                f = spanning_forest(c.graph)
                lam = edge_weights(f, V.n)
                for j in range(V.n):
                    assert sum(
                        v for (a, b), v in lam.items() if b == j
                    ) == Fraction(1, V.n)
                ws = [Fraction(0)] * V.m
                for (i, _), v in lam.items():
                    ws[i] += v
                assert sum(ws) == 1
                assert all(x > 0 for x in ws)


def test_criterion_6_dual_method_agreement(capsys):
    with criterion(capsys, 6, "lp/transport agreement"):
        for V, w in _corpus():
            res = solve_fw(V, w)
            cc = central_cayley_cell(V, w)
            assert cc.support == res.cell.graph
            assert cc.optimal_value == res.optimal_value


def test_criterion_7_weight_invariance(capsys):
    with criterion(capsys, 7, "weight-invariant ties, 1000 samples"):
        rng = random.Random(777)
        # a separate stream, so the sampled instances do not depend on it
        shift_rng = random.Random(7777)
        for _ in range(1000):
            m, n = rng.randint(2, 4), rng.randint(3, 4)
            V = random_dataset(rng, m, n, max_den=4)
            x = normalize(
                [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(n)]
            )
            w1, w2 = random_weights(rng, m), random_weights(rng, m)
            # the covector does not depend on the representative of x
            g = covector_at(V, x)
            shifted = x.shifted(
                Fraction(shift_rng.randint(-8, 8), shift_rng.randint(1, 4))
            )
            for i, v in enumerate(V):
                assert g.rows[i] == argmax_set(TropicalLinearForm(v), shifted)
            h1 = on_hypersurface(WeightedObjective(V, w1), x)
            h2 = on_hypersurface(WeightedObjective(V, w2), x)
            assert h1 == h2
            assert h1 == any(
                len(argmax_set(TropicalLinearForm(v), x)) >= 2 for v in V
            )


def test_criterion_8_generic_weights_give_points(capsys):
    with criterion(capsys, 8, "generic weights yield dim-0 cells"):
        rng = random.Random(8888)
        for _ in range(100):
            m, n = rng.randint(2, 5), rng.choice([3, 4])
            V = random_dataset(rng, m, n)
            # large random denominators make the weights generic
            raw = [10**6 + rng.randint(1, 10**6) for _ in range(m)]
            w = WeightVector.normalized(raw)
            res = solve_fw(V, w)
            assert res.cell.dim == 0
            assert len(res.vertices) == 1


def test_criterion_9_consensus_regularity_and_pareto(capsys):
    with criterion(capsys, 9, "consensus regularity and Pareto, 200 instances"):
        t0 = time.monotonic()
        rng = random.Random(9090)
        for _ in range(200):
            n = rng.randint(3, 5)
            m = rng.randint(2, 4)
            trees = [random_tree(rng, n) for _ in range(m)]
            w = random_weights(rng, m)
            # consensus of copies is the identity
            assert consensus([trees[0]] * m, w) == trees[0]
            cons = consensus(trees, w)
            # input-order equivariance
            order = list(range(m))
            rng.shuffle(order)
            assert consensus(
                [trees[i] for i in order],
                WeightVector(tuple(w[i] for i in order)),
            ) == cons
            # taxa-permutation equivariance
            labels = list(range(1, n + 1))
            shuffled = labels[:]
            rng.shuffle(shuffled)
            sigma = dict(zip(labels, shuffled))
            assert consensus(
                [_permute_tree(t, sigma) for t in trees], w
            ) == _permute_tree(cons, sigma)
            # rooted-triple conservation
            report = check_pareto(trees, w, cons)
            assert not report.pareto_violations
            assert not report.co_pareto_violations
        assert time.monotonic() - t0 < 300


def test_criterion_10_ultrametric_round_trip(capsys):
    with criterion(capsys, 10, "tree/ultrametric round trip, 500 trees"):
        rng = random.Random(1010)
        for _ in range(500):
            t = random_tree(rng, rng.randint(2, 8))
            u = tree_to_ultrametric(t)
            back = ultrametric_to_tree(u)
            assert back == t
            assert tree_to_ultrametric(back) == u

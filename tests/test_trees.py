import itertools
import random
import time
from collections import deque
from fractions import Fraction

import pytest

from tropfw.errors import ParseError, ValidationError
from tropfw.points import WeightVector, normalize
from tropfw.trees import (ParetoReport, PhyloTree, TreeNode, Ultrametric,
                          check_pareto, check_ultrametric, consensus,
                          pair_index, pair_order, parse_newick, rooted_triples,
                          tree_point, tree_to_ultrametric, ultrametric_to_tree,
                          write_newick)

from .gen import random_tree, random_weights


def cherry3(h1=Fraction(1), h2=Fraction(2)) -> PhyloTree:
    c = TreeNode(children=((TreeNode(leaf=1), h1), (TreeNode(leaf=2), h1)))
    return PhyloTree(
        3, TreeNode(children=((c, h2 - h1), (TreeNode(leaf=3), h2)))
    )


def test_pair_indexing():
    order = pair_order(4)
    assert order == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    for idx, (i, j) in enumerate(order):
        assert pair_index(i, j, 4) == idx


def test_check_ultrametric_examples():
    assert check_ultrametric(Ultrametric(3, (Fraction(2),) * 3))
    assert check_ultrametric(Ultrametric(3, (Fraction(1), Fraction(2), Fraction(2))))
    assert not check_ultrametric(
        Ultrametric(3, (Fraction(1), Fraction(2), Fraction(3)))
    )


def test_cherry_distances():
    u = tree_to_ultrametric(cherry3())
    assert u.values == (Fraction(2), Fraction(4), Fraction(4))


def test_star_tree_distances():
    h = Fraction(5, 2)
    root = TreeNode(
        children=tuple((TreeNode(leaf=i), h) for i in range(1, 5))
    )
    u = tree_to_ultrametric(PhyloTree(4, root))
    assert all(v == 2 * h for v in u.values)


def _bfs_path_lengths(tree: PhyloTree):
    """Independent oracle: build an adjacency list and BFS path sums."""
    adj = {}
    counter = itertools.count(-1, -1)

    def build(node):
        key = node.leaf if node.leaf is not None else next(counter)
        adj.setdefault(key, [])
        for child, length in node.children:
            ck = build(child)
            adj[key].append((ck, length))
            adj[ck].append((key, length))
        return key

    build(tree.root)
    n = tree.n_leaves
    out = {}
    for i in range(1, n + 1):
        dist = {i: Fraction(0)}
        queue = deque([i])
        while queue:
            a = queue.popleft()
            for b, length in adj[a]:
                if b not in dist:
                    dist[b] = dist[a] + length
                    queue.append(b)
        for j in range(i + 1, n + 1):
            out[(i, j)] = dist[j]
    return out


def test_caterpillar_against_bfs_oracle():
    rng = random.Random(137)
    for _ in range(25):
        t = random_tree(rng, rng.randint(3, 6))
        u = tree_to_ultrametric(t)
        oracle = _bfs_path_lengths(t)
        for (i, j), d in oracle.items():
            assert u.d(i, j) == d


def test_non_equidistant_rejected():
    root = TreeNode(
        children=((TreeNode(leaf=1), Fraction(1)), (TreeNode(leaf=2), Fraction(2)))
    )
    with pytest.raises(ValidationError):
        tree_to_ultrametric(PhyloTree(2, root))


def test_reconstruction_examples():
    t = ultrametric_to_tree(Ultrametric(3, (Fraction(2), Fraction(4), Fraction(4))))
    assert t == cherry3()
    star = ultrametric_to_tree(Ultrametric(3, (Fraction(2),) * 3))
    assert len(star.root.children) == 3
    with pytest.raises(ValidationError):
        ultrametric_to_tree(Ultrametric(3, (Fraction(1), Fraction(2), Fraction(3))))


def test_round_trip_many_random_trees():
    rng = random.Random(139)
    for _ in range(150):
        t = random_tree(rng, rng.randint(2, 8))
        u = tree_to_ultrametric(t)
        assert check_ultrametric(u)
        back = ultrametric_to_tree(u)
        assert back == t  # exact topology and branch lengths
        assert tree_to_ultrametric(back) == u


def test_newick_round_trip():
    rng = random.Random(149)
    for _ in range(40):
        t = random_tree(rng, rng.randint(2, 7))
        assert parse_newick(write_newick(t)) == t
    assert write_newick(cherry3()) == "((1:1,2:1):1,3:2);"


def test_newick_parse_errors():
    assert parse_newick("((1:1,2:1):1,3:2)") == cherry3()  # ';' optional
    with pytest.raises(ParseError):
        parse_newick("((1:1,2:1):1,4:2);")  # labels must be 1..n
    with pytest.raises(ParseError):
        parse_newick("((1:1,2):1,3:2);")  # missing length
    with pytest.raises(ParseError):
        parse_newick("((a:1,b:1):1,c:2);")


def test_rooted_triples_examples():
    assert rooted_triples(cherry3()) == frozenset({((1, 2), 3)})
    star = ultrametric_to_tree(Ultrametric(3, (Fraction(2),) * 3))
    assert rooted_triples(star) == frozenset()
    # caterpillar (((1,2),3),4)
    u = Ultrametric(
        4,
        (
            Fraction(2), Fraction(4), Fraction(6),
            Fraction(4), Fraction(6), Fraction(6),
        ),
    )
    cat = ultrametric_to_tree(u)
    assert rooted_triples(cat) == frozenset(
        {((1, 2), 3), ((1, 2), 4), ((1, 3), 4), ((2, 3), 4)}
    )


def test_tree_point_is_negated_ultrametric():
    t = cherry3()
    p = tree_point(t)
    assert p.point == normalize([-2, -4, -4])


def test_consensus_of_copies_is_identity():
    rng = random.Random(151)
    for _ in range(20):
        n = rng.randint(3, 5)
        t = random_tree(rng, n)
        m = rng.randint(2, 4)
        w = random_weights(rng, m)
        assert consensus([t] * m, w) == t


def test_consensus_same_topology_inputs():
    a = cherry3(Fraction(1), Fraction(2))
    b = cherry3(Fraction(2), Fraction(5))
    cons = consensus([a, b], WeightVector.uniform(2))
    assert rooted_triples(cons) == frozenset({((1, 2), 3)})


def test_consensus_input_order_invariance():
    rng = random.Random(157)
    for _ in range(10):
        n = rng.randint(3, 5)
        trees = [random_tree(rng, n) for _ in range(3)]
        w = random_weights(rng, 3)
        cons = consensus(trees, w)
        perm = [2, 0, 1]
        cons2 = consensus(
            [trees[i] for i in perm], WeightVector(tuple(w[i] for i in perm))
        )
        assert cons == cons2


def _permute_tree(t: PhyloTree, sigma: dict) -> PhyloTree:
    def rec(node):
        if node.leaf is not None:
            return TreeNode(leaf=sigma[node.leaf])
        kids = tuple((rec(c), length) for c, length in node.children)
        from tropfw.trees import _node

        return _node(kids)

    return PhyloTree(t.n_leaves, rec(t.root))


def test_consensus_taxa_equivariance():
    rng = random.Random(163)
    for _ in range(8):
        n = rng.randint(3, 5)
        trees = [random_tree(rng, n) for _ in range(3)]
        w = random_weights(rng, 3)
        labels = list(range(1, n + 1))
        shuffled = labels[:]
        rng.shuffle(shuffled)
        sigma = dict(zip(labels, shuffled))
        cons = consensus(trees, w)
        cons_perm = consensus([_permute_tree(t, sigma) for t in trees], w)
        assert cons_perm == _permute_tree(cons, sigma)


def test_fw_vertices_are_trees():
    # every vertex of the FW cell is itself a valid (negated) ultrametric
    from tropfw.fw import solve_fw
    from tropfw.points import DataSet

    rng = random.Random(167)
    for _ in range(10):
        n = rng.randint(3, 5)
        trees = [random_tree(rng, n) for _ in range(3)]
        w = random_weights(rng, 3)
        V = DataSet(tuple(tree_point(t).point for t in trees))
        res = solve_fw(V, w)
        for v in res.vertices:
            u = Ultrametric(n, tuple(-c for c in v.coords))
            assert check_ultrametric(u)


def test_pareto_and_co_pareto():
    rng = random.Random(173)
    for _ in range(30):
        n = rng.randint(3, 5)
        m = rng.randint(2, 4)
        trees = [random_tree(rng, n) for _ in range(m)]
        w = random_weights(rng, m)
        cons = consensus(trees, w)
        report = check_pareto(trees, w, cons)
        assert report.ok, (report, [write_newick(t) for t in trees])


def test_pareto_identical_trees():
    t = cherry3()
    rep = check_pareto([t, t], WeightVector.uniform(2), consensus([t, t], WeightVector.uniform(2)))
    assert isinstance(rep, ParetoReport) and rep.ok


def test_consensus_of_8_leaf_trees(monkeypatch):
    # n = C(8, 2) = 28 coordinates: a scan of all 2^28 - 2 coordinate
    # subsets per vertex would not finish; the vertex walk tries only the
    # 2^c - 2 unions of the cell graph's c components.
    from tropfw import covector, fw

    calls = {"directions": 0, "walks": 0}
    cells = []
    direction_rows, walk = covector._direction_rows, covector._walk_to_boundary
    vertices_of = fw.cell_vertices

    def counted_directions(*args):
        calls["directions"] += 1
        return direction_rows(*args)

    def counted_walk(*args):
        calls["walks"] += 1
        return walk(*args)

    def recorded(cell):
        before = dict(calls)
        verts = vertices_of(cell)
        cells.append((cell.graph.component_count(), len(verts),
                      calls["directions"] - before["directions"],
                      calls["walks"] - before["walks"]))
        return verts

    monkeypatch.setattr(covector, "_direction_rows", counted_directions)
    monkeypatch.setattr(covector, "_walk_to_boundary", counted_walk)
    monkeypatch.setattr(fw, "cell_vertices", recorded)
    t0 = time.monotonic()
    for seed in (3, 8, 9):
        rng = random.Random(seed)
        m = 2 + seed % 2
        trees = [random_tree(rng, 8) for _ in range(m)]
        w = WeightVector.normalized([Fraction(rng.randint(1, 4)) for _ in range(m)])
        cons = consensus(trees, w)
        assert check_ultrametric(tree_to_ultrametric(cons))
        assert check_pareto(trees, w, cons).ok
    assert time.monotonic() - t0 < 60
    assert len(cells) == 3 and max(c for c, _, _, _ in cells) == 2
    for c, n_verts, directions, walks in cells:
        assert directions == n_verts * (2 ** c - 2)
        # walks along cell edges plus at most two per descent step
        assert walks <= directions + 2 * (c - 1)

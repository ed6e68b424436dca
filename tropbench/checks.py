"""Checkers computed apart from the program under test.

Standard library only; nothing here imports tropfw.  Points are tuples of
``Fraction``, graphs are frozensets of 0-indexed (i, j) edges, trees are
Newick strings parsed by the small parser below.

The optimality certificate is weak duality for the transportation dual:
for any plan p >= 0 with row sums w_i and column sums 1/n, and any
zero-sum x,

    sum_i w_i max_j (x_j - v_ij) >= sum_ij p_ij (x_j - v_ij) = -sum_ij p_ij v_ij,

so a feasible plan whose payoff equals the objective at x proves x
optimal, whatever solver produced either of them.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

from gen import tropically_generic


class CheckFailed(Exception):
    """An output failed one of the benchmark's checks."""


def require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


# -- arithmetic ------------------------------------------------------------


def zero_sum(vec) -> tuple:
    mean = sum(vec, Fraction(0)) / len(vec)
    return tuple(Fraction(c) - mean for c in vec)


def objective(V, w, x) -> Fraction:
    """sum_i w_i max_j (x_j - v_ij), exactly."""
    return sum(
        (wi * max(a - b for a, b in zip(x, v)) for wi, v in zip(w, V)),
        Fraction(0),
    )


def graph_at(V, x) -> frozenset:
    """Covector graph of x: per row i the argmax set of x_j - v_ij."""
    edges = []
    for i, v in enumerate(V):
        diffs = [a - b for a, b in zip(x, v)]
        top = max(diffs)
        edges.extend((i, j) for j, d in enumerate(diffs) if d == top)
    return frozenset(edges)


def components(m: int, n: int, edges) -> int:
    """Connected components of the bipartite graph, isolated nodes included."""
    parent = list(range(m + n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in edges:
        parent[find(i)] = find(m + j)
    return len({find(a) for a in range(m + n)})


def certificate(V, w, plan, x, value=None):
    """Check the transportation plan and that its payoff equals the
    objective at x (and the reported value, if given)."""
    m, n = len(V), len(V[0])
    require(len(plan) == m and all(len(r) == n for r in plan), "plan shape")
    require(all(p >= 0 for r in plan for p in r), "plan has a negative entry")
    require(all(sum(r) == wi for r, wi in zip(plan, w)), "plan row sums != w")
    for j in range(n):
        require(sum(plan[i][j] for i in range(m)) == Fraction(1, n),
                "plan column sums != 1/n")
    payoff = -sum(
        (plan[i][j] * V[i][j] for i in range(m) for j in range(n)), Fraction(0)
    )
    require(objective(V, w, x) == payoff,
            f"objective at x {objective(V, w, x)} != plan payoff {payoff}")
    if value is not None:
        require(value == payoff, f"reported value {value} != plan payoff {payoff}")
    return payoff


# -- forward ---------------------------------------------------------------


def check_forward(V, w, plan, ans):
    """ans: value, graph, dim, vertices, witness, cc_value, cc_graph."""
    m, n = len(V), len(V[0])
    G = ans["graph"]
    require(ans["vertices"], "no vertices")
    require(len(set(ans["vertices"])) == len(ans["vertices"]), "repeated vertex")
    for pt in [ans["witness"], *ans["vertices"]]:
        require(len(pt) == n and sum(pt) == 0, "point is not zero-sum in R^n")
    certificate(V, w, plan, ans["witness"], ans["value"])
    require(graph_at(V, ans["witness"]) == G, "witness graph != cell graph")
    require(ans["dim"] == components(m, n, G) - 1, "dim != components - 1")
    for v in ans["vertices"]:
        certificate(V, w, plan, v)
        gv = graph_at(V, v)
        require(G <= gv, "a vertex's graph does not contain the cell graph")
        require(components(m, n, gv) == 1, "a vertex is not a 0-cell")
    require(ans["cc_graph"] == G, "transport support != cell graph")
    require(ans["cc_value"] == ans["value"], "transport value != value")


# -- census ----------------------------------------------------------------


def generic_f_vector(m: int, n: int) -> dict:
    """Develin-Sturmfels: f_k = C(m+n-k-2, m-1) * C(m-1, k)."""
    return {k: comb(m + n - k - 2, m - 1) * comb(m - 1, k)
            for k in range(min(m, n))}


def check_census(rows, probes, cells):
    """rows: raw data; probes: hull points; cells: [(graph, dim, vertices)]."""
    V = [zero_sum(r) for r in rows]
    m, n = len(V), len(V[0])
    graphs = [g for g, _, _ in cells]
    require(len(set(graphs)) == len(graphs), "repeated cell graph")
    for g, dim, verts in cells:
        require(dim == components(m, n, g) - 1, "dim != components - 1")
        require(verts, "cell without vertices")
        for v in verts:
            gv = graph_at(V, v)
            require(g <= gv and components(m, n, gv) == 1,
                    "cell vertex is not a 0-cell of its face lattice")
        avg = tuple(sum(c) / len(verts) for c in zip(*verts))
        require(graph_at(V, avg) == g, "vertex average leaves the cell")
    euler = sum((-1) ** dim for _, dim, _ in cells)
    require(euler == 1, f"Euler characteristic {euler} != 1")
    if tropically_generic(rows):
        fv = Counter(dim for _, dim, _ in cells)
        require(dict(fv) == generic_f_vector(m, n),
                f"f-vector {dict(fv)} != {generic_f_vector(m, n)}")
    known = set(graphs)
    for p in probes:
        require(graph_at(V, zero_sum(p)) in known, "a hull point has no cell")


# -- inverse ---------------------------------------------------------------


def check_inverse(V, x, target, plan_for, support_for, ans):
    """ans: weights, value, graph.  ``plan_for(w)`` and ``support_for(w)``
    give an optimal transportation plan and the transport route's cell
    graph under the returned weights."""
    w = ans["weights"]
    require(len(w) == len(V), "one weight per data point")
    require(all(wi > 0 for wi in w) and sum(w) == 1,
            "weights not positive or not summing to 1")
    certificate(V, w, plan_for(w), x, ans["value"])
    require(ans["graph"] == target, "verified graph != target")
    require(support_for(w) == target, "transport support under w != target")


# -- consensus -------------------------------------------------------------

_TOKEN = re.compile(r"\s*([(),;:]|[^\s(),;:]+)")


def parse_tree(text: str):
    """Newick -> nested (children, length) structure; leaves are ints."""
    toks = _TOKEN.findall(text)
    pos = 0

    def node():
        nonlocal pos
        if toks[pos] == "(":
            pos += 1
            kids = []
            while True:
                child = node()
                require(toks[pos] == ":", "branch without a length")
                kids.append((child, Fraction(toks[pos + 1])))
                pos += 2
                tok = toks[pos]
                pos += 1
                if tok == ")":
                    return tuple(kids)
                require(tok == ",", f"bad Newick token {tok!r}")
        leaf = int(toks[pos])
        pos += 1
        return leaf

    root = node()
    require(toks[pos:] == [";"], "trailing Newick input")
    return root


def tree_distances(root) -> dict:
    """Leaf-pair path lengths {(i, j): d} with i < j; requires the tree to
    be equidistant."""
    depth = {}
    anc = {}

    def walk(node, d, path):
        if isinstance(node, int):
            depth[node] = d
            anc[node] = path
            return
        for child, length in node:
            walk(child, d + length, path + ((id(node), d),))

    walk(root, Fraction(0), ())
    heights = set(depth.values())
    require(len(heights) == 1, "tree is not equidistant")
    out = {}
    for a, b in combinations(sorted(depth), 2):
        shared = 0
        pa, pb = anc[a], anc[b]
        while shared < min(len(pa), len(pb)) and pa[shared][0] == pb[shared][0]:
            shared += 1
        lca_depth = pa[shared - 1][1]
        out[a, b] = depth[a] + depth[b] - 2 * lca_depth
    return out


def three_point(d: dict, n: int) -> bool:
    for i, j, k in combinations(range(1, n + 1), 3):
        a, b, c = d[i, j], d[i, k], d[j, k]
        top = max(a, b, c)
        if [a, b, c].count(top) < 2:
            return False
    return True


def triples(d: dict, n: int) -> frozenset:
    """Rooted triples ij|k, encoded ((i, j), k) with i < j."""
    out = set()
    for i, j, k in combinations(range(1, n + 1), 3):
        a, b, c = d[i, j], d[i, k], d[j, k]
        if a < b == c:
            out.add(((i, j), k))
        elif b < a == c:
            out.add(((i, k), j))
        elif c < a == b:
            out.add(((j, k), i))
    return frozenset(out)


def pair_point(d: dict, n: int) -> tuple:
    """The negated ultrametric as a zero-sum point, lexicographic pairs."""
    return zero_sum([-d[p] for p in combinations(range(1, n + 1), 2)])


def check_consensus(inputs, w, plan, root):
    """inputs: distance dicts of the input trees (from tree_distances);
    root: the consensus tree in ``parse_tree``'s structure."""
    n = max(j for _, j in inputs[0])
    d = tree_distances(root)
    require(set(d) == set(inputs[0]), "consensus leaf set differs")
    require(three_point(d, n), "consensus fails the three-point condition")
    V = [pair_point(u, n) for u in inputs]
    certificate(V, w, plan, pair_point(d, n))
    in_triples = [triples(u, n) for u in inputs]
    out = triples(d, n)
    shared = frozenset.intersection(*in_triples)
    union = frozenset.union(*in_triples)
    require(shared <= out, "a triple shared by all inputs was lost")
    require(out <= union, "an output triple occurs in no input")

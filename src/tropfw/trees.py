"""Equidistant trees, ultrametrics, and the tropical consensus method.

Trees carry leaf labels 1..n and exact rational branch lengths.  An
ultrametric stores the C(n,2) pairwise distances in lexicographic pair
order.  Consensus maps the negated ultrametrics into the projective
torus, solves the Fermat-Weber problem there, and averages the optimal
cell's vertices.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DimensionError, ParseError, ValidationError
from .fw import solve_fw
from .points import DataSet, TropicalPoint, WeightVector, normalize
from .rationals import parse_rational


def pair_order(n: int):
    """Lexicographic (i, j) pairs with 1 <= i < j <= n."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def pair_index(i: int, j: int, n: int) -> int:
    if not (1 <= i < j <= n):
        raise ValidationError(f"bad pair ({i}, {j}) for n={n}")
    return (i - 1) * n - (i - 1) * i // 2 + (j - i) - 1


@dataclass(frozen=True)
class Ultrametric:
    """Pairwise dissimilarities of n leaves, lexicographic pair order.

    The three-point condition is NOT enforced here; use
    :func:`check_ultrametric`.
    """

    n_leaves: int
    values: tuple

    def __post_init__(self):
        n = self.n_leaves
        if n < 2:
            raise DimensionError("need at least two leaves")
        if len(self.values) != n * (n - 1) // 2:
            raise DimensionError("need C(n,2) dissimilarities")

    def d(self, i: int, j: int) -> Fraction:
        if i == j:
            return Fraction(0)
        if i > j:
            i, j = j, i
        return self.values[pair_index(i, j, self.n_leaves)]


def check_ultrametric(u: Ultrametric) -> bool:
    """Three-point condition: the max of each triple is achieved twice."""
    n = u.n_leaves
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                a, b, c = u.d(i, j), u.d(i, k), u.d(j, k)
                top = max(a, b, c)
                if [a, b, c].count(top) < 2:
                    return False
    return True


@dataclass(frozen=True)
class TreeNode:
    """Leaf (label set) or internal node; children paired with branch
    lengths.  Children are kept sorted by smallest descendant leaf."""

    leaf: Optional[int] = None
    children: tuple = ()  # ((TreeNode, Fraction), ...)

    def __post_init__(self):
        if (self.leaf is None) == (not self.children):
            raise ValidationError("node must be a leaf or have children")

    @property
    def min_leaf(self) -> int:
        if self.leaf is not None:
            return self.leaf
        return min(c.min_leaf for c, _ in self.children)

    def leaves(self):
        if self.leaf is not None:
            return [self.leaf]
        out = []
        for c, _ in self.children:
            out.extend(c.leaves())
        return out


def _node(children) -> TreeNode:
    return TreeNode(children=tuple(sorted(children, key=lambda p: p[0].min_leaf)))


@dataclass(frozen=True)
class PhyloTree:
    """Rooted equidistant tree on leaves 1..n with rational branch lengths."""

    n_leaves: int
    root: TreeNode

    def __post_init__(self):
        leaves = sorted(self.root.leaves())
        if leaves != list(range(1, self.n_leaves + 1)):
            raise ValidationError("leaves must be labeled 1..n exactly once")


@dataclass(frozen=True)
class TreePoint:
    """A tree as a torus point: the negated ultrametric, zero-sum."""

    n_leaves: int
    point: TropicalPoint


def _leaf_depths(node: TreeNode, acc: Fraction, out: dict):
    if node.leaf is not None:
        out[node.leaf] = acc
        return
    for child, length in node.children:
        _leaf_depths(child, acc + length, out)


def _lca_depth(node: TreeNode, depth, targets, out):
    """Record the depth of the lowest common ancestor of each leaf pair."""
    if node.leaf is not None:
        return {node.leaf}
    seen = set()
    for child, length in node.children:
        sub = _lca_depth(child, depth + length, targets, out)
        for a in seen:
            for b in sub:
                key = (min(a, b), max(a, b))
                out[key] = depth
        seen |= sub
    return seen


def tree_to_ultrametric(t: PhyloTree) -> Ultrametric:
    """d(i,j) = total path length from leaf i to leaf j.

    Raises on non-equidistant input (unequal root-to-leaf path lengths).
    """
    depths = {}
    _leaf_depths(t.root, Fraction(0), depths)
    height = depths[1]
    if any(d != height for d in depths.values()):
        raise ValidationError("tree is not equidistant")
    lca = {}
    _lca_depth(t.root, Fraction(0), None, lca)
    vals = tuple(2 * (height - lca[(i, j)]) for (i, j) in pair_order(t.n_leaves))
    return Ultrametric(t.n_leaves, vals)


def ultrametric_to_tree(u: Ultrametric) -> PhyloTree:
    """Agglomerative reconstruction: repeatedly merge the clusters at the
    minimum dissimilarity; node heights are d/2.

    By ultrametricity every minimum-distance class is a clique, so tied
    merges commute; ties are scanned in lexicographic cluster order.
    """
    if not check_ultrametric(u):
        raise ValidationError("three-point condition violated")
    n = u.n_leaves
    # cluster: (min leaf, node, height)
    clusters = [(i, TreeNode(leaf=i), Fraction(0)) for i in range(1, n + 1)]
    dist = {}
    for (i, j) in pair_order(n):
        dist[(i, j)] = u.d(i, j)

    def cdist(a, b):
        x, y = min(a, b), max(a, b)
        return dist[(x, y)]

    while len(clusters) > 1:
        delta = min(
            cdist(a[0], b[0])
            for idx, a in enumerate(clusters)
            for b in clusters[idx + 1:]
        )
        # merge classes: connected components of the delta-graph (cliques)
        groups = []
        used = set()
        for idx, a in enumerate(clusters):
            if idx in used:
                continue
            group = [idx]
            used.add(idx)
            for jdx in range(idx + 1, len(clusters)):
                if jdx in used:
                    continue
                if cdist(a[0], clusters[jdx][0]) == delta:
                    group.append(jdx)
                    used.add(jdx)
            groups.append(group)
        nxt = []
        for group in groups:
            if len(group) == 1:
                nxt.append(clusters[group[0]])
                continue
            height = delta / 2
            children = [
                (clusters[idx][1], height - clusters[idx][2]) for idx in group
            ]
            node = _node(children)
            rep = min(clusters[idx][0] for idx in group)
            # distances from the merged cluster are inherited (ultrametric)
            nxt.append((rep, node, height))
        clusters = sorted(nxt, key=lambda c: c[0])
    return PhyloTree(n, clusters[0][1])


# -- Newick --------------------------------------------------------------

_TOKEN = re.compile(r"\s*([(),;:]|[^\s(),;:]+)")


def parse_newick(text: str, n_leaves: Optional[int] = None) -> PhyloTree:
    """Parse a rooted Newick tree with rational or decimal branch lengths.

    Leaf labels must be the integers 1..n.
    """
    tokens = _TOKEN.findall(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = peek()
        if tok is None:
            raise ParseError("unexpected end of Newick input")
        pos += 1
        return tok

    def parse_length() -> Fraction:
        if peek() == ":":
            take()
            try:
                return parse_rational(take())
            except ParseError:
                raise
        raise ParseError("every branch needs an explicit length")

    def parse_node():
        if peek() == "(":
            take()
            children = []
            while True:
                child = parse_node()
                children.append((child, parse_length()))
                tok = take()
                if tok == ")":
                    break
                if tok != ",":
                    raise ParseError(f"unexpected token {tok!r}")
            return _node(children)
        tok = take()
        try:
            label = int(tok)
        except ValueError:
            raise ParseError(f"leaf labels must be integers, got {tok!r}")
        return TreeNode(leaf=label)

    root = parse_node()
    if peek() == ":":  # tolerated and ignored root length of zero
        take()
        if parse_rational(take()) != 0:
            raise ParseError("root branch length must be zero")
    if peek() == ";":
        take()
    if peek() is not None:
        raise ParseError(f"trailing Newick input at {peek()!r}")
    leaves = sorted(root.leaves())
    n = n_leaves if n_leaves is not None else len(leaves)
    if leaves != list(range(1, n + 1)):
        raise ParseError("leaf labels must be 1..n exactly once")
    return PhyloTree(n, root)


def write_newick(t: PhyloTree) -> str:
    """Canonical Newick: children ordered by smallest leaf, rational
    lengths."""

    def fmt(q: Fraction) -> str:
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

    def render(node: TreeNode) -> str:
        if node.leaf is not None:
            return str(node.leaf)
        inner = ",".join(
            f"{render(c)}:{fmt(length)}" for c, length in node.children
        )
        return f"({inner})"

    return render(t.root) + ";"


# -- rooted triples and consensus ---------------------------------------


def rooted_triples(t: PhyloTree) -> frozenset:
    """Triples ij|k with d(i,j) < d(i,k) = d(j,k); ties contribute nothing.

    Encoded as ((i, j), k) with i < j.
    """
    u = tree_to_ultrametric(t)
    out = set()
    n = t.n_leaves
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                a, b, c = u.d(i, j), u.d(i, k), u.d(j, k)
                if a < b and b == c:
                    out.add(((i, j), k))
                elif b < a and a == c:
                    out.add(((i, k), j))
                elif c < a and a == b:
                    out.add(((j, k), i))
    return frozenset(out)


def tree_point(t: PhyloTree) -> TreePoint:
    """The negated ultrametric as a zero-sum torus point."""
    u = tree_to_ultrametric(t)
    return TreePoint(t.n_leaves, normalize([-v for v in u.values]))


def consensus(
    trees: Sequence[PhyloTree], w: WeightVector, anchor: str = "input-mean"
) -> PhyloTree:
    """Weighted tropical consensus: average of the Fermat-Weber cell's
    vertices over the negated ultrametrics.

    The torus only determines the output up to an all-ones shift (which
    uniformly lengthens leaf branches); ``anchor`` picks the reported
    representative:

    - ``input-mean``: shift so the mean dissimilarity equals the weighted
      mean of the inputs' mean dissimilarities.  Consensus of copies of a
      tree then reproduces that tree exactly.
    - ``zero-sum``: report the plain zero-sum representative.  This is a
      torus representative, not a tree with nonnegative branch lengths:
      its leaf branches can be negative, e.g. ``1:-8/5``.
    """
    if not trees:
        raise ValidationError("need at least one input tree")
    n = trees[0].n_leaves
    if any(t.n_leaves != n for t in trees):
        raise ValidationError("all trees must share one leaf set")
    if w.m != len(trees):
        raise DimensionError("one weight per tree required")
    if anchor not in ("input-mean", "zero-sum"):
        raise ValidationError(f"unknown anchor {anchor!r}")
    ultras = [tree_to_ultrametric(t) for t in trees]
    N = n * (n - 1) // 2
    V = DataSet(tuple(normalize([-v for v in u.values]) for u in ultras))
    res = solve_fw(V, w)
    # witness is already the classical average of the cell's vertices
    raw = [-c for c in res.witness.coords]
    if anchor == "input-mean":
        mu = sum(
            wi * (sum(u.values) / N) for wi, u in zip(w, ultras)
        )
        raw = [v + mu for v in raw]
    out = Ultrametric(n, tuple(raw))
    if not check_ultrametric(out):
        raise ValidationError("consensus left tree space; invalid input trees?")
    return ultrametric_to_tree(out)


@dataclass(frozen=True)
class ParetoReport:
    """Rooted-triple conservation of a consensus tree."""

    pareto_violations: tuple  # triples shared by all inputs, lost in output
    co_pareto_violations: tuple  # output triples appearing in no input

    @property
    def ok(self) -> bool:
        return not self.pareto_violations and not self.co_pareto_violations


def check_pareto(trees, w, consensus_tree: PhyloTree) -> ParetoReport:
    triple_sets = [rooted_triples(t) for t in trees]
    cons = rooted_triples(consensus_tree)
    shared = frozenset.intersection(*triple_sets)
    union = frozenset.union(*triple_sets)
    pareto = tuple(sorted(shared - cons))
    co_pareto = tuple(sorted(cons - union))
    return ParetoReport(pareto, co_pareto)

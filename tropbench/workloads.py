"""The four workloads: how each instance is parsed by the program, what one
operation runs, how the in-process result and the CLI output are turned
into one plain answer, and which checker the answer goes through.

Program functions are looked up through their modules at call time
(``fw.solve_fw``), so the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import json
from fractions import Fraction

from tropfw import covector, forests, fw, transport, trees
from tropfw.points import DataSet, WeightVector
from tropfw.rationals import parse_rational

import checks


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _weights(wstr: str, m: int) -> WeightVector:
    """The program's weight vector for a CLI ``--weights`` string."""
    if wstr == "uniform":
        return WeightVector.uniform(m)
    return WeightVector(tuple(parse_rational(p) for p in wstr.split(",")))


def _plain_weights(wstr: str, m: int) -> list:
    if wstr == "uniform":
        return [Fraction(1, m)] * m
    return [Fraction(p) for p in wstr.split(",")]


def _plain_rows(path) -> list:
    return [tuple(Fraction(c) for c in row) for row in _read_json(path)]


def _plain_graph(obj) -> frozenset:
    return frozenset((i - 1, j - 1) for i, j in obj["edges"])


def _plain_point(strs) -> tuple:
    return tuple(Fraction(c) for c in strs)


def _plan(V, w):
    """An optimal transportation plan from the program (outside the timed
    region); the checkers verify it before relying on it."""
    inst = transport.TransportationInstance.from_fw(
        DataSet.from_rows(V), WeightVector(tuple(w)))
    plan, _ = transport.solve_transport(inst)
    return plan


class Forward:
    """``tropfw fw --method both``: solve_fw plus central_cayley_cell."""

    name = "forward"

    def load(self, inst):
        V = DataSet.from_rows(_read_json(inst["points"]))
        return V, _weights(inst["weights"], V.m)

    def plain(self, inst):
        V = [checks.zero_sum(r) for r in _plain_rows(inst["points"])]
        return {"V": V, "w": _plain_weights(inst["weights"], len(V))}

    def run(self, obj):
        V, w = obj
        return fw.solve_fw(V, w), transport.central_cayley_cell(V, w)

    def answer(self, result):
        res, cc = result
        return {
            "value": res.optimal_value,
            "graph": res.cell.graph.edges,
            "dim": res.cell.dim,
            "vertices": [v.coords for v in res.vertices],
            "witness": res.witness.coords,
            "cc_value": cc.optimal_value,
            "cc_graph": cc.support.edges,
        }

    def cli_args(self, inst):
        return ["fw", inst["points"], "--weights", inst["weights"],
                "--method", "both"]

    def cli_answer(self, text):
        out = json.loads(text)
        graph = _plain_graph(out["graph"])
        agree = out.get("methods_agree") is True
        value = Fraction(out["value"])
        return {
            "value": value,
            "graph": graph,
            "dim": out["dim"],
            "vertices": [_plain_point(v) for v in out["vertices"]],
            "witness": _plain_point(out["witness"]),
            # the CLI reports only that both routes agreed
            "cc_value": value if agree else None,
            "cc_graph": graph if agree else None,
        }

    def check(self, plain, ans):
        if "plan" not in plain:
            plain["plan"] = _plan(plain["V"], plain["w"])
        checks.check_forward(plain["V"], plain["w"], plain["plan"], ans)


class Census:
    """``tropfw cells``: enumerate_bounded_cells."""

    name = "census"

    def load(self, inst):
        return DataSet.from_rows(_read_json(inst["points"]))

    def plain(self, inst):
        return {"rows": _plain_rows(inst["points"]),
                "probes": [_plain_point(p) for p in inst["probes"]]}

    def run(self, V):
        return covector.enumerate_bounded_cells(V)

    def answer(self, cells):
        # vertices are read as `tropfw cells` reads them
        return [(c.graph.edges, c.dim, [v.coords for v in c._vertices])
                for c in cells]

    def cli_args(self, inst):
        return ["cells", inst["points"]]

    def cli_answer(self, text):
        return [(_plain_graph(c["graph"]), c["dim"],
                 [_plain_point(v) for v in c["vertices"]])
                for c in json.loads(text)]

    def check(self, plain, ans):
        checks.check_census(plain["rows"], plain["probes"], ans)


class Inverse:
    """``tropfw inverse``: realize_cell on a target cell graph."""

    name = "inverse"

    def load(self, inst):
        V = DataSet.from_rows(_read_json(inst["points"]))
        G = covector.CovectorGraph.from_json_dict(_read_json(inst["cell"]))
        return V, G

    def plain(self, inst):
        return {"V": [checks.zero_sum(r) for r in _plain_rows(inst["points"])],
                "x": checks.zero_sum(_plain_point(inst["x"])),
                "target": _plain_graph(_read_json(inst["cell"])),
                "oracle": {}}

    def run(self, obj):
        V, G = obj
        return forests.realize_cell(V, G)

    def answer(self, result):
        w, res = result
        return {"weights": tuple(w), "value": res.optimal_value,
                "graph": res.cell.graph.edges}

    def cli_args(self, inst):
        return ["inverse", inst["points"], "--cell", inst["cell"]]

    def cli_answer(self, text):
        out = json.loads(text)
        return {"weights": tuple(Fraction(x) for x in out["weights"]),
                "value": Fraction(out["verification"]["value"]),
                "graph": _plain_graph(out["verification"]["graph"])}

    def check(self, plain, ans):
        cache = plain["oracle"]

        def plan_for(w):
            if ("plan", w) not in cache:
                cache["plan", w] = _plan(plain["V"], w)
            return cache["plan", w]

        def support_for(w):
            if ("cc", w) not in cache:
                V = DataSet.from_rows(plain["V"])
                cc = transport.central_cayley_cell(V, WeightVector(tuple(w)))
                cache["cc", w] = cc.support.edges
            return cache["cc", w]

        checks.check_inverse(plain["V"], plain["x"], plain["target"],
                             plan_for, support_for, ans)


def _node(node):
    """A program TreeNode in the checkers' nested structure."""
    if node.leaf is not None:
        return node.leaf
    return tuple((_node(c), length) for c, length in node.children)


class Consensus:
    """``tropfw consensus``: weighted consensus of equidistant trees."""

    name = "consensus"

    def load(self, inst):
        with open(inst["trees"]) as fh:
            ts = [trees.parse_newick(ln) for ln in fh if ln.strip()]
        return ts, _weights(inst["weights"], len(ts))

    def plain(self, inst):
        with open(inst["trees"]) as fh:
            roots = [checks.parse_tree(ln.strip()) for ln in fh if ln.strip()]
        inputs = [checks.tree_distances(r) for r in roots]
        return {"inputs": inputs,
                "w": _plain_weights(inst["weights"], len(inputs))}

    def run(self, obj):
        ts, w = obj
        return trees.consensus(ts, w)

    def answer(self, tree):
        return _node(tree.root)

    def cli_args(self, inst):
        return ["consensus", inst["trees"], "--weights", inst["weights"]]

    def cli_answer(self, text):
        return checks.parse_tree(text.strip())

    def check(self, plain, root):
        if "plan" not in plain:
            n = max(j for _, j in plain["inputs"][0])
            V = [checks.pair_point(u, n) for u in plain["inputs"]]
            plain["plan"] = _plan(V, plain["w"])
        checks.check_consensus(plain["inputs"], plain["w"], plain["plan"], root)


WORKLOADS = {w.name: w for w in (Forward(), Census(), Inverse(), Consensus())}

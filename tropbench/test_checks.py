"""Each checker accepts the program's answer and rejects a corrupted one.

    python3 -m pytest -q tropbench/test_checks.py
"""

import json
import os
import random
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import gen  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _solve(workload, inst):
    wl = WORKLOADS[workload]
    plain = wl.plain(inst)
    ans = wl.answer(wl.run(wl.load(inst)))
    wl.check(plain, ans)  # the true answer passes
    return wl, plain, ans


def _points(tmp_path, rows, name="p.json"):
    path = str(tmp_path / name)
    with open(path, "w") as fh:
        json.dump([[str(c) for c in r] for r in rows], fh)
    return path


@pytest.fixture
def forward(tmp_path):
    inst = {"points": _points(tmp_path, [[0, 0, 0], [1, -1, 0]]),
            "weights": "1/3,2/3"}
    wl, plain, ans = _solve("forward", inst)
    assert len(ans["vertices"]) == 2
    return wl, plain, ans


def test_forward_value_off_by_a_thousandth(forward):
    wl, plain, ans = forward
    with pytest.raises(checks.CheckFailed):
        wl.check(plain, dict(ans, value=ans["value"] + Fraction(1, 1000)))


def test_forward_graph_with_an_edge_dropped(forward):
    wl, plain, ans = forward
    graph = frozenset(sorted(ans["graph"])[:-1])
    with pytest.raises(checks.CheckFailed):
        wl.check(plain, dict(ans, graph=graph, cc_graph=graph))


def test_forward_moved_vertex(forward):
    wl, plain, ans = forward
    v = ans["vertices"][0]
    d = Fraction(1, 7)
    moved = (v[0] + d, v[1] - d, *v[2:])
    with pytest.raises(checks.CheckFailed):
        wl.check(plain, dict(ans, vertices=[moved, *ans["vertices"][1:]]))


@pytest.fixture
def census(tmp_path):
    rng = random.Random(0)
    while True:
        rows = [[rng.randint(-10**6, 10**6) for _ in range(3)] for _ in range(3)]
        if gen.tropically_generic(rows):
            break
    inst = {"points": _points(tmp_path, rows), "probes": []}
    return _solve("census", inst)


def test_census_f_vector_off_by_one(census):
    wl, plain, cells = census
    # drop one edge and one vertex: the Euler characteristic still holds,
    # the f-vector does not
    drop = {next(k for k, c in enumerate(cells) if c[1] == 0),
            next(k for k, c in enumerate(cells) if c[1] == 1)}
    kept = [c for k, c in enumerate(cells) if k not in drop]
    with pytest.raises(checks.CheckFailed, match="f-vector"):
        wl.check(plain, kept)


def test_census_missing_cell_breaks_euler(census):
    wl, plain, cells = census
    with pytest.raises(checks.CheckFailed, match="Euler"):
        wl.check(plain, cells[1:])


def test_census_genericity_is_min_plus(tmp_path):
    # max-plus generic but min-plus singular: the hull has fewer cells than
    # the generic f-vector, and the checker must not demand it
    rows = [["-3", "1", "-2", "3", "-4", "-3"],
            ["3/2", "-2", "-2", "-3/2", "3", "-1"],
            ["1", "-1", "3/2", "0", "-4", "-2"]]
    assert not gen.tropically_generic([[Fraction(c) for c in r] for r in rows])
    _solve("census", {"points": _points(tmp_path, rows), "probes": []})


def test_consensus_shared_triple_broken(tmp_path):
    rng = random.Random(3)
    inst = gen._consensus(rng, (6, 3, "random"), str(tmp_path / "t"))
    wl, plain, root = _solve("consensus", inst)
    n = 6
    shared = frozenset.intersection(
        *[checks.triples(u, n) for u in plain["inputs"]])
    assert shared
    (i, j), k = sorted(shared)[0]

    def swap(node):
        if isinstance(node, int):
            return {i: k, k: i}.get(node, node)
        return tuple((swap(c), length) for c, length in node)

    with pytest.raises(checks.CheckFailed):
        wl.check(plain, swap(root))


def test_inverse_permuted_weights(tmp_path):
    rng = random.Random(5)
    for t in range(20):
        inst = gen._inverse(rng, (4, 3), str(tmp_path / f"i{t}"))
        wl, plain, ans = _solve("inverse", inst)
        w = ans["weights"]
        if w[1:] + w[:1] != w:
            break
    with pytest.raises(checks.CheckFailed):
        wl.check(plain, dict(ans, weights=w[1:] + w[:1]))

"""Seeded input generation for the four workloads.

Everything here is standard library only and never imports tropfw: the
program under test receives nothing but the files written here, in its
own CLI formats (points JSON, 1-indexed cell JSON, one Newick tree per
line).  ``generate`` returns the list of instances: file paths, the
``--weights`` string, the shape and the extra data the checkers need.

The same (workload, seed) always gives byte-identical files.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from fractions import Fraction

# -- slot tables: one round of a workload is one instance of every slot --

# forward: (m, n, weight kind); half of the slots use uniform weights.
# Uniform weights with n dividing m give full-dimensional cells (dim n-1).
# Light shapes come three times a round so the round's median and total
# rest on many operations; the heavy ones (dims 5 and 7, m = 32) once.
_FORWARD_LIGHT = [
    (8, 4, "uniform"), (8, 4, "random"), (12, 5, "uniform"), (12, 5, "random"),
    (16, 4, "uniform"), (16, 4, "random"), (8, 6, "uniform"), (8, 6, "random"),
]
FORWARD_SLOTS = 3 * _FORWARD_LIGHT + [
    (12, 6, "uniform"), (8, 8, "uniform"), (8, 8, "random"), (32, 4, "random"),
]
# census: (m, n, kind) at the m*n <= 20 guard; "ties" data have tiny
# integer ranges and small denominators, so ties and degenerate cells occur
CENSUS_SLOTS = [
    (5, 4, "generic"), (4, 5, "generic"), (3, 6, "generic"), (2, 10, "generic"),
    (5, 4, "generic"), (4, 5, "generic"),
    (5, 4, "ties"), (3, 6, "ties"),
]
# inverse: (m, n) at criterion-4 sizes
INVERSE_SLOTS = [
    (2, 3), (2, 4), (3, 3), (3, 4), (4, 3), (4, 4), (5, 3), (5, 4),
]
# consensus: (leaves, trees, weight kind); one 7-leaf input per round (its
# 2^21 - 2 direction scan is most of the round), then 6-leaf sets of 2 to 5
# trees, mostly 4, so the round's median falls inside one group of inputs
CONSENSUS_SLOTS = [(7, 2, "random")] + [
    (6, k, kind)
    for k, copies in ((2, 1), (3, 3), (4, 6), (5, 1))
    for _ in range(copies)
    for kind in ("uniform", "random")
]

# rounds written per run; a run cycles through them if it is fast enough
CORPUS_ROUNDS = {"forward": 3, "census": 24, "inverse": 40, "consensus": 4}

# the slots whose instances the CLI phase runs (cheap, so the figure is
# dominated by start-up, import, parsing and output)
CLI_SLOTS = {
    "forward": {k for k, s in enumerate(FORWARD_SLOTS) if s[:2] == (8, 4)},
    "census": {3},
    "inverse": set(range(len(INVERSE_SLOTS))),
    "consensus": {k for k, s in enumerate(CONSENSUS_SLOTS) if s[:2] == (6, 2)},
}

SLOTS = {
    "forward": FORWARD_SLOTS,
    "census": CENSUS_SLOTS,
    "inverse": INVERSE_SLOTS,
    "consensus": CONSENSUS_SLOTS,
}


def fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _rational(rng: random.Random, bound: int, max_den: int) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, max_den))


def _rows(rng, m, n, bound, max_den):
    return [[_rational(rng, bound, max_den) for _ in range(n)] for _ in range(m)]


def _weights(rng, m, kind) -> str:
    """A CLI ``--weights`` value."""
    if kind == "uniform":
        return "uniform"
    raw = [rng.randint(1, 9) for _ in range(m)]
    return ",".join(fmt(Fraction(r, sum(raw))) for r in raw)


def hull_point(rows, p):
    """Project p onto the min-tropical hull of the rows:
    lambda_i = max_j (p_j - v_ij), x_j = min_i (lambda_i + v_ij)."""
    n = len(p)
    lams = [max(p[j] - v[j] for j in range(n)) for v in rows]
    return [min(lam + v[j] for lam, v in zip(lams, rows)) for j in range(n)]


def tropically_generic(rows) -> bool:
    """Every square minor's min-plus determinant is attained by one
    permutation only: general position for the min-tropical hull
    (Develin-Sturmfels).  The max-plus condition is a different one."""
    m, n = len(rows), len(rows[0])
    for k in range(2, min(m, n) + 1):
        for I in itertools.combinations(range(m), k):
            for J in itertools.combinations(range(n), k):
                sums = sorted(
                    sum(rows[I[a]][J[s[a]]] for a in range(k))
                    for s in itertools.permutations(range(k))
                )
                if sums[0] == sums[1]:
                    return False
    return True


def _newick_tree(rng, n_leaves, base_dist=None):
    """A random binary equidistant tree as (newick, leaf-pair distances).

    With ``base_dist``, most merges join the closest pair of clusters
    under the base tree's distances, so inputs share most of their
    rooted triples, as posterior or bootstrap samples do.
    """
    clusters = [([i], str(i), Fraction(0)) for i in range(1, n_leaves + 1)]
    dist = {}
    height = Fraction(0)
    while len(clusters) > 1:
        height += Fraction(rng.randint(1, 12), rng.randint(1, 4))
        pairs = list(itertools.combinations(range(len(clusters)), 2))
        if base_dist is not None and rng.random() < 0.8:
            a, b = min(
                pairs,
                key=lambda ab: min(
                    base_dist[min(x, y), max(x, y)]
                    for x in clusters[ab[0]][0]
                    for y in clusters[ab[1]][0]
                ),
            )
        else:
            a, b = rng.choice(pairs)
        la, sa, ha = clusters[a]
        lb, sb, hb = clusters[b]
        for x in la:
            for y in lb:
                dist[min(x, y), max(x, y)] = 2 * height
        node = (la + lb, f"({sa}:{fmt(height - ha)},{sb}:{fmt(height - hb)})", height)
        clusters = [c for idx, c in enumerate(clusters) if idx not in (a, b)]
        clusters.append(node)
    return clusters[0][1] + ";", dist


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _points_json(rows) -> str:
    return json.dumps([[fmt(c) for c in row] for row in rows]) + "\n"


def _forward(rng, slot, base):
    m, n, kind = slot
    rows = _rows(rng, m, n, 60, 4)
    wstr = _weights(rng, m, kind)
    _write(base + ".json", _points_json(rows))
    return {"points": base + ".json", "weights": wstr, "m": m, "n": n, "kind": kind}


def _census(rng, slot, base):
    m, n, kind = slot
    if kind == "generic":
        while True:
            rows = _rows(rng, m, n, 10**6, 1)
            if tropically_generic(rows):
                break
    else:
        rows = _rows(rng, m, n, 4, 2)
    probes = []
    for _ in range(4):
        p = [_rational(rng, 10**6 if kind == "generic" else 8, 3) for _ in range(n)]
        probes.append([fmt(c) for c in hull_point(rows, p)])
    _write(base + ".json", _points_json(rows))
    return {"points": base + ".json", "m": m, "n": n, "kind": kind,
            "probes": probes}


def _inverse(rng, slot, base):
    m, n = slot
    rows = _rows(rng, m, n, 40, 4)
    p = [_rational(rng, 400, 7) for _ in range(n)]
    x = hull_point(rows, p)
    edges = []
    for i, v in enumerate(rows):
        diffs = [x[j] - v[j] for j in range(n)]
        top = max(diffs)
        edges.extend([i + 1, j + 1] for j in range(n) if diffs[j] == top)
    _write(base + ".json", _points_json(rows))
    _write(base + ".cell.json",
           json.dumps({"m": m, "n": n, "edges": sorted(edges)}) + "\n")
    return {"points": base + ".json", "cell": base + ".cell.json", "m": m,
            "n": n, "x": [fmt(c) for c in x]}


def _consensus(rng, slot, base):
    leaves, k, kind = slot
    _, base_dist = _newick_tree(rng, leaves)
    lines = [_newick_tree(rng, leaves, base_dist)[0] for _ in range(k)]
    wstr = _weights(rng, k, kind)
    _write(base + ".nwk", "\n".join(lines) + "\n")
    return {"trees": base + ".nwk", "weights": wstr, "leaves": leaves,
            "k": k, "kind": kind}


_MAKERS = {
    "forward": _forward,
    "census": _census,
    "inverse": _inverse,
    "consensus": _consensus,
}


def generate(workload: str, seed: int, outdir: str) -> list:
    """Write one corpus and return its instances, round-major.

    Each instance is a dict with ``slot`` (its index in the slot table),
    ``round`` and the file paths and metadata the workload needs.
    """
    rng = random.Random(f"tropbench:{workload}:{seed}")
    os.makedirs(outdir, exist_ok=True)
    make = _MAKERS[workload]
    out = []
    for r in range(CORPUS_ROUNDS[workload]):
        for s, slot in enumerate(SLOTS[workload]):
            inst = make(rng, slot, os.path.join(outdir, f"r{r:02d}_s{s:02d}"))
            inst.update(slot=s, round=r)
            out.append(inst)
    return out

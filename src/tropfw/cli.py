"""Command-line interface.

Subcommands: ``fw`` (forward solve), ``cells`` (bounded-cell census),
``inverse`` (weights realizing a cell), ``consensus`` (tree consensus),
``selftest`` (seeded property suites).  All output is exact-rational and
byte-deterministic for fixed inputs and seed.

Exit codes: 0 success, 2 parse error, 3 dimension/validation error,
4 infeasible/unrealizable, 5 scale guard, 6 internal error (a bug).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from .covector import CovectorGraph, covector_at, enumerate_bounded_cells
from .errors import (DimensionError, InfeasibleError, InternalError,
                     ParseError, ScaleGuardError, TropFWError, ValidationError)
from .forests import realize_cell
from .fw import solve_fw
from .points import DataSet, WeightVector, normalize
from .rationals import format_rational, parse_rational
from .trees import consensus, parse_newick, write_newick
from .transport import central_cayley_cell

EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_INFEASIBLE = 4
EXIT_SCALE = 5
EXIT_INTERNAL = 6


def _read_points(path: str) -> DataSet:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}") from exc
    if not isinstance(raw, list) or not all(isinstance(r, list) for r in raw):
        raise ParseError(f"{path}: expected an array of coordinate arrays")
    return DataSet.from_rows(raw)


def _read_cell(path: str) -> CovectorGraph:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}") from exc
    return CovectorGraph.from_json_dict(raw)


def _parse_weights(raw: str, m: int) -> WeightVector:
    if raw == "uniform":
        return WeightVector.uniform(m)
    parts = [p.strip() for p in raw.split(",")]
    ws = tuple(parse_rational(p) for p in parts)
    if len(ws) != m:
        raise DimensionError(f"expected {m} weights, got {len(ws)}")
    return WeightVector(ws)


def _fmt_point(p) -> list:
    return [format_rational(c) for c in p.coords]


def _emit(text: str, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_fw(args) -> int:
    V = _read_points(args.points)
    w = _parse_weights(args.weights, V.m)
    payload = {}
    if args.method in ("lp", "both"):
        res = solve_fw(V, w)
        payload = {
            "value": format_rational(res.optimal_value),
            "graph": res.cell.graph.to_json_dict(),
            "dim": res.cell.dim,
            "vertices": [_fmt_point(v) for v in res.vertices],
            "witness": _fmt_point(res.witness),
        }
    if args.method in ("transport", "both"):
        cc = central_cayley_cell(V, w)
        tpayload = {
            "value": format_rational(cc.optimal_value),
            "graph": cc.support.to_json_dict(),
        }
        if args.method == "both":
            agree = (
                tpayload["graph"] == payload["graph"]
                and tpayload["value"] == payload["value"]
            )
            if not agree:  # pragma: no cover - would indicate a solver bug
                raise ValidationError("lp and transport methods disagree")
            payload["methods_agree"] = True
        else:
            payload = tpayload
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _cells_tsv(cells) -> str:
    lines = ["cell\tdim\tvertex\tcoords"]
    for idx, c in enumerate(cells):
        for vidx, v in enumerate(c._vertices):
            coords = ",".join(_fmt_point(v))
            lines.append(f"{idx}\t{c.dim}\t{vidx}\t{coords}")
    return "\n".join(lines) + "\n"


def cmd_cells(args) -> int:
    V = _read_points(args.points)
    cells = enumerate_bounded_cells(V)
    if args.format == "tsv":
        _emit(_cells_tsv(cells), args.out)
        return 0
    payload = [
        {
            "graph": c.graph.to_json_dict(),
            "dim": c.dim,
            "vertices": [_fmt_point(v) for v in c._vertices],
        }
        for c in cells
    ]
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    if args.out:
        # companion TSV for external plotting tools
        with open(args.out + ".tsv", "w") as fh:
            fh.write(_cells_tsv(cells))
    return 0


def cmd_inverse(args) -> int:
    V = _read_points(args.points)
    G = _read_cell(args.cell)
    w, res = realize_cell(V, G)
    payload = {
        "weights": [format_rational(x) for x in w],
        "verification": {
            "value": format_rational(res.optimal_value),
            "graph": res.cell.graph.to_json_dict(),
            "vertices": [_fmt_point(v) for v in res.vertices],
        },
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_consensus(args) -> int:
    try:
        with open(args.trees) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise ParseError(f"cannot read {args.trees}: {exc}") from exc
    if not lines:
        raise ParseError(f"{args.trees}: no trees found")
    trees = [parse_newick(ln) for ln in lines]
    w = _parse_weights(args.weights, len(trees))
    result = consensus(trees, w, anchor=args.anchor)
    _emit(write_newick(result) + "\n", args.out)
    return 0


def cmd_selftest(args) -> int:
    rng = random.Random(args.seed)
    from .signomial import (TropicalLinearForm, WeightedObjective, argmax_set,
                            on_hypersurface)

    checks = 0

    def check(ok, what):
        nonlocal checks
        if not ok:
            raise InternalError(f"selftest (seed {args.seed}): {what}")
        checks += 1

    for _ in range(args.trials):
        m, n = rng.randint(2, 4), rng.randint(3, 4)
        rows = [
            [Fraction(rng.randint(-24, 24), rng.randint(1, 12)) for _ in range(n)]
            for _ in range(m)
        ]
        V = DataSet.from_rows(rows)
        x = normalize(
            [Fraction(rng.randint(-24, 24), rng.randint(1, 12)) for _ in range(n)]
        )
        ws = [
            WeightVector.normalized([rng.randint(1, 9) for _ in range(m)])
            for _ in range(2)
        ]
        # covectors do not depend on the representative of x
        shifted = x.shifted(Fraction(rng.randint(-24, 24), rng.randint(1, 12)))
        G = covector_at(V, x)
        for i, v in enumerate(V):
            check(G.rows[i] == argmax_set(TropicalLinearForm(v), shifted),
                  f"covector row {i} changes with the representative")
        # ties do not depend on the weights
        check(on_hypersurface(WeightedObjective(V, ws[0]), x)
              == on_hypersurface(WeightedObjective(V, ws[1]), x),
              "ties change with the weights")
        # dual-route agreement
        res = solve_fw(V, ws[0])
        cc = central_cayley_cell(V, ws[0])
        check(cc.support == res.cell.graph, "lp and transport cells differ")
        check(cc.optimal_value == res.optimal_value,
              "lp and transport values differ")
    sys.stdout.write(f"selftest ok: {args.trials} trials, {checks} checks, "
                     f"seed {args.seed}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropfw",
        description="Exact weighted tropical Fermat-Weber solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fw", help="solve the weighted Fermat-Weber problem")
    p.add_argument("points", help="JSON file: array of coordinate arrays")
    p.add_argument("--weights", default="uniform",
                   help='"uniform" or comma-separated rationals')
    p.add_argument("--method", choices=("lp", "transport", "both"), default="lp")
    p.add_argument("--out")
    p.set_defaults(func=cmd_fw)

    p = sub.add_parser("cells", help="enumerate all bounded covector cells")
    p.add_argument("points")
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_cells)

    p = sub.add_parser("inverse", help="weights realizing a prescribed cell")
    p.add_argument("points")
    p.add_argument("--cell", required=True, help="JSON file with a 1-indexed edge list")
    p.add_argument("--out")
    p.set_defaults(func=cmd_inverse)

    p = sub.add_parser("consensus", help="weighted tropical consensus tree")
    p.add_argument("trees", help="file with one Newick tree per line")
    p.add_argument("--weights", default="uniform")
    p.add_argument("--anchor", choices=("input-mean", "zero-sum"),
                   default="input-mean")
    p.add_argument("--out")
    p.set_defaults(func=cmd_consensus)

    p = sub.add_parser("selftest", help="seeded randomized property checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=25)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DimensionError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ScaleGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCALE
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

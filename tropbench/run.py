"""Benchmark for tropfw: one workload per process, one closed-loop caller.

    python3 tropbench/run.py --workload forward --seed 1 --seconds 20 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` (end-to-end metrics): a cold set-up (import tropfw, parse
every input file with the program's parsers), then whole rounds of
in-process operations until ``--seconds`` have passed, with CLI processes
(``python -m tropfw.cli ...``) interleaved.  Every output, in process or
from the CLI, goes through the same checkers.

``--trace 1`` (per-layer metrics): a fixed number of rounds, each
operation once untraced and once traced, so counts repeat exactly for a
seed and the ratio of the two walls is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# share of the wall time given to CLI processes
CLI_SHARE = 0.2
MIN_CLI_RUNS = 3
CLI_TIMEOUT_S = 60
# rounds in a traced run (each operation runs untraced, then traced)
TRACE_ROUNDS = {"forward": 1, "census": 4, "inverse": 16, "consensus": 1}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("forward", "census", "inverse", "consensus"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Run:
    """Counts and correctness of one benchmark process."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def op(self, obj):
        """One timed in-process operation: (seconds, result) or None."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            res = self.wl.run(obj)
        except Exception:  # a failed operation is counted, the run goes on
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        return perf_counter() - t0, res

    def check(self, plain, answer_fn, raw, label):
        try:
            self.wl.check(plain, answer_fn(raw))
        except Exception as exc:
            self.correct = False
            print(f"check failed on {label}: {exc!r}", file=sys.stderr)

    def cli(self, inst, plain):
        """One CLI process; returns its wall time in seconds or None."""
        self.attempted += 1
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        argv = [sys.executable, "-m", "tropfw.cli", *self.wl.cli_args(inst)]
        t0 = perf_counter()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # killed and reaped by run()
            self.failed += 1
            print(f"cli timed out: {argv}", file=sys.stderr)
            return None
        dt = perf_counter() - t0
        if proc.returncode != 0:
            self.failed += 1
            print(f"cli exit {proc.returncode}: {proc.stderr.strip()}",
                  file=sys.stderr)
            return None
        label = os.path.basename(inst.get("points") or inst["trees"])
        self.check(plain, self.wl.cli_answer, proc.stdout, "cli " + label)
        return dt


def rounds_of(corpus):
    n_rounds = 1 + max(inst["round"] for inst in corpus)
    return [[k for k, inst in enumerate(corpus) if inst["round"] == r]
            for r in range(n_rounds)]


def measure_untraced(run, corpus, objs, plains, seconds):
    """Whole rounds of in-process operations for about ``seconds``, with
    CLI processes interleaved so they keep CLI_SHARE of the wall time
    (load from elsewhere on the machine then hits both alike)."""
    from gen import CLI_SLOTS

    rounds = rounds_of(corpus)
    cli_pool = [k for k, inst in enumerate(corpus)
                if inst["slot"] in CLI_SLOTS[run.wl.name]]
    op_times = []
    cli_times = []
    cli_spent = 0.0
    cli_calls = 0

    def cli_call():
        nonlocal cli_spent, cli_calls
        k = cli_pool[cli_calls % len(cli_pool)]
        cli_calls += 1
        t0 = perf_counter()
        dt = run.cli(corpus[k], plains[k])
        cli_spent += perf_counter() - t0
        if dt is not None:
            cli_times.append(dt)

    start = perf_counter()
    r = 0
    while True:
        round_start = perf_counter()
        for k in rounds[r % len(rounds)]:
            out = run.op(objs[k])
            if out is not None:
                op_times.append(out[0])
                run.check(plains[k], run.wl.answer, out[1], f"instance {k}")
            while cli_spent < CLI_SHARE * (perf_counter() - start):
                cli_call()
        r += 1
        # stop unless another round would end closer to ``seconds``
        now = perf_counter()
        if now - start + (now - round_start) / 2 >= seconds:
            break
    while len(cli_times) < MIN_CLI_RUNS:
        cli_call()
    return {
        "ops_per_s": len(op_times) / sum(op_times),
        "op_p50_ms": 1000 * statistics.median(op_times),
        "cli_p50_ms": 1000 * statistics.median(cli_times),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def measure_traced(run, corpus, objs, plains, workload):
    from tracing import Tracer

    chosen = [k for rnd in rounds_of(corpus)[:TRACE_ROUNDS[workload]]
              for k in rnd]
    tracer = Tracer()
    untraced = traced = 0.0
    for k in chosen:
        # each operation untraced, then traced: machine drift hits both
        out = run.op(objs[k])
        if out is not None:
            untraced += out[0]
            run.check(plains[k], run.wl.answer, out[1], f"instance {k}")
        tracer.op = k
        tracer.install()
        try:
            out = run.op(objs[k])
        finally:
            tracer.uninstall()
        if out is not None:
            traced += out[0]
            run.check(plains[k], run.wl.answer, out[1], f"instance {k}")
    tracer.dump(os.path.join(HERE, "work", f"trace_{workload}.json"))
    total, self_time = (
        {k: float(v) for k, v in c.items()} for c in tracer.totals())
    cnt = tracer.counts
    realize = cnt["forests.realize_cell.calls"]
    tried = cnt["forests.forests_tried"]
    return {
        "lp.solve_s": total.get("lp.solve", 0.0),
        "lp.sequence_s": total.get("lp.solve_sequence", 0.0),
        "lp.solve_calls": cnt["lp.solve.calls"],
        "lp.sequence_objectives": cnt["lp.sequence_objectives"],
        "lp.rows": cnt["lp.rows"],
        "fw.solve_fw_self_s": self_time.get("fw.solve_fw", 0.0),
        "fw.solve_fw_calls": cnt["fw.solve_fw.calls"],
        "transport.central_cayley_cell_self_s":
            self_time.get("transport.central_cayley_cell", 0.0),
        "covector.cell_vertices_s": total.get("covector.cell_vertices", 0.0),
        "covector.vertices_found": cnt["covector.vertices_found"],
        "covector.pseudovertices_s": total.get("covector.pseudovertices", 0.0),
        "covector.pseudovertices_found": cnt["covector.pseudovertices_found"],
        "covector.enumerate_self_s":
            self_time.get("covector.enumerate_bounded_cells", 0.0),
        "covector.cell_dim_s": total.get("covector.cell_dim", 0.0),
        "covector.cells_found": cnt["covector.cells_found"],
        "covector.covector_at_calls": cnt["covector.covector_at_calls"],
        "linalg.rank_s": total.get("linalg.rank", 0.0),
        "linalg.rank_calls": cnt["linalg.rank.calls"],
        "forests.realize_self_s": self_time.get("forests.realize_cell", 0.0),
        "forests.forests_tried": tried,
        "forests.first_forest_share": realize / tried if tried else 0.0,
        "trees.consensus_self_s": self_time.get("trees.consensus", 0.0),
        "trees.ultrametric_to_tree_s": total.get("trees.ultrametric_to_tree", 0.0),
        "trace.overhead_ratio": traced / untraced,
    }


def declared_units(kind):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tropfw", "__init__.py")):
        print(f"error: no tropfw package under {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    import gen

    workdir = os.path.join(HERE, "work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    corpus = gen.generate(args.workload, args.seed, workdir)

    # cold set-up: first import of tropfw in this process, then parsing
    sys.path.insert(0, SRC)
    t0 = perf_counter()
    import tropfw  # noqa: F401
    import_s = perf_counter() - t0
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    t1 = perf_counter()
    objs = [wl.load(inst) for inst in corpus]
    parse_s = perf_counter() - t1

    plains = [wl.plain(inst) for inst in corpus]
    run = Run(wl)
    if args.trace:
        metrics = measure_traced(run, corpus, objs, plains, args.workload)
        metrics["setup.import_s"] = import_s
        metrics["setup.parse_s"] = parse_s
        units = declared_units("per_layer")
    else:
        metrics = measure_untraced(run, corpus, objs, plains, args.seconds)
        metrics["setup_s"] = import_s + parse_s
        units = declared_units("end_to_end")
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} do "
                         f"not match BENCHMARK.json")
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in sorted(metrics.items())},
    }))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())

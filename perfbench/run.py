"""Layered benchmark of the reproduction: cold table build and real-Spark Pregel.

Usage (from the repository root):

    python3 perfbench/run.py --workload road|social [--seed N] [--seconds S] [--trace 0|1]

Each run is one fresh process in three stages:

1. set-up: start Spark through the program's session factory
   (``jobs/_common.get_spark``), generate the dataset through
   ``repro.graphgen`` with the run's seed and load its arcs;
2. tables: build every paper table for the dataset from an empty
   profile cache (12 profile cells, then all tables read back);
3. wall clock: ``experiments.wallclock.prepare`` and the workload's
   Pregel algorithm for 2 supersteps on RVC and 2D at 16 parts.

Stages 2 and 3 form a round; rounds repeat until ``--seconds`` of
measured time have passed (at least one). Every output is checked
against numpy outside the timed regions. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end with ``--trace 0``, per-layer with ``--trace 1``).
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np

import checks
from tracing import Tracer, event_log_totals, vm_hwm_mb

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = {
    # Grid with row-major ids, ~28 K arcs: fixed cost per Spark job dominates.
    "road": dict(dataset="roadnet-ca", algo="cc", infra=False),
    # Power law with out-degree superstars, ~1.14 M arcs: data volume dominates.
    "social": dict(dataset="follow-dec", algo="pr", infra=True),
}
TIER = "bench"
PARTS = (128, 256)
WALL_STRATEGIES = ("RVC", "2D")
WALL_PARTS = 16
SUPERSTEPS = 2
MB = 1e6
HEAP = "2g"


def isolate(work: Path, trace: bool) -> None:
    """Point every file Spark, the JVM and the program write into ``work``."""
    for d in ("conf", "tmp", "spark-local", "cache", "events"):
        (work / d).mkdir(parents=True, exist_ok=True)
    conf = ["spark.ui.showConsoleProgress false", f"spark.driver.extraJavaOptions -Xms{HEAP}"]
    if trace:
        conf += [
            "spark.eventLog.enabled true",
            f"spark.eventLog.dir file://{work / 'events'}",
            "spark.eventLog.compress false",
        ]
    (work / "conf" / "spark-defaults.conf").write_text("\n".join(conf) + "\n")
    # The session factory builds the submit arguments and the shuffle
    # partition count itself; the caller's environment must not change them.
    for var in ("PYSPARK_SUBMIT_ARGS", "SPARK_SHUFFLE_PARTITIONS"):
        os.environ.pop(var, None)
    os.environ.update(
        SPARK_MASTER=f"local[{len(os.sched_getaffinity(0))}]",  # task threads = nproc
        # A fixed heap (limit here, initial size in the conf above): with the
        # factory's 8g limit, or with only a limit, G1's heap growth moved
        # peak RSS by up to 25 % between runs of the same input.
        SPARK_DRIVER_MEM=HEAP,
        SPARK_CONF_DIR=str(work / "conf"),
        SPARK_LOCAL_DIRS=str(work / "spark-local"),
        TMPDIR=str(work / "tmp"),
        JAVA_TOOL_OPTIONS=f"-Djava.io.tmpdir={work / 'tmp'} -XX:-UsePerfData",
        REPRO_CACHE=str(work / "cache"),
    )


class Bench:
    def __init__(self, workload: str, seed: int | None, seconds: float, trace: bool, work: Path):
        from repro.graphgen import datasets

        self.w = WORKLOADS[workload]
        self.ds = self.w["dataset"]
        self.seed = datasets.SPECS[self.ds].gen["seed"] if seed is None else seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.checks_failed: list[str] = []
        self.tracer = Tracer()
        self.spark = None
        self.iterations: dict[str, list[int]] = {s: [] for s in WALL_STRATEGIES}

    def op(self, fn, *args, **kwargs):
        """Run one counted operation; a raised error counts as failed."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except checks.CheckFailed as e:
            self.checks_failed.append(str(e))
            print(f"CHECK FAILED: {e}", file=sys.stderr)
        except Exception:  # noqa: BLE001 - one failed operation must not end the run
            self.failed += 1
            traceback.print_exc()
        return None

    def generate(self):
        """The dataset's arcs from ``repro.graphgen`` with this run's seed."""
        from repro.graphgen import datasets

        spec = datasets.SPECS[self.ds]
        seeded = replace(spec, gen={**spec.gen, "seed": self.seed})
        with mock.patch.dict(datasets.SPECS, {self.ds: seeded}):
            return datasets.generate_pandas(self.ds, TIER)

    def build_tables(self, phase: str) -> dict:
        """Every paper table for the dataset, read from the profile cache."""
        from repro.experiments import tables as T
        from repro.graphgen.datasets import SSSP_EXCLUDED

        d = (self.ds,)
        out = {f"table_{n}": T.metrics_table(self.spark, n, datasets=d) for n in PARTS}
        algos = ("pr", "cc", "tr") + (() if self.ds in SSSP_EXCLUDED else ("sssp",))
        for algo in algos:
            runs = T.runtime_table(self.spark, algo, datasets=d)
            out[f"runtime_{algo}"] = runs
            out[f"best_{algo}"] = T.best_partitioner_table(runs)
            out[f"corr_{algo}"] = T.correlation_table(runs)
            out[f"gran_{algo}"] = T.granularity_table(runs)
        with self.tracer.span(f"parsel.table.{phase}"):
            out["parsel"] = T.parsel_table(self.spark, datasets=d)
        if self.w["infra"]:
            out["infra"] = T.infra_table(self.spark, dataset=self.ds)
        return out

    # ------------------------------------------------------------- stages

    def setup(self) -> None:
        t0 = time.perf_counter()
        from _common import get_spark

        from repro.experiments import tables as T
        from repro.graph.builders import edges_from_pandas

        self.spark = get_spark(f"perfbench-{self.ds}")
        if self.trace:
            self.tracer = Tracer(self.spark.sparkContext)
            self.tracer.wrap(T, "simulate")
        with self.tracer.span("graphgen.generate"):
            arcs = self.generate()
        with self.tracer.span("builders.load"):
            self.edges = edges_from_pandas(self.spark, arcs).localCheckpoint(eager=True)
        self.setup_s = time.perf_counter() - t0
        self.src = arcs["src"].to_numpy(np.int64)
        self.dst = arcs["dst"].to_numpy(np.int64)

    def run_algo(self, edges_p):
        """The workload's algorithm for SUPERSTEPS supersteps, materialised."""
        from repro.algos.connected_components import connected_components
        from repro.algos.pagerank import pagerank

        if self.w["algo"] == "pr":
            res = pagerank(edges_p, num_iter=SUPERSTEPS)
        else:
            res = connected_components(edges_p, max_iter=SUPERSTEPS)
        res.vertices.count()
        return res

    def tables_round(self) -> float:
        """Cold build of every table, then the checks; returns the cold seconds."""
        from repro.experiments import tables as T
        from repro.graph.partitioners import PAPER_STRATEGIES, partition_edges

        if T.CACHE_DIR != self.work / "cache":  # never clear a cache the run does not own
            raise RuntimeError(f"profile cache {T.CACHE_DIR} is not this run's; REPRO_CACHE ignored?")
        shutil.rmtree(T.CACHE_DIR, ignore_errors=True)
        T.CACHE_DIR.mkdir(parents=True)
        cold: dict = {}
        t0 = time.perf_counter()
        for n in PARTS:
            for s in PAPER_STRATEGIES:
                with self.tracer.span(f"metrics.cell.{s}.{n}"):
                    cold[(s, n)] = self.op(
                        T.get_profile, self.spark, self.ds, s, n, tier=TIER, edges=self.edges
                    )
        with self.tracer.span("tables.read"):
            built = self.build_tables("cold")
        tables_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        with self.tracer.span("tables.warm"):
            warm = self.build_tables("warm")
        self.warm_s = time.perf_counter() - t0
        self.cache_bytes = sum(p.stat().st_size for p in T.CACHE_DIR.iterdir())

        with self.tracer.span("check"):
            grid = T.profile_grid(self.spark, tier=TIER, datasets=(self.ds,), parts=PARTS)
            for (s, n), prof in cold.items():
                if prof is None:
                    continue
                # The edge frame keeps the generated arcs' order, so the
                # collected pids line up with self.src and self.dst; a
                # reordering would fail the checks, never pass them.
                pid = partition_edges(self.edges, s, n).select("pid").toPandas()["pid"]
                pid = pid.to_numpy(np.int64)
                what = f"{self.ds} {s}/{n}"
                ref = self.op(checks.check_profile, prof, self.src, self.dst, pid, n, what)
                if s != "RVC":  # RVC promises no placement property
                    reps = None if ref is None else ref.replicas
                    self.op(checks.check_partitioner, s, self.src, self.dst, pid, n, what, reps)
                self.op(checks.check_same_profile, grid[(self.ds, s, n)], prof, f"warm {what}")
            self.op(check_same_tables, built, warm)
            self.op(checks.check_regrets, built["parsel"]["regret_pct"])
        return tables_s

    def wallclock_round(self) -> float:
        """Partition, place and run the algorithm on each strategy; summed seconds."""
        from repro.experiments.wallclock import prepare

        pr = self.w["algo"] == "pr"
        total = 0.0
        results = {}
        for s in WALL_STRATEGIES:
            t0 = time.perf_counter()
            with self.tracer.span(f"partitioners.prepare.{s}"):
                ep = prepare(self.edges, s, WALL_PARTS)
            with self.tracer.span(f"pregel.{s}"):
                res = self.op(self.run_algo, ep)
            total += time.perf_counter() - t0
            if res is not None:
                results[s] = res
                self.iterations[s].append(res.iterations)

        with self.tracer.span("check"):
            if pr:
                ref = checks.pagerank_reference(self.src, self.dst, SUPERSTEPS)
                ranks = {}
                for s, res in results.items():
                    pdf = res.vertices.select("id", "rank").toPandas().sort_values("id")
                    ranks[s] = pdf["rank"].to_numpy()
                    self.op(checks.check_ranks, pdf["id"].to_numpy(), ranks[s], *ref, f"PR {s}")
                first, *others = ranks
                for s in others:  # placements agree with each other, not only with numpy
                    self.op(
                        checks.check_ranks, ref[0], ranks[s], ref[0], ranks[first],
                        f"PR {s} vs {first}",
                    )
            else:
                ref = checks.cc_reference(self.src, self.dst, SUPERSTEPS)
                for s, res in results.items():
                    pdf = res.vertices.select("id", "label").toPandas()
                    self.op(
                        checks.check_cc, pdf["id"].to_numpy(), pdf["label"].to_numpy(),
                        res.active_per_iter, ref, f"CC {s}",
                    )
        return total

    # ---------------------------------------------------------------- run

    def run(self) -> None:
        self.setup()
        rounds = []
        while not rounds or sum(map(sum, rounds)) < self.seconds:
            rounds.append((self.tables_round(), self.wallclock_round()))
        self.rounds = len(rounds)
        self.tables_s = statistics.median(r[0] for r in rounds)
        self.wallclock_s = statistics.median(r[1] for r in rounds)
        jvm_pid = self.spark._jvm.java.lang.ProcessHandle.current().pid()
        self.rss = (vm_hwm_mb("self"), vm_hwm_mb(jvm_pid))
        self.peak_rss_mb = sum(self.rss)

    def stop(self) -> None:
        """Stop Spark and wait for the driver JVM to exit."""
        if self.spark is None:
            return
        from pyspark import SparkContext

        self.spark.stop()
        gw = SparkContext._gateway
        proc = getattr(gw, "proc", None)
        if proc is not None:
            gw.shutdown()
            proc.stdin.close()  # the JVM exits on EOF of its stdin
            try:
                proc.wait(timeout=60)
            except Exception:  # noqa: BLE001 - make sure it ends, then wait again
                proc.kill()
                proc.wait()

    def result(self) -> dict:
        if self.trace:
            metrics = self.layer_metrics()
        else:
            metrics = {
                "setup_s": (self.setup_s, "s"),
                "tables_s": (self.tables_s, "s"),
                "wallclock_s": (self.wallclock_s, "s"),
                "peak_rss_mb": (self.peak_rss_mb, "MB"),
            }
        return {
            "correct": not self.checks_failed,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }

    def layer_metrics(self) -> dict:
        """Per-layer metrics; needs the event log, so call after ``stop``."""
        tr = self.tracer
        groups = tr.groups
        ev = event_log_totals(self.work / "events")

        def tracked(prefix: str, key: str) -> float:
            return sum(v[key] for g, v in groups.items() if g.startswith(prefix))

        def logged(prefix: str, key: str) -> float:
            return sum(v[key] for g, v in ev.items() if g.startswith(prefix))

        cell_s = tr.durations("metrics.cell.")
        steps = {s: sum(its) for s, its in self.iterations.items() if its}
        step_s = [sum(tr.durations(f"pregel.{s}")) / n for s, n in steps.items()]
        program = [g for g in groups if g != "check"]
        per_round = 1 / self.rounds
        sim_calls, sim_s = tr.calls[("simulate", "tables.read")]
        return {
            "graphgen.generate_s": (sum(tr.durations("graphgen.generate")), "s"),
            "graphgen.arcs": (len(self.src), "count"),
            "builders.load_s": (sum(tr.durations("builders.load")), "s"),
            "partitioners.prepare_s": (sum(tr.durations("partitioners.prepare.")) * per_round, "s"),
            "partitioners.prepare_shuffle_mb": (
                logged("partitioners.prepare.", "shuffle_bytes") / MB * per_round, "MB"),
            "metrics.cell_s": (statistics.median(cell_s), "s"),
            "metrics.jobs_per_cell": (tracked("metrics.cell.", "jobs") / len(cell_s), "count"),
            "metrics.tasks_per_cell": (tracked("metrics.cell.", "tasks") / len(cell_s), "count"),
            "metrics.shuffle_records_per_cell": (
                logged("metrics.cell.", "shuffle_records") / len(cell_s), "count"),
            "metrics.shuffle_mb_per_cell": (
                logged("metrics.cell.", "shuffle_bytes") / MB / len(cell_s), "MB"),
            "tables.warm_s": (self.warm_s, "s"),
            "tables.cache_bytes": (self.cache_bytes, "bytes"),
            "simcluster.simulate_calls": (sim_calls * per_round, "count"),
            "simcluster.simulate_s": (sim_s * per_round, "s"),
            "parsel.table_s": (sum(tr.durations("parsel.table.cold")) * per_round, "s"),
            "pregel.supersteps": (sum(steps.values()) * per_round / len(steps), "count"),
            "pregel.superstep_s": (statistics.median(step_s), "s"),
            "pregel.jobs_per_superstep": (
                tracked("pregel.", "jobs") / sum(steps.values()), "count"),
            "pregel.shuffle_records_per_superstep": (
                logged("pregel.", "shuffle_records") / sum(steps.values()), "count"),
            "pregel.shuffle_mb_per_superstep": (
                logged("pregel.", "shuffle_bytes") / MB / sum(steps.values()), "MB"),
            **{
                f"pregel.shuffle_records_per_superstep.{s}": (
                    logged(f"pregel.{s}", "shuffle_records") / n, "count")
                for s, n in steps.items()
            },
            "spark.jobs": (sum(groups[g]["jobs"] for g in program), "count"),
            "spark.stages": (sum(groups[g]["stages"] for g in program), "count"),
            "spark.tasks": (sum(groups[g]["tasks"] for g in program), "count"),
            "spark.gc_s": (sum(ev[g]["gc_ms"] for g in program if g in ev) / 1000, "s"),
            # End-to-end times under tracing: minus an untraced run's, the overhead.
            "traced.setup_s": (self.setup_s, "s"),
            "traced.tables_s": (self.tables_s, "s"),
            "traced.wallclock_s": (self.wallclock_s, "s"),
            "traced.peak_rss_mb": (self.peak_rss_mb, "MB"),
            "rss.python_mb": (self.rss[0], "MB"),
            "rss.jvm_mb": (self.rss[1], "MB"),
        }


def check_same_tables(cold: dict, warm: dict) -> None:
    for name, df in cold.items():
        if not df.equals(warm[name]):
            raise checks.CheckFailed(f"table {name} differs when read from the warm cache")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None, help="default: the dataset spec's seed")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    checks.self_check()
    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    isolate(work, bool(args.trace))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "jobs")]
    try:
        import _common  # noqa: F401 - the program's session factory
        import repro.experiments.tables  # noqa: F401
    except ImportError as e:
        print(f"cannot import the program from {ROOT}: {e}", file=sys.stderr)
        shutil.rmtree(work, ignore_errors=True)
        return 2

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace), work)
    try:
        bench.run()
    finally:
        bench.stop()
    result = bench.result()
    if args.trace:
        bench.tracer.write(work.parent / f"{work.name}.spans.json")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

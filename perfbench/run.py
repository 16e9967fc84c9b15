#!/usr/bin/env python3
"""End-to-end benchmark: whole scenario and grid runs, split by layer.

Run from the repository root::

    python3 perfbench/run.py --workload registry --seed 42 --seconds 45 --trace 0

Workloads (``NOTES.md`` says why each exists):

* ``registry`` - the 9 registry scenarios in sequence, results store off.
  One op is one scenario run, from spec to checked signature.
* ``grid`` - the 12-cell ``deadline-tier-mix`` grid on
  ``ScenarioRunner.run_grid`` with one worker per CPU and a fresh results
  store.  One op is a cold pass (executes and stores every cell) followed
  by a warm pass (12 store hits).
* ``fleet`` - a 256-client, one-region, 2-round spec without training or
  compression.  Every op fails on the current program (see ``NOTES.md``).

The run repeats whole passes of the workload until ``--seconds`` have
elapsed.  Every op is checked: signatures against the committed goldens
where one exists for the (spec, seed), else against the first repetition in
the run; a finite final model; every configured round completed.  An op
that raises or fails a check counts as failed, with its exception recorded.

With ``--trace 0`` the last stdout line reports the end-to-end metrics.
With ``--trace 1`` passes alternate untraced and traced: layer spans
(``layers.py``) wrap each layer's public entry points during the traced
passes only, and the last line reports per-layer self times per op, counts,
and the tracing overhead.  The spans are written to
``.perfbench-out/<workload>-<seed>.trace.json`` (Chrome trace format) at the
end.  The line before the last holds the environment, the tail percentile
and any failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import layers

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
GOLDEN_DIR = ROOT / "tests" / "data"
DEFAULT_SEED = 42  # the registry's seed; goldens exist only for it
GRID = "deadline-tier-mix"
WORKLOADS = ("registry", "grid", "fleet")
FLEET_CLIENTS = 256

E2E_UNITS = {
    "client_rounds_per_s": "1/s",
    "run_s_p50": "s",
    "run_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "wire_bytes_per_client_round": "B",
}


@dataclass
class Op:
    """What one op did and how long it took."""

    traced: bool
    wall_s: float = 0.0
    error: str = ""
    participants: int = 0  # participant-rounds completed
    rounds: int = 0
    traffic_bytes: int = 0
    sim_s: float = 0.0
    accuracies: List[float] = field(default_factory=list)
    compile_s: List[float] = field(default_factory=list)
    events: int = 0
    published: int = 0
    delivered: int = 0
    store_hits: int = 0
    store_lookups: int = 0
    pool_busy_s: float = 0.0
    pool_capacity_s: float = 0.0
    layer_s: Dict[str, float] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    #: Facts each grid cell shipped back from its pool worker.
    cells: List[dict] = field(default_factory=list)


def probe(result) -> Dict[str, object]:
    """Outside-in facts about a fresh :class:`ScenarioResult`."""
    import numpy as np

    experiment = result.experiment
    survivors = experiment.participants()
    finite = bool(survivors) and all(
        bool(np.isfinite(value).all())
        for client in survivors
        for value in experiment.client_models[client.client_id].network.parameters().values()
    )
    return {
        "finite": finite,
        "rounds": len(result.rounds),
        "participants": sum(r.participants for r in result.rounds),
        "traffic_bytes": int(result.total_traffic_bytes),
        "sim_s": float(sum(r.delay.total_s + r.delay.messaging_s for r in result.rounds)),
        "accuracy": float(result.final_accuracy),
        "events": int(result.messages_processed),
        "published": sum(b.stats.messages_published for b in experiment.brokers),
        "delivered": sum(b.stats.messages_delivered for b in experiment.brokers),
    }


def probe_problem(facts: Dict[str, object], rounds: int) -> str:
    if not facts["finite"]:
        return "final model is not finite"
    if facts["rounds"] != rounds:
        return f"{facts['rounds']} of {rounds} rounds completed"
    return ""


def load_goldens() -> tuple:
    """Committed signatures: ``{(scenario, seed): {field: value}}`` and grid cells."""
    scenarios: Dict[tuple, Dict[str, str]] = {}
    for line in (GOLDEN_DIR / "codec_scenario_signatures.txt").read_text().splitlines():
        if line.strip():
            name, seed, signature = line.split()
            scenarios[(name, int(seed))] = {"signature": signature}
    bridged = json.loads((GOLDEN_DIR / "bridged-multi-region.signatures.json").read_text())
    scenarios[(bridged.pop("scenario"), DEFAULT_SEED)] = bridged
    cells = {}
    for line in (GOLDEN_DIR / "deadline_tier_mix_signatures.txt").read_text().splitlines():
        if line.strip():
            index, signature = line.split()
            cells[int(index)] = signature
    return scenarios, cells


class Bench:
    """Shared state of one benchmark run: recorder, probes and goldens."""

    def __init__(self) -> None:
        self.rec = layers.Recorder()
        self.probes = layers.Patcher()
        self.golden_scenarios, self.golden_cells = load_goldens()
        self.first_signature: Dict[object, str] = {}
        self.chrome: List[dict] = []
        self._install_probes()

    def _install_probes(self) -> None:
        """Cheap wrappers present in every pass: compile timing, the result
        of each execution, and per-cell facts shipped back from pool workers."""
        import functools

        from repro.scenarios import runner

        rec, clock = self.rec, time.perf_counter_ns

        def timed_compile(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def compile_scenario(spec):
                start = time.perf_counter()
                compiled = fn(spec)
                rec.compile_s.append(time.perf_counter() - start)
                return compiled

            return compile_scenario

        def kept_result(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def execute_scenario(*args, **kwargs):
                rec.last_result = fn(*args, **kwargs)
                return rec.last_result

            return execute_scenario

        def cell_facts(fn: Callable) -> Callable:
            # Runs in the pool worker; the facts ride back on the CellResult.
            @functools.wraps(fn)
            def _run_grid_cell(payload):
                rec.reset()
                root = [layers.CELL, clock(), 0]
                rec.spans.append(root)
                cell = fn(payload)
                root[2] = clock()
                cell.perfbench = {
                    "pid": os.getpid(),
                    "wall_s": (root[2] - root[1]) / 1e9,
                    "compile_s": rec.compile_s,
                    "probe": probe(rec.last_result),
                    "spans": rec.spans if rec.tracing else None,
                    "counts": rec.counts,
                }
                rec.last_result = None
                return cell

            return _run_grid_cell

        self.probes.patch(runner, "compile_scenario", timed_compile)
        self.probes.patch(runner, "execute_scenario", kept_result)
        self.probes.patch(runner, "_run_grid_cell", cell_facts)

    def close(self) -> None:
        self.probes.restore()

    # ------------------------------------------------------------------ ops

    def run_op(self, traced: bool, body: Callable[[Op], None]) -> Op:
        """Time ``body`` as one op; an exception or failed check fails it."""
        rec = self.rec
        rec.reset()
        op = Op(traced=traced)
        root = [layers.OP, time.perf_counter_ns(), 0]
        if traced:
            rec.spans.append(root)
        try:
            body(op)
        except Exception as exc:  # every failure is recorded, never retried
            op.error = f"{type(exc).__name__}: {exc}"
        root[2] = time.perf_counter_ns()
        op.wall_s = (root[2] - root[1]) / 1e9
        rec.last_result = None
        op.compile_s += rec.compile_s
        if traced:
            self._attribute(op)
        return op

    def _attribute(self, op: Op) -> None:
        cells = op.cells
        worker_spans = [cell["spans"] for cell in cells if cell["spans"]]
        op.layer_s = layers.attribute(self.rec.spans, worker_spans)
        op.calls = layers.span_calls(s for spans in [self.rec.spans, *worker_spans] for s in spans)
        op.counts = layers.key_sums([self.rec.counts, *(cell["counts"] for cell in cells)])
        index = len(self.chrome)
        self.chrome += layers.chrome_events(self.rec.spans, os.getpid(), index)
        for cell in cells:
            if cell["spans"]:
                self.chrome += layers.chrome_events(cell["spans"], cell["pid"], index)

    def check_signature(self, key, golden: Optional[Dict[str, str]], result) -> str:
        if golden is not None:
            for name, expected in golden.items():
                if getattr(result, name) != expected:
                    return f"{name} differs from the committed golden"
            return ""
        first = self.first_signature.setdefault(key, result.signature)
        if result.signature != first:
            return "signature differs from an earlier repetition"
        return ""

    def traced_pass(self, traced: bool, run_pass: Callable[[], List[Op]]) -> List[Op]:
        """Run one pass with the layer spans installed when ``traced``."""
        patcher = layers.Patcher()
        if traced:
            layers.install_layer_spans(self.rec, patcher)
        self.rec.tracing = traced
        try:
            return run_pass()
        finally:
            self.rec.tracing = False
            patcher.restore()


class CheckFailed(Exception):
    """An op ran but its output failed a correctness check."""


def add_facts(op: Op, facts: Dict[str, object]) -> None:
    op.participants += facts["participants"]
    op.rounds += facts["rounds"]
    op.traffic_bytes += facts["traffic_bytes"]
    op.sim_s += facts["sim_s"]
    op.accuracies.append(facts["accuracy"])
    op.events += facts["events"]
    op.published += facts["published"]
    op.delivered += facts["delivered"]


class ScenarioOps:
    """``registry`` and ``fleet``: one op per scenario run, in-process."""

    def __init__(self, bench: Bench, specs: list, warm_up_spec) -> None:
        from repro.scenarios import ScenarioRunner

        self.bench = bench
        self.specs = specs
        self.runner = ScenarioRunner()
        self.warm_up_spec = warm_up_spec

    def warm_up(self) -> None:
        try:
            self.runner.run(self.warm_up_spec).experiment = None
        except Exception:
            pass  # the fleet spec fails; its ops record that

    def run_pass(self, traced: bool) -> List[Op]:
        return self.bench.traced_pass(
            traced, lambda: [self.bench.run_op(traced, self._body(spec)) for spec in self.specs]
        )

    def _body(self, spec) -> Callable[[Op], None]:
        bench = self.bench

        def body(op: Op) -> None:
            result = self.runner.run(spec)
            try:
                key = (spec.name, spec.seed)
                problem = bench.check_signature(key, bench.golden_scenarios.get(key), result)
                facts = probe(result)
                problem = problem or probe_problem(facts, spec.training.rounds)
            finally:
                result.experiment = None
            if problem:
                raise CheckFailed(f"{spec.name}: {problem}")
            add_facts(op, facts)

        return body

    def close(self) -> None:
        self.runner.close()


class GridOps:
    """``grid``: one op is a cold pass then a warm pass over a fresh store."""

    def __init__(self, bench: Bench, seed: int) -> None:
        from repro.scenarios.sweep import get_grid

        self.bench = bench
        sweep = get_grid(GRID)
        self.sweep = dataclasses.replace(sweep, base=sweep.base.with_seed(seed))
        self.workers = nproc()
        self.golden = bench.golden_cells if seed == DEFAULT_SEED else {}
        OUT_DIR.mkdir(exist_ok=True)

    def warm_up(self) -> None:
        self.run_pass(False)

    def run_pass(self, traced: bool) -> List[Op]:
        store_dir = tempfile.mkdtemp(prefix="grid-store-", dir=OUT_DIR)
        try:
            return self.bench.traced_pass(
                traced, lambda: [self.bench.run_op(traced, self._body(store_dir))]
            )
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)

    def _body(self, store_dir: str) -> Callable[[Op], None]:
        from repro.scenarios import ScenarioRunner

        bench, sweep = self.bench, self.sweep

        def body(op: Op) -> None:
            runner = ScenarioRunner(store=os.path.join(store_dir, "results.sqlite"))
            try:
                cold_start = time.perf_counter()
                cold = runner.run_grid(sweep, workers=self.workers)
                cold_s = time.perf_counter() - cold_start
                warm = runner.run_grid(sweep, workers=self.workers)
            finally:
                runner.close()
            op.cells = [getattr(cell, "perfbench", None) for cell in cold.cells]
            problem = self._check(cold, warm, op.cells)
            if problem:
                op.cells = []
                raise CheckFailed(problem)
            for cell in op.cells:
                add_facts(op, cell["probe"])
                op.compile_s += cell["compile_s"]
                op.pool_busy_s += cell["wall_s"]
            op.pool_capacity_s = min(self.workers, len(op.cells)) * cold_s
            op.store_hits = warm.cached_cells
            op.store_lookups = len(warm.cells)

        return body

    def _check(self, cold, warm, facts: list) -> str:
        cells = len(self.sweep.cells())
        if cold.executed_cells != cells or warm.cached_cells != cells or warm.executed_cells:
            return (
                f"store: cold pass executed {cold.executed_cells}/{cells}, "
                f"warm pass hit {warm.cached_cells}/{cells}"
            )
        if warm.signatures() != cold.signatures():
            return "warm-pass signatures differ from the cold pass"
        rounds = self.sweep.base.training.rounds
        for cell, fact in zip(cold.cells, facts):
            if fact is None:
                return f"cell {cell.index}: no facts from the pool worker"
            problem = self.bench.check_signature(
                cell.index,
                {"signature": self.golden[cell.index]} if cell.index in self.golden else None,
                cell,
            ) or probe_problem(fact["probe"], rounds)
            if problem:
                return f"cell {cell.index}: {problem}"
        return ""

    def close(self) -> None:
        pass


# -------------------------------------------------------------------- metrics


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def tail(walls: List[float]) -> Dict[str, float]:
    """Highest percentile with at least ten samples beyond it (else the max)."""
    ordered = sorted(walls)
    rank = len(ordered) - 10 if len(ordered) > 10 else len(ordered)
    return {
        "value": ordered[rank - 1],
        "percentile": round(100.0 * rank / len(ordered), 2),
        "beyond": len(ordered) - rank,
        "samples": len(ordered),
    }


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end(ops: List[Op]) -> Dict[str, float]:
    done = [op for op in ops if not op.error]
    walls = [op.wall_s for op in ops]
    return {
        "client_rounds_per_s": ratio(sum(op.participants for op in done), sum(walls)),
        "run_s_p50": statistics.median(walls),
        "run_s_tail": tail(walls)["value"],
        "setup_s": statistics.median([s for op in ops for s in op.compile_s] or [0.0]),
        "peak_rss_mb": peak_rss_mb(),
        "wire_bytes_per_client_round": ratio(
            sum(op.traffic_bytes for op in done), sum(op.participants for op in done)
        ),
    }


def sim_results(ops: List[Op]) -> Dict[str, float]:
    """Deterministic simulation outputs; they vary by seed, not by run."""
    done = [op for op in ops if not op.error]
    return {
        "runtime.sim_round_s": ratio(sum(op.sim_s for op in done), sum(op.rounds for op in done)),
        "ml.eval.final_accuracy": statistics.fmean(
            [a for op in done for a in op.accuracies] or [0.0]
        ),
    }


def per_layer(ops: List[Op]) -> Dict[str, tuple]:
    traced = [op for op in ops if op.traced and not op.error]
    plain = [op for op in ops if not op.traced and not op.error]
    n = max(1, len(traced))

    def per_op(values: Dict[str, float], name: str) -> float:
        return values.get(name, 0) / n

    layer_s = layers.key_sums(op.layer_s for op in traced)
    calls = layers.key_sums(op.calls for op in traced)
    counts = layers.key_sums(op.counts for op in traced)
    metrics: Dict[str, tuple] = {}
    for name in layers.LAYERS:
        metrics[f"{name}.self_s"] = (per_op(layer_s, name), "s")
        metrics[f"{name}.calls"] = (per_op(calls, name), "count")
    metrics["unattributed.self_s"] = (per_op(layer_s, "unattributed"), "s")
    traced_wall = sum(op.wall_s for op in traced)
    traced_rate = ratio(sum(op.participants for op in traced), traced_wall)
    plain_rate = ratio(sum(op.participants for op in plain), sum(op.wall_s for op in plain))
    metrics["trace.op_wall_s"] = (traced_wall / n, "s")
    metrics["trace.client_rounds_per_s"] = (traced_rate, "1/s")
    metrics["trace.client_rounds_per_s_delta"] = (traced_rate - plain_rate, "1/s")
    metrics["mqttfc.compress.in_bytes"] = (per_op(counts, "mqttfc.compress.in_bytes"), "B")
    metrics["mqttfc.compress.out_bytes"] = (per_op(counts, "mqttfc.compress.out_bytes"), "B")
    metrics["mqttfc.compress.kept_share"] = (
        ratio(counts.get("mqttfc.compress.kept", 0), counts.get("mqttfc.compress.attempts", 0)),
        "ratio",
    )
    metrics["mqtt.broker.deliveries_per_publish"] = (
        ratio(sum(op.delivered for op in traced), sum(op.published for op in traced)),
        "ratio",
    )
    metrics["runtime.scheduler.events"] = (sum(op.events for op in traced) / n, "count")
    metrics["scenarios.store.hit_share"] = (
        ratio(sum(op.store_hits for op in traced), sum(op.store_lookups for op in traced)),
        "ratio",
    )
    metrics["scenarios.pool.busy_share"] = (
        ratio(sum(op.pool_busy_s for op in traced), sum(op.pool_capacity_s for op in traced)),
        "ratio",
    )
    units = {"runtime.sim_round_s": "sim_s", "ml.eval.final_accuracy": "ratio"}
    for name, value in sim_results(ops).items():
        metrics[name] = (value, units[name])
    return metrics


def closure_error_s(ops: List[Op]) -> float:
    """Largest |sum of layer self times - op wall time| over traced ops."""
    return max(
        (abs(sum(op.layer_s.values()) - op.wall_s) for op in ops if op.traced and not op.error),
        default=0.0,
    )


def environment() -> Dict[str, object]:
    import multiprocessing

    import numpy

    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_method": multiprocessing.get_start_method(),
    }


# ----------------------------------------------------------------------- main


def build_workload(name: str, bench: Bench, seed: int):
    from repro.scenarios.registry import get_scenario, scenario_names
    from repro.scenarios.spec import FleetSpec, ScenarioSpec, TopologySpec, TrainingSpec

    if name == "registry":
        specs = [get_scenario(n).with_seed(seed) for n in scenario_names()]
        return ScenarioOps(bench, specs, get_scenario("degraded-wan-int8").with_seed(seed))
    if name == "grid":
        return GridOps(bench, seed)
    fleet = ScenarioSpec(
        name=f"fleet-{FLEET_CLIENTS}",
        seed=seed,
        fleet=FleetSpec(num_clients=FLEET_CLIENTS),
        topology=TopologySpec(regions=1),
        training=TrainingSpec(
            rounds=2,
            train_for_real=False,
            compression_enabled=False,
            dataset_samples=1024,
            client_data_fraction=1 / FLEET_CLIENTS,
        ),
    )
    return ScenarioOps(bench, [fleet], fleet)


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, each in a fresh process; prints
    one ``workload trace metric value unit`` row per metric."""
    import subprocess

    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            done = subprocess.run(command, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if len(lines) < 2:
                print(f"{workload} trace={trace}: no result (exit {done.returncode})\n{done.stderr}")
                status = 1
                continue
            info, result = json.loads(lines[-2]), json.loads(lines[-1])
            print(
                f"{workload} trace={trace}: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']} "
                f"failures={info['failures']} tail={info['run_s_tail']}"
            )
            for name, metric in result["metrics"].items():
                print(f"  {workload:9s} {trace} {name:42s} {metric['value']:.6g} {metric['unit']}")
            status = status or done.returncode
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file() or not GOLDEN_DIR.is_dir():
        print(f"perfbench: no program source under {src} or goldens under {GOLDEN_DIR}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    bench = Bench()
    workload = build_workload(args.workload, bench, args.seed)
    modes = (False, True) if args.trace else (False,)
    ops: List[Op] = []
    try:
        workload.warm_up()
        setup_end = time.perf_counter()
        passes = 0
        while True:
            for traced in modes:
                ops += workload.run_pass(traced)
            passes += 1
            if time.perf_counter() - setup_end >= args.seconds:
                break
    finally:
        workload.close()
        bench.close()

    failures: Dict[str, int] = {}
    for op in ops:
        if op.error:
            failures[op.error] = failures.get(op.error, 0) + 1
    failed = sum(failures.values())
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(),
        "passes": passes,
        "ops": len(ops),
        "ops_failed_share": failed / len(ops),
        "failures": failures,
        "run_s_tail": tail([op.wall_s for op in ops if not op.traced]),
    }
    correct = failed == 0
    if args.trace:
        metrics = per_layer(ops)
        info["closure_error_s"] = closure_error_s(ops)
        correct = correct and info["closure_error_s"] < 1e-6
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"{args.workload}-{args.seed}.trace.json"
        trace_file.write_text(json.dumps({"traceEvents": bench.chrome}))
        info["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        info["sim_results"] = sim_results(ops)
        metrics = {
            name: (value, E2E_UNITS[name])
            for name, value in end_to_end([op for op in ops if not op.traced]).items()
        }
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""graphmem benchmark runner.

Run from the repository root:

    python3 perfbench/run.py --workload train-uniform-h10 --seed 1 --seconds 30 --trace 0

One workload runs in this process, single-threaded: BLAS threads are
pinned to 1 before numpy loads. graphmem is imported from ``src/`` and
driven only through its public functions and ``graphmem.cli.main``.

The run sets its inputs up, does one untimed warm-up repeat, then repeats
the workload's operations until ``--seconds`` have passed. Between
repeats, five times spread evenly over the run, it times one set-up in a
fresh interpreter, from its first statement through ``import graphmem``
(numpy included) to inputs ready; ``setup_s`` is their median. Each
throughput is the work of all timed calls of one operation divided by
their summed wall time. Every operation's output is checked after the
timed phase; a failed check counts the operation as failed, and so does a
small fixed-seed run whose outputs differ from ``reference.json``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
traced and untraced repeats and reports the per-layer metrics, normalised
per traced repeat (set-up layers per set-up), plus the tracing overhead.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (each metric as ``{"value", "unit"}``; the value
is null when no call of its operation succeeded). An environment record is
printed as a JSON line before it.

``python3 perfbench/run.py --write-reference`` rewrites ``reference.json``
from the current program. Do that only when a change is meant to alter the
program's outputs, and say so in the change.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"

MIN_REPEATS = 3     # timed repeats per mode, even when --seconds runs out first
SETUP_PROBES = 5    # set-ups per untraced run, spread evenly over it; setup_s is their median


def import_graphmem():
    if not (SRC / "graphmem" / "__init__.py").is_file():
        sys.exit(f"perfbench: graphmem sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import graphmem

    if Path(graphmem.__file__).resolve().parent != (SRC / "graphmem").resolve():
        sys.exit(f"perfbench: imported graphmem from {graphmem.__file__}, not from {SRC}")


import_graphmem()

import numpy as np

import layertrace
import workloads


# -- environment record -----------------------------------------------------------


def _git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(workload: str, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "workload": workload,
        "seed": seed,
    }


# -- the measured session -------------------------------------------------------------


class Session:
    """Runs one workload's repeats and keeps their samples and outputs."""

    def __init__(self, workload: workloads.Workload, fx: workloads.Fixture):
        self.workload = workload
        self.fx = fx
        self.attempted = 0
        self.failed = 0
        self.train_reference: dict | None = None
        self.train_summaries: list[dict] = []
        self.eval_outputs: list[str | None] = []
        self.fingerprint_outputs: list[str | None] = []
        self.samples: dict[str, list[tuple[float, float]]] = {}  # (work, seconds) per call
        self.losses: list[float] = []
        self.repeats: dict[str, int] = {}

    def _attempt(self, name: str, operation):
        self.attempted += 1
        try:
            return operation(self.fx)
        except Exception:
            self.failed += 1
            print(f"perfbench: {name} raised", file=sys.stderr)
            traceback.print_exc()
            return None

    def repeat(self, mode: str | None) -> None:
        """One pass of train, eval and fingerprint. ``mode`` names the sample
        set the timings go to; ``None`` is the warm-up, kept only for checks."""
        fx = self.fx
        if mode is not None:
            self.repeats[mode] = self.repeats.get(mode, 0) + 1
        run = self._attempt("train", workloads.run_train)
        if run is not None:
            if self.train_reference is None:
                self.train_reference = run.summary
            self.train_summaries.append(run.summary)
            if mode is not None:
                self._sample(mode, "train", fx.train_examples * fx.train_config.max_epochs, run.seconds)
                self.losses.append(run.summary["epoch_losses"][-1])
        self._cli(mode, "eval", workloads.run_eval, self.eval_outputs, fx.eval_graphs)
        for _ in range(self.workload.fingerprint_calls):
            self._cli(mode, "fingerprint", workloads.run_fingerprint, self.fingerprint_outputs,
                      fx.library_molecules)

    def _cli(self, mode: str | None, name: str, operation, outputs: list, count: int) -> None:
        outcome = self._attempt(name, operation)
        if outcome is None:
            return
        seconds, code, text = outcome
        outputs.append(text if code == 0 else None)
        if mode is not None:
            self._sample(mode, name, count, seconds)

    def _sample(self, mode: str, name: str, work: float, seconds: float) -> None:
        self.samples.setdefault(f"{mode}.{name}", []).append((work, seconds))

    def check(self) -> None:
        """Compare every output with its independently computed value."""
        for summary in self.train_summaries:
            if not workloads.train_ok(summary, self.train_reference):
                self.failed += 1
        expected = self._expected("eval", workloads.expected_eval_metrics)
        self.failed += sum(text is None or expected is None or json.loads(text) != expected
                           for text in self.eval_outputs)
        expected = self._expected("fingerprint", workloads.expected_fingerprints)
        self.failed += sum(expected is None or text != expected for text in self.fingerprint_outputs)

    def check_reference(self, work: Path) -> None:
        """Run the workload small at the reference seed and compare its
        outputs with reference.json. Counts as one operation."""
        self.attempted += 1
        try:
            expected = json.loads(workloads.REFERENCE_PATH.read_text(encoding="utf-8"))[self.workload.name]
            actual = json.loads(json.dumps(workloads.reference_outputs(self.workload, work)))
            problems = workloads.differences(actual, expected)
        except Exception:
            print("perfbench: the reference run raised", file=sys.stderr)
            traceback.print_exc()
            problems = ["raised"]
        if problems:
            self.failed += 1
            print("perfbench: reference outputs differ: " + "; ".join(problems[:10]), file=sys.stderr)

    def _expected(self, name: str, compute):
        """The reference output, or None when computing it raised."""
        try:
            return compute(self.fx)
        except Exception:
            print(f"perfbench: recomputing the {name} output raised", file=sys.stderr)
            traceback.print_exc()
            return None

    def rate(self, key: str) -> float | None:
        """Work per second over every timed call of one operation, or None
        when none succeeded.

        Not the median of per-call rates: on a shared host the CPU speed can
        switch between two levels about 30% apart every few seconds. The
        median of a run's calls then jumps from one level to the other when
        their shares are near even; the summed rate follows the shares.
        """
        calls = self.samples.get(key)
        if not calls:
            return None
        return sum(work for work, _ in calls) / sum(seconds for _, seconds in calls)


def run_repeats(session: Session, seconds: float, modes: tuple[str, ...],
                tracer: layertrace.Tracer | None = None, probe=None) -> None:
    """Warm up once, then cycle through ``modes`` until ``seconds`` have
    passed and every mode has MIN_REPEATS samples. Mode ``traced`` runs with
    the tracer installed. ``probe()`` runs between repeats, SETUP_PROBES
    times spread evenly over ``seconds``."""
    start = time.perf_counter()
    session.repeat(None)
    done = probes = 0
    while done < MIN_REPEATS * len(modes) or time.perf_counter() - start < seconds:
        if (probe is not None and probes < SETUP_PROBES
                and time.perf_counter() - start >= probes * seconds / SETUP_PROBES):
            probe()
            probes += 1
        mode = modes[done % len(modes)]
        if mode == "traced":
            tracer.install()
            try:
                session.repeat(mode)
            finally:
                tracer.uninstall()
        else:
            session.repeat(mode)
        done += 1


SETUP_PROBE = """\
import sys, time
start = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
from pathlib import Path
import workloads
workloads.set_up(workloads.WORKLOADS[sys.argv[3]], int(sys.argv[4]), Path(sys.argv[5]))
print(time.perf_counter() - start)
"""


def setup_seconds(w: workloads.Workload, seed: int, work_dir: Path) -> float:
    """One set-up in a fresh interpreter, timed from its first statement,
    so that ``import graphmem`` and numpy count."""
    probe = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE), w.name,
                            str(seed), str(work_dir)],
                           capture_output=True, text=True, check=True, timeout=120)
    shutil.rmtree(work_dir)
    return float(probe.stdout)


def metric(value: float | None, unit: str) -> dict:
    return {"value": value, "unit": unit}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(w: workloads.Workload, seed: int, seconds: float, work: Path) -> tuple[Session, dict]:
    session = Session(w, workloads.set_up(w, seed, work / "setup"))
    # set-ups spread over the run, so that their median follows the host's
    # speed as the throughputs do
    setup_times = []
    run_repeats(session, seconds, ("timed",),
                probe=lambda: setup_times.append(setup_seconds(w, seed, work / "probe")))
    rss = peak_rss_mb()  # before the checks, which hold more outputs in memory
    session.check()
    session.check_reference(work / "reference")
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "train_examples_per_s": metric(session.rate("timed.train"), "1/s"),
        "train_loss_end": metric(statistics.median(session.losses) if session.losses else None,
                                 "nats"),
        "infer_graphs_per_s": metric(session.rate("timed.eval"), "1/s"),
        "fingerprint_molecules_per_s": metric(session.rate("timed.fingerprint"), "1/s"),
        "peak_rss_mb": metric(rss, "MiB"),
    }
    return session, metrics


def per_layer(w: workloads.Workload, seed: int, seconds: float, work: Path) -> tuple[Session, dict]:
    setup_tracer = layertrace.Tracer(layertrace.SETUP_LAYERS)
    setup_tracer.install()
    try:
        fx = workloads.set_up(w, seed, work / "setup")
    finally:
        setup_tracer.uninstall()
    session = Session(w, fx)
    tracer = layertrace.Tracer(layertrace.REPEAT_LAYERS)
    run_repeats(session, seconds, ("traced", "untraced"), tracer)
    session.check()
    session.check_reference(work / "reference")

    metrics: dict = {}
    setup_totals = setup_tracer.layer_totals()
    for layer in layertrace.REPORTED_SETUP_LAYERS:
        total, own, calls = setup_totals.get(layer, (0.0, 0.0, 0))
        metrics[f"{layer}.total_s"] = metric(total, "s")
        metrics[f"{layer}.self_s"] = metric(own, "s")
        metrics[f"{layer}.calls"] = metric(calls, "count")
    attempts = setup_totals.get("molgraph.random_graph", (0.0, 0.0, 0))[2]
    metrics["molgraph.negative_accept_ratio"] = metric(fx.negatives_kept / max(attempts, 1), "ratio")

    repeats = session.repeats["traced"]
    totals = tracer.layer_totals()
    for layer, _owner, _attr in layertrace.REPEAT_LAYERS:
        total, own, calls = totals.get(layer, (0.0, 0.0, 0))
        metrics[f"{layer}.total_s"] = metric(total / repeats, "s")
        metrics[f"{layer}.self_s"] = metric(own / repeats, "s")
        metrics[f"{layer}.calls"] = metric(calls / repeats, "count")

    def calls(layer: str) -> int:
        return totals.get(layer, (0.0, 0.0, 0))[2]

    # molecules one repeat hands to graph preparation: the train pool and the eval library
    molecules_read = repeats * (w.train_molecules + fx.library_molecules)
    metrics["model.prepare_graph.calls_per_graph"] = metric(
        calls("model.prepare_graph") / molecules_read, "count")
    metrics["model.hops_per_forward"] = metric(
        calls("model.attentive_read") / max(calls("model.forward"), 1), "count")
    metrics["numerics.tape_nodes_per_example"] = metric(
        tracer.tape_nodes / max(calls("numerics.backward"), 1), "count")

    for name, key in (("train_examples_per_s", "train"), ("infer_graphs_per_s", "eval")):
        traced = session.rate(f"traced.{key}")
        untraced = session.rate(f"untraced.{key}")
        metrics[f"trace.{name}.traced"] = metric(traced, "1/s")
        metrics[f"trace.{name}.untraced"] = metric(untraced, "1/s")
        overhead = None if traced is None or untraced is None else untraced / traced - 1.0
        metrics[f"trace.{name}.overhead"] = metric(overhead, "ratio")
    return session, metrics


def write_reference() -> None:
    references = {}
    for name, w in sorted(workloads.WORKLOADS.items()):
        with tempfile.TemporaryDirectory(dir=WORK) as work:
            references[name] = workloads.reference_outputs(w, Path(work))
    workloads.REFERENCE_PATH.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n",
                                        encoding="utf-8")
    print(f"wrote {workloads.REFERENCE_PATH}")


def main() -> int:
    parser = argparse.ArgumentParser(description="graphmem benchmark runner")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="rewrite reference.json from the current program and exit")
    args = parser.parse_args()
    WORK.mkdir(exist_ok=True)
    if args.write_reference:
        write_reference()
        WORK.rmdir()
        return 0
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    w = workloads.WORKLOADS[args.workload]
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK))
    try:
        measure = per_layer if args.trace else end_to_end
        session, metrics = measure(w, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    missing = [name for name, entry in metrics.items() if entry["value"] is None]
    print(json.dumps({"environment": environment(w.name, args.seed)}))
    for name, entry in metrics.items():
        value = "n/a" if entry["value"] is None else f"{entry['value']:.6g}"
        print(f"{name:48s} {value:>16s} {entry['unit']}")
    print(f"operations: {session.attempted} attempted, {session.failed} failed")
    if missing:
        print("perfbench: no successful call measured " + ", ".join(missing), file=sys.stderr)
    print(json.dumps({
        "correct": session.failed == 0 and not missing,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

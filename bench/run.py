"""Benchmark of the shipped configs through ``bohm_squeeze.cli.main``.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One worker process (``worker.py``) imports
the package, runs one untimed warm-up op, then runs ops back to back for
``--seconds``; every op's outputs are checked against references
(``checks.py``) outside the timed section.  Fresh processes time the
package's set-up at moments drawn from ``--seed``.  ``--trace 1``
alternates traced and untraced ops and reports per-layer metrics
(``tracing.py``) instead of the end-to-end ones.  Threads are pinned to one
everywhere.  The last line of standard output is the result as JSON;
README.md in this directory describes workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import socket
import statistics
import subprocess
import sys
import time
from multiprocessing.connection import Connection
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
OUT = ROOT / ".bench_out"

THREAD_PINS = {"BOHM_SQUEEZE_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
THREAD_VARS = (*THREAD_PINS, "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 15
OP_TIMEOUT_S = 150.0
PROBE_TIMEOUT_S = 60.0

# Each op runs these CLI calls, (subcommand, config), in order.
WORKLOADS = {
    "density-csv": (("density", "fig1.json"),),
    "verify-sweep": (("verify", "verify_example1.json"), ("verify", "verify_example2.json")),
    "fock-entropy": (("fock", "fock.json"), ("entropy", "entropy.json")),
}

# Set-up as a fresh process pays it: import the CLI and load a config.
PROBE = """import sys, time
t0 = time.perf_counter()
from bohm_squeeze import cli
cli.load_config(sys.argv[1])
print(time.perf_counter() - t0)
"""

END_TO_END_UNITS = {
    "op_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "output_mb": "MB",
    "success_rate": "ratio",
}
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "cli.write_mb_per_s": "MB/s",
    "closedform.sample_s": "s",
    "closedform.points": "count",
    "verify.diagonal_moments_s": "s",
    "verify.residual_grid_s": "s",
    "verify.residuals_s": "s",
    "verify.residual_points": "count",
    "verify.violations": "count",
    "fockalg.direct_s": "s",
    "fockalg.factored_s": "s",
    "fockalg.ode_s": "s",
    "fockalg.operator_mb": "MB",
    "fockalg.flagged": "count",
    "spectral.entropy_s": "s",
    "trace.op_p50_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Per-layer sizes that must repeat exactly from op to op.
COUNT_METRICS = (
    "closedform.points",
    "verify.residual_points",
    "fockalg.operator_mb",
    "verify.violations",
    "fockalg.flagged",
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment(blas_runtime: dict | None) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_build = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_build": blas_build,
        "blas_runtime": blas_runtime,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


class Run:
    """One benchmark run: a worker process, its ops and their checks."""

    def __init__(self, workload: str):
        import checks

        self.checks = checks
        self.op_root = OUT / workload
        self.calls = []
        self.configs = []
        for i, (sub, config) in enumerate(WORKLOADS[workload]):
            path = CONFIGS / config
            self.calls.append([sub, "--config", str(path), "--out", str(self.op_root / f"{i}-{sub}")])
            self.configs.append((sub, json.loads(path.read_text())))
        self.verdicts: dict[str, tuple[str | None, dict]] = {}
        self.ops: list[dict] = []  # timed ops, in order
        # A plain child process on one end of a socket pair: the worker
        # starts no helper process (as multiprocessing's spawn would) that
        # could outlive the run.
        ours, theirs = socket.socketpair()
        self.conn = Connection(ours.detach())
        child_fd = theirs.detach()
        try:
            self.proc = subprocess.Popen(
                [sys.executable, str(Path(__file__).with_name("worker.py")), str(child_fd), str(SRC)],
                pass_fds=(child_fd,),
                stdin=subprocess.DEVNULL,
            )
        finally:
            os.close(child_fd)

    def close(self) -> dict:
        """Stop the worker and return its final report."""
        self.conn.send(None)
        final = self._receive()
        self.proc.wait(OP_TIMEOUT_S)
        return final

    def kill(self) -> None:
        """Make sure the worker has ended, on every way out of a run."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.conn.close()

    def _receive(self):
        if not self.conn.poll(OP_TIMEOUT_S):
            raise RuntimeError(f"worker gave no reply within {OP_TIMEOUT_S:g} s")
        return self.conn.recv()

    def op(self, traced: bool) -> dict:
        """Run one op in the worker and check what it wrote."""
        shutil.rmtree(self.op_root, ignore_errors=True)
        self.op_root.mkdir(parents=True)
        self.conn.send((self.calls, traced))
        reply = self._receive()
        files = sorted(p for p in self.op_root.rglob("*") if p.is_file())
        digest = hashlib.blake2b(repr(reply["results"]).encode())
        for path in files:
            # Write back now, so the next op does not share the disk and a
            # processor with this op's write-back.
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
            digest.update(str(path.relative_to(self.op_root)).encode())
            digest.update(path.read_bytes())
        key = digest.hexdigest()
        if key not in self.verdicts:
            self.verdicts[key] = self._check(reply["results"])
        error, counts = self.verdicts[key]
        return {
            "seconds": reply["seconds"],
            "traced": traced,
            "error": error,
            "output_bytes": sum(p.stat().st_size for p in files),
            "counts": counts,
            "spans": reply["spans"],
        }

    def _check(self, results: list) -> tuple[str | None, dict]:
        """(None, counts) when every call exited 0 and passed its check."""
        counts: dict = {}
        for (sub, config), argv, (code, printed) in zip(self.configs, self.calls, results):
            if code != 0:
                return f"{sub}: exit code {code!r}", counts
            out_dir = Path(argv[-1]).resolve()
            paths = [Path(line).resolve() for line in printed]
            if not paths or any(out_dir not in p.parents for p in paths):
                return f"{sub}: printed paths {printed!r} are not under {out_dir}", counts
            try:
                counts.update(self.checks.CHECKS[sub](config, paths))
            except (self.checks.CheckFailed, LookupError, ValueError, TypeError, OSError) as exc:
                return f"{sub}: {type(exc).__name__}: {exc}", counts
        return None, counts


def probe_setup() -> float:
    """Seconds a fresh process takes to import the CLI and load a config."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(CONFIGS / "fig1.json")],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    return float(done.stdout.split()[-1])


def _same(values: list, what: str) -> list[str]:
    return [] if all(v == values[0] for v in values) else [f"{what} differs between ops: {values}"]


def end_to_end(ops: list[dict], setups: list[float], final: dict) -> dict:
    attempted = len(ops)
    return {
        "op_p50_s": statistics.median(op["seconds"] for op in ops),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": final["peak_rss_kib"] / 1024.0,
        "output_mb": ops[0]["output_bytes"] / 1e6,
        "success_rate": sum(op["error"] is None for op in ops) / attempted,
    }


def per_layer(ops: list[dict]) -> tuple[dict, list[str]]:
    from tracing import Span, op_layers

    traced = [op for op in ops if op["traced"]]
    plain = [op for op in ops if not op["traced"]]
    layers = []
    for op in traced:
        values = op_layers([Span(*s) for s in op["spans"]])
        values["cli.write_mb_per_s"] = op["output_bytes"] / 1e6 / values["cli.self_s"]
        values["fockalg.operator_mb"] = values.pop("fockalg.operator_bytes") / 1e6
        values["verify.violations"] = op["counts"].get("verify.violations", 0)
        values["fockalg.flagged"] = op["counts"].get("fockalg.flagged", 0)
        layers.append(values)
    problems = []
    for name in COUNT_METRICS:
        problems += _same([v[name] for v in layers], name)
    traced_p50 = statistics.median(op["seconds"] for op in traced)
    metrics = {
        name: layers[0][name] if name in COUNT_METRICS else statistics.median(v[name] for v in layers)
        for name in layers[0]
    }
    metrics["trace.op_p50_s"] = traced_p50
    metrics["trace.overhead_ratio"] = traced_p50 / statistics.median(op["seconds"] for op in plain)
    return metrics, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bohm_squeeze" / "cli.py").is_file() or not CONFIGS.is_dir():
        print(f"bench: no package source at {SRC} or configs at {CONFIGS}", file=sys.stderr)
        return 1
    os.environ.update(THREAD_PINS)
    sys.path.insert(0, str(SRC))

    rng = random.Random(args.seed)
    probe_due = sorted(rng.uniform(0.0, args.seconds) for _ in range(SETUP_PROBES))
    run = Run(args.workload)
    try:
        warm_up = run.op(traced=False)
        setups: list[float] = []
        start = time.perf_counter()
        # Ops alternate traced/untraced under --trace 1, which needs one of each.
        while time.perf_counter() - start < args.seconds or (args.trace and len(run.ops) < 2):
            run.ops.append(run.op(traced=bool(args.trace) and len(run.ops) % 2 == 0))
            while probe_due and time.perf_counter() - start >= probe_due[0]:
                probe_due.pop(0)
                setups.append(probe_setup())
        setups += [probe_setup() for _ in probe_due]
        final = run.close()
    finally:
        run.kill()

    everything = [warm_up, *run.ops]
    problems = sorted({op["error"] for op in everything if op["error"] is not None})
    problems += _same([op["output_bytes"] for op in everything], "output bytes")
    problems += _same([op["counts"] for op in everything], "check counts")
    if args.trace:
        metrics, trace_problems = per_layer(run.ops)
        problems += trace_problems
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(run.ops, setups, final)
        units = END_TO_END_UNITS
    failed = sum(op["error"] is not None for op in run.ops)
    env = environment(final["blas"])

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "op_seconds": [op["seconds"] for op in run.ops],
        "op_traced": [op["traced"] for op in run.ops],
        "setup_seconds": setups,
        "problems": problems,
        "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        spans = [s for op in run.ops for s in op["spans"]]
        fields = ["op", "name", "start", "end", "parent", "count"]
        (OUT / f"{stem}.spans.json").write_text(json.dumps({"fields": fields, "spans": spans}) + "\n")

    for problem in problems:
        print(f"bench: {problem}", file=sys.stderr)
    print(f"environment: {json.dumps(env)}")
    print(f"{args.workload}: {len(run.ops)} ops, setup probes {len(setups)}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    result = {
        "correct": not problems,
        "attempted": len(run.ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

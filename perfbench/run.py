#!/usr/bin/env python3
"""Benchmark of the acaa workbench.

    python3 perfbench/run.py --workload recognize --seed 1 --seconds 20 --trace 0

Workloads: recognize, laws, oracle, cli (see README.md).  With --trace 0
the run reports the end-to-end metrics; with --trace 1 it runs one pass
untraced and the same pass traced, and reports the per-layer metrics.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the same object, with the raw samples, is
written under .perfbench/results/.  The program is imported from src/ of
the checkout this file sits in; without it the run exits with code 2.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_PROBES = 5      # fresh processes that each time set-up; setup_s is their median
START_PROBES = 5      # fresh processes per cli start-up figure in the traced run
CHILD_TIMEOUT = 150   # seconds before a child process is killed
WORKLOADS = ("recognize", "laws", "oracle", "cli")


def child_env():
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


class Child:
    """A finished child process: exit code, wall seconds from spawn to
    reap, its own peak RSS (from wait4) and its output."""

    def __init__(self, argv, tag):
        out, err = WORK / f"{tag}-{os.getpid()}.out", WORK / f"{tag}-{os.getpid()}.err"
        with open(out, "w") as fout, open(err, "w") as ferr:
            self.spawned = time.monotonic()
            proc = subprocess.Popen(argv, stdout=fout, stderr=ferr, cwd=ROOT, env=child_env())
            timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            self.wall = time.monotonic() - self.spawned
            proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024
        self.stdout, self.stderr = out.read_text(), err.read_text()
        out.unlink()
        err.unlink()

    def last_line(self):
        lines = self.stdout.strip().splitlines()
        if self.code != 0 or not lines:
            raise RuntimeError(f"child failed with exit {self.code}: {self.stderr.strip()[-2000:]}")
        return lines[-1]


def self_argv(*args):
    return [sys.executable, str(Path(__file__).resolve()), *args]


# --- child processes ---------------------------------------------------------

def child_main(argv):
    kind = argv[0]
    if kind == "setup":
        workload, seed = argv[1], int(argv[2])
        workdir = WORK / f"probe-{os.getpid()}"
        try:
            make_work(workload, seed, workdir).inputs(0)
            ready = time.monotonic()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"ready {ready!r}")
        return 0
    if kind == "oracle":
        m = wl.modules()
        with layers.Tracer() if argv[1] == "1" else contextlib.nullcontext() as tracer:
            wall, results = wl.oracle_pass(m)
        trace = tracer.to_json() if tracer else None
        print(json.dumps({"wall": wall, "results": results, "trace": trace}))
        return 0
    if kind == "cli":
        trace_path, cli_args = argv[1], argv[2:]
        import acaa.cli

        with layers.Tracer() as tracer:
            try:
                return acaa.cli.main(cli_args)
            finally:
                Path(trace_path).write_text(json.dumps(tracer.to_json()))
    raise SystemExit(f"unknown child kind {kind!r}")


# --- workloads run in child processes ----------------------------------------

class Oracle:
    """One pass is one cold oracle pass in a fresh process."""

    def inputs(self, index):
        return None

    def run_pass(self, _inputs, traced=False):
        child = Child(self_argv("--child", "oracle", "1" if traced else "0"), "oracle")
        data = json.loads(child.last_line())
        p = wl.Pass([data["wall"]], data["wall"], rss_mb=child.rss_mb,
                    errors=wl.check_oracle(data["results"]))
        if traced:
            p.traces.append(data["trace"])
        return p


class CliRunner:
    """One pass is one round of the CLI op list, one child at a time."""

    def __init__(self, cli):
        self.cli = cli

    def inputs(self, index):
        return None

    def run_pass(self, _inputs, traced=False):
        ops, failed, errors, compute, rss = [], 0, [], [], 0.0
        trace_path = WORK / f"cli-trace-{os.getpid()}.json"
        traces = []
        for op in self.cli.ops:
            if traced:
                argv = self_argv("--child", "cli", str(trace_path), *op.argv)
            else:
                argv = [sys.executable, "-m", "acaa.cli", *op.argv]
            child = Child(argv, "cli")
            ops.append(child.wall)
            rss = max(rss, child.rss_mb)
            if traced:
                traces.append(json.loads(trace_path.read_text()))
                trace_path.unlink()
            problem = wl.check_cli_op(op, child.code, child.stdout, child.stderr)
            if problem and op.bad_input:
                failed += 1
            elif problem:
                errors.append(f"cli {' '.join(op.argv)}: {problem}")
            ms = wl.elapsed_ms(child.stderr)
            if ms is not None:
                compute.append((ms, child.wall))
        return wl.Pass(ops, sum(ops), failed=failed, errors=errors, rss_mb=rss,
                       traces=traces, compute=compute)


def start_probes():
    """Median bare interpreter start, and import times of acaa.cli and numpy."""
    def timed_import(module):
        code = f"import time; t = time.perf_counter(); import {module}; " \
               f"print(time.perf_counter() - t)"
        return 1000 * float(Child([sys.executable, "-c", code], "start").last_line())

    bare = [1000 * Child([sys.executable, "-c", "pass"], "start").wall
            for _ in range(START_PROBES)]
    return {
        "cli.python_start_ms": statistics.median(bare),
        "cli.import_ms": statistics.median(timed_import("acaa.cli")
                                           for _ in range(START_PROBES)),
        "cli.numpy_import_ms": statistics.median(timed_import("numpy")
                                                 for _ in range(START_PROBES)),
    }


# --- the run -------------------------------------------------------------------

def setup_seconds(workload, seed):
    """Set-up time of fresh processes: spawn to the point where the first
    timed op would start (imports plus building the first pass's inputs)."""
    samples = []
    for _ in range(SETUP_PROBES):
        child = Child(self_argv("--child", "setup", workload, str(seed)), "setup")
        samples.append(float(child.last_line().split()[1]) - child.spawned)
    return samples


def make_work(workload, seed, workdir):
    """The workload after set-up: the program imported and its inputs made."""
    m = wl.modules()
    if workload == "oracle":
        return Oracle()
    if workload == "cli":
        return CliRunner(wl.Cli(m, seed, str(workdir.relative_to(ROOT))))
    return (wl.Recognize if workload == "recognize" else wl.Laws)(m, seed)


def measure(work, seconds):
    """Whole passes with fresh inputs until `seconds` have gone by."""
    passes, index = [], 0
    start = time.monotonic()
    while True:
        passes.append(work.run_pass(work.inputs(index)))
        index += 1
        if time.monotonic() - start >= seconds:
            return passes


def traced_pairs(work, workload, seconds):
    """Pairs of the first pass untraced and the same pass traced, until
    `seconds` have gone by.  Returns (untraced passes, traced passes)."""
    plain, traced = [], []
    start = time.monotonic()
    while True:
        if workload in ("oracle", "cli"):
            plain.append(work.run_pass(None))
            traced.append(work.run_pass(None, traced=True))
        else:
            plain.append(work.run_pass(work.inputs(0)))
            with layers.Tracer() as tracer:
                p = work.run_pass(work.inputs(0))
            p.traces.append(tracer.to_json())
            traced.append(p)
        if time.monotonic() - start >= seconds:
            return plain, traced


def end_to_end(workload, passes, setup):
    ops = [s for p in passes for s in p.ops]
    if workload in ("oracle", "cli"):
        rss = max(p.rss_mb for p in passes)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": statistics.median(p.wall for p in passes), "unit": "s"},
        "op_p50_ms": {"value": 1000 * statistics.median(ops), "unit": "ms"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }


def run(args):
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    extra, detail, errors = {}, {}, []
    try:
        if args.trace:
            work = make_work(args.workload, args.seed, workdir)
            plain, traced = traced_pairs(work, args.workload, args.seconds)
            passes = plain + traced
            trace, problem = layers.combine([layers.merge(p.traces) for p in traced])
            errors += [problem] if problem else []
            extra["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                                         - statistics.median(p.wall for p in plain))
            if args.workload == "cli":
                extra.update(start_probes())
                compute = [c for p in plain for c in p.compute]
                extra["cli.compute_ms"] = statistics.median(ms for ms, _ in compute)
                extra["cli.startup_ms"] = statistics.median(1000 * w - ms for ms, w in compute)
            if args.workload == "oracle":
                errors += wl.check_oracle_trace(trace)
            metrics, absent = layers.per_layer(trace, extra)
            detail["absent"] = absent
            detail["overhead_walls"] = [[p.wall for p in plain], [p.wall for p in traced]]
        else:
            setup = setup_seconds(args.workload, args.seed)
            work = make_work(args.workload, args.seed, workdir)
            passes = measure(work, args.seconds)
            metrics = end_to_end(args.workload, passes, setup)
            detail["setup_samples"] = setup
            detail["pass_walls"] = [p.wall for p in passes]
        if args.workload == "laws":
            errors += work.control()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in passes:
        errors += p.errors
    result = {
        "correct": not errors,
        "attempted": sum(len(p.ops) for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(dict(result, errors=errors, **detail), indent=1))
    for name, m in metrics.items():
        note = "  (absent)" if name in detail.get("absent", ()) else ""
        print(f"{name:36s} {m['value']:.6g} {m['unit']}{note}")
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def main():
    sys.path.insert(0, str(SRC))
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        return child_main(sys.argv[2:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "acaa" / "__init__.py").is_file():
        print(f"error: no acaa sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    WORK.mkdir(exist_ok=True)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark of the ``sqzqi`` command line.

    python3 perfbench/run.py --workload closedform --seed 1 --seconds 50 --trace 0

Run from a source checkout: the program is taken from ``src/``.  With
``--trace 0`` it runs the workload's commands as a user would, one
subprocess at a time, in passes until ``--seconds`` is spent, and reports
the end-to-end metrics (medians over passes).  With ``--trace 1`` it runs
the same commands in-process through ``sqzqi.cli.main``, once untraced
and once traced, then times single layers in isolation, and reports the
per-layer metrics.  Every output is checked either way.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record (versions,
per-command results, output hashes, spans) goes to
``.bench_build/perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.metadata
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

from workloads import WORKLOADS, Op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
TRACEBACK = "Traceback (most recent call last)"
KINDS = ("analyze", "plot", "bound")
# Fresh imports per run for setup_s, half before the passes and half
# after them, so that one slow stretch of the machine does not set the
# median.  One more runs first to fill the bytecode cache.
SETUP_SAMPLES = 8
# Every run ends well inside three minutes, whatever the program does.
DEADLINE_S = 165.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass
class OpResult:
    kind: str
    args: list[str]
    wall_s: float
    returncode: int | None
    rss_mb: float | None = None
    ok: bool = False
    message: str = ""
    hashes: dict[str, str] = field(default_factory=dict)


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None  # not a git checkout
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def run_record(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _git_commit(),
        "python": sys.version.split()[0],
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "concurrency": 1,
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def spawn(argv: list[str], env: dict, stderr_path: Path, timeout: float):
    """Run one command; (returncode or None on timeout, wall s, peak RSS MB).

    The peak RSS is this child's own (``wait4``), not the ever-growing
    maximum over all children.
    """
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(max(timeout, 0.1), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    timed_out = code == -9 and timeout <= wall
    return None if timed_out else code, wall, usage.ru_maxrss / 1024.0


def check(op: Op, result: OpResult, stderr: str) -> None:
    """An operation fails if it exits non-zero, prints a traceback, or its
    outputs fail their check."""
    if result.returncode != 0:
        result.message = f"exit code {result.returncode}: {stderr.strip()[-500:]}"
    elif TRACEBACK in stderr:
        result.message = f"printed a traceback: {stderr.strip()[-500:]}"
    else:
        try:
            result.hashes = op.check()
            result.ok = True
        except Exception as exc:  # any wrong or missing output fails this operation
            result.message = f"output check: {type(exc).__name__}: {exc}"


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# --- end-to-end: subprocesses -----------------------------------------------

# the set-up every command pays; it checks nothing beyond a clean exit
SETUP = Op("setup", ("-c", "import sqzqi.cli"), lambda: {})


def run_op(op: Op, env: dict, stderr_path: Path, deadline: float) -> OpResult:
    """Run one operation as a subprocess and check it."""
    argv = [sys.executable, *op.args] if op is SETUP else [sys.executable, "-m", "sqzqi.cli",
                                                            *op.args]
    code, wall, rss = spawn(argv, env, stderr_path, deadline - time.monotonic())
    result = OpResult(op.kind, list(op.args), wall, code, rss)
    check(op, result, stderr_path.read_text(encoding="utf-8", errors="replace"))
    return result


def measure_setup(env: dict, run_dir: Path, deadline: float, samples: int) -> list[OpResult]:
    return [run_op(SETUP, env, run_dir / "setup.stderr", deadline) for _ in range(samples)]


def _last(samples: list[OpResult]) -> float:
    return samples[-1].wall_s if samples else 0.0


def end_to_end(args, run_dir: Path, deadline: float):
    """Run the command list in rounds until ``args.seconds`` is spent.

    The first round runs every command in order.  Later rounds run again
    each command whose last run still fits in the time left, those with
    the fewest runs first and, among them, the longest first, so that
    every command gathers samples spread over the whole run and short
    commands fill the time that is left.  A command's time is the median
    of its runs; ``wall_s`` sums them over the command list.  Every run's
    outputs are checked.
    """
    env = cli_env()
    ops = measure_setup(env, run_dir, deadline, 1)
    setup = measure_setup(env, run_dir, deadline, SETUP_SAMPLES // 2)
    ops += setup
    out = _fresh(run_dir / "outputs")
    commands = WORKLOADS[args.workload](args.seed, out)
    runs: list[list[OpResult]] = [[] for _ in commands]
    start = time.perf_counter()
    timed_out = False
    while not timed_out:
        ran = False
        for i in sorted(range(len(commands)), key=lambda i: (len(runs[i]), -_last(runs[i]))):
            op = commands[i]
            if runs[i]:
                last = _last(runs[i])
                if (time.perf_counter() - start + last > args.seconds
                        or time.monotonic() + 1.5 * last > deadline):
                    continue
            result = run_op(op, env, run_dir / f"op{i}.stderr", deadline)
            runs[i].append(result)
            ops.append(result)
            ran = True
            if result.returncode is None:
                timed_out = True  # out of time: nothing more is attempted
                break
        if not ran:
            break
    after = measure_setup(env, run_dir, deadline, SETUP_SAMPLES - SETUP_SAMPLES // 2)
    ops += after
    setup += after
    # a command never reached (the run timed out, so it is not correct) counts 0
    typical = [statistics.median(r.wall_s for r in samples) if samples else 0.0
               for samples in runs]
    metrics = {"setup_s": (statistics.median(r.wall_s for r in setup), "s"),
               "wall_s": (sum(typical), "s")}
    metrics["rss_peak_mb"] = (max(r.rss_mb for r in ops if r.rss_mb is not None), "MB")
    failed = sum(not r.ok for r in ops)
    metrics["success_rate"] = ((len(ops) - failed) / len(ops), "ratio")
    return metrics, ops, {"runs_per_command": [len(samples) for samples in runs]}


# --- per layer: in-process --------------------------------------------------

def run_inprocess(op: Op, main, tracer=None) -> OpResult:
    """Run one command through ``main(argv)``, traced when ``tracer`` is given."""
    stdout, stderr = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.command += 1
        tracer.install()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if tracer is None:
                code = main(list(op.args))
            else:
                code = tracer.span(f"cli.{op.kind}", main, list(op.args))
    except Exception:  # an escaping exception is this operation's failure
        code = None
        stderr.write(traceback.format_exc())
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.restore()
    result = OpResult(op.kind, list(op.args), wall, code)
    check(op, result, stderr.getvalue())
    return result


def per_layer(args, run_dir: Path, deadline: float):
    from tracing import Tracer, isolated_metrics

    # fill the bytecode cache so the in-process import times a warm start
    results = measure_setup(cli_env(), run_dir, deadline, 1)
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    cli = importlib.import_module("sqzqi.cli")
    metrics = {"cli.import_s": (time.perf_counter() - start, "s")}

    tracer = Tracer()
    plain = WORKLOADS[args.workload](args.seed, _fresh(run_dir / "untraced"))
    traced = WORKLOADS[args.workload](args.seed, _fresh(run_dir / "traced"))
    walls = {False: 0.0, True: 0.0}
    by_kind = dict.fromkeys(KINDS, 0.0)
    for i, pair in enumerate(zip(plain, traced)):
        # Each command runs untraced and traced back to back, alternating
        # which goes first, so that neither a slow stretch of the machine
        # nor a first-call cost lands on one side only.
        for op in (pair if i % 2 == 0 else pair[::-1]):
            is_traced = op is pair[1]
            results.append(run_inprocess(op, cli.main, tracer if is_traced else None))
            walls[is_traced] += results[-1].wall_s
            if not is_traced:
                by_kind[op.kind] += results[-1].wall_s
    metrics.update({f"cli.{kind}_s": (t, "s") for kind, t in by_kind.items()})
    metrics["cli.main_untraced_s"] = (walls[False], "s")
    metrics["cli.main_s"] = (walls[True], "s")
    metrics["trace.overhead_s"] = (walls[True] - walls[False], "s")
    metrics.update(tracer.layer_metrics())
    isolated, absent = isolated_metrics()
    metrics.update(isolated)
    extra = {"absent": tracer.absent + absent, "spans": [asdict(s) for s in tracer.spans]}
    return metrics, results, extra


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sqzqi" / "cli.py").is_file():
        print(f"perfbench: no program source at {SRC / 'sqzqi'}; run from a source checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    run_dir = _fresh(WORK / "runs" / f"{args.workload}-{os.getpid()}")
    measure = per_layer if args.trace else end_to_end
    metrics, ops, extra = measure(args, run_dir, deadline)
    failed = [r for r in ops if not r.ok]
    for r in failed:
        print(f"FAILED {r.kind} {' '.join(r.args)}: {r.message}", file=sys.stderr)
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {"run": run_record(args), "metrics": metrics,
              "operations": [asdict(r) for r in ops], **extra}
    results_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if not failed:
        shutil.rmtree(run_dir)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    print(f"results: {results_path}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

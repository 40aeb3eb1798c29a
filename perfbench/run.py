"""Benchmark command for the dirac package; see perfbench/README.md.

    python3 perfbench/run.py --workload sample-32 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The package is imported from
``src/`` of that checkout and nowhere else. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.
"""

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"
SETUP_PROCESSES = 5


@dataclass
class Round:
    seconds: float
    output: object


def _run_round(workload, state, tracer, fresh: bool) -> Round:
    if fresh:
        workload.build(state)
    gc.collect()  # the previous round's garbage is not this round's cost
    tracer.recording = True
    start = time.perf_counter()
    output = workload.run(state)
    seconds = time.perf_counter() - start
    tracer.recording = False
    return Round(seconds, workload.finish(state, output))


def _setup_seconds(args) -> list[float]:
    """Set-up time of fresh processes, each started with ``--setup-only``."""
    seconds = []
    for _ in range(SETUP_PROCESSES):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        seconds.append(float(child.stdout.split()[-1]))
    return seconds


def _blas_record() -> dict:
    """OpenBLAS build and thread count of numpy's and scipy's bundled copies."""
    import ctypes
    import glob

    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)

    record = {}
    for pkg, suffix in ((numpy, "64_"), (scipy, "")):
        libs = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), f"{pkg.__name__}.libs")
        for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
            lib = ctypes.CDLL(path)
            try:
                threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                config = getattr(lib, f"scipy_openblas_get_config{suffix}")
            except AttributeError:
                continue
            config.restype = ctypes.c_char_p
            record[pkg.__name__] = {"config": config().decode(), "threads": threads()}
    return record


def _environment(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _blas_record(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
        "pythonhashseed_set": "PYTHONHASHSEED" in os.environ,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print the seconds from process start to the end of set-up, and stop")
    args = parser.parse_args(argv)

    if not (SRC / "dirac" / "__init__.py").is_file():
        print(f"error: no dirac sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import dirac

    if Path(dirac.__file__).resolve().parent != (SRC / "dirac").resolve():
        print(f"error: imported dirac from {dirac.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from reference import Checks
    from spans import NullTracer, Tracer, per_layer_names, unit_of
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]()
    untraced = NullTracer()

    state = workload.setup(args.seed, untraced, WORK)
    if args.setup_only:
        print(time.perf_counter() - PROCESS_T0)
        return 0
    setups = _setup_seconds(args)

    # Untimed warm-up rounds, then whole timed rounds: another round starts
    # only while the median round so far still fits in the run length.
    warmups = [_run_round(workload, state, untraced, fresh=bool(i))
               for i in range(workload.WARMUP_ROUNDS)]
    rounds = []
    begin = time.perf_counter()
    while not rounds or (time.perf_counter() - begin
                         + statistics.median(r.seconds for r in rounds) <= args.seconds):
        rounds.append(_run_round(workload, state, untraced, fresh=bool(warmups or rounds)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            tracer.recording = True
            traced_state = workload.setup(args.seed, tracer, WORK)
            tracer.recording = False
            traced = _run_round(workload, traced_state, tracer, fresh=False)
        finally:
            tracer.uninstall()
        tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.csv")

    every_round = warmups + rounds + ([traced] if traced else [])
    first = every_round[0].output
    checks = Checks()
    workload.check(state, first, checks, np.random.default_rng(args.seed))
    for i, r in enumerate(every_round[1:], start=1):
        checks.add(f"round {i} reproduces round 0", workload.same(first, r.output))

    attempted = failed = 0
    for r in every_round:
        a, f = workload.operations(r.output)
        attempted += a
        failed += f

    round_s = statistics.median(r.seconds for r in rounds)
    setup_s = statistics.median(setups)
    figures = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb, "MB"),
               **workload.figures(state, rounds)}
    record = _environment(args)
    record.update(warmup_rounds=len(warmups), rounds=len(rounds),
                  round_seconds=[r.seconds for r in rounds], setup_seconds=setups)
    print("run: " + json.dumps(record))
    print("figures: " + json.dumps({k: {"value": v, "unit": u} for k, (v, u) in figures.items()}))
    print(f"checks: {len(checks.items)} made, {sum(not p for _, p, _ in checks.items)} failed")
    for name, passed, detail in checks.items:
        print(f"  {'ok  ' if passed else 'FAIL'} {name} {detail}".rstrip())

    if args.trace:
        layers = tracer.per_layer()
        metrics = {name: {"value": layers[name], "unit": unit_of(name)}
                   for name in per_layer_names()}
        metrics["trace.overhead_s"] = {"value": traced.seconds - round_s, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "round_s": {"value": round_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": checks.ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

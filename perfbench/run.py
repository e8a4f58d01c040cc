"""Benchmark of ctprod: one closed-loop caller, one workload per process.

Usage (from the repository root):

    python3 perfbench/run.py --workload library --seed 1 --seconds 40 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of the traced run with ``--trace 1``.
Lines before it, starting with ``#``, record the environment, the tail
percentile and its sample count, failures by operation, and the transform
counts per operation.  The program is imported from ``src/`` of the
checkout that holds this file; without it the benchmark exits with 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One BLAS thread: a single closed-loop caller, and steadier timings on a
# shared machine.  Must be set before NumPy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

# Tube lengths whose transform context each workload builds during set-up.
N3S = {"cli_real_io": (8, 64), "library": (32, 1024, 2048)}
# Fresh interpreters timed per run; setup_s is their median.  Fewer where
# one set-up takes seconds.
SETUP_SAMPLES = {"cli_real_io": 15, "library": 7}
# Percentile of op_tail_ms per workload, with TAIL_BEYOND samples or more
# beyond it from 7 cycles on.  It is fixed rather than the highest one that
# leaves TAIL_BEYOND samples, because the ops of a cycle form clusters of
# like latency and that choice flips between two percentiles, and so between
# two clusters, at a cycle count that a run of --seconds 40 straddles
# (cli_real_io: p99 or p95 at 27-30 cycles, 380 or 260 ms).  Each rank,
# 1.8 and 1.58 samples per cycle from the top, lies inside a cluster.
# Lower percentiles of TAIL_FALLBACK are used only on a run too short for it.
TAIL_PERCENTILE = {"cli_real_io": 95.0, "library": 99.0}
TAIL_FALLBACK = (90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def setup_samples(workload: str, seed: int, workdir: Path) -> tuple[list[float], float]:
    """Set-up times of SETUP_SAMPLES fresh interpreters (see probe.py), and
    the peak RSS of the last one, which also runs one cycle of the workload."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples, rss = [], None
    count = SETUP_SAMPLES[workload]
    for k in range(count):
        spec = {"workload": workload, "n3s": N3S[workload], "seed": seed if k == count - 1 else None, "workdir": str(workdir / "probe")}
        res = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), json.dumps(spec)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        out = json.loads(res.stdout.splitlines()[-1])
        if Path(out["source"]).resolve().parent.parent != SRC.resolve():
            raise SystemExit(f"error: ctprod imported from {out['source']}, not from {SRC}")
        samples.append(out["setup_s"])
        rss = out["peak_rss_mb"]
    return samples, rss


class Tally:
    """Outcomes of the timed ops, judged outside the timed region.

    The first output of each op in the cycle is checked against the
    reference; a repeat whose digest matches reuses that verdict, any other
    output is checked again.
    """

    def __init__(self, verdicts: dict):
        self.verdicts = verdicts
        self.attempted = 0
        self.failed_ops: set[int] = set()  # positions in the run, from 0
        self.failures: dict[str, list] = {}
        self.worst = 0.0

    def record(self, i, op, out, exc) -> None:
        import reference

        self.attempted += 1
        if exc is None:
            dg = op.digest(out)
            cached = self.verdicts.get(i)
            if cached is None or cached[0] != dg:
                try:
                    resid = float(op.check(out))
                except Exception as e:  # a malformed output is a failed op
                    resid, exc = float("inf"), e
                self.verdicts[i] = cached = (dg, resid, exc)
            resid, exc = cached[1], cached[2]
            if resid <= reference.PASS_TOL:
                self.worst = max(self.worst, resid)
                return
            detail = f"scaled residual {resid:.3g}" if exc is None else f"{type(exc).__name__}: {exc}"
        else:
            detail = f"{type(exc).__name__}: {exc}"
        self.failed_ops.add(self.attempted - 1)
        entry = self.failures.setdefault(op.label, [0, detail[:160]])
        entry[0] += 1

    @property
    def failed(self) -> int:
        return sum(n for n, _ in self.failures.values())


def run_cycles(cycle, tally, seconds=None, cycles=None, tracer=None) -> list[float]:
    """Closed loop over whole cycles until ``seconds`` of op time or
    ``cycles`` cycles; returns the per-op latencies."""
    lat: list[float] = []
    busy, done = 0.0, 0
    clock = time.perf_counter
    while (busy < seconds) if cycles is None else (done < cycles):
        for i, op in enumerate(cycle):
            if tracer is not None:
                tracer.begin_op(op.label)
            exc = out = None
            t0 = clock()
            try:
                out = op.run()
            except Exception as e:  # counted as a failed op, never fatal
                exc = e
            dt = clock() - t0
            lat.append(dt)
            busy += dt
            tally.record(i, op, out, exc)
        done += 1
    return lat


def best_of_cycles(lat: list[float], ops: int) -> list[float]:
    """Each sample replaced by the fastest latency of the same op in the run.

    Printed beside the measured figures only: every op of the cycle repeats
    on identical inputs, so this shows how much of a run's time the host's
    interference added, not a cost of the program.
    """
    best = [min(lat[i::ops]) for i in range(ops)]
    return [best[i % ops] for i in range(len(lat))]


def tail(lat: list[float], top: float) -> tuple[float, float, int]:
    """Tail latency (nearest rank) at percentile ``top``, or the highest of
    TAIL_FALLBACK that leaves TAIL_BEYOND samples beyond it; also returns
    the percentile used and the sample count."""
    s = sorted(lat)
    n = len(s)

    def rank(p):  # ceil(p% of n), in integers
        return -(-round(10 * p) * n // 1000)

    pct = next((p for p in (top, *TAIL_FALLBACK) if n - rank(p) >= TAIL_BEYOND), TAIL_FALLBACK[-1])
    return s[max(rank(pct) - 1, 0)], pct, n


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(N3S))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (SRC / "ctprod" / "__init__.py").is_file():
        print(f"error: no ctprod sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import ctprod
    import numpy
    import scipy

    import spans
    import workloads

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    tracer = None
    try:
        # Set-up samples and peak RSS are end-to-end metrics, not traced ones.
        samples, peak_rss = ([], None) if args.trace else setup_samples(args.workload, args.seed, workdir)
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            # Contexts built under the tracer, so transform.context_s is
            # measured even where contexts are built only during set-up.
            tracer.on = True
        ctxs = {n: ctprod.build_context(n) for n in N3S[args.workload]}
        if tracer is not None:
            tracer.on = False
            tracer.uninstall()

        wl = workloads.BUILDERS[args.workload](args.seed, ctxs, workdir)
        verdicts: dict = {}
        run_cycles(wl.cycle, Tally(verdicts), cycles=1)  # warm-up, checks every op once
        tally = Tally(verdicts)
        if tracer is None:
            lat = run_cycles(wl.cycle, tally, seconds=args.seconds)
        else:
            # Traced and untraced cycles alternate until the traced ones have
            # taken half the time, so that the host's drift falls alike on
            # both sides of trace.overhead_s.
            lat, plain = [], []
            while sum(lat) < args.seconds / 2:
                tracer.install()
                tracer.on = True
                lat += run_cycles(wl.cycle, tally, cycles=1, tracer=tracer)
                tracer.on = False
                tracer.uninstall()
                plain += run_cycles(wl.cycle, Tally(verdicts), cycles=1)
            # Once, untimed and outside the counts: the failures that the
            # workload's explicit rank cutoff keeps out of the timed cycle.
            defaults = Tally({})
            if wl.default_cutoff is not None:
                run_cycles(wl.default_cutoff(), defaults, cycles=1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "shapes": wl.shapes,
        "ops_per_cycle": len(wl.cycle),
        "cycles": len(lat) // len(wl.cycle),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "setup_samples_s": samples,
        "failures": {k: {"count": n, "first": msg} for k, (n, msg) in sorted(tally.failures.items())},
    }
    ops = len(wl.cycle)
    if tracer is None:
        t_val, t_pct, t_n = tail(lat, TAIL_PERCENTILE[args.workload])
        best = best_of_cycles(lat, ops)
        info.update(
            tail_percentile=t_pct,
            tail_samples=t_n,
            best_of_cycles_ops_per_s=len(best) / sum(best),
            best_of_cycles_p50_ms=1e3 * statistics.median(best),
            best_of_cycles_tail_ms=1e3 * tail(best, TAIL_PERCENTILE[args.workload])[0],
        )
        metrics = {
            "setup_s": (statistics.median(samples), "s"),
            "ops_per_s": (len(lat) / sum(lat), "ops/s"),
            "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
            "op_tail_ms": (1e3 * t_val, "ms"),
            "pass_rate": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
            "accuracy_digits_min": (-math.log10(max(tally.worst, 1e-17)), "digits"),
            "peak_rss_mb": (peak_rss, "MB"),
        }
    else:
        layers = tracer.layers(tally.failed_ops)
        layers["trace.overhead_s"] = (sum(lat) - sum(plain)) / len(lat)
        info["transform_counts_per_op"] = tracer.per_label()
        info["default_cutoff_attempted"] = defaults.attempted
        info["default_cutoff_failures"] = {k: {"count": n, "first": msg} for k, (n, msg) in sorted(defaults.failures.items())}
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.npz", dict(info, layers=layers))
        metrics = {k: (v, spans.UNITS[k]) for k, v in layers.items()}
    print("# " + json.dumps(info, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

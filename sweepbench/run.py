"""Sweep benchmark for the fermijunction package.

    python3 sweepbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The seed draws the workload's
sweep config (see workloads.py); the package only sees the YAML.  Every
timed sweep goes through ``fermijunction.cli.main(["sweep", CONFIG,
"--out", FILE])`` in a child interpreter with ``src/`` first on the
path, serially, without ``--threads`` or ``--seed``.

--trace 0 prints the end-to-end metrics:
  points_per_s  median over repeats of grid points per second, from
                config load to bytes on disk (one warm-up sweep first);
  setup_s       median over SETUP_LAUNCHES fresh interpreters of
                ``import fermijunction`` plus a one-point sweep of the
                workload's first grid point;
  peak_rss_mb   peak resident memory of the process that ran the
                timed sweeps.
points_per_s is normalised to the host's speed by a reference kernel
(see worker.py); the raw median is kept in the run record.
--trace 1 prints the per-layer metrics of a separate traced run (see
layers.py), the trace coverage and overhead, and the gate counts
failed_point_share and check_failures.

Both modes run the correctness gate (gate.py) on the output outside the
timed region; ``correct`` is true only when no check failed, and
``failed`` counts the grid points whose requested cells are empty.  A
run record (versions, BLAS, nproc, commit, src line count) is written
next to the outputs under sweepbench/_runs/ and printed before the
result line, which is always the last line of stdout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_LAUNCHES = 5
# Children are killed once this much time has passed since start, so a
# hung sweep still ends the run, with an error, well inside 180 s.
CHILD_DEADLINE_S = 160
_START = time.monotonic()


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child(args: list[str]) -> dict:
    """Run worker.py with ARGS; return the JSON object it prints last."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, _START + CHILD_DEADLINE_S - time.monotonic()),
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} failed ({proc.returncode}): "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(cfg: dict, work: Path, seconds: int) -> tuple[dict, dict, int]:
    first = work / "first_point.yaml"
    workloads.write_config(workloads.first_point_config(cfg), first)
    setups = [_child(["setup", str(SRC), str(first), str(work / "first_point.csv")])
              for _ in range(SETUP_LAUNCHES)]
    m = _child(["measure", str(SRC), str(work / "sweep.yaml"), str(work / "sweep.csv"),
                str(seconds)])
    points = workloads.points(cfg)
    metrics = {
        "points_per_s": _metric(statistics.median(points / t for t in m["norm_times"]), "1/s"),
        "setup_s": _metric(statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": _metric(m["peak_rss_mb"], "MB"),
    }
    samples = {
        "raw_points_per_s": statistics.median(points / t for t in m["times"]),
        "setup_s": [s["setup_s"] for s in setups],
        "sweep_s": m["times"],
        "sweep_norm_s": m["norm_times"],
        "reference_kernel_s": m["refs"],
    }
    return metrics, {"digests": m["digests"], "samples": samples}, len(m["times"])


def _per_layer(cfg: dict, work: Path, seconds: int) -> tuple[dict, dict, int]:
    t = _child(["trace", str(SRC), str(work / "sweep.yaml"), str(work / "sweep.csv"),
                str(seconds), str(work / "spans.jsonl")])
    if not t["restored"]:
        raise BenchError("a wrapped entry point was not restored after tracing")
    points = workloads.points(cfg) * len(t["traced_times"])
    traced_s = sum(t["traced_times"])
    metrics = {}
    covered = 0.0
    for layer in layers.LAYERS:
        tot = t["totals"].get(layer.name, {"calls": 0, "self_s": 0.0, "errors": 0})
        covered += tot["self_s"]
        values = {"calls_per_point": tot["calls"] / points,
                  "self_ms_per_point": 1e3 * tot["self_s"] / points,
                  "errors": tot["errors"]}
        for stat, unit in layers.LAYER_STATS:
            metrics[f"{layer.name}.{stat}"] = _metric(values[stat], unit)
    metrics["trace.coverage"] = _metric(covered / traced_s, "ratio")
    overhead = statistics.median(t["traced_times"]) / statistics.median(t["plain_times"])
    metrics["trace.overhead_share"] = _metric(overhead - 1.0, "ratio")
    # each layer's self time as a share of the traced sweep time
    shares = {name: tot["self_s"] / traced_s for name, tot in t["totals"].items()}
    detail = {"digests": t["digests"], "absent": t["absent"], "spans": t["spans"],
              "layer_shares": shares,
              "samples": {"plain_sweep_s": t["plain_times"], "traced_sweep_s": t["traced_times"]}}
    return metrics, detail, len(t["traced_times"])


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _blas() -> dict:
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*"):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"vendor": blas.get("name"), "version": blas.get("version"), "threads": threads}


def _record(args, cfg: dict) -> dict:
    import numpy as np
    import scipy

    src_lines = sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
        "config": cfg,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full",
                        help="grid size; 'tiny' is for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "fermijunction" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'fermijunction'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = HERE / "_runs" / f"{args.workload}-s{args.seed}-t{args.trace}-{args.scale}"
    work.mkdir(parents=True, exist_ok=True)
    cfg = workloads.make_config(args.workload, args.seed, args.scale)
    workloads.write_config(cfg, work / "sweep.yaml")

    try:
        measure = _per_layer if args.trace else _end_to_end
        metrics, detail, repeats = measure(cfg, work, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    g = gate.check(cfg, (work / "sweep.csv").read_bytes(), detail["digests"], args.seed)
    if args.trace:
        metrics["failed_point_share"] = _metric(g.failed_rows / max(g.rows, 1), "ratio")
        metrics["check_failures"] = _metric(len(g.failures), "count")
    record = _record(args, cfg)
    record.update(
        digest=detail["digests"][0],
        rows=g.rows,
        failed_rows=g.failed_rows,
        check_failures=g.failures,
        absent_layers=detail.get("absent", []),
        spans=detail.get("spans"),
        layer_shares=detail.get("layer_shares"),
        metrics=metrics,
        samples=detail["samples"],
    )
    (work / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    for failure in g.failures:
        print(f"check failed: {failure}")
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": not g.failures,
        "attempted": g.rows * repeats,
        "failed": g.failed_rows * repeats,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the sweep benchmark at tiny grid sizes.

    python3 sweepbench/selftest.py

Runs every workload untraced and traced at scale 'tiny' and checks that
each metric BENCHMARK.json names is emitted, with its unit, and nothing
else.  Then checks that the correctness gate counts deliberately
corrupted rows and digests, and that the layer table reports a missing
entry point as absent and restores what it wrapped.  Exits non-zero
with a message on the first failed check.
"""
from __future__ import annotations

import csv
import io
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gate  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402


def require(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest failed: {what}")


def run_tiny(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    require(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: "
            f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(spec: dict) -> None:
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run_tiny(w["name"], trace)
            require(set(result) == {"correct", "attempted", "failed", "metrics"},
                    f"{w['name']}: result keys {sorted(result)}")
            require(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                    f"{w['name']} trace={trace}: {result}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            require(got == want, f"{w['name']} trace={trace}: metrics differ: "
                    f"{sorted(set(want) ^ set(got))} or units")
            require(all(math.isfinite(v["value"]) for v in result["metrics"].values()),
                    f"{w['name']} trace={trace}: non-finite metric")
            print(f"ok  {w['name']} trace={trace}: {len(got)} metrics")


def _corrupt(payload: bytes, column: str, change) -> bytes:
    rows = list(csv.reader(io.StringIO(payload.decode())))
    col = rows[0].index(column)
    rows[1][col] = repr(change(float(rows[1][col])))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().encode()


def check_gate() -> None:
    cases = (
        ("transport_grid", "current_n1", lambda v: -v),
        ("qfi_bias", "qmi", lambda v: -0.5),
    )
    for workload, column, change in cases:
        cfg = workloads.make_config(workload, 0, "tiny")
        payload = (HERE / "_runs" / f"{workload}-s0-t0-tiny" / "sweep.csv").read_bytes()
        clean = gate.check(cfg, payload, ["d"], 0)
        require(not clean.failures, f"{workload}: clean output fails {clean.failures}")
        bad = gate.check(cfg, _corrupt(payload, column, change), ["d"], 0)
        require(len(bad.failures) > 0, f"{workload}: corrupted {column} not counted")
        drift = gate.check(cfg, payload, ["d", "e"], 0)
        require(len(drift.failures) == 1, f"{workload}: digest change not counted")
        print(f"ok  gate counts corrupted {column} on {workload}: {bad.failures}")


def check_layer_table() -> None:
    from fermijunction import liouvillian

    original = liouvillian.build_liouvillian
    missing = layers.Layer("liouvillian.no_such_function", ("liouvillian",))
    patched, absent = layers.install(layers.Tracer(), layers.LAYERS + (missing,))
    wrapped = liouvillian.build_liouvillian is not original
    layers.restore(patched)
    require(absent == [missing.name], f"absent layers {absent}")
    require(wrapped and liouvillian.build_liouvillian is original, "wrap/restore")
    print("ok  missing entry point reported absent; wrapped names restored")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_metrics(spec)
    check_gate()
    check_layer_table()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

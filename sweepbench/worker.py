"""Child process that runs one workload through the package's CLI.

    python3 worker.py setup   SRC CONFIG OUT
    python3 worker.py measure SRC CONFIG OUT SECONDS
    python3 worker.py trace   SRC CONFIG OUT SECONDS SPANS

``setup`` times ``import fermijunction`` plus a one-point sweep (config
parse, first grid point, output written) in this fresh interpreter.
``measure`` runs one untimed warm-up sweep, then repeats the sweep for
SECONDS and reports each repeat's wall time, the output digests and the
process's peak resident memory.  ``trace`` alternates untraced and
traced repeats for SECONDS and reports per-layer totals; the spans go to
SPANS.  The last line of stdout is one JSON object.

``measure`` also reports each sweep time normalised to the host's
speed: a fixed reference kernel runs before and after every sweep in
the same process, and the sweep time is scaled by REF_S over the mean
of those two kernel times.  On a shared 2-core host whose speed swings
by up to 2x from one minute to the next, sweep medians over 25 s
windows spread by 14-37% raw and by 2-3% normalised.  A change to the
package moves the normalised time as much as the raw one, because the
kernel does not use the package.  Setup times are not normalised: a
kernel run after a short-lived setup did not track its speed (IQR 8%
raw, 36% normalised over 12 launches).
"""
from __future__ import annotations

import hashlib
import json
import resource
import sys
import time

MIN_REPEATS = 3
REF_S = 0.1  # normalised times are in units of the kernel's time over REF_S
_REF_ITERATIONS = 1500


def _reference_kernel() -> float:
    """Seconds taken by a fixed mix of small numpy calls and Python loops,
    the kind of work a sweep does, independent of the package."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4))
    h = a + a.T
    b = rng.standard_normal((16, 16)) + 16.0 * np.eye(16)
    v = rng.standard_normal(16)
    acc = 0.0
    start = time.perf_counter()
    for _ in range(_REF_ITERATIONS):
        m = np.kron(a, a) + b
        acc += float(np.linalg.solve(m, v)[0]) + float(np.linalg.eigvalsh(h)[0])
        acc += sum(k * 0.5 for k in range(20))
    elapsed = time.perf_counter() - start
    if not np.isfinite(acc):
        raise SystemExit("reference kernel produced a non-finite value")
    return elapsed


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _sweep(cli, argv: list[str]) -> float:
    start = time.perf_counter()
    rc = cli.main(argv)
    elapsed = time.perf_counter() - start
    if rc != 0:
        raise SystemExit(f"sweep exited with code {rc}")
    return elapsed


def setup(src: str, config: str, out: str) -> dict:
    start = time.perf_counter()
    sys.path.insert(0, src)
    import fermijunction  # noqa: F401  (the import is what is being timed)
    from fermijunction import cli

    rc = cli.main(["sweep", config, "--out", out])
    elapsed = time.perf_counter() - start
    if rc != 0:
        raise SystemExit(f"first-point sweep exited with code {rc}")
    return {"setup_s": elapsed}


def measure(src: str, config: str, out: str, seconds: str) -> dict:
    sys.path.insert(0, src)
    from fermijunction import cli

    argv = ["sweep", config, "--out", out]
    _sweep(cli, argv)
    digests = [_digest(out)]
    _reference_kernel()  # warm-up
    refs = [_reference_kernel()]
    times: list[float] = []
    deadline = time.perf_counter() + float(seconds)
    while len(times) < MIN_REPEATS or time.perf_counter() < deadline:
        times.append(_sweep(cli, argv))
        refs.append(_reference_kernel())
        digests.append(_digest(out))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    # each sweep against the mean of the kernel runs just before and after it
    norm = [t * 2.0 * REF_S / (refs[i] + refs[i + 1]) for i, t in enumerate(times)]
    return {"times": times, "norm_times": norm, "refs": refs, "digests": digests,
            "peak_rss_mb": peak_kib / 1024.0}


def trace(src: str, config: str, out: str, seconds: str, spans_path: str) -> dict:
    sys.path.insert(0, src)
    from fermijunction import cli

    import layers

    argv = ["sweep", config, "--out", out]
    _sweep(cli, argv)
    digests = [_digest(out)]
    tracer = layers.Tracer()
    plain: list[float] = []
    traced: list[float] = []
    absent: list[str] = []
    restored = True
    deadline = time.perf_counter() + float(seconds)
    while len(traced) < MIN_REPEATS or time.perf_counter() < deadline:
        plain.append(_sweep(cli, argv))
        patched, absent = layers.install(tracer)
        try:
            tracer.new_sweep()
            traced.append(_sweep(cli, argv))
        finally:
            layers.restore(patched)
        restored = restored and all(getattr(m, a) is f for m, a, f in patched)
        digests.append(_digest(out))
    tracer.write_spans(spans_path)
    return {
        "plain_times": plain,
        "traced_times": traced,
        "totals": tracer.layer_totals(),
        "absent": absent,
        "restored": restored,
        "spans": len(tracer.spans),
        "digests": digests,
    }


if __name__ == "__main__":
    modes = {"setup": setup, "measure": measure, "trace": trace}
    result = modes[sys.argv[1]](*sys.argv[2:])
    print(json.dumps(result))

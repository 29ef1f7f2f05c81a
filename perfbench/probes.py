"""Small child processes the benchmark interleaves with the workloads.

    python3 perfbench/probes.py setup CONFIG.json
        prints the CLOCK_MONOTONIC time at which alcove.cli.build_system
        returned, so the parent can time a fresh process from its start.
    python3 perfbench/probes.py calibrate
        prints the seconds a fixed computation took, and the interpreter and
        numpy versions.  It never imports alcove, so its drift is host speed;
        the benchmark scales wall times by it.
"""

from __future__ import annotations

import json
import sys
import time


def setup(config: str) -> None:
    from alcove.cli import build_system, load_config
    build_system(load_config(config))
    print(repr(time.monotonic()))


def calibrate() -> None:
    import numpy as np
    from fractions import Fraction
    t0 = time.perf_counter()
    # interpreter work, like the exact root-system and residual code
    acc = Fraction(0)
    for i in range(1, 6000):
        acc += Fraction(i % 7, i % 5 + 1)
    counts: dict = {}
    for i in range(100_000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i
    # array work, like the dense exp-sum kernels
    idx = np.arange(200_000, dtype=np.int64)
    out = np.zeros(idx.size, dtype=complex)
    for k in range(12):
        out += np.exp(1j * (2 * np.pi / 211) * (idx * (k + 1) % 211))
    a = np.random.default_rng(0).standard_normal((160, 160))
    b = a
    for _ in range(10):
        b = np.tanh(b @ a * 1e-3)
    elapsed = time.perf_counter() - t0
    print(json.dumps({"seconds": elapsed, "python": sys.version.split()[0],
                      "numpy": np.__version__,
                      "check": float(acc) + len(counts) + float(abs(out).sum() + b.sum())}))


if __name__ == "__main__":
    if sys.argv[1:2] == ["setup"] and len(sys.argv) == 3:
        setup(sys.argv[2])
    elif sys.argv[1:] == ["calibrate"]:
        calibrate()
    else:
        raise SystemExit(__doc__)

"""Interleaved timing of the two quadratic-term kernels, the evidence behind
``spectral.FFT_RADIUS``.

    PYTHONPATH=src python3 tools/kernel_crossover.py --radii 6-14 --rounds 41

At each radius both kernels are built regardless of FFT_RADIUS and called
on one random state in alternating blocks, so drifts of the machine hit
both alike.  Prints one row per radius with median microseconds per call and the
largest difference between the kernels relative to the largest |N_k|,
then one JSON line with the same figures.  Pins numpy to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from modecascade import spectral  # noqa: E402


def build(radius: int, kernel: str) -> spectral._Tables:
    saved = spectral.FFT_RADIUS
    spectral.FFT_RADIUS = radius if kernel == "fft" else radius + 1
    try:
        return spectral._Tables(radius)
    finally:
        spectral.FFT_RADIUS = saved


def per_call(fn, data, calls: int) -> float:
    t0 = time.perf_counter()
    for _ in range(calls):
        fn(data)
    return (time.perf_counter() - t0) / calls


def measure(radius: int, rounds: int, block_s: float, seed: int) -> dict:
    triad, fft = build(radius, "triad"), build(radius, "fft")
    data = spectral.random_decaying_state(
        radius, amplitude=0.7, decay=1.5, rng=np.random.default_rng([seed, radius])).data
    kernels = {"reduceat": triad.nonlinear, "fft": fft.nonlinear}
    ref = fft.nonlinear(data)
    scale = np.abs(ref).max() or 1.0          # N = 0 at R = 1
    diff = max(np.abs(fn(data) - ref).max() for fn in kernels.values()) / scale
    # calls per block: about block_s of the slowest kernel
    calls = max(1, int(block_s / max(per_call(fn, data, 3) for fn in kernels.values())))
    times = {name: [] for name in kernels}
    order = list(kernels)
    for r in range(rounds):
        for name in (order if r % 2 == 0 else order[::-1]):
            times[name].append(per_call(kernels[name], data, calls))
    row = {name: statistics.median(t) * 1e6 for name, t in times.items()}
    row.update(radius=radius, triads=int(triad.tri_k.size), rel_diff=float(diff))
    return row


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--radii", default="6-14", help="inclusive range a-b")
    parser.add_argument("--rounds", type=int, default=41)
    parser.add_argument("--block-s", type=float, default=0.01)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.radii.split("-"))
    rows = []
    print("R   triads  reduceat_us  fft_us  rel_diff")
    for radius in range(lo, hi + 1):
        row = measure(radius, args.rounds, args.block_s, args.seed)
        rows.append(row)
        print("%-3d %7d %12.1f %7.1f  %.1e" % (
            radius, row["triads"], row["reduceat"], row["fft"], row["rel_diff"]), flush=True)
    print(json.dumps({"unit": "us per call, median", "rounds": args.rounds,
                      "nproc": os.cpu_count(), "rows": rows}))


if __name__ == "__main__":
    main()

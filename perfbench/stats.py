"""Small statistics used by run.py: medians, percentiles, reference
times and the log-log slope behind scaling_exponent."""

import math


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


# The calibration kernel's time on a quiet host (perfbench/src/calibrate.cc),
# the scale of reference times.
KERNEL_REFERENCE_MS = 2.0


def reference_ms(times, kernel_ms):
    """Each time scaled by KERNEL_REFERENCE_MS over the kernel time measured
    next to it: the time the operation would take on a host that runs the
    kernel in KERNEL_REFERENCE_MS. A slow phase of a shared host stretches
    the operation and its kernel sample alike; a change to the program
    stretches only the operation."""
    if len(times) != len(kernel_ms):
        raise ValueError("every time needs its kernel time")
    return [t * KERNEL_REFERENCE_MS / k for t, k in zip(times, kernel_ms)]


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def fit_exponent(sizes, times):
    """Least-squares slope of log(time) against log(size).

    A time proportional to size**k gives k: linear scaling gives 1.0.
    """
    if len(sizes) != len(times) or len(sizes) < 2:
        raise ValueError("need at least two (size, time) pairs")
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in times]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("sizes must not all be equal")
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx

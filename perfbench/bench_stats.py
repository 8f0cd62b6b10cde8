"""Statistics of the repository benchmark, kept free of I/O so that
perfbench/test_bench_stats.py can pin them down.

Times are in seconds unless a name says otherwise.
"""

# Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0)


def percentile(values, p):
    """The p-th percentile of values, interpolating linearly between
    the two nearest ranks (numpy's default rule)."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    rank = (len(xs) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def tail_level(n, ladder=TAIL_LADDER, beyond=10):
    """The highest percentile of the ladder with at least `beyond` of n
    samples above it, or None when even the lowest has fewer."""
    best = None
    for p in ladder:
        if n * (100.0 - p) / 100.0 >= beyond:
            best = p
    return best


def tail(values, ladder=TAIL_LADDER, beyond=10):
    """(percentile level, value) of the reportable tail of values."""
    level = tail_level(len(values), ladder, beyond)
    if level is None:
        raise ValueError("%d samples are too few for a tail" % len(values))
    return level, percentile(values, level)


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of intervals."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of it that
    its child spans cover (overlapping children are counted once).

    spans: iterable of (id, parent_id, start, end); parent 0 is none.
    Returns {id: self time}."""
    spans = list(spans)
    children = {}
    for sid, parent, t0, t1 in spans:
        children.setdefault(parent, []).append((t0, t1))
    return {
        sid: (t1 - t0) - covered(children.get(sid, []), t0, t1)
        for sid, _, t0, t1 in spans
    }


def reference_seconds(passes, ref_s):
    """Seconds a pass would take on the reference host.

    passes: (wall, kernel wall) of each timed pass and of the reference
    kernel run just before it; ref_s: the kernel's wall on the
    reference host.  The median ratio cancels a slowdown of the host
    that lasts at least one pass and its kernel run."""
    if not passes:
        raise ValueError("no passes")
    ratios = sorted(wall / kernel for wall, kernel in passes)
    n = len(ratios)
    mid = ratios[n // 2] if n % 2 else (ratios[n // 2 - 1] + ratios[n // 2]) / 2
    return mid * ref_s

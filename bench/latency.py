"""Per-call latency summaries of one run.

A run is a list of ``(call class, seconds)`` pairs. The calls of one class
repeat the same argv on the same file, so what varies between them is the
shared host's speed at that moment, not the work done. The end-to-end
timings therefore time each call as the median of its class's calls in
the run: a burst of host slowness then moves a class's median only when it
covers half of that class's calls, which are spread over the whole run.
"""

import statistics
from collections import Counter

import numpy as np


def typical_ms(timed):
    """Per call, in run order: the median ms of its class's calls."""
    by_cls = {}
    for cls, dt in timed:
        by_cls.setdefault(cls, []).append(dt)
    median = {cls: statistics.median(dts) for cls, dts in by_cls.items()}
    return np.array([median[cls] for cls, _ in timed]) * 1e3


def pooled(timed):
    """The same figures from the raw per-call times, for the record."""
    ms = np.array([dt for _, dt in timed]) * 1e3
    return {"verdicts_per_s": float(1e3 / ms.mean()), "p50_ms": float(np.percentile(ms, 50)),
            "p90_ms": float(np.percentile(ms, 90))}


def class_table(timed):
    """Per call class: count, share, median ms and the band of ranks it
    holds when calls are ordered by their class medians; and the classes
    whose medians p50 and p90 read."""
    total = len(timed)
    counts = Counter(cls for cls, _ in timed)
    median = dict(zip((cls for cls, _ in timed), typical_ms(timed)))
    classes, rank = {}, 0
    for cls in sorted(counts, key=median.get):
        classes[cls] = {"count": counts[cls], "share": counts[cls] / total,
                        "median_ms": float(median[cls]),
                        "rank_frac": [rank / total, (rank + counts[cls]) / total]}
        rank += counts[cls]

    def at(q):
        idx = round(q * (total - 1))
        return next(cls for cls, row in classes.items() if row["rank_frac"][1] * total > idx)

    return {"classes": classes, "p50_at": at(0.5), "p90_at": at(0.9)}

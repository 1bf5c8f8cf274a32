"""Fixed probe of the shared host's speed, timed between benchmark calls.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same call can take 1.7 times as long in one run as in a run a few minutes
later. The probe does a fixed amount of the kinds of work dynrel's calls
do (interpreter-bound bookkeeping, JSON emission, small dense linear
algebra) on fixed inputs, and never calls dynrel. A run times one probe
before each call, so the probes sample the host at the same moments as the
calls, and the median probe time says how fast the host was during the run.
"""

import json
import statistics
import time

import numpy as np
import scipy.linalg

# median probe time, in ms, on the host the benchmark was sized on (see
# README.md); end-to-end timings are scaled to a host this fast
PROBE_REF_MS = 5.0

_rng = np.random.default_rng(20040246)
_A10 = _rng.standard_normal((10, 10)) / np.sqrt(10) - 2.0 * np.eye(10)
_B10 = _rng.standard_normal((10, 3))
_A30 = _rng.standard_normal((30, 30))
_GRID = np.logspace(-2, 2, 40)


def _work():
    eye = np.eye(10)
    peaks = [float(np.linalg.norm(np.linalg.solve(1j * w * eye - _A10, _B10), 2))
             for w in _GRID]
    sv = np.linalg.svd(_A30, compute_uv=False)
    ev = np.linalg.eigvals(_A30)
    ex = scipy.linalg.expm(0.1 * _A10)
    report = {"peaks": peaks, "sv": sv.tolist(), "ev": [[z.real, z.imag] for z in ev],
              "expm": ex.tolist(), "rows": [{"k": k, "v": list(range(k))} for k in range(60)]}
    return len(json.dumps(report, indent=2, sort_keys=True))


def probe():
    """Seconds one fixed unit of work takes now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def scale(probes):
    """Factor that takes times measured alongside ``probes`` (seconds)
    to a host on which the probe takes PROBE_REF_MS."""
    return PROBE_REF_MS / (statistics.median(probes) * 1e3)

"""Measurement helpers shared by every workload; no repro imports.

- the percentile rule: report the highest percentile that still has at
  least ten samples beyond it, and say how many samples there were;
- open-loop accounting: latency is measured from when a request was due,
  and the generator's own lateness is kept apart;
- the calibration loop and the normalisation of CPU-bound timings by it;
- provenance of a result (source digest, CPU count, versions).

Every timing uses ``time.perf_counter`` (ns resolution), never tick
clocks such as ``os.times``.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

#: Candidate percentiles for a tail, highest first.
TAIL_PERCENTILES = (0.999, 0.99, 0.9, 0.5)

#: Samples a reported percentile needs beyond it.
MIN_BEYOND = 10

#: Latency charged to a failed or refused request: it misses every limit.
FAILED_LATENCY_S = 60.0

#: Calibration time of the reference host (2 vCPU KVM guest, Python
#: 3.11, numpy 2.4).  Normalised timings read as seconds on that host.
CALIB_REF_S = 0.0065


def nearest_rank(sorted_values, q: float) -> float:
    """Nearest-rank ``q`` percentile of an ascending sample."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def beyond(count: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q`` percentile's rank."""
    return count - max(1, math.ceil(q * count))


def tail(values) -> tuple[float, float, int]:
    """The highest percentile with ten samples beyond it.

    Returns ``(q, value, count)``.  With too few samples for even the
    median to qualify, the median is returned all the same, and the count
    tells the reader how little it rests on.
    """
    ordered = sorted(values)
    for q in TAIL_PERCENTILES:
        if beyond(len(ordered), q) >= MIN_BEYOND:
            return q, nearest_rank(ordered, q), len(ordered)
    return 0.5, nearest_rank(ordered, 0.5), len(ordered)


def median(values) -> float:
    """Median of a non-empty sample."""
    return statistics.median(values)


class OpenLoop:
    """Schedule and accounting of an open-loop request stream.

    Request ``i`` is due at ``start + i / rate``.  Its latency runs from
    that due time, not from when it was actually sent, so a stall also
    counts against the requests it delayed; how late the generator sent
    each request is kept separately as ``lateness``.
    """

    def __init__(self, rate: float, start: float):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = float(rate)
        self.start = float(start)
        self.latencies: list[float] = []
        self.lateness: list[float] = []
        self.failed = 0

    def due(self, index: int) -> float:
        """When request ``index`` is scheduled to be sent."""
        return self.start + index / self.rate

    def record(self, index: int, sent: float, done: float, ok: bool) -> None:
        """Account one request sent at ``sent`` and answered at ``done``."""
        due = self.due(index)
        self.lateness.append(max(0.0, sent - due))
        if ok:
            self.latencies.append(done - due)
        else:
            self.failed += 1
            self.latencies.append(FAILED_LATENCY_S)

    @property
    def attempted(self) -> int:
        """Requests sent so far."""
        return len(self.latencies)


def calibrate(passes: int = 25) -> float:
    """Seconds one fixed loop of numpy and interpreter work takes.

    The mix mirrors what the program spends time on: axis reductions over
    a 2^16-cell tensor (the fit), many small-array numpy calls (the scan
    kernels) and plain interpreter work (imports, request handling).  The
    loop touches no repro code, so a change to the program cannot move
    it; dividing a timing by it removes the host's speed drift.  The loop
    runs ``passes`` times and the median pass is returned, so a pass that
    was preempted does not count.
    """
    import numpy as np

    joint = np.full((2,) * 16, 1.0 / 65536)
    # A preallocated output keeps the loop off the allocator, whose state
    # (glibc's adaptive mmap threshold) the program under test changes.
    margin = np.empty((2,) * 15)
    small = np.linspace(0.1, 1.0, 16)
    times = []
    for _ in range(passes):
        started = time.perf_counter()
        for axis in range(16):
            joint.sum(axis=axis, out=margin)
        total = 0.0
        for _ in range(1000):
            total += float(np.dot(small, small))
        count = 0
        for index in range(60_000):
            count += index & 7
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def normalise(raw_s: float, calib_s: float, ref_s: float = CALIB_REF_S) -> float:
    """A CPU-bound timing restated at the reference host's speed."""
    if calib_s <= 0:
        raise ValueError(f"calibration time must be positive, got {calib_s}")
    return raw_s * ref_s / calib_s


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) of a process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM line for process {pid}")


def source_digest(root: Path) -> str:
    """sha256 over the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(root: Path, workload: str, seed: int) -> dict:
    """Where a result came from: code, host and inputs."""
    import numpy as np

    sha = None
    if (root / ".git").exists():
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": sha,
        "source_sha256": source_digest(root),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "calib_ref_s": CALIB_REF_S,
    }


if __name__ == "__main__":
    # A calibration helper process: one calibration per input line, so a
    # multi-threaded load generator can calibrate without holding its GIL.
    import sys

    for _ in sys.stdin:
        print(calibrate(), flush=True)

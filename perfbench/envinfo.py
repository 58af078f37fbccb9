"""Where a run was made: interpreter, CPUs, filesystem and a measured fsync cost.

fsync-bound numbers are only comparable between runs on the same kind of
filesystem and device, so every run prints these next to its metrics.
"""

from __future__ import annotations

import os
import platform
import time
from pathlib import Path

from stats import median


def filesystem_type(path: Path) -> str:
    """Type of the filesystem holding path, from the longest matching mount in /proc/self/mounts."""
    target = str(path.resolve())
    best, best_type = "", "unknown"
    with open("/proc/self/mounts", encoding="utf-8") as fh:
        for line in fh:
            fields = line.split()
            if len(fields) < 3:
                continue
            mount = fields[1].replace("\\040", " ")
            inside = target == mount or target.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) > len(best):
                best, best_type = mount, fields[2]
    return best_type


def fsync_cost_us(directory: Path, count: int = 100) -> tuple[float, float]:
    """Median and mean of `count` fsyncs, each after rewriting one 4 KiB block."""
    path = directory / "fsync_probe.bin"
    block = b"\xa5" * 4096
    times = []
    fd = os.open(path, os.O_CREAT | os.O_WRONLY | os.O_TRUNC, 0o600)
    try:
        for _ in range(count):
            os.pwrite(fd, block, 0)
            t0 = time.perf_counter_ns()
            os.fsync(fd)
            times.append((time.perf_counter_ns() - t0) / 1e3)
    finally:
        os.close(fd)
        path.unlink()
    return median(times), sum(times) / len(times)


def describe(directory: Path) -> dict:
    fsync_median, fsync_mean = fsync_cost_us(directory)
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "filesystem": filesystem_type(directory),
        "fsync_4k_us_median": round(fsync_median, 1),
        "fsync_4k_us_mean": round(fsync_mean, 1),
        "flush_policy": "fsync on every commit, as the program does",
        "note": "latencies are this machine's, mostly served from the page cache; not device numbers",
    }

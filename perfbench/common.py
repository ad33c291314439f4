"""Shared helpers: checkout paths, statistics, process-tree accounting,
and the row comparisons behind the correctness gate."""

from __future__ import annotations

import ctypes
import math
import os
import resource
import shutil
import statistics
import sys
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

#: The checkout root (the directory holding ``perfbench/`` and ``src/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Everything the benchmark writes lives under here (git-ignored).
BUILD = os.path.join(ROOT, ".bench_build")
CKERNEL_DIR = os.path.join(BUILD, "ckernel")
WORK = os.path.join(BUILD, "perfbench")
TRACES = os.path.join(WORK, "traces")

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Simulated metrics may differ by this relative amount across paths
#: (the repo's fast-vs-reference and batched-vs-solo contract).
METRIC_RTOL = 1e-9

#: Iterations of the host-speed probe loop (a few ms per CPU).
PROBE_N = 30_000
#: Probes that ended within this many seconds of a timed sample set its
#: scale: the host's speed holds for tens of seconds, and more probes
#: average out the probe's own noise.
PROBE_WINDOW_S = 5.0
#: Seconds the probe loop takes on the reference host: one vCPU of the
#: 2-vCPU x86-64 VM (Python 3.11) the baseline was recorded on, at a
#: quiet time.  Timed metrics are reported at this host speed.
REFERENCE_PROBE_S = 4e-3


def program_present() -> bool:
    """True when the checkout holds the program's sources."""
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def child_env() -> Dict[str, str]:
    """Environment for processes the benchmark starts (and itself)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_CKERNEL_DIR"] = CKERNEL_DIR
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    env["MALLOC_MMAP_THRESHOLD_"] = str(MMAP_THRESHOLD)
    return env


#: glibc's mmap threshold, fixed (see :func:`bootstrap`).
MMAP_THRESHOLD = 1 << 20
_M_MMAP_THRESHOLD = -3


def bootstrap() -> None:
    """Point this process at the checkout's sources and build cache, and
    make its memory use repeatable.  Must run before numpy is imported.

    numpy asks for transparent huge pages on large arrays, and whether
    the host grants them depends on its free memory.  glibc by default
    raises its mmap threshold each time a large block is freed, so later
    large arrays stay in its heap after they are freed.  Either moved
    ``eq5-batched``'s peak RSS between 367 and 559 MB from run to run of
    one seed; with both off it reads 106 MB on every run.  Processes the
    benchmark starts get the same settings through :func:`child_env`.
    """
    os.environ["REPRO_CKERNEL_DIR"] = CKERNEL_DIR
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    libc = ctypes.CDLL("libc.so.6")
    libc.mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    libc.mallopt.restype = ctypes.c_int
    if libc.mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) != 1:
        raise OSError("mallopt(M_MMAP_THRESHOLD) failed")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def ckernel_cache_cold() -> bool:
    """True when no compiled batch kernel sits in the build cache yet."""
    try:
        names = os.listdir(CKERNEL_DIR)
    except FileNotFoundError:
        return True
    return not any(n.startswith("simple_pass-") for n in names)


def fresh_dir(name: str) -> str:
    """An empty work directory ``WORK/<name>-<pid>``."""
    path = os.path.join(WORK, f"{name}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (1-99), linear between ranks."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def beyond(values: Sequence[float], q: int) -> int:
    """How many samples lie above the ``q``-th percentile."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


# -- CPU and memory of a process tree ---------------------------------------

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            text = fh.read()
    except OSError:
        return None
    return text[text.rindex(")") + 2:].split()


def tree_pids(root: int) -> List[int]:
    """``root`` and every live descendant."""
    children: Dict[int, List[int]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            fields = _stat_fields(int(name))
            if fields is not None:
                children.setdefault(int(fields[1]), []).append(int(name))
    found, frontier = [root], [root]
    while frontier:
        frontier = [c for p in frontier for c in children.get(p, ())]
        found.extend(frontier)
    return found


def tree_cpu_s(root: int) -> float:
    """User+system CPU seconds of a process tree, reaped children included."""
    total = 0
    for pid in tree_pids(root):
        fields = _stat_fields(pid)
        if fields is not None:
            total += sum(int(fields[k]) for k in (11, 12, 13, 14))
    return total / _TICK


def tree_peak_rss_mb(root: int) -> float:
    """Sum of the peak resident sizes (VmHWM) over a process tree."""
    total_kb = 0
    for pid in tree_pids(root):
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


def self_cpu_s() -> float:
    """User+system CPU seconds of this process (all threads)."""
    times = os.times()
    return times.user + times.system


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process so far."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- host speed --------------------------------------------------------------

def _probe_loop() -> float:
    """Fixed interpreter work: dict stores and float arithmetic."""
    table: Dict[int, float] = {}
    acc = 0.0
    for i in range(PROBE_N):
        table[i & 255] = acc
        acc += (i * 1.000001) % 7.3
    return acc


class HostSpeed:
    """Host-speed probes taken between a run's timed samples.

    The host is shared: other tenants slow its CPUs by tens of percent
    for tens of seconds at a time, in CPU time as much as in wall time.
    The probe, a fixed pure-Python loop timed once on each CPU this
    process may use, slows by the same share as the program beside it.
    A sample taken between probes ``k - 1`` and ``k``, times
    :meth:`scale` of ``k``, reads as it would on the reference host; a
    change to the program moves it by the same share as the raw time.
    """

    def __init__(self) -> None:
        #: Seconds of each probe (mean over CPUs).
        self.samples: List[float] = []
        #: ``(start, end)`` of each probe, ``time.perf_counter`` seconds.
        self.spans: List[Tuple[float, float]] = []

    def probe(self) -> int:
        """Take one probe; returns its index."""
        start = time.perf_counter()
        cpus = os.sched_getaffinity(0)
        seconds = []
        try:
            for cpu in sorted(cpus):
                os.sched_setaffinity(0, {cpu})
                t0 = time.perf_counter()
                _probe_loop()
                seconds.append(time.perf_counter() - t0)
        finally:
            os.sched_setaffinity(0, cpus)
        self.samples.append(statistics.fmean(seconds))
        self.spans.append((start, time.perf_counter()))
        return len(self.samples) - 1

    def scale(self, k: int) -> float:
        """Reference over the median probe time near probe ``k``: every
        probe that ended within :data:`PROBE_WINDOW_S` of it, and probe
        ``k - 1`` (the other side of the sample)."""
        end = self.spans[k][1]
        window = [
            seconds for j, (seconds, span) in
            enumerate(zip(self.samples, self.spans))
            if abs(span[1] - end) <= PROBE_WINDOW_S or j == k - 1
        ]
        return REFERENCE_PROBE_S / statistics.median(window)

    def run_scale(self) -> float:
        """Reference over the median probe time of the whole run."""
        return REFERENCE_PROBE_S / statistics.median(self.samples)

    @property
    def spent_s(self) -> float:
        """Wall seconds spent probing."""
        return sum(end - start for start, end in self.spans)


def reference_median(samples: Sequence[float], speed: HostSpeed) -> float:
    """Median of ``samples`` at reference host speed; sample ``k`` was
    taken between probes ``k`` and ``k + 1``."""
    return statistics.median(
        [value * speed.scale(k + 1) for k, value in enumerate(samples)]
    )


# -- row comparison ----------------------------------------------------------

def values_match(a: Any, b: Any, rtol: float) -> bool:
    """Equal, NaN-equal, or floats within ``rtol`` (relative, floor 1)."""
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return abs(a - b) <= rtol * max(1.0, abs(b))
    return a == b


def metric_mismatches(got: Mapping[str, Any], want: Mapping[str, Any],
                      rtol: float = METRIC_RTOL) -> List[str]:
    """Names of metrics that differ (missing on either side counts)."""
    return [
        key for key in sorted(set(got) | set(want))
        if key not in got or key not in want
        or not values_match(got[key], want[key], rtol)
    ]


def compare_rows(label: str, got: Mapping[str, Mapping[str, Any]],
                 want: Mapping[str, Mapping[str, Any]],
                 rtol: float = METRIC_RTOL) -> List[str]:
    """Compare ``{spec_hash: metrics}`` maps; returns problem lines."""
    errors = []
    missing = sorted(set(want) - set(got))
    if missing:
        errors.append(f"{label}: {len(missing)} row(s) missing, "
                      f"e.g. {missing[0]}")
    for key in sorted(set(want) & set(got)):
        bad = metric_mismatches(got[key], want[key], rtol)
        if bad:
            errors.append(f"{label}: row {key} differs in {bad[:4]}")
    return errors

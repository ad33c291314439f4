"""The runtime-compiled C chunk recurrence.

``chunk_loop`` is a literal transcription of
:meth:`~repro.power.rail.SupplyRail._chunk_loop` for one rail (any
number of voltage sources, converter-less power sources with the
``e_cap`` clamp, leakage, ESR draw overhead, resistive / current /
constant demand terms and any number of loads), dispatching
simple-shaped chunks to ``lane_tail``, the transcription of
:meth:`SupplyRail._chunk_loop_simple`.  Every fast-kernel chunk runs
through it (:class:`ChunkLoop`).

Exactness: the C body performs the same IEEE-754 double operations in
the same order as the Python loops (CPython floats are C doubles), and
the build disables contraction (``-ffp-contract=off -fno-fast-math``)
so no fused multiply-add can perturb a rounding.  A self-check at load
time replays small chunks covering every branch against the Python
loops and discards the library on any bit difference.

Everything degrades gracefully: no compiler, a failed build, a failed
self-check, or ``REPRO_BATCH_CKERNEL=0`` leave the Python chunk loops
in charge.  Failed loads are counted in
``repro_ckernel_load_failures_total{reason}``; the rung chunks run on
is the ``chunk.kernel`` domain of :mod:`repro.degrade`.  The compiled
object is cached on disk keyed by a digest of the source and flags, so
each machine compiles once.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import struct
import subprocess
import tempfile
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import faults, obs
from repro.sim.kernel import VoltageSourcePlan

#: ``chunk_loop`` frame layout, in 8-byte slots: the header below, then
#: per source (address, kind, drop, r_total), per load (kind,
#: resistance, e_const, current, current_gain, v_rising, v_falling),
#: then per load its committed energy (out) and a scratch slot.  The
#: first five header slots are read and written back.
_HEADER = (
    "v", "harvested", "leaked", "consumed", "starved",
    "capacitance", "v_max", "draw_overhead", "leak", "has_leak", "dt",
)
_SOURCE_SLOTS = 4
_LOAD_SLOTS = 7
#: Source and load kinds as the frame encodes them.
_VOLTAGE, _POWER = 0.0, 1.0
_CONSTANT, _RESISTIVE, _CURRENT = 0.0, 1.0, 2.0

_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <string.h>

#define HDR %(header)d
#define SRC_SLOTS %(source_slots)d
#define LOAD_SLOTS %(load_slots)d

/* Exact transcription of SupplyRail._chunk_loop_simple, starting at
   step i0.  Returns the committed step count (an event boundary leaves
   the voltage at its pre-step value). */
static int64_t lane_tail(
    const double *values, int64_t i0, int64_t n,
    double *v_io, double C, double vm, double dp, double rt,
    double ed, double vr, double vf, double dtv,
    double *hv_io, double *co_io, double *st_io, double *row)
{
    const double half_c = 0.5 * C;
    double vv = *v_io, hv = *hv_io, co = *co_io, st = *st_io;
    int64_t i = i0;
    while (i < n) {
        double head = values[i] - vv - dp;
        double vn, dh;
        if (head > 0.0) {
            double before = half_c * vv * vv;
            vn = vv + (head / rt * dtv) / C;
            if (vn > vm) vn = vm;
            dh = half_c * vn * vn - before;
        } else {
            vn = vv;
            dh = 0.0;
        }
        if (vn >= vr || vn < vf) break;
        double avail = half_c * vn * vn;
        double delivered;
        if (ed >= avail) { vn = 0.0; delivered = avail; }
        else { vn = sqrt(2.0 * (avail - ed) / C); delivered = ed; }
        hv += dh;
        co += delivered;
        st += ed - delivered;
        vv = vn;
        row[i] = vv;
        ++i;
    }
    *v_io = vv; *hv_io = hv; *co_io = co; *st_io = st;
    return i;
}

static const double *slot_pointer(const double *slot)
{
    uint64_t address;
    memcpy(&address, slot, sizeof address);
    return (const double *) (uintptr_t) address;
}

/* Exact transcription of SupplyRail._chunk_loop for one rail; a
   simple-shaped chunk (one voltage source, one constant load, no
   leakage, no draw overhead) runs lane_tail, the transcription of
   _chunk_loop_simple, and commits taken * e_dem as that loop does.
   Frame layout: see _HEADER in _ckernel.py.  Returns the committed
   step count; vcc receives the committed voltages. */
int64_t chunk_loop(int64_t n, int64_t n_src, int64_t n_loads,
                   double *frame, double *vcc)
{
    const double *src = frame + HDR;
    const double *ld = src + SRC_SLOTS * n_src;
    double *esums = (double *) ld + LOAD_SLOTS * n_loads;
    double *edems = esums + n_loads;
    double v = frame[0], harvested = frame[1], leaked = frame[2];
    double consumed = frame[3], starved = frame[4];
    const double C = frame[5], v_max = frame[6], overhead = frame[7];
    const double leak = frame[8];
    const int has_leak = frame[9] != 0.0;
    const double dt = frame[10];
    int64_t i = 0;
    if (n_src == 1 && src[1] == %(voltage)r && n_loads == 1
            && ld[0] == %(constant)r && !has_leak && overhead == 1.0) {
        double ed = ld[2];
        i = lane_tail(slot_pointer(src), 0, n, &v, C, v_max, src[2],
                      src[3], ed, ld[5], ld[6], dt,
                      &harvested, &consumed, &starved, vcc);
        esums[0] = (double) i * ed;
    } else {
        const double half_c = 0.5 * C;
        const double e_cap = half_c * v_max * v_max;
        for (int64_t j = 0; j < n_loads; ++j) esums[j] = 0.0;
        while (i < n) {
            double v0 = v, tv = v0, h_t = harvested;
            for (int64_t s = 0; s < n_src; ++s) {
                const double *sp = src + SRC_SLOTS * s;
                const double *values = slot_pointer(sp);
                if (sp[1] == %(voltage)r) {
                    double head = values[i] - v0 - sp[2];
                    if (head > 0.0) {
                        double before = half_c * tv * tv;
                        double vn = tv + (head / sp[3] * dt) / C;
                        tv = vn > v_max ? v_max : vn;
                        h_t += half_c * tv * tv - before;
                    }
                } else {
                    double p = values[i];
                    if (p > 0.0) {
                        double e = half_c * tv * tv;
                        double e_new = e + p * dt;
                        if (e_new > e_cap) {
                            double accepted = e_cap - e;
                            tv = v_max;
                            h_t += accepted > 0.0 ? accepted : 0.0;
                        } else {
                            tv = sqrt(2.0 * e_new / C);
                            h_t += p * dt;
                        }
                    }
                }
            }
            double le_t = leaked;
            if (has_leak && tv != 0.0) {
                double before = half_c * tv * tv;
                tv *= leak;
                le_t += before - half_c * tv * tv;
            }
            double co_t = consumed, st_t = starved;
            int event = 0;
            for (int64_t j = 0; j < n_loads; ++j) {
                const double *lp = ld + LOAD_SLOTS * j;
                if (tv >= lp[5] || tv < lp[6]) { event = 1; break; }
                double e_dem;
                if (lp[0] == %(resistive)r)
                    e_dem = tv * tv / lp[1] * dt + lp[2];
                else if (lp[0] == %(current)r)
                    e_dem = ((lp[3] * tv) * lp[4]) * dt + lp[2];
                else
                    e_dem = lp[2];
                double demand = e_dem * overhead;
                double avail = half_c * tv * tv;
                double delivered;
                if (demand >= avail) {
                    tv = 0.0;
                    delivered = avail / overhead;
                } else {
                    tv = sqrt(2.0 * (avail - demand) / C);
                    delivered = demand / overhead;
                }
                co_t += delivered;
                st_t += e_dem - delivered;
                edems[j] = e_dem;
            }
            if (event) break;  /* discard the step: it reruns per step */
            v = tv;
            harvested = h_t;
            leaked = le_t;
            consumed = co_t;
            starved = st_t;
            for (int64_t j = 0; j < n_loads; ++j) esums[j] += edems[j];
            vcc[i] = v;
            ++i;
        }
    }
    frame[0] = v; frame[1] = harvested; frame[2] = leaked;
    frame[3] = consumed; frame[4] = starved;
    return i;
}
""" % {
    "header": len(_HEADER),
    "source_slots": _SOURCE_SLOTS,
    "load_slots": _LOAD_SLOTS,
    "voltage": _VOLTAGE,
    "constant": _CONSTANT,
    "resistive": _RESISTIVE,
    "current": _CURRENT,
}

#: No ``-march``: correctly-rounded scalar/SSE2 code is both portable
#: and (measured) faster here than the wide-vector encodings, and the
#: contraction switches guarantee no FMA rewrites the rounding sequence.
_CFLAGS = ["-O3", "-fPIC", "-shared", "-fno-fast-math", "-ffp-contract=off"]

#: File-name prefix of the cached shared object.  Keep it:
#: ``perfbench/common.py`` (``ckernel_cache_cold``) looks for files
#: starting ``simple_pass-``.
_SO_PREFIX = "simple_pass"

_UNSET = object()
_cached: object = _UNSET

#: Circuit breaker on the runtime build: after this many consecutive
#: failed compile attempts the loader stops invoking the compiler and
#: the Python rungs stay in charge until :func:`reset_breaker` (a flaky
#: toolchain should cost a bounded number of build attempts, not one
#: per ``reset_cache``/process-pool respawn).  Successful builds —
#: including cache hits — close the breaker.
BREAKER_THRESHOLD = 3
_compile_failures = 0


def breaker_open() -> bool:
    """True when repeated compile failures disabled further attempts."""
    return _compile_failures >= BREAKER_THRESHOLD


def reset_breaker() -> None:
    """Close the compile circuit breaker (tests, operator override)."""
    global _compile_failures
    _compile_failures = 0


def _note_compile_failure() -> None:
    global _compile_failures
    _compile_failures += 1
    obs.counter("repro_ckernel_compile_failures_total").inc()
    if _compile_failures == BREAKER_THRESHOLD:
        obs.counter("repro_ckernel_breaker_trips_total").inc()
        obs.instant("ckernel.breaker_open", failures=_compile_failures)


def _cache_dir() -> str:
    override = os.environ.get("REPRO_CKERNEL_DIR")
    if override:
        return override
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro-ckernel")


def _find_compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _compile() -> Optional[str]:
    """Build (or reuse) the shared object; returns its path or None."""
    global _compile_failures
    if breaker_open():
        return None
    digest = hashlib.sha256(
        ("\x00".join([_SOURCE] + _CFLAGS)).encode()
    ).hexdigest()[:16]
    # The injection fires *before* the disk-cache check so chaos runs
    # exercise the breaker even on machines holding a warm build cache.
    if faults.fire("ckernel.compile_fail", digest):
        _note_compile_failure()
        return None
    cache = _cache_dir()
    so_path = os.path.join(cache, f"{_SO_PREFIX}-{digest}.so")
    if os.path.exists(so_path):
        _compile_failures = 0
        return so_path
    compiler = _find_compiler()
    if compiler is None:
        # No toolchain at all is a permanent condition, not a flaky
        # build — it neither trips nor closes the breaker.
        return None
    try:
        os.makedirs(cache, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=cache) as work:
            c_path = os.path.join(work, f"{_SO_PREFIX}.c")
            with open(c_path, "w") as fh:
                fh.write(_SOURCE)
            tmp_so = os.path.join(work, f"{_SO_PREFIX}.so")
            result = subprocess.run(
                [compiler, *_CFLAGS, "-o", tmp_so, c_path, "-lm"],
                capture_output=True,
                timeout=120,
            )
            if result.returncode != 0:
                _note_compile_failure()
                return None
            # Atomic publish: concurrent builders (warm-pool workers)
            # race benignly to install identical bytes.
            os.replace(tmp_so, so_path)
        _compile_failures = 0
        return so_path
    except (OSError, subprocess.SubprocessError):
        _note_compile_failure()
        return None


def _bind(so_path: str):
    """The library's ``chunk_loop`` as a ctypes function."""
    chunk = ctypes.CDLL(so_path).chunk_loop
    chunk.restype = ctypes.c_int64
    # Raw addresses, not ndpointer: a chunk averages a few dozen steps,
    # so per-call argument checking would cost more than the loop.
    chunk.argtypes = [
        ctypes.c_int64,   # n
        ctypes.c_int64,   # n_src
        ctypes.c_int64,   # n_loads
        ctypes.c_void_p,  # frame
        ctypes.c_void_p,  # vcc
    ]
    return chunk


class ChunkLoop:
    """Runs the compiled ``chunk_loop`` for one rail.

    Owns the rail's frame and voltage buffers with their addresses
    resolved once, so a chunk costs one ``struct`` pack, the foreign
    call and two unpacks.  Source plans are read in place through their
    ``address``.
    """

    __slots__ = (
        "_fn", "_pack", "_state", "_energies", "_energies_at",
        "_frame", "_frame_address", "_vcc", "_vcc_address",
    )

    def __init__(self, fn, n_sources: int, n_loads: int):
        self._fn = fn
        inputs = (
            len(_HEADER) + _SOURCE_SLOTS * n_sources + _LOAD_SLOTS * n_loads
        )
        self._pack = struct.Struct(
            "=%dd" % len(_HEADER) + "Q3d" * n_sources + "7d" * n_loads
        ).pack_into
        self._state = struct.Struct("=5d").unpack_from
        self._energies = struct.Struct("=%dd" % n_loads).unpack_from
        self._energies_at = 8 * inputs
        self._frame = (ctypes.c_double * (inputs + 2 * n_loads))()
        self._frame_address = ctypes.addressof(self._frame)
        self._vcc = np.empty(0)
        self._vcc_address = 0

    def run(
        self, physics, plans: Sequence, profiles: Sequence,
        v: float, leak: Optional[float], dt: float, n: int, stats,
    ) -> Optional[Tuple[int, List[float], np.ndarray]]:
        """One chunk with the Python loops' semantics, or None.

        Writes the rail ``stats`` totals and the storage voltage back
        like :meth:`SupplyRail._chunk_loop`, and returns ``(taken,
        per-load committed energies, voltages)``; ``voltages`` is a view
        of the rail's buffer, valid until the next chunk.  None (nothing
        touched) when a plan cannot be read in place: no known address,
        fewer than ``n`` values, or a converter in front of a power
        source.
        """
        fields = [
            v, stats.harvested, stats.leaked, stats.consumed, stats.starved,
            physics.capacitance, physics.v_max, physics.draw_overhead,
            0.0 if leak is None else leak, 0.0 if leak is None else 1.0, dt,
        ]
        for plan in plans:
            address = plan.address
            if not address or len(plan.values) < n:
                return None
            if isinstance(plan, VoltageSourcePlan):
                fields += (address, _VOLTAGE, plan.drop, plan.r_total)
            elif plan.converter is None:
                fields += (address, _POWER, 0.0, 1.0)
            else:
                return None
        for profile in profiles:
            resistance = profile.resistance
            if resistance is not None:
                kind = _RESISTIVE
            else:
                resistance = 0.0
                kind = _CURRENT if profile.current != 0.0 else _CONSTANT
            fields += (
                kind, resistance, profile.power * dt + profile.energy,
                profile.current, profile.current_gain,
                profile.v_rising, profile.v_falling,
            )
        if n > len(self._vcc):
            self._vcc = np.empty(max(n, 2 * len(self._vcc)))
            self._vcc_address = self._vcc.ctypes.data
        frame = self._frame
        self._pack(frame, 0, *fields)
        taken = self._fn(
            n, len(plans), len(profiles),
            self._frame_address, self._vcc_address,
        )
        (
            v, stats.harvested, stats.leaked, stats.consumed, stats.starved,
        ) = self._state(frame, 0)
        physics.write_voltage(v)
        energies = list(self._energies(frame, self._energies_at))
        return taken, energies, self._vcc[:taken]


def _replay(chunk_loop, rail, plans, profiles, n):
    """One chunk through the compiled loop, or the Python loops when
    ``chunk_loop`` is None; every result as plain Python values.

    ``rail`` is ``(capacitance, v_max, leak_tau, draw_overhead, v0,
    dt)``.  Returns ``(taken, v, harvested, leaked, consumed, starved,
    energies, voltages)``.
    """
    from repro.power.rail import SupplyRail
    from repro.sim.kernel import CapacitorPhysics

    capacitance, v_max, leak_tau, overhead, v0, dt = rail
    cell = [v0]
    physics = CapacitorPhysics(
        capacitance, v_max, leak_tau, overhead,
        read_voltage=lambda: cell[0],
        write_voltage=lambda v: cell.__setitem__(0, v),
    )
    host = SupplyRail(storage=None)
    leak = physics.leak_factor(dt)
    if chunk_loop is None:
        taken, energies = host._python_chunk(
            physics, plans, profiles, v0, leak, dt, n
        )
        voltages = list(host._chunk_vcc)
    else:
        taken, energies, voltages = ChunkLoop(
            chunk_loop, len(plans), len(profiles)
        ).run(physics, plans, profiles, v0, leak, dt, n, host.stats)
        voltages = voltages.tolist()
    stats = host.stats
    return (taken, cell[0], stats.harvested, stats.leaked, stats.consumed,
            stats.starved, list(energies), voltages)


def _self_check(chunk_loop) -> bool:
    """Replay small chunks through the compiled ``chunk_loop`` and demand
    results bit-identical to the Python loops.

    Three simple-shaped chunks exercise ``lane_tail``: charging, the
    v_max clamp, a starved step, a non-charging step, and an event
    boundary before the horizon.  General chunks run voltage and power
    sources with the ``e_cap`` clamp, leakage, ESR overhead, resistive,
    current and constant loads to their horizon, and again with an
    event on the third load, a starving one (leakage skipped at zero
    volts), a charging and starving one, one starving through the ESR
    overhead, one whose event is the clamp voltage itself (general and
    simple-shaped), a simple-shaped one and a source-less one.
    """
    from repro.sim.kernel import (
        LoadProfile, PowerSourcePlan, VoltageSourcePlan,
    )

    n = 40
    steps = np.arange(n, dtype=float)
    plan = np.ascontiguousarray(
        np.maximum(1.2 * np.sin(steps * 0.7), 0.0)
    )
    simple = [
        # (v0, C, v_max, drop, r_total, e_dem, v_rise, v_fall, dt)
        (0.30, 47e-6, 3.3, 0.2, 150.0, 5e-11, 2.9, -np.inf, 50e-6),
        (0.90, 10e-6, 1.0, 0.2, 50.0, 1e-9, 1.0, -np.inf, 50e-6),
        (0.05, 22e-6, 3.3, 0.2, 500.0, 2e-7, 2.9, 0.01, 50e-6),
    ]
    for v0, C, vm, dp, r, e, rise, fall, step in simple:
        rail = (C, vm, None, 1.0, v0, step)
        plans = [VoltageSourcePlan(plan, dp, r, plan.ctypes.data)]
        profiles = [LoadProfile(energy=e, v_rising=rise, v_falling=fall)]
        if (_replay(chunk_loop, rail, plans, profiles, n)
                != _replay(None, rail, plans, profiles, n)):
            return False

    n = 400
    steps = np.arange(n)
    wave = np.ascontiguousarray(np.maximum(3.6 * np.sin(steps * 0.3), 0.0))
    power = np.ascontiguousarray(
        np.where(steps % 9 < 2, 0.5, np.where(steps % 9 < 5, 1e-3, 0.0))
    )
    charge = VoltageSourcePlan(wave, 0.2, 150.0, wave.ctypes.data)
    mixed = [charge, PowerSourcePlan(power, None, power.ctypes.data)]
    cases = [
        ((10e-6, 3.3, 2e-3, 1.02, 1.0, 5e-5), mixed,
         [LoadProfile(power=1e-3, resistance=2000.0),
          LoadProfile(current=2e-3, current_gain=1.1, energy=1e-9),
          LoadProfile(power=5e-4, energy=2e-9)]),
        ((10e-6, 3.3, 2e-3, 1.02, 1.0, 5e-5), mixed,
         [LoadProfile(power=1e-3, resistance=2000.0),
          LoadProfile(current=2e-3, current_gain=1.1, energy=1e-9),
          LoadProfile(power=5e-4, energy=2e-9, v_rising=3.19)]),
        ((4.7e-6, 3.3, 5e-3, 1.02, 0.4, 5e-5),
         [VoltageSourcePlan(wave, 0.2, 5000.0, wave.ctypes.data)],
         [LoadProfile(resistance=50.0), LoadProfile(energy=1e-6)]),
        ((33e-6, 3.3, 5e-2, 1.05, 0.3, 1e-4),
         [VoltageSourcePlan(wave, 0.1, 77.7, wave.ctypes.data)],
         [LoadProfile(resistance=5000.0), LoadProfile(energy=3e-6)]),
        ((10e-6, 3.3, None, 1.02, 3.1, 5e-5), [charge],
         [LoadProfile(energy=1e-3)]),
        ((10e-6, 3.3, None, 1.0, 1.0, 5e-5),
         [PowerSourcePlan(power, None, power.ctypes.data)],
         [LoadProfile(power=1e-4, v_rising=3.3)]),
        ((22e-6, 3.3, None, 1.0, 0.5, 5e-5), [charge],
         [LoadProfile(power=1e-4, v_rising=0.9, v_falling=0.1)]),
        ((10e-6, 3.3, None, 1.0, 3.1, 5e-5),
         [VoltageSourcePlan(wave, 0.2, 5.0, wave.ctypes.data)],
         [LoadProfile(energy=1e-9, v_rising=3.3)]),
        ((22e-6, 3.3, None, 1.02, 2.0, 5e-5), [],
         [LoadProfile(current=1e-3, current_gain=0.9, v_falling=1.5)]),
    ]
    for rail, plans, profiles in cases:
        if (_replay(chunk_loop, rail, plans, profiles, n)
                != _replay(None, rail, plans, profiles, n)):
            return False
    return True


def _note_load_failure(reason: str, **attrs) -> None:
    obs.counter("repro_ckernel_load_failures_total", reason=reason).inc()
    obs.instant("ckernel.load_failed", reason=reason, **attrs)


def load():
    """The compiled ``chunk_loop`` (a ctypes function), or None when
    unavailable.

    A build that raises while loading, or that fails the self-check, is
    discarded and counted in
    ``repro_ckernel_load_failures_total{reason=exception|selfcheck}``.
    """
    global _cached
    if _cached is not _UNSET:
        return _cached
    chunk_loop = None
    if os.environ.get("REPRO_BATCH_CKERNEL", "1") != "0":
        try:
            so_path = _compile()
            if so_path is not None:
                candidate = _bind(so_path)
                if _self_check(candidate):
                    chunk_loop = candidate
                else:
                    _note_load_failure("selfcheck")
        except Exception as error:
            # The loader is a boundary: a broken build must degrade to
            # the Python rung, never stop a run, and is counted.
            _note_load_failure(
                "exception", error=f"{type(error).__name__}: {error}"
            )
    _cached = chunk_loop
    return chunk_loop


def reset_cache() -> None:
    """Forget the memoized load result (tests toggle the env switch)."""
    global _cached
    _cached = _UNSET

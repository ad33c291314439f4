"""The runtime-compiled C kernels: the chunk recurrence and the
mini-ISA interpreter, in one library.

``chunk_loop`` is a literal transcription of the Python chunk loop,
:func:`~repro.power.rail.chunk_loop`, for one rail: any number of
voltage sources, converter-less power sources with the ``e_cap``
clamp, leakage, ESR draw overhead, and any number of loads with
resistive / current / constant demand terms.  :class:`ChunkLoop` runs
it with the Python loop's call shape, and every fast-kernel chunk it
can read goes through it.

``machine_run`` is a literal transcription of the dispatch loop of
:meth:`~repro.mcu.machine.Machine.run` over the predecoded image
(:class:`MachineLoop`).  It stops with an exit reason at ``halt``, a
``ckpt`` pause, a fault or the end of the budget, and before every
``in``/``out``: port handlers and all float work stay in Python.

Exactness: the C bodies perform the same IEEE-754 double operations in
the same order as the Python loops (CPython floats are C doubles) and
the same 16-bit word arithmetic, and the build disables contraction
(``-ffp-contract=off -fno-fast-math``) so no fused multiply-add can
perturb a rounding.  A self-check at load time replays small chunks
covering every branch, each under two V_cc envelope periods, against
the Python chunk loop, and small programs covering every opcode and
fault against the Python interpreter, and discards the library on any
difference.

Everything degrades gracefully: no compiler, a failed build, a failed
self-check, or ``REPRO_BATCH_CKERNEL=0`` leave the Python loops in
charge of both.  Failed loads are counted in
``repro_ckernel_load_failures_total{reason}``; the rungs chunks and
machines run on are the ``chunk.kernel`` and ``mcu.kernel`` domains of
:mod:`repro.degrade`.  The compiled object is cached on disk keyed by a
digest of the source and flags, so each machine compiles once.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import struct
import subprocess
import tempfile
from array import array
from typing import Any, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro import faults, obs
from repro.sim.kernel import LoadProfile, PowerSourcePlan, VoltageSourcePlan

#: ``chunk_loop`` frame layout, in 8-byte slots: the header below, then
#: per source (address, kind, drop, r_total), per load (kind,
#: resistance, e_const, current, current_gain, v_rising, v_falling),
#: then per load its committed energy (out) and a scratch slot.  The
#: first eight header slots (the ``RailStats`` totals and V_cc
#: envelope) are read and written back.
_HEADER = (
    "v", "harvested", "leaked", "consumed", "starved", "vcc_min", "vcc_max",
    "vcc_phase", "capacitance", "v_max", "draw_overhead", "leak", "has_leak",
    "dt", "vcc_every",
)
_SOURCE_SLOTS = 4
_LOAD_SLOTS = 7
#: Source and load kinds as the frame encodes them.
_VOLTAGE, _POWER = 0.0, 1.0
_CONSTANT, _RESISTIVE, _CURRENT = 0.0, 1.0, 2.0

#: ``machine_run`` state layout, in int64 slots after r0..r15.  All but
#: ``address`` (a data fault's address, out only) are read and written
#: back.
_MACHINE_STATE = ("pc", "cycles", "instructions", "reads", "writes", "address")
#: ``machine_run`` exit reasons: the budget is spent, ``halt``, a
#: ``ckpt`` pause, an ``in``/``out`` to run in Python (not executed),
#: and the faults: PC out of range, data read or write out of range.
(
    EXIT_BUDGET, EXIT_HALT, EXIT_CKPT, EXIT_PORT,
    EXIT_PC, EXIT_READ, EXIT_WRITE,
) = range(7)
_INT64_MAX = 2 ** 63 - 1

_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <string.h>

#define HDR %(header)d
#define SRC_SLOTS %(source_slots)d
#define LOAD_SLOTS %(load_slots)d

static const double *slot_pointer(const double *slot)
{
    uint64_t address;
    memcpy(&address, slot, sizeof address);
    return (const double *) (uintptr_t) address;
}

/* Exact transcription of repro.power.rail.chunk_loop for one rail.
   Frame layout: see _HEADER in _ckernel.py.  Returns the committed
   step count; vcc receives the committed voltages, and every
   vcc_every-th step since reset widens the envelope. */
int64_t chunk_loop(int64_t n, int64_t n_src, int64_t n_loads,
                   double *frame, double *vcc)
{
    const double *src = frame + HDR;
    const double *ld = src + SRC_SLOTS * n_src;
    double *esums = (double *) ld + LOAD_SLOTS * n_loads;
    double *edems = esums + n_loads;
    double v = frame[0], harvested = frame[1], leaked = frame[2];
    double consumed = frame[3], starved = frame[4];
    double vcc_min = frame[5], vcc_max = frame[6];
    int64_t phase = (int64_t) frame[7];
    const double C = frame[8], v_max = frame[9], overhead = frame[10];
    const double leak = frame[11];
    const int has_leak = frame[12] != 0.0;
    const double dt = frame[13];
    const int64_t every = (int64_t) frame[14];
    const double half_c = 0.5 * C;
    const double e_cap = half_c * v_max * v_max;
    int64_t i = 0;
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
        if (++phase >= every) {
            phase = 0;
            if (v < vcc_min) vcc_min = v;
            if (v > vcc_max) vcc_max = v;
        }
        ++i;
    }
    frame[0] = v; frame[1] = harvested; frame[2] = leaked;
    frame[3] = consumed; frame[4] = starved;
    frame[5] = vcc_min; frame[6] = vcc_max; frame[7] = (double) phase;
    return i;
}

#define WORD(x) ((int64_t) ((uint64_t) (x) & 0xFFFF))
#define SIGNED(x) ((WORD(x) ^ 0x8000) - 0x8000)
#define ORDER(x) (WORD(x) ^ 0x8000)  /* orders words as their signed values */

/* Exact transcription of Machine.run's dispatch loop over the
   predecoded image: five int64 slots (op, a, b, c, cost) per
   instruction, opcodes numbered as _MNEMONICS in machine.py numbers
   them.  Word arithmetic runs in uint64 so wrap-around is defined and
   the low 16 bits match Python's.  state holds r0..r15 then
   _MACHINE_STATE (see _ckernel.py).  Returns the exit reason; on a
   fault or a port instruction pc names that instruction and the
   counters exclude it. */
int64_t machine_run(const int64_t *code, int64_t n_code, int64_t *data,
                    int64_t n_data, int64_t *state, int64_t max_cycles,
                    int64_t stop_at_ckpt)
{
    int64_t r[16];
    memcpy(r, state, sizeof r);
    int64_t pc = state[16], cycles = state[17], instructions = state[18];
    int64_t reads = state[19], writes = state[20], address = 0;
    int64_t reason = %(exit_budget)d;
    while (cycles < max_cycles) {
        /* Unsigned: a negative PC (a ret to a corrupted address) is out
           of range too. */
        if ((uint64_t) pc >= (uint64_t) n_code) {
            reason = %(exit_pc)d;
            break;
        }
        const int64_t *ins = code + 5 * pc;
        const int64_t a = ins[1], b = ins[2], c = ins[3];
        switch (ins[0]) {
        case 0:  /* add */
            r[a] = WORD((uint64_t) r[b] + (uint64_t) r[c]); ++pc; break;
        case 1:  /* ldi */
            r[a] = c; ++pc; break;
        case 2:  /* ld */
            address = SIGNED(r[b]) + c;
            if (address < 0 || address >= n_data) {
                reason = %(exit_read)d;
                goto out;
            }
            ++reads;
            if (a) r[a] = WORD(data[address]);
            ++pc; break;
        case 3:  /* st */
            address = SIGNED(r[b]) + c;
            if (address < 0 || address >= n_data) {
                reason = %(exit_write)d;
                goto out;
            }
            ++writes;
            data[address] = WORD(r[a]);
            ++pc; break;
        case 4:  /* mulq */
            r[a] = WORD((SIGNED(r[b]) * SIGNED(r[c])) >> 15); ++pc; break;
        case 5:  /* srai */
            r[a] = WORD(SIGNED(r[b]) >> c); ++pc; break;
        case 6:  /* sub */
            r[a] = WORD((uint64_t) r[b] - (uint64_t) r[c]); ++pc; break;
        case 7:  /* addi */
            r[a] = WORD((uint64_t) r[b] + (uint64_t) c); ++pc; break;
        case 8:  /* subi */
            r[a] = WORD((uint64_t) r[b] - (uint64_t) c); ++pc; break;
        case 9:  /* bne */
            pc = r[a] != r[b] ? c : pc + 1; break;
        case 10:  /* blt */
            pc = ORDER(r[a]) < ORDER(r[b]) ? c : pc + 1; break;
        case 11:  /* shri */
            r[a] = WORD(r[b]) >> c; ++pc; break;
        case 12:  /* shli */
            r[a] = WORD((uint64_t) r[b] << c); ++pc; break;
        case 13:  /* andi */
            r[a] = r[b] & c; ++pc; break;
        case 14:  /* or */
            r[a] = WORD(r[b] | r[c]); ++pc; break;
        case 15:  /* mul */
            r[a] = WORD((uint64_t) r[b] * (uint64_t) r[c]); ++pc; break;
        case 16:  /* bge */
            pc = ORDER(r[a]) >= ORDER(r[b]) ? c : pc + 1; break;
        case 17:  /* beq */
            pc = r[a] == r[b] ? c : pc + 1; break;
        case 18:  /* jmp */
            pc = a; break;
        case 19:  /* mov */
            r[a] = WORD(r[b]); ++pc; break;
        case 20:  /* xor */
            r[a] = WORD(r[b] ^ r[c]); ++pc; break;
        case 21:  /* and */
            r[a] = r[b] & r[c] & 0xFFFF; ++pc; break;
        case 22:  /* ori */
            r[a] = WORD(r[b] | c); ++pc; break;
        case 23:  /* xori */
            r[a] = WORD(r[b] ^ c); ++pc; break;
        case 24:  /* shl */
            r[a] = WORD((uint64_t) r[b] << (r[c] & 15)); ++pc; break;
        case 25:  /* shr */
            r[a] = WORD(r[b]) >> (r[c] & 15); ++pc; break;
        case 26:  /* sra */
            r[a] = WORD(SIGNED(r[b]) >> (r[c] & 15)); ++pc; break;
        case 27:  /* slt */
            r[a] = ORDER(r[b]) < ORDER(r[c]) ? 1 : 0; ++pc; break;
        case 28:  /* slti */
            r[a] = SIGNED(r[b]) < c ? 1 : 0; ++pc; break;
        case 29:  /* ckpt */
            ++pc;
            if (stop_at_ckpt) {
                cycles += ins[4];
                ++instructions;
                reason = %(exit_ckpt)d;
                goto out;
            }
            break;
        case 30:  /* call */
            address = WORD((uint64_t) r[15] - 1);
            if (address >= n_data) {
                reason = %(exit_write)d;
                goto out;
            }
            ++writes;
            data[address] = WORD(pc + 1);
            r[15] = address;
            pc = a; break;
        case 31:  /* ret */
            address = r[15];
            if (address < 0 || address >= n_data) {
                reason = %(exit_read)d;
                goto out;
            }
            ++reads;
            pc = data[address];
            r[15] = WORD((uint64_t) address + 1); break;
        case 32:  /* push */
            address = WORD((uint64_t) r[15] - 1);
            if (address >= n_data) {
                reason = %(exit_write)d;
                goto out;
            }
            ++writes;
            data[address] = WORD(r[a]);
            r[15] = address;
            ++pc; break;
        case 33:  /* pop */
            address = r[15];
            if (address < 0 || address >= n_data) {
                reason = %(exit_read)d;
                goto out;
            }
            ++reads;
            if (a) r[a] = WORD(data[address]);
            r[15] = WORD((uint64_t) address + 1);
            ++pc; break;
        case 34:  /* in */
        case 35:  /* out */
            reason = %(exit_port)d;
            goto out;
        case 36:  /* nop */
            ++pc; break;
        default:  /* halt */
            cycles += ins[4];
            ++instructions;
            reason = %(exit_halt)d;
            goto out;
        }
        cycles += ins[4];
        ++instructions;
    }
out:
    memcpy(state, r, sizeof r);
    state[16] = pc; state[17] = cycles; state[18] = instructions;
    state[19] = reads; state[20] = writes; state[21] = address;
    return reason;
}
""" % {
    "header": len(_HEADER),
    "source_slots": _SOURCE_SLOTS,
    "load_slots": _LOAD_SLOTS,
    "voltage": _VOLTAGE,
    "resistive": _RESISTIVE,
    "current": _CURRENT,
    "exit_budget": EXIT_BUDGET,
    "exit_halt": EXIT_HALT,
    "exit_ckpt": EXIT_CKPT,
    "exit_port": EXIT_PORT,
    "exit_pc": EXIT_PC,
    "exit_read": EXIT_READ,
    "exit_write": EXIT_WRITE,
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
    """Build (or reuse) the shared object; returns its path or None.

    A failed build is counted as
    ``repro_ckernel_load_failures_total{reason=compile}``; a missing
    compiler is a configuration, not a failure, and is not counted.
    """
    digest = hashlib.sha256(
        ("\x00".join([_SOURCE] + _CFLAGS)).encode()
    ).hexdigest()[:16]
    # The injection fires *before* the disk-cache check so chaos runs
    # reach the Python rung even on machines holding a warm build cache.
    if faults.fire("ckernel.compile_fail", digest):
        _note_load_failure("compile")
        return None
    cache = _cache_dir()
    so_path = os.path.join(cache, f"{_SO_PREFIX}-{digest}.so")
    if os.path.exists(so_path):
        return so_path
    compiler = _find_compiler()
    if compiler is None:
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
                _note_load_failure("compile")
                return None
            # Atomic publish: concurrent builders (warm-pool workers)
            # race benignly to install identical bytes.
            os.replace(tmp_so, so_path)
        return so_path
    except (OSError, subprocess.SubprocessError):
        _note_load_failure("compile")
        return None


class Kernel(NamedTuple):
    """The library's functions as ctypes functions."""

    chunk_loop: Any
    machine_run: Any


def _bind(so_path: str) -> Kernel:
    """The library's ``chunk_loop`` and ``machine_run``."""
    library = ctypes.CDLL(so_path)
    chunk = library.chunk_loop
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
    machine = library.machine_run
    machine.restype = ctypes.c_int64
    machine.argtypes = [
        ctypes.c_void_p,  # code
        ctypes.c_int64,   # n_code
        ctypes.c_void_p,  # data
        ctypes.c_int64,   # n_data
        ctypes.c_void_p,  # state
        ctypes.c_int64,   # max_cycles
        ctypes.c_int64,   # stop_at_ckpt
    ]
    return Kernel(chunk, machine)


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
        self._state = struct.Struct("=8d").unpack_from
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
        """One chunk of :func:`repro.power.rail.chunk_loop`, or None.

        Same arguments, results and write-back as that function:
        returns ``(taken, per-load committed energies, voltages)``, with
        ``voltages`` a view of the rail's buffer, valid until the next
        chunk.  None (nothing touched) when a plan cannot be read in
        place: no known address, fewer than ``n`` values, or a converter
        in front of a power source.
        """
        fields = [
            v, stats.harvested, stats.leaked, stats.consumed, stats.starved,
            stats.vcc_min, stats.vcc_max, stats.vcc_phase,
            physics.capacitance, physics.v_max, physics.draw_overhead,
            0.0 if leak is None else leak, 0.0 if leak is None else 1.0, dt,
            stats.vcc_every,
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
            stats.vcc_min, stats.vcc_max, phase,
        ) = self._state(frame, 0)
        stats.vcc_phase = int(phase)
        physics.write_voltage(v)
        energies = list(self._energies(frame, self._energies_at))
        return taken, energies, self._vcc[:taken]


class MachineLoop:
    """Runs the compiled ``machine_run`` for one machine.

    Packs the predecoded image once into an int64 buffer.  A call packs
    the registers, PC and counters into the state buffer with one
    ``struct``, runs the foreign loop on data memory in place and
    unpacks once.  Data memory is an ``array('q')`` whose address is
    read per call: the machine rebuilds it on boot, power failure and
    restore.
    """

    __slots__ = ("_fn", "_code", "_code_address", "_n_code",
                 "_state", "_state_address")

    _layout = struct.Struct("=%dq" % (16 + len(_MACHINE_STATE)))

    def __init__(self, fn, code: Sequence[Tuple[int, ...]]):
        self._fn = fn
        self._code = array("q", [field for ins in code for field in ins])
        self._code_address = self._code.buffer_info()[0]
        self._n_code = len(code)
        self._state = array("q", bytes(self._layout.size))
        self._state_address = self._state.buffer_info()[0]

    def run(
        self, registers: List[int], pc: int, cycles: int, instructions: int,
        reads: int, writes: int, data: array, max_cycles: int,
        stop_at_ckpt: bool,
    ) -> Tuple[int, ...]:
        """Run until an exit; returns ``(reason, pc, cycles,
        instructions, reads, writes, address)``.

        ``registers`` is updated in place and ``data`` written through;
        the counters continue from the values passed in, so the caller
        can resume after handling a port instruction.
        """
        state = self._state
        self._layout.pack_into(state, 0, *registers, pc, cycles,
                               instructions, reads, writes, 0)
        data_address, n_data = data.buffer_info()
        reason = self._fn(
            self._code_address, self._n_code, data_address, n_data,
            self._state_address,
            # No run reaches 2**63 cycles; the cap keeps any int budget
            # a valid int64, as the Python loop accepts any int.
            min(max_cycles, _INT64_MAX), stop_at_ckpt,
        )
        values = self._layout.unpack_from(state)
        registers[:] = values[:16]
        return (reason,) + values[16:]


def _replay(compiled, rail, plans, profiles, n, envelope):
    """One chunk through the compiled ``chunk_loop``, or the Python loop
    when ``compiled`` is None; every result as plain Python values.

    ``rail`` is ``(capacitance, v_max, leak_tau, draw_overhead, v0,
    dt)`` and ``envelope`` the starting ``RailStats`` envelope fields.
    Returns ``(taken, v, RailStats fields, energies, voltages)``.
    """
    from repro.power.rail import RailStats, chunk_loop
    from repro.sim.kernel import CapacitorPhysics

    capacitance, v_max, leak_tau, overhead, v0, dt = rail
    cell = [v0]
    physics = CapacitorPhysics(
        capacitance, v_max, leak_tau, overhead,
        read_voltage=lambda: cell[0],
        write_voltage=lambda v: cell.__setitem__(0, v),
    )
    run = chunk_loop if compiled is None else ChunkLoop(
        compiled, len(plans), len(profiles)
    ).run
    stats = RailStats(**envelope)
    taken, energies, voltages = run(
        physics, plans, profiles, v0, physics.leak_factor(dt), dt, n, stats
    )
    return (taken, cell[0], vars(stats), list(energies),
            np.asarray(voltages, dtype=float).tolist())


def _chunk_self_check(compiled) -> bool:
    """Replay small chunks through the compiled ``chunk_loop`` and demand
    results bit-identical to the Python loop.

    The cases run voltage and power sources with the ``e_cap`` clamp,
    leakage, ESR overhead, resistive, current and constant loads to
    their horizon, and again with an event on the third load, a
    starving one (leakage skipped at zero volts), a charging and
    starving one, one starving through the ESR overhead, one whose
    event is the clamp voltage itself, and a source-less one.  The
    Fig. 7 quiescent shape (one rectified source, one constant load, an
    ideal capacitor) covers charging, the v_max clamp, a starved step,
    a non-charging step and an event boundary before the horizon.  Each
    case samples its V_cc envelope every step from empty, and again
    every 17th step entered mid-period on a non-empty envelope.
    """
    ripple = np.ascontiguousarray(
        np.maximum(1.2 * np.sin(np.arange(40, dtype=float) * 0.7), 0.0)
    )
    n = 400
    steps = np.arange(n)
    wave = np.ascontiguousarray(np.maximum(3.6 * np.sin(steps * 0.3), 0.0))
    power = np.ascontiguousarray(
        np.where(steps % 9 < 2, 0.5, np.where(steps % 9 < 5, 1e-3, 0.0))
    )

    def rectified(values, drop, r_total):
        return VoltageSourcePlan(values, drop, r_total, values.ctypes.data)

    charge = rectified(wave, 0.2, 150.0)
    mixed = [charge, PowerSourcePlan(power, None, power.ctypes.data)]
    # (steps, (C, v_max, leak_tau, draw_overhead, v0, dt), plans, loads)
    cases = [
        (40, (47e-6, 3.3, None, 1.0, 0.30, 50e-6),
         [rectified(ripple, 0.2, 150.0)],
         [LoadProfile(energy=5e-11, v_rising=2.9)]),
        (40, (10e-6, 1.0, None, 1.0, 0.90, 50e-6),
         [rectified(ripple, 0.2, 50.0)],
         [LoadProfile(energy=1e-9, v_rising=1.0)]),
        (40, (10e-6, 1.0, None, 1.0, 0.99, 50e-6),
         [rectified(ripple, 0.0, 5.0)], [LoadProfile(energy=1e-9)]),
        (40, (22e-6, 3.3, None, 1.0, 0.05, 50e-6),
         [rectified(ripple, 0.2, 500.0)],
         [LoadProfile(energy=2e-7, v_rising=2.9, v_falling=0.01)]),
        (n, (10e-6, 3.3, 2e-3, 1.02, 1.0, 5e-5), mixed,
         [LoadProfile(power=1e-3, resistance=2000.0),
          LoadProfile(current=2e-3, current_gain=1.1, energy=1e-9),
          LoadProfile(power=5e-4, energy=2e-9)]),
        (n, (10e-6, 3.3, 2e-3, 1.02, 1.0, 5e-5), mixed,
         [LoadProfile(power=1e-3, resistance=2000.0),
          LoadProfile(current=2e-3, current_gain=1.1, energy=1e-9),
          LoadProfile(power=5e-4, energy=2e-9, v_rising=3.19)]),
        (n, (4.7e-6, 3.3, 5e-3, 1.02, 0.4, 5e-5),
         [rectified(wave, 0.2, 5000.0)],
         [LoadProfile(resistance=50.0), LoadProfile(energy=1e-6)]),
        (n, (33e-6, 3.3, 5e-2, 1.05, 0.3, 1e-4),
         [rectified(wave, 0.1, 77.7)],
         [LoadProfile(resistance=5000.0), LoadProfile(energy=3e-6)]),
        (n, (10e-6, 3.3, None, 1.02, 3.1, 5e-5), [charge],
         [LoadProfile(energy=1e-3)]),
        (n, (10e-6, 3.3, None, 1.0, 1.0, 5e-5),
         [PowerSourcePlan(power, None, power.ctypes.data)],
         [LoadProfile(power=1e-4, v_rising=3.3)]),
        (n, (22e-6, 3.3, None, 1.0, 0.5, 5e-5), [charge],
         [LoadProfile(power=1e-4, v_rising=0.9, v_falling=0.1)]),
        (n, (10e-6, 3.3, None, 1.0, 3.1, 5e-5), [rectified(wave, 0.2, 5.0)],
         [LoadProfile(energy=1e-9, v_rising=3.3)]),
        (n, (22e-6, 3.3, None, 1.02, 2.0, 5e-5), [],
         [LoadProfile(current=1e-3, current_gain=0.9, v_falling=1.5)]),
    ]
    envelopes = [
        {}, dict(vcc_every=17, vcc_phase=5, vcc_min=0.4, vcc_max=0.6)
    ]
    return all(
        _replay(compiled, rail, plans, profiles, steps, envelope)
        == _replay(None, rail, plans, profiles, steps, envelope)
        for steps, rail, plans, profiles in cases
        for envelope in envelopes
    )


#: The interpreter self-check program: every opcode, on words chosen for
#: sign, wrap and shift edge cases, each pass feeding the next through
#: data memory, the stack and both ports' paths.
_MACHINE_PROGRAM = """
.data v: 30000, -12345, 7, -1, 255, -32768
  ldi r13, v
  ldi r14, 9
  ldi r0, 5
loop:
  ld r1, r13, 0
  ld r2, r13, 1
  add r3, r1, r2
  sub r4, r1, r2
  mulq r5, r1, r2
  mul r6, r1, r2
  srai r7, r2, 5
  sra r8, r2, r14
  shr r9, r2, r14
  shl r10, r1, r14
  shri r11, r1, 3
  shli r12, r2, 7
  xor r3, r3, r5
  and r4, r4, r6
  or r5, r7, r8
  xori r6, r9, 0x5A5A
  ori r7, r10, 0x0F0F
  andi r8, r11, 0x3C3C
  slt r9, r1, r2
  slti r10, r2, -7
  mov r11, r12
  addi r12, r12, 1234
  subi r11, r11, -99
  push r3
  push r4
  push r5
  call mix
  pop r0
  pop r4
  pop r3
  ld r0, r13, 2
  in r0, 7
  add r4, r4, r12
  st r3, r13, 0
  st r4, r13, 1
  st r5, r13, 2
  st r8, r13, 3
  st r11, r13, 4
  st r12, r13, 5
  blt r1, r2, less
  bge r3, r4, more
less:
  out 7, r9
more:
  beq r9, r10, same
  in r9, 7
  nop
same:
  ckpt
  subi r14, r14, 1
  bne r14, r0, loop
  jmp done
mix:
  add r3, r3, r6
  xor r4, r4, r7
  ret
done:
  out 7, r3
  halt
"""

#: Programs that fault on their second or third instruction: a data
#: read and write just past either end (``ld``/``st``, ``call``/``push``
#: below the stack, ``ret``/``pop`` above it), a fetch past the end and
#: an ``in`` from an unmapped port.
_MACHINE_FAULTS = (
    "ldi r2, 20\nld r3, r2, -4\nhalt\n",
    "ldi r2, -3\nld r3, r2, 2\nhalt\n",
    "ldi r2, 15\nst r2, r2, 1\nhalt\n",
    "ldi r2, -3\nst r2, r2, 2\nhalt\n",
    "ldi r15, 0\ncall 0\n",
    "ldi r15, 0\npush r1\n",
    "nop\nret\n",
    "nop\npop r1\n",
    "nop\n",
    "nop\nin r1, 3\n",
)


def _machine_replay(machine_run, image, budgets, stop_at_ckpt):
    """``image`` on a 16-word :class:`~repro.mcu.machine.Machine`, one
    slice per budget, through the compiled ``machine_run`` or the Python
    loop when it is None; every observable as plain values."""
    from repro.errors import MachineError
    from repro.mcu.machine import Machine, MachineConfig

    machine = Machine(image, MachineConfig(data_space_words=16))
    machine._loop = (
        None if machine_run is None else MachineLoop(machine_run, machine._code)
    )
    seen = []
    for budget in budgets:
        try:
            seen.append(vars(machine.run(budget, stop_at_ckpt)))
        except MachineError as error:
            seen.append(str(error))
        seen.append((machine.registers[:], machine.pc, machine.total_cycles,
                     machine.halted, machine.data.tolist()))
    seen.append(machine.output_port.log)
    return seen


def _machine_self_check(machine_run) -> bool:
    """Run the self-check programs through the compiled ``machine_run``
    and demand every slice, register, data word, counter, output and
    error identical to the Python interpreter's."""
    from repro.mcu.assembler import assemble

    program = assemble(_MACHINE_PROGRAM)
    runs = [
        (program, (0, 1, 7, 40, 13, 90, 5000, 5000), True),
        (program, (333, 5000), False),
    ]
    runs += [
        (assemble(source), (0, 2, 100, 100), False)
        for source in _MACHINE_FAULTS
    ]
    return all(
        _machine_replay(machine_run, *run) == _machine_replay(None, *run)
        for run in runs
    )


def _self_check(kernel: Kernel) -> bool:
    """Both functions of a freshly loaded library against Python."""
    return (_chunk_self_check(kernel.chunk_loop)
            and _machine_self_check(kernel.machine_run))


def _note_load_failure(reason: str, **attrs) -> None:
    obs.counter("repro_ckernel_load_failures_total", reason=reason).inc()
    obs.instant("ckernel.load_failed", reason=reason, **attrs)


def load() -> Optional[Kernel]:
    """The compiled library's functions, or None when unavailable.

    Memoised, None included, so a process builds at most once.  A
    build that fails, raises while loading, or fails the self-check is
    discarded and counted in
    ``repro_ckernel_load_failures_total{reason=compile|exception|selfcheck}``.
    """
    global _cached
    if _cached is not _UNSET:
        return _cached
    kernel = None
    if os.environ.get("REPRO_BATCH_CKERNEL", "1") != "0":
        try:
            so_path = _compile()
            if so_path is not None:
                candidate = _bind(so_path)
                if _self_check(candidate):
                    kernel = candidate
                else:
                    _note_load_failure("selfcheck")
        except Exception as error:
            # The loader is a boundary: a broken build must degrade to
            # the Python rung, never stop a run, and is counted.
            _note_load_failure(
                "exception", error=f"{type(error).__name__}: {error}"
            )
    _cached = kernel
    return kernel


def reset_cache() -> None:
    """Forget the memoized load result (tests toggle the env switch)."""
    global _cached
    _cached = _UNSET

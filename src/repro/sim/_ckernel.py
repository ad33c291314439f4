"""The runtime-compiled C kernels: the chunk recurrence and the
mini-ISA interpreter, in one library.

``chunk_loop`` is a literal transcription of the Python chunk loop,
:func:`~repro.power.rail.chunk_loop`, for one rail: any number of
voltage sources, converter-less power sources with the ``e_cap``
clamp, leakage, ESR draw overhead, and any number of loads with
resistive / constant demand terms, one of which may follow a
:class:`~repro.sim.kernel.TransitionTable` across transitions, whose
ACTIVE row may step an interpreter (a
:class:`~repro.sim.kernel.MachineSteps`).
:class:`ChunkLoop` runs it with the Python loop's call shape, and every
fast-kernel chunk it can read goes through it.

``machine_run`` is a literal transcription of the dispatch loop of
:meth:`~repro.mcu.machine.Machine.run` over the predecoded image
(:class:`MachineLoop`).  It stops with an exit reason at ``halt``, a
``ckpt`` pause, a fault or the end of the budget, and before every
``in``/``out``: port handlers stay in Python.  The chunk loop calls it
with its data writes logged, to undo the step a chunk does not commit.

Exactness: the C bodies perform the same IEEE-754 double operations in
the same order as the Python loops (CPython floats are C doubles) and
the same 16-bit word arithmetic, and the build disables contraction
(``-ffp-contract=off -fno-fast-math``) so no fused multiply-add can
perturb a rounding.  A self-check at load time replays small chunks
covering every branch, each under two V_cc envelope periods, and
transition-following chunks and machines stepped inside tabled chunks
through every undo cause against the Python chunk loop, and small programs
covering every opcode and fault against the Python interpreter, and
discards the library on any difference.

Everything degrades gracefully: no compiler, a failed build, a failed
self-check, or ``REPRO_BATCH_CKERNEL=0`` leave the Python loops in
charge of both.  Failed loads are counted in
``repro_ckernel_load_failures_total{reason}``; the rungs chunks and
machines run on are the ``chunk.kernel`` and ``mcu.kernel`` domains of
:mod:`repro.degrade`.  The compiled object is cached on disk keyed by a
digest of the source and flags, so each machine compiles once.
"""

from __future__ import annotations

import copy
import ctypes
import dataclasses
import hashlib
import os
import shutil
import struct
import subprocess
import tempfile
from array import array
from typing import Any, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro import degrade, faults, obs
from repro.sim.kernel import (
    ACTIVE,
    BOOT,
    BROWNOUT,
    CHECKPOINT_SITE,
    COLD_START,
    HALT,
    LOG_CAPACITY,
    OFF,
    PORT_OR_FAULT,
    RESTORE,
    RESTORE_BEGIN,
    RESTORE_DONE,
    SINE_WAVE,
    SLEEP,
    SNAPSHOT,
    SNAPSHOT_BEGIN,
    SNAPSHOT_DONE,
    TRAPEZOID_WAVE,
    WAVE_PARAMS,
    LoadProfile,
    MachineSteps,
    PowerSourcePlan,
    TransitionTable,
    VoltageSourcePlan,
)

#: ``chunk_loop`` frame layout, in 8-byte slots: the header below, then
#: per source (address, kind, drop, r_total, step0, take_abs and
#: ``WAVE_PARAMS`` waveform parameters), per load (kind, resistance,
#: e_const, v_rising, v_falling), then per load
#: its committed energy (out) and a scratch slot.  The first eight
#: header slots (the ``RailStats`` totals and V_cc envelope) are read
#: and written back.  A closed-form source (see
#: :class:`~repro.sim.kernel.VoltageSourcePlan`) has no address: the
#: loop evaluates it at ``(step0 + i) * dt``.
_HEADER = (
    "v", "harvested", "leaked", "consumed", "starved", "vcc_min", "vcc_max",
    "vcc_phase", "capacitance", "v_max", "draw_overhead", "leak", "has_leak",
    "dt", "vcc_every",
)
_SOURCE_SLOTS = 6 + WAVE_PARAMS
_LOAD_SLOTS = 5
#: Source and load kinds as the frame encodes them: closed-form
#: voltage sources by waveform code (``_WAVES[code]``).
_VOLTAGE, _POWER = 0.0, 1.0
_WAVES = {TRAPEZOID_WAVE: 2.0, SINE_WAVE: 3.0}
#: A source's frame slots after (address, kind, drop, r_total) when it
#: is read from memory.
_NO_WAVE = (0.0,) * (_SOURCE_SLOTS - 4)
_CONSTANT, _RESISTIVE = 0.0, 1.0

#: The tabled load's frame (a ``TransitionTable``), in 8-byte slots:
#: the inputs, the running state (read and written back), then the
#: outputs.  Its per-step state codes and its log (four slots per
#: followed transition) go to buffers of their own.
_TABLE_IN = (
    "load", "v_min", "v_por", "guard", "wake", "boot_state",
    "e_off", "e_sleep", "e_restore", "e_snapshot", "e_active",
    "current", "current_gain", "snapshot_steps", "restore_steps",
    "budget", "total", "site_interval", "single_slot", "python",
)
_TABLE_STATE = (
    "state", "executed", "left", "has_snapshot", "pending", "payload",
)
_TABLE_OUT = (
    "count_off", "count_sleep", "count_restore", "count_snapshot",
    "count_active", "sum_off", "sum_sleep", "sum_restore", "sum_snapshot",
    "sum_active", "logged", "active_steps", "stop",
)
_TABLE = _TABLE_IN + _TABLE_STATE + _TABLE_OUT
#: Byte offset of the running state (then the outputs) in the table
#: frame.
_TABLE_STATE_AT = 8 * len(_TABLE_IN)

#: The table's machine frame (a ``MachineSteps``), in 8-byte slots: the
#: inputs (the addresses of its code, data, ``machine_run`` state and
#: undo log as raw ``Q`` bits), then the committed steps' totals (out).
_MACHINE = (
    "code", "n_code", "data", "n_data", "state", "undo", "budget",
    "stop_at_ckpt", "fram", "sram_read", "sram_write", "fram_read",
    "fram_write", "cycles", "instructions", "memory",
)

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
%(frame_slots)s

static const double *slot_pointer(const double *slot)
{
    uint64_t address;
    memcpy(&address, slot, sizeof address);
    return (const double *) (uintptr_t) address;
}

int64_t machine_run(const int64_t *code, int64_t n_code, int64_t *data,
                    int64_t n_data, int64_t *state, int64_t max_cycles,
                    int64_t stop_at_ckpt, int64_t *undo);

/* A closed-form source's value at time t: the operations, in order, of
   TrapezoidSupply / SignalGenerator.open_circuit_voltage_array (the
   numpy maximum keeping raw when equal, so a -0.0 stays -0.0), then
   RectifiedInjector.rectified_voc_array's fabs when take_abs is set.
   sp is the source's frame slots (_SOURCE_SLOTS in _ckernel.py). */
static double closed_form(const double *sp, double t)
{
    const double *w = sp + 6;
    double value;
    if (sp[1] == %(trapezoid)r) {
        /* period, v_high, v_low, ramp_down, ramp_up, dwell_low,
           t_down, t_up */
        double phase = fmod(t, w[0]);
        if (phase < 0.0) phase = phase + w[0];
        const double after_down = phase - w[6];
        const double after_dwell = after_down - w[5];
        if (phase < w[6]) value = w[1] - w[3] * phase;
        else if (after_down < w[5]) value = w[2];
        else if (after_dwell < w[7]) value = w[2] + w[4] * after_dwell;
        else value = w[1];
    } else if (w[3] != 0.0) {
        /* omega, amplitude, rectified, dc: frequency 0 is DC */
        value = w[1];
    } else {
        const double raw = w[1] * sin(w[0] * t);
        value = w[2] != 0.0 && 0.0 > raw ? 0.0 : raw;
    }
    return sp[5] != 0.0 ? fabs(value) : value;
}

/* closed_form over the n steps from the source's step0: the values
   chunk_loop reads inline (the load-time self-check and the tests
   compare them with numpy's). */
void closed_form_values(const double *sp, int64_t n, double dt, double *out)
{
    const int64_t step0 = (int64_t) sp[4];
    for (int64_t i = 0; i < n; ++i)
        out[i] = closed_form(sp, (double) (step0 + i) * dt);
}

/* Exact transcription of repro.power.rail.chunk_loop for one rail.
   Frame layout: see _HEADER in _ckernel.py.  Returns the committed
   step count; vcc receives the committed voltages, and every
   vcc_every-th step since reset widens the envelope.  table (NULL for
   none) is the tabled load's frame (_TABLE in _ckernel.py); states
   then receives each committed step's end-of-step state code and log
   four slots per followed transition.  machine (NULL for none) is the
   table's machine frame (_MACHINE in _ckernel.py): its interpreter
   runs one engine step per ACTIVE step, and a step the chunk does not
   commit is undone. */
int64_t chunk_loop(int64_t n, int64_t n_src, int64_t n_loads,
                   double *frame, double *vcc, double *table,
                   double *states, double *log, double *machine)
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
    /* The tabled load's rows and running state (tj = -1: none). */
    int64_t tj = -1, boot_state = 0, snapshot_steps = 0, restore_steps = 0;
    int64_t budget = 0, total = 0, site = 0, single_slot = 0, python = 0;
    double t_vmin = 0.0, t_vpor = 0.0, guard = 0.0, wake = 0.0;
    double t_current = 0.0, t_gain = 0.0;
    const double *rows = 0;
    int64_t s = 0, ex = 0, left = 0, has = 0, pend = 0, pay = 0;
    int64_t counts[5] = {0, 0, 0, 0, 0}, logged = 0, act = 0;
    double sums[5] = {0.0, 0.0, 0.0, 0.0, 0.0};
    if (table) {
        tj = (int64_t) table[T_LOAD];
        t_vmin = table[T_V_MIN]; t_vpor = table[T_V_POR];
        guard = table[T_GUARD]; wake = table[T_WAKE];
        boot_state = (int64_t) table[T_BOOT_STATE];
        rows = table + T_E_OFF;
        t_current = table[T_CURRENT]; t_gain = table[T_CURRENT_GAIN];
        snapshot_steps = (int64_t) table[T_SNAPSHOT_STEPS];
        restore_steps = (int64_t) table[T_RESTORE_STEPS];
        budget = (int64_t) table[T_BUDGET];
        total = (int64_t) table[T_TOTAL];
        site = (int64_t) table[T_SITE_INTERVAL];
        single_slot = table[T_SINGLE_SLOT] != 0.0;
        python = (int64_t) table[T_PYTHON];
        s = (int64_t) table[T_STATE]; ex = (int64_t) table[T_EXECUTED];
        left = (int64_t) table[T_LEFT];
        has = table[T_HAS_SNAPSHOT] != 0.0;
        pend = (int64_t) table[T_PENDING]; pay = (int64_t) table[T_PAYLOAD];
    }
    /* The table's machine (NULL: none): its data, machine_run state
       (registers and PC read and written back) and undo log, and the
       committed steps' totals. */
    int64_t m_cycles = 0, m_instructions = 0, m_saved[17], *m_data = 0;
    int64_t *ms = 0, *undo = 0;
    double m_memory = 0.0;
    if (machine) {
        m_data = (int64_t *) slot_pointer(machine + M_DATA);
        ms = (int64_t *) slot_pointer(machine + M_STATE);
        undo = (int64_t *) slot_pointer(machine + M_UNDO);
    }
    int64_t stop = -1;
    int64_t i = 0;
    for (int64_t j = 0; j < n_loads; ++j) esums[j] = 0.0;
    while (i < n) {
        double v0 = v, tv = v0, h_t = harvested;
        for (int64_t s_ = 0; s_ < n_src; ++s_) {
            const double *sp = src + SRC_SLOTS * s_;
            const double value = sp[1] > %(power)r
                ? closed_form(sp, (double) ((int64_t) sp[4] + i) * dt)
                : slot_pointer(sp)[i];
            if (sp[1] != %(power)r) {
                double head = value - v0 - sp[2];
                if (head > 0.0) {
                    double before = half_c * tv * tv;
                    double vn = tv + (head / sp[3] * dt) / C;
                    tv = vn > v_max ? v_max : vn;
                    h_t += half_c * tv * tv - before;
                }
            } else {
                double p = value;
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
        int event = 0, stepped = 0;
        /* The tabled load's tentative step (see TransitionTable). */
        int64_t ns = s, nex = ex, nleft = left, nhas = has, npend = pend;
        int64_t npay = pay, k = 0, phys = 0;
        double e_bucket = 0.0, e_mem = 0.0;
        for (int64_t j = 0; j < n_loads; ++j) {
            double e_dem;
            if (j == tj) {
                int64_t a = act, code;
#define LOG(c) do { double *e_ = log + 4 * (logged + k); \
    e_[0] = (double) i; e_[1] = (double) (c); e_[2] = tv; \
    e_[3] = (double) a; a = 0; ++k; } while (0)
#define PYTHON(c) if (python >> (c) & 1) { stop = (c); break; }
                if (tv < t_vmin) {
                    if (ns != %(off)d) {
                        PYTHON(%(brownout)d)
                        LOG(%(brownout)d);
                        if (ns == %(snapshot)d && single_slot) nhas = 0;
                        ns = %(off)d;
                        nex = 0;
                    }
                    phys = %(off)d;
                } else if (ns == %(off)d && tv < t_vpor) {
                    phys = %(off)d;
                } else {
                    if (ns == %(off)d) {
                        PYTHON(%(boot)d)
                        LOG(%(boot)d);
                        ns = boot_state;
                        if (ns == %(active)d) nex = 0;
                    }
                    if (ns == %(active)d) {
                        if (tv < guard) {
                            PYTHON(%(snapshot_begin)d)
                            LOG(%(snapshot_begin)d);
                            ns = %(snapshot)d;
                            nleft = snapshot_steps;
                            npend = nex;
                        }
                    } else if (ns == %(sleep)d) {
                        if (tv >= wake) {
                            code = nhas ? %(restore_begin)d : %(cold_start)d;
                            PYTHON(code)
                            LOG(code);
                            if (nhas) {
                                ns = %(restore)d;
                                nleft = restore_steps;
                            } else {
                                ns = %(active)d;
                                nex = 0;
                            }
                        }
                    }
                    phys = ns;
                }
                if (phys == %(active)d) {
                    double e_active = rows[%(active)d];
                    if (machine) {
                        /* One engine step of the machine from zero
                           counters (c: cycles, instructions, reads,
                           writes); its memory energy as
                           McuPowerModel.slice_memory_energy sums the
                           counters Machine._tally maps. */
                        const int64_t *c = ms + 17;
                        const double *price = machine + M_SRAM_READ;
                        const int fram = machine[M_FRAM] != 0.0;
                        memcpy(m_saved, ms, sizeof m_saved);
                        ms[17] = ms[18] = ms[19] = ms[20] = undo[0] = 0;
                        stepped = 1;
                        code = machine_run(
                            (int64_t *) slot_pointer(machine + M_CODE),
                            (int64_t) machine[M_N_CODE], m_data,
                            (int64_t) machine[M_N_DATA], ms,
                            (int64_t) machine[M_BUDGET],
                            (int64_t) machine[M_STOP_AT_CKPT], undo);
                        if (code != %(exit_budget)d) {
                            stop = code == %(exit_halt)d ? %(halt)d
                                : code == %(exit_ckpt)d ? %(checkpoint_site)d
                                : %(port_or_fault)d;
                            break;
                        }
                        e_mem = (fram ? 0 : c[2]) * price[0]
                            + (fram ? 0 : c[3]) * price[1]
                            + (fram ? c[1] + c[2] : c[1]) * price[2]
                            + (fram ? c[3] : 0) * price[3];
                        e_active = rows[%(active)d] + e_mem;
                    } else {
                        if (nex + budget >= total) { stop = %(halt)d; break; }
                        if (site && nex + budget >= (nex / site + 1) * site)
                            { stop = %(checkpoint_site)d; break; }
                        nex += budget;
                    }
                    e_bucket = ((t_current * tv) * t_gain) * dt;
                    e_dem = e_bucket + e_active;
                } else {
                    e_dem = e_bucket = rows[phys];
                    if (phys == %(snapshot)d || phys == %(restore)d) {
                        if (--nleft == 0) {
                            code = phys == %(snapshot)d
                                ? %(snapshot_done)d : %(restore_done)d;
                            PYTHON(code)
                            LOG(code);
                            if (phys == %(snapshot)d) {
                                nhas = 1;
                                npay = npend;
                                ns = %(sleep)d;
                            } else {
                                nex = npay;
                                ns = %(active)d;
                            }
                        }
                    }
                }
#undef LOG
#undef PYTHON
            } else {
                const double *lp = ld + LOAD_SLOTS * j;
                if (tv >= lp[3] || tv < lp[4]) { event = 1; break; }
                if (lp[0] == %(resistive)r)
                    e_dem = tv * tv / lp[1] * dt + lp[2];
                else
                    e_dem = lp[2];
            }
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
        if (event || stop >= 0) {
            if (stepped) {
                /* Undo the machine's step: registers, PC, its writes. */
                memcpy(ms, m_saved, sizeof m_saved);
                for (int64_t q = undo[0]; q-- > 0;)
                    m_data[undo[1 + 2 * q]] = undo[2 + 2 * q];
            }
            break;  /* discard: it reruns per step */
        }
        v = tv;
        harvested = h_t;
        leaked = le_t;
        consumed = co_t;
        starved = st_t;
        for (int64_t j = 0; j < n_loads; ++j) esums[j] += edems[j];
        if (stepped) {
            m_cycles += ms[17];
            m_instructions += ms[18];
            m_memory += e_mem;
        }
        vcc[i] = v;
        if (++phase >= every) {
            phase = 0;
            if (v < vcc_min) vcc_min = v;
            if (v > vcc_max) vcc_max = v;
        }
        if (tj >= 0) {
            s = ns; ex = nex; left = nleft; has = nhas; pend = npend;
            pay = npay;
            ++counts[phys];
            sums[phys] += e_bucket;
            if (k) {
                logged += k;
                act = 0;
            }
            if (phys == %(active)d) ++act;
            states[i] = (double) s;
            if (logged > %(log_capacity)d - 3) {
                ++i;
                break;  /* the log is full: end the chunk after this step */
            }
        }
        ++i;
    }
    frame[0] = v; frame[1] = harvested; frame[2] = leaked;
    frame[3] = consumed; frame[4] = starved;
    frame[5] = vcc_min; frame[6] = vcc_max; frame[7] = (double) phase;
    if (table) {
        table[T_STATE] = (double) s; table[T_EXECUTED] = (double) ex;
        table[T_LEFT] = (double) left; table[T_HAS_SNAPSHOT] = (double) has;
        table[T_PENDING] = (double) pend; table[T_PAYLOAD] = (double) pay;
        for (int q = 0; q < 5; ++q) {
            table[T_COUNT_OFF + q] = (double) counts[q];
            table[T_SUM_OFF + q] = sums[q];
        }
        table[T_LOGGED] = (double) logged;
        table[T_ACTIVE_STEPS] = (double) act;
        table[T_STOP] = (double) stop;
    }
    if (machine) {
        machine[M_CYCLES] = (double) m_cycles;
        machine[M_INSTRUCTIONS] = (double) m_instructions;
        machine[M_MEMORY] = m_memory;
    }
    return i;
}

#define WORD(x) ((int64_t) ((uint64_t) (x) & 0xFFFF))
#define SIGNED(x) ((WORD(x) ^ 0x8000) - 0x8000)
#define ORDER(x) (WORD(x) ^ 0x8000)  /* orders words as their signed values */
/* A data write; with an undo log, its address and the word it
   overwrites go there first (undo[0] counts the pairs). */
#define STORE(at, value) do { \
    if (undo) { \
        int64_t *u_ = undo + 1 + 2 * undo[0]++; \
        u_[0] = (at); u_[1] = data[at]; \
    } \
    data[at] = (value); \
} while (0)

/* Exact transcription of the Python interpreter loop (_python_run in
   machine.py) over the predecoded image: five int64 slots (op, a, b,
   c, cost) per instruction, opcodes numbered as _MNEMONICS in
   machine.py numbers them.  Word arithmetic runs in uint64 so
   wrap-around is defined and the low 16 bits match Python's.  state
   holds r0..r15 then _MACHINE_STATE (see _ckernel.py).  Returns the
   exit reason; on a fault or a port instruction pc names that
   instruction and the counters exclude it.  undo (NULL for none) logs
   every data write (STORE). */
int64_t machine_run(const int64_t *code, int64_t n_code, int64_t *data,
                    int64_t n_data, int64_t *state, int64_t max_cycles,
                    int64_t stop_at_ckpt, int64_t *undo)
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
            STORE(address, WORD(r[a]));
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
            STORE(address, WORD(pc + 1));
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
            STORE(address, WORD(r[a]));
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
    "frame_slots": "\n".join(
        "#define %s_%s %d" % (prefix, name.upper(), index)
        for prefix, frame in (("T", _TABLE), ("M", _MACHINE))
        for index, name in enumerate(frame)
    ),
    "power": _POWER,
    "trapezoid": _WAVES[TRAPEZOID_WAVE],
    "resistive": _RESISTIVE,
    "off": OFF, "sleep": SLEEP, "restore": RESTORE, "snapshot": SNAPSHOT,
    "active": ACTIVE,
    "boot": BOOT, "brownout": BROWNOUT, "snapshot_begin": SNAPSHOT_BEGIN,
    "snapshot_done": SNAPSHOT_DONE, "restore_begin": RESTORE_BEGIN,
    "restore_done": RESTORE_DONE, "cold_start": COLD_START, "halt": HALT,
    "checkpoint_site": CHECKPOINT_SITE,
    "port_or_fault": PORT_OR_FAULT,
    "log_capacity": LOG_CAPACITY,
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
    """The library's functions as ctypes functions, and whether the
    chunk loop evaluates closed-form sources itself (False when only
    the waveform self-check failed: plans then carry memo values)."""

    chunk_loop: Any
    machine_run: Any
    closed_form_values: Any
    waveforms: bool = True


def _bind(so_path: str) -> Kernel:
    """The library's ``chunk_loop``, ``machine_run`` and
    ``closed_form_values``."""
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
        ctypes.c_void_p,  # table (or NULL)
        ctypes.c_void_p,  # states
        ctypes.c_void_p,  # log
        ctypes.c_void_p,  # machine (or NULL)
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
        ctypes.c_void_p,  # undo (or NULL)
    ]
    values = library.closed_form_values
    values.restype = None
    values.argtypes = [
        ctypes.c_void_p,  # a source's frame slots
        ctypes.c_int64,   # n
        ctypes.c_double,  # dt
        ctypes.c_void_p,  # out
    ]
    return Kernel(chunk, machine, values)


class ChunkLoop:
    """Runs the compiled ``chunk_loop`` for one rail.

    Owns the rail's frame and voltage buffers with their addresses
    resolved once, so a chunk costs one ``struct`` pack, the foreign
    call and two unpacks (plus one pack and unpack for a tabled load,
    and one more for its machine).  Source plans and machines are read
    in place, and closed-form sources evaluated in the loop unless
    ``waveforms`` is False.
    """

    __slots__ = (
        "_fn", "_waveforms", "_pack", "_state", "_energies", "_energies_at",
        "_frame", "_frame_address", "_vcc", "_vcc_address", "_states",
        "_states_address", "_log", "_log_address", "_table",
        "_table_address", "_packed", "_machine", "_machine_state",
        "_undo",
    )

    _table_in = struct.Struct("=%dd" % len(_TABLE_IN))
    _table_state = struct.Struct("=%dd" % len(_TABLE_STATE))
    _table_out = struct.Struct("=%dd" % (len(_TABLE_STATE) + len(_TABLE_OUT)))
    _machine_in = struct.Struct("=QdQdQQ7d")

    def __init__(self, fn, n_sources: int, n_loads: int,
                 waveforms: bool = True):
        self._fn = fn
        self._waveforms = waveforms
        inputs = (
            len(_HEADER) + _SOURCE_SLOTS * n_sources + _LOAD_SLOTS * n_loads
        )
        self._pack = struct.Struct(
            "=%dd" % len(_HEADER) + "Q%dd" % (_SOURCE_SLOTS - 1) * n_sources
            + "%dd" % _LOAD_SLOTS * n_loads
        ).pack_into
        self._state = struct.Struct("=8d").unpack_from
        self._energies = struct.Struct("=%dd" % n_loads).unpack_from
        self._energies_at = 8 * inputs
        self._frame = _doubles(inputs + 2 * n_loads)
        self._frame_address = self._frame.buffer_info()[0]
        self._vcc = self._states = np.empty(0)
        self._vcc_address = self._states_address = 0
        self._log = np.empty(4 * LOG_CAPACITY)
        self._log_address = self._log.ctypes.data
        #: A tabled load's frame (made at its first chunk), and the
        #: (load index, table) whose rows it holds.
        self._table = None
        self._table_address = 0
        self._packed = None
        #: A table's machine frame, ``machine_run`` state and undo log
        #: (which grows with the step budget).
        self._machine = _doubles(len(_MACHINE))
        self._machine_state = array("q", bytes(MachineLoop._layout.size))
        self._undo = array("q")

    def run(
        self, physics, plans: Sequence, profiles: Sequence,
        v: float, leak: Optional[float], dt: float, n: int, stats,
    ) -> Optional[Tuple[int, List[float], np.ndarray]]:
        """One chunk of :func:`repro.power.rail.chunk_loop`, or None.

        Same arguments, results and write-back as that function:
        returns ``(taken, per-load committed energies, voltages)``, with
        ``voltages`` (and a tabled load's ``states``) a view of the
        rail's buffer, valid until the next chunk.  None (nothing
        touched) when a plan cannot be read in place: no known address,
        fewer than ``n`` values, or a converter in front of a power
        source.  A closed-form plan's values are never read here.
        """
        fields = [
            v, stats.harvested, stats.leaked, stats.consumed, stats.starved,
            stats.vcc_min, stats.vcc_max, stats.vcc_phase,
            physics.capacitance, physics.v_max, physics.draw_overhead,
            0.0 if leak is None else leak, 0.0 if leak is None else 1.0, dt,
            stats.vcc_every,
        ]
        for plan in plans:
            voltage = isinstance(plan, VoltageSourcePlan)
            if voltage and plan.waveform is not None and self._waveforms:
                fields += _waveform_slots(plan)
                continue
            address = plan.address
            if not address or len(plan.values) < n:
                return None
            if voltage:
                fields += (address, _VOLTAGE, plan.drop, plan.r_total)
            elif plan.converter is None:
                fields += (address, _POWER, 0.0, 1.0)
            else:
                return None
            fields += _NO_WAVE
        table = steps = None
        for index, profile in enumerate(profiles):
            if profile.table is not None:
                table = profile.table
                if self._table is None:
                    self._table = _doubles(len(_TABLE))
                    self._table_address = self._table.buffer_info()[0]
                if self._packed != (index, table):
                    # A table's rows are constants: pack them once.
                    self._packed = index, table
                    self._table_in.pack_into(
                        self._table, 0, index, *_table_rows(table)
                    )
                self._table_state.pack_into(
                    self._table, _TABLE_STATE_AT, table.state,
                    table.executed, table.left, table.has_snapshot,
                    table.pending, table.payload,
                )
                steps = table.machine
                if steps is not None:
                    self._pack_machine(steps)
            resistance = profile.resistance
            fields += (
                _CONSTANT if resistance is None else _RESISTIVE,
                resistance or 0.0, profile.power * dt,
                profile.v_rising, profile.v_falling,
            )
        if n > len(self._vcc):
            self._vcc = np.empty(max(n, 2 * len(self._vcc)))
            self._vcc_address = self._vcc.ctypes.data
        if table is not None and n > len(self._states):
            self._states = np.empty(len(self._vcc))
            self._states_address = self._states.ctypes.data
        frame = self._frame
        self._pack(frame, 0, *fields)
        taken = self._fn(
            n, len(plans), len(profiles),
            self._frame_address, self._vcc_address,
            None if table is None else self._table_address,
            self._states_address, self._log_address,
            None if steps is None else self._machine.buffer_info()[0],
        )
        (
            v, stats.harvested, stats.leaked, stats.consumed, stats.starved,
            stats.vcc_min, stats.vcc_max, phase,
        ) = self._state(frame, 0)
        stats.vcc_phase = int(phase)
        physics.write_voltage(v)
        energies = list(self._energies(frame, self._energies_at))
        if table is not None:
            self._read_table(table, taken)
        if steps is not None:
            values = MachineLoop._layout.unpack_from(self._machine_state)
            steps.machine.registers[:] = values[:16]
            steps.machine.pc = values[16]
            steps.cycles = int(self._machine[-3])
            steps.instructions = int(self._machine[-2])
            steps.memory = self._machine[-1]
        return taken, energies, self._vcc[:taken]

    def _pack_machine(self, steps: MachineSteps) -> None:
        """The table's machine frame; its undo log holds one step's
        writes (at most one per cycle of budget)."""
        machine = steps.machine
        MachineLoop._layout.pack_into(self._machine_state, 0,
                                      *machine.registers, machine.pc,
                                      0, 0, 0, 0, 0)
        if len(self._undo) < 1 + 2 * steps.budget:
            self._undo = array("q", bytes(8 * (1 + 2 * steps.budget)))
        code, n_code = steps.code.buffer_info()
        data, n_data = machine.data.buffer_info()
        self._machine_in.pack_into(
            self._machine, 0, code, n_code // 5, data, n_data,
            self._machine_state.buffer_info()[0], self._undo.buffer_info()[0],
            steps.budget, steps.stop_at_ckpt, steps.fram, *steps.access,
        )

    def _read_table(self, table: TransitionTable, taken: int) -> None:
        """Write the tabled load's results back into ``table``: the
        Python loop's values (the counts, executed cycles and payloads
        as floats)."""
        out = self._table_out.unpack_from(self._table, _TABLE_STATE_AT)
        (state, table.executed, left, has, table.pending, table.payload,
         ) = out[:6]
        table.state = int(state)
        table.left = int(left)
        table.has_snapshot = has != 0.0
        table.counts = out[6:11]
        table.sums = out[11:16]
        logged, active_steps, stop = out[16:]
        table.active_steps = int(active_steps)
        table.stop = int(stop)
        logged = int(logged)
        log = []
        if logged:
            flat = self._log[:4 * logged].tolist()
            log = [
                (int(flat[i]), int(flat[i + 1]), flat[i + 2],
                 int(flat[i + 3]))
                for i in range(0, 4 * logged, 4)
            ]
        table.log = log
        table.states = self._states[:taken]


def _waveform_slots(plan: VoltageSourcePlan) -> tuple:
    """A closed-form plan's frame slots (``_SOURCE_SLOTS``)."""
    code, *params = plan.waveform
    return (0, _WAVES[code], plan.drop, plan.r_total, plan.step0,
            plan.take_abs, *params, *_NO_WAVE[2 + len(params):])


def closed_form_values(kernel: Kernel, plan: VoltageSourcePlan, n: int,
                       dt: float) -> np.ndarray:
    """The ``n`` values the compiled chunk loop evaluates for a
    closed-form ``plan`` from its ``step0``."""
    slots = np.array(_waveform_slots(plan), dtype=float)
    out = np.empty(n)
    kernel.closed_form_values(slots.ctypes.data, n, dt, out.ctypes.data)
    return out


def _doubles(n: int) -> array:
    """A zeroed frame of ``n`` slots (not a ctypes array: each ctypes
    array type is a cycle, left to the garbage collector)."""
    return array("d", bytes(8 * n))


def _table_rows(table: TransitionTable) -> tuple:
    """A table's rows in ``_TABLE_IN`` order (after the tabled load's
    index)."""
    return (
        table.v_min, table.v_por, table.guard, table.wake, table.boot_state,
        *table.energies, table.current, table.current_gain,
        table.snapshot_steps, table.restore_steps, table.budget,
        table.total, table.site_interval, table.single_slot, table.python,
    )


class MachineLoop:
    """Runs the compiled ``machine_run`` for one machine.

    Reads the predecoded image from an int64 buffer (five fields per
    instruction, shared read-only between machines).  A call packs the
    registers, PC and counters into the state buffer with one
    ``struct``, runs the foreign loop on data memory in place and
    unpacks once.  Data memory is an ``array('q')`` whose address is
    read per call: the machine rebuilds it on boot, power failure and
    restore.
    """

    __slots__ = ("_fn", "_code", "_code_address", "_n_code",
                 "_state", "_state_address")

    _layout = struct.Struct("=%dq" % (16 + len(_MACHINE_STATE)))

    def __init__(self, fn, code: array):
        self._fn = fn
        self._code = code
        self._code_address = code.buffer_info()[0]
        self._n_code = len(code) // 5
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
            min(max_cycles, _INT64_MAX), stop_at_ckpt, None,
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
    # A fresh table per run: the loops write their results into it.
    profiles = [
        profile if profile.table is None else _fresh_table(profile)
        for profile in profiles
    ]
    stats = RailStats(**envelope)
    taken, energies, voltages = run(
        physics, plans, profiles, v0, physics.leak_factor(dt), dt, n, stats
    )
    tables = [
        dict(vars(profile.table), machine=None,
             states=np.asarray(profile.table.states, dtype=float).tolist())
        for profile in profiles if profile.table is not None
    ]
    return (taken, cell[0], vars(stats), list(energies),
            np.asarray(voltages, dtype=float).tolist(), tables)


def _fresh_table(profile: LoadProfile) -> LoadProfile:
    """A copy of a tabled profile with a copy of its table."""
    profile = copy.copy(profile)
    profile.table = copy.copy(profile.table)
    return profile


def _chunk_self_check(compiled) -> bool:
    """Replay small chunks through the compiled ``chunk_loop`` and demand
    results bit-identical to the Python loop.

    The cases run voltage and power sources with the ``e_cap`` clamp,
    leakage, ESR overhead, resistive and constant loads and an ACTIVE
    table to their horizon, and again with an event on the third load,
    a starving one (leakage skipped at zero volts), a charging and
    starving one, one starving through the ESR overhead, one whose
    event is the clamp voltage itself, and a source-less one.  The
    Fig. 7 quiescent shape (one rectified source, one constant load, an
    ideal capacitor) covers charging, the v_max clamp, a starved step,
    a non-charging step and an event boundary before the horizon.  (The
    Fig. 7 ACTIVE shape, a table stepping a machine, is
    :func:`_fused_replay`'s.)  Each case samples its V_cc
    envelope every step from empty, and again every 17th step entered
    mid-period on a non-empty envelope.  Transition tables, once each:
    a supply burst boots, restores, runs, snapshots, sleeps and browns
    out; with no snapshot it cold-starts and stops before a snapshot
    commit it leaves to Python; a brownout mid-snapshot empties a
    single-slot store before a boot, a cold start and the halt; and
    ACTIVE stops at a checkpoint site.  An ACTIVE table also drains a
    source-less rail to a guard it leaves to Python, under both
    envelopes.
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

    def tabled(**changes):
        return LoadProfile(table=dataclasses.replace(_SELF_CHECK_TABLE,
                                                     **changes))

    charge = rectified(wave, 0.2, 150.0)
    mixed = [charge, PowerSourcePlan(power, None, power.ctypes.data)]
    # An ACTIVE platform that browns out only near 0 V.
    running = tabled(state=ACTIVE, v_min=0.05, v_por=0.1,
                     guard=-float("inf"))
    # (steps, (C, v_max, leak_tau, draw_overhead, v0, dt), plans, loads)
    cases = [
        (40, (47e-6, 3.3, None, 1.0, 0.30, 50e-6),
         [rectified(ripple, 0.2, 150.0)],
         [LoadProfile(power=1e-6, v_rising=2.9)]),
        (40, (10e-6, 1.0, None, 1.0, 0.90, 50e-6),
         [rectified(ripple, 0.2, 50.0)],
         [LoadProfile(power=2e-5, v_rising=1.0)]),
        (40, (10e-6, 1.0, None, 1.0, 0.99, 50e-6),
         [rectified(ripple, 0.0, 5.0)], [LoadProfile(power=2e-5)]),
        (40, (22e-6, 3.3, None, 1.0, 0.05, 50e-6),
         [rectified(ripple, 0.2, 500.0)],
         [LoadProfile(power=4e-3, v_rising=2.9, v_falling=0.01)]),
        (n, (10e-6, 3.3, 2e-3, 1.02, 1.0, 5e-5), mixed,
         [LoadProfile(power=1e-3, resistance=2000.0), running,
          LoadProfile(power=5.4e-4)]),
        (n, (10e-6, 3.3, 2e-3, 1.02, 1.0, 5e-5), mixed,
         [LoadProfile(power=1e-3, resistance=2000.0), running,
          LoadProfile(power=5.4e-4, v_rising=3.19)]),
        (n, (4.7e-6, 3.3, 5e-3, 1.02, 0.4, 5e-5),
         [rectified(wave, 0.2, 5000.0)],
         [LoadProfile(resistance=50.0), LoadProfile(power=2e-2)]),
        (n, (33e-6, 3.3, 5e-2, 1.05, 0.3, 1e-4),
         [rectified(wave, 0.1, 77.7)],
         [LoadProfile(resistance=5000.0), LoadProfile(power=3e-2)]),
        (n, (10e-6, 3.3, None, 1.02, 3.1, 5e-5), [charge],
         [LoadProfile(power=20.0)]),
        (n, (10e-6, 3.3, None, 1.0, 1.0, 5e-5),
         [PowerSourcePlan(power, None, power.ctypes.data)],
         [LoadProfile(power=1e-4, v_rising=3.3)]),
        (n, (22e-6, 3.3, None, 1.0, 0.5, 5e-5), [charge],
         [LoadProfile(power=1e-4, v_rising=0.9, v_falling=0.1)]),
        (n, (10e-6, 3.3, None, 1.0, 3.1, 5e-5), [rectified(wave, 0.2, 5.0)],
         [LoadProfile(power=2e-5, v_rising=3.3)]),
        (n, (22e-6, 3.3, None, 1.02, 2.0, 5e-5), [],
         [tabled(state=ACTIVE, guard=1.5, current=1e-3, current_gain=0.9,
                 python=1 << SNAPSHOT_BEGIN)]),
    ]
    envelopes = [
        {}, dict(vcc_every=17, vcc_phase=5, vcc_min=0.4, vcc_max=0.6)
    ]
    ticks = np.arange(34)
    burst = np.ascontiguousarray(np.where(ticks < 10, 4.0, 0.0))
    late = np.ascontiguousarray(np.where(ticks < 3, 0.0, 4.0))
    bleed = LoadProfile(resistance=400.0)

    rail = (22e-6, 3.3, None, 1.0, 1.5, 2e-4)
    tables = [
        (34, rail, [rectified(burst, 0.2, 60.0)], [tabled(), bleed]),
        (20, rail, [rectified(burst, 0.2, 60.0)],
         [bleed, tabled(has_snapshot=False, python=1 << SNAPSHOT_DONE)]),
        (18, (22e-6, 3.3, None, 1.0, 1.85, 2e-4),
         [rectified(late, 0.2, 60.0)],
         [tabled(state=SNAPSHOT, left=500, single_slot=True, total=4000,
                 executed=777), bleed]),
        (8, (22e-6, 3.3, None, 1.0, 3.0, 2e-4), [],
         [tabled(state=ACTIVE, guard=-float("inf"), site_interval=4000,
                 executed=100)]),
    ]
    return all(
        _replay(compiled, rail, plans, profiles, steps, envelope)
        == _replay(None, rail, plans, profiles, steps, envelope)
        for steps, rail, plans, profiles in cases
        for envelope in envelopes
    ) and all(
        _replay(compiled, rail, plans, profiles, steps, {})
        == _replay(None, rail, plans, profiles, steps, {})
        for steps, rail, plans, profiles in tables
    )


#: The self-check's transition table: a Hibernus-like platform that
#: starts OFF holding a snapshot.
_SELF_CHECK_TABLE = TransitionTable(
    v_min=1.8, v_por=2.0, guard=2.6, wake=2.9, boot_state=SLEEP,
    energies=(1e-9, 2e-8, 4e-7, 5e-7, 1e-8), current=2e-3,
    current_gain=1.1, snapshot_steps=4, restore_steps=3, budget=800,
    total=10 ** 7, site_interval=0, single_slot=False, python=0,
    state=OFF, has_snapshot=True, payload=12345,
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


def _self_check_machine(machine_run, source):
    """``source`` on a 16-word :class:`~repro.mcu.machine.Machine` (its
    decoding memoised) running on ``machine_run``."""
    from repro.mcu.machine import Machine, MachineConfig

    machine = Machine.from_source(source, MachineConfig(data_space_words=16))
    machine.select_rung(machine_run)
    return machine


def _machine_replay(machine_run, source, budgets, stop_at_ckpt):
    """``source`` on a self-check machine, one slice per budget, through
    the compiled ``machine_run`` or the Python loop when it is None;
    every observable as plain values."""
    from repro.errors import MachineError

    machine = _self_check_machine(machine_run, source)
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


def _fused_replay(compiled, source, budget, stop_at_ckpt):
    """``source`` on a self-check machine stepped inside chunks by the
    compiled ``chunk_loop``, or the Python loop when ``compiled`` is
    None; every observable as plain values, and the exits of the steps
    chunks undid (``EXIT_BUDGET``: a later load's boundary).

    The machine runs in the ACTIVE row of a table (the first load) on
    a rail a rectified wave recharges; a resistive second load's
    falling boundary discards steps the machine ran.  An undone step
    then runs through ``Machine.run`` (on the Python loop either way).
    """
    from repro.errors import MachineError

    machine = _self_check_machine(None, source)
    access = (1e-11, 1.2e-11, 5e-11, 1.5e-10)
    seen, causes = [], set()
    v, start = 2.0, 0
    for _ in range(40):
        if machine.halted:
            break
        steps = machine.active_steps(budget, stop_at_ckpt, access)
        values = _FUSED_WAVE[start:]
        taken, v, *results = _replay(
            compiled, (22e-6, 3.3, None, 1.02, v, 5e-5),
            [VoltageSourcePlan(values, 0.2, 80.0, values.ctypes.data)],
            # An ACTIVE interpreter that stops before browning out.
            [LoadProfile(table=dataclasses.replace(
                _SELF_CHECK_TABLE, state=ACTIVE, v_min=0.3, guard=-np.inf,
                python=1 << BROWNOUT, machine=steps)),
             LoadProfile(resistance=300.0, v_falling=1.4)],
            48, {},
        )
        seen.append((taken, v, results, machine.registers[:], machine.pc,
                     machine.data.tolist(), steps.cycles, steps.instructions,
                     steps.memory))
        start += taken + 1
        if taken == 48:
            continue
        causes.add(steps.run(machine.registers[:], machine.pc, 0, 0, 0, 0,
                             machine.data[:], budget, stop_at_ckpt)[0])
        try:
            seen.append(vars(machine.run(budget, stop_at_ckpt)))
        except MachineError as error:
            seen.append(str(error))
            break
    seen.append(machine.output_port.log)
    return seen, causes


#: The fused replays' supply.
_FUSED_WAVE = np.ascontiguousarray(
    np.maximum(3.6 * np.sin(np.arange(2100, dtype=float) * 0.25), 0.0)
)
#: ``(source, budget, stop_at_ckpt)``: the self-check program pausing
#: at ckpts and running through them, a step that writes one word twice
#: before a port (its log must be undone in reverse), and the faults
#: reached from a step's middle.
_FUSED_CASES = (
    (_MACHINE_PROGRAM, 7, True),
    (_MACHINE_PROGRAM, 17, False),
    ("ldi r1, 5\nst r1, r0, 1\nst r0, r0, 1\npush r1\nin r2, 3\n", 50,
     False),
) + tuple((source, 2, False) for source in _MACHINE_FAULTS[::3])


def _machine_self_check(machine_run) -> bool:
    """Run the self-check programs through the compiled ``machine_run``
    and demand every slice, register, data word, counter, output and
    error identical to the Python interpreter's."""
    program = _MACHINE_PROGRAM
    runs = [
        (program, (0, 1, 7, 40, 13, 90, 5000, 5000), True),
        (program, (333, 5000), False),
    ]
    runs += [(source, (0, 2, 100, 100), False) for source in _MACHINE_FAULTS]
    return all(
        _machine_replay(machine_run, *run) == _machine_replay(None, *run)
        for run in runs
    )


def _waveform_self_check(kernel: Kernel) -> bool:
    """The closed-form sources the chunk loop evaluates itself, against
    numpy: each waveform (a trapezoid through every segment, one with
    no dwell, a rectified and a plain sine, a zero-amplitude rectified
    sine and DC) behind a half-wave and a bridge rectifier, from step 0
    and from a late step, must give values bit-identical to
    ``open_circuit_voltage_array``; and chunks fed by them, one mixing
    them with a source read from memory, must equal the Python loop
    reading the memo's values."""
    from repro.harvest.synthetic import SignalGenerator, TrapezoidSupply
    from repro.power.rail import RectifiedInjector
    from repro.power.rectifier import (
        Diode, FullWaveRectifier, HalfWaveRectifier,
    )

    supplies = (
        lambda: TrapezoidSupply(frequency=50.0),
        lambda: TrapezoidSupply(frequency=7.3, v_low=0.0, ramp_down=900.0,
                                ramp_up=300.0, dwell_low=0.0,
                                source_resistance=40.0),
        lambda: SignalGenerator(3.6, 60.0, rectified=True,
                                source_resistance=30.0),
        lambda: SignalGenerator(2.0, 45.0, source_resistance=20.0),
        lambda: SignalGenerator(0.0, 17.0, rectified=True),
        lambda: SignalGenerator(1.5, 0.0),
    )
    diode = Diode(0.2, 2.0)
    dt, n = 1e-4, 400
    plans = []
    for make in supplies:
        for rectifier in (HalfWaveRectifier(diode), FullWaveRectifier(diode)):
            for step0 in (0, 299_917):
                injector = RectifiedInjector(make(), rectifier)
                plan = injector.chunk_plan(step0 * dt, dt, n)
                if plan.waveform is None or (
                    closed_form_values(kernel, plan, n, dt).tobytes()
                    != np.asarray(plan.values).tobytes()
                ):
                    return False
                plans.append(plan)
    # A rail charging on every step the source is above it.
    rail = (1e-3, 3.3, None, 1.0, 0.1, dt)
    drain = [LoadProfile(resistance=20.0)]
    ripple = np.ascontiguousarray(np.abs(np.sin(np.arange(n) * 0.05)))
    # Every supply and rectifier from the late step; then the first
    # trapezoid and the rectified sine around a source read from memory.
    late = plans[1::2]
    cases = [[plan] for plan in late] + [[
        late[0], VoltageSourcePlan(ripple, 0.1, 30.0, ripple.ctypes.data),
        late[5],
    ]]
    return all(
        _replay(kernel.chunk_loop, rail, case, drain, n, {})
        == _replay(None, rail, case, drain, n, {})
        for case in cases
    )


def _self_check(kernel: Kernel) -> bool:
    """Both functions of a freshly loaded library against Python: the
    chunk loop, the interpreter, and machines stepped inside chunks
    through every undo cause."""
    return (
        _chunk_self_check(kernel.chunk_loop)
        and _machine_self_check(kernel.machine_run)
        and all(
            _fused_replay(kernel.chunk_loop, *case)
            == _fused_replay(None, *case)
            for case in _FUSED_CASES
        )
    )


def _note_load_failure(reason: str, **attrs) -> None:
    obs.counter("repro_ckernel_load_failures_total", reason=reason).inc()
    obs.instant("ckernel.load_failed", reason=reason, **attrs)


def load() -> Optional[Kernel]:
    """The compiled library's functions, or None when unavailable.

    Memoised, None included, so a process builds at most once.  A
    build that fails, raises while loading, or fails the self-check is
    discarded and counted in
    ``repro_ckernel_load_failures_total{reason=compile|exception|selfcheck}``.
    The build, load and self-check are one ``ckernel.load`` span.
    """
    global _cached
    if _cached is not _UNSET:
        return _cached
    with obs.span("ckernel.load") as span:
        _cached = _load()
        span.annotate(loaded=_cached is not None)
    return _cached


def _load() -> Optional[Kernel]:
    """Build, bind and self-check the library (see :func:`load`)."""
    kernel = None
    if os.environ.get("REPRO_BATCH_CKERNEL", "1") != "0":
        try:
            so_path = _compile()
            if so_path is not None:
                candidate = _bind(so_path)
                if _self_check(candidate):
                    # A waveform mismatch (a libm sin other than numpy's)
                    # switches off only the inline waveforms.
                    kernel = candidate._replace(
                        waveforms=_waveform_self_check(candidate))
                    degrade.report("chunk.waveform", "inline"
                                   if kernel.waveforms else "memo")
                else:
                    _note_load_failure("selfcheck")
        except Exception as error:
            # The loader is a boundary: a broken build must degrade to
            # the Python rung, never stop a run, and is counted.
            _note_load_failure(
                "exception", error=f"{type(error).__name__}: {error}"
            )
    return kernel


def reset_cache() -> None:
    """Forget the memoized load result (tests toggle the env switch)."""
    global _cached
    _cached = _UNSET

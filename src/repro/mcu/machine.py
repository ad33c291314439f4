"""The MCU interpreter.

A :class:`Machine` executes an assembled :class:`~repro.mcu.assembler.ProgramImage`
cycle-budget by cycle-budget, which is how the intermittent-power wrapper
drives it: each simulation timestep buys ``f * dt`` cycles of execution.

Memory model
------------
* Program memory is FRAM (as on MSP430FR parts): every instruction fetch is
  an FRAM read.
* Data memory (one flat word-addressed space holding .data, heap and stack)
  is SRAM by default, or FRAM when ``MachineConfig.data_in_fram`` is set —
  the QuickRecall configuration.
* ``r0`` is hardwired to zero.  ``r15`` is the stack pointer, initialised
  to the top of data space at boot.

Volatility: registers and PC are always volatile.  SRAM-backed data is lost
on power failure; FRAM-backed data survives.  :meth:`Machine.cold_boot`
re-runs crt0 (zero registers, re-initialise .data from the image, reset SP),
which is what happens after an outage when no snapshot is restored.

Data memory is one ``array('q')`` of words, so the compiled interpreter
(``machine_run`` in :mod:`repro.sim._ckernel`) reads and writes it in
place; snapshots carry it as a plain list.

Inside a fast-kernel chunk the chunk loops step the machine one engine
step per ACTIVE step of a transition table (:meth:`Machine.active_steps`)
with its data writes logged, and undo the step the chunk does not
commit, which then runs through :meth:`Machine.run`.
"""

from __future__ import annotations

import functools
from array import array
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro import degrade
from repro.errors import MachineError
from repro.mcu.assembler import ProgramImage, assemble
from repro.mcu.isa import NUM_REGISTERS, to_signed, to_word
from repro.mcu.peripherals import OutputPort, Peripheral
from repro.sim import _ckernel
from repro.sim.kernel import MachineSteps
from repro.sim._ckernel import (
    EXIT_BUDGET,
    EXIT_CKPT,
    EXIT_HALT,
    EXIT_PC,
    EXIT_PORT,
    EXIT_READ,
    EXIT_WRITE,
)


@dataclass(frozen=True)
class MachineConfig:
    """Static machine configuration.

    Attributes:
        data_space_words: total words of data memory (data + heap + stack).
        data_in_fram: place data memory in FRAM (QuickRecall's unified
            memory) instead of SRAM.
        fram_fetch_wait: extra cycles per instruction fetch from FRAM.
        fram_data_wait: extra cycles per data access when data is in FRAM.
    """

    data_space_words: int = 2048
    data_in_fram: bool = False
    fram_fetch_wait: int = 0
    fram_data_wait: int = 1


#: The port of the :class:`OutputPort` every machine boots with.
OUTPUT_PORT = 7

#: Predecoded opcode numbers: the index of each mnemonic here.  The run
#: loop compares ``op`` against these numbers as literals, in this order,
#: so the most frequent instructions (the FFT's dynamic mix) come first.
_MNEMONICS = (
    "add", "ldi", "ld", "st", "mulq", "srai", "sub", "addi", "subi", "bne",
    "blt", "shri", "shli", "andi", "or", "mul", "bge", "beq", "jmp", "mov",
    "xor", "and", "ori", "xori", "shl", "shr", "sra", "slt", "slti", "ckpt",
    "call", "ret", "push", "pop", "in", "out", "nop", "halt",
)
_OPCODE_OF = {name: number for number, name in enumerate(_MNEMONICS)}

# Kinds whose only effect is writing the destination register: with
# destination r0 they decode to ``nop`` (r0 is hardwired to zero).
_PURE_KINDS = frozenset({"alu", "alui", "ldi", "mov"})
# Kinds that access data memory and pay its wait state.
_DATA_KINDS = frozenset({"load", "store", "call", "ret", "push", "pop"})


def _decode(image: ProgramImage, config: MachineConfig) -> List[Tuple[int, ...]]:
    """Decode ``image`` once into flat ``(opcode, a, b, c, cost)`` tuples.

    ``a, b, c`` are the operands in assembly order (unused slots are 0),
    except that ``ldi rd, imm`` keeps its immediate in ``c``.  Immediates
    arrive in the form the run loop uses: a word for the ALU forms and
    ``ldi``, a shift count (``& 15``) for ``shli``/``shri``/``srai``, a
    signed value for ``slti`` and the load/store offsets.  ``cost``
    includes the fetch wait state and, for data-memory instructions, the
    data wait state of the configured technology.

    Raises:
        MachineError: a negative branch target, or a register operand
            outside r0..r15 (the assembler emits neither).
    """
    data_wait = config.fram_data_wait if config.data_in_fram else 0
    code = []
    for index, ins in enumerate(image.instructions):
        spec = ins.spec
        kind = spec.kind
        for letter, operand in zip(spec.signature, ins.operands):
            if letter == "r" and not 0 <= operand < NUM_REGISTERS:
                raise MachineError(
                    f"instruction {index}: register {operand} out of range"
                )
        a, b, c = (tuple(ins.operands) + (0, 0, 0))[:3]
        target = c if kind == "branch" else a
        if kind in ("jump", "branch", "call") and target < 0:
            raise MachineError(
                f"instruction {index}: branch target {target} out of range"
            )
        cost = spec.cycles + config.fram_fetch_wait
        if kind in _DATA_KINDS:
            cost += data_wait
        op = _OPCODE_OF[spec.name]
        if kind in _PURE_KINDS and a == 0:
            op, b, c = _OPCODE_OF["nop"], 0, 0
        elif kind == "ldi":
            b, c = 0, to_word(b)
        elif spec.name in ("shli", "shri", "srai"):
            c &= 15
        elif spec.name in ("slti", "ld", "st"):
            c = to_signed(to_word(c))
        elif kind == "alui":
            c = to_word(c)
        code.append((op, a, b, c, cost))
    return code


@dataclass
class ExecutionSlice:
    """Accounting for one ``run`` call.

    Attributes:
        cycles: cycles consumed (including wait states).
        instructions: instructions retired.
        fram_reads/fram_writes/sram_reads/sram_writes: data+fetch accesses.
        peripheral_energy: joules consumed by peripheral accesses.
        halted: machine executed ``halt``.
        hit_checkpoint: stopped at a ``ckpt`` marker (stop_at_ckpt mode).
    """

    cycles: int = 0
    instructions: int = 0
    fram_reads: int = 0
    fram_writes: int = 0
    sram_reads: int = 0
    sram_writes: int = 0
    peripheral_energy: float = 0.0
    halted: bool = False
    hit_checkpoint: bool = False


@dataclass
class MachineState:
    """A captured snapshot of machine state.

    ``data`` is None for register-only snapshots (QuickRecall): data memory
    lives in FRAM and needs no copying.  ``peripherals`` is non-None only
    for peripheral-aware snapshots (port -> opaque device state).
    """

    registers: Tuple[int, ...]
    pc: int
    data: Optional[List[int]]
    peripherals: Optional[Dict[int, object]] = None

    def words(self) -> int:
        """Snapshot size in memory words (what must be written to NVM)."""
        base = len(self.registers) + 1  # registers + pc
        if self.data is not None:
            base += len(self.data)
        if self.peripherals is not None:
            base += 8 * len(self.peripherals)
        return base


class _Program(NamedTuple):
    """An image prepared for one configuration: everything the machines
    running it share, read-only."""

    image: ProgramImage
    config: MachineConfig
    #: ``_decode``'s instruction tuples (the Python loop's code).
    code: List[Tuple[int, ...]]
    #: The same, flattened: the compiled loop's code buffer.
    packed: array
    #: Data memory as crt0 leaves it; ``cold_boot`` copies it.
    boot: array


def _prepare(image: ProgramImage, config: MachineConfig) -> _Program:
    """Check, decode and pack ``image`` for ``config``."""
    if image.data_size > config.data_space_words:
        raise MachineError(
            f"program claims {image.data_size} data words, machine has "
            f"{config.data_space_words}"
        )
    code = _decode(image, config)
    boot = array("q", bytes(8 * config.data_space_words))
    for address, value in image.data_image.items():
        boot[address] = value
    packed = array("q", [field for ins in code for field in ins])
    return _Program(image, config, code, packed, boot)


@functools.lru_cache(maxsize=32)
def _prepared(source: str, config: MachineConfig) -> _Program:
    """:func:`_prepare` of ``assemble(source)``, memoised per process."""
    return _prepare(assemble(source), config)


def _python_run(
    code: List[Tuple[int, ...]], regs: List[int], pc: int, cycles: int,
    instructions: int, reads: int, writes: int, data: array,
    max_cycles: int, stop_at_ckpt: bool, undo: Optional[list] = None,
) -> Tuple[int, ...]:
    """The Python rung of ``machine_run`` (one slice): the same exits,
    counters and in-place register and data updates.  With ``undo``
    every data write first appends ``(address, overwritten word)``
    there, as the compiled chunk loop logs them.

    Keeps the PC and the counters in locals.  Inlined word
    helpers: ``((x & 0xFFFF) ^ 0x8000) - 0x8000`` is ``to_signed(x)``,
    and ``(x & 0xFFFF) ^ 0x8000`` orders words the way their signed
    values do.
    """
    n_data = len(data)
    if pc < 0 and cycles < max_cycles:
        # Fetches index ``code`` directly, so only an index past the end
        # raises; a negative PC must be caught before it wraps around.
        return EXIT_PC, pc, cycles, instructions, reads, writes, 0
    while cycles < max_cycles:
        try:
            op, a, b, c, cost = code[pc]
        except IndexError:
            return EXIT_PC, pc, cycles, instructions, reads, writes, 0
        if op == 0:  # add
            regs[a] = (regs[b] + regs[c]) & 0xFFFF
            pc += 1
        elif op == 1:  # ldi
            regs[a] = c
            pc += 1
        elif op == 2:  # ld
            address = ((regs[b] & 0xFFFF) ^ 0x8000) - 0x8000 + c
            if not 0 <= address < n_data:
                return EXIT_READ, pc, cycles, instructions, reads, writes, address
            reads += 1
            if a:
                regs[a] = data[address] & 0xFFFF
            pc += 1
        elif op == 3:  # st
            address = ((regs[b] & 0xFFFF) ^ 0x8000) - 0x8000 + c
            if not 0 <= address < n_data:
                return EXIT_WRITE, pc, cycles, instructions, reads, writes, address
            writes += 1
            if undo is not None:
                undo.append((address, data[address]))
            data[address] = regs[a] & 0xFFFF
            pc += 1
        elif op == 4:  # mulq
            regs[a] = (
                (((regs[b] & 0xFFFF) ^ 0x8000) - 0x8000)
                * (((regs[c] & 0xFFFF) ^ 0x8000) - 0x8000)
                >> 15
            ) & 0xFFFF
            pc += 1
        elif op == 5:  # srai
            regs[a] = ((((regs[b] & 0xFFFF) ^ 0x8000) - 0x8000) >> c) & 0xFFFF
            pc += 1
        elif op == 6:  # sub
            regs[a] = (regs[b] - regs[c]) & 0xFFFF
            pc += 1
        elif op == 7:  # addi
            regs[a] = (regs[b] + c) & 0xFFFF
            pc += 1
        elif op == 8:  # subi
            regs[a] = (regs[b] - c) & 0xFFFF
            pc += 1
        elif op == 9:  # bne
            pc = c if regs[a] != regs[b] else pc + 1
        elif op == 10:  # blt
            pc = (
                c
                if ((regs[a] & 0xFFFF) ^ 0x8000) < ((regs[b] & 0xFFFF) ^ 0x8000)
                else pc + 1
            )
        elif op == 11:  # shri
            regs[a] = (regs[b] & 0xFFFF) >> c
            pc += 1
        elif op == 12:  # shli
            regs[a] = (regs[b] << c) & 0xFFFF
            pc += 1
        elif op == 13:  # andi
            regs[a] = regs[b] & c
            pc += 1
        elif op == 14:  # or
            regs[a] = (regs[b] | regs[c]) & 0xFFFF
            pc += 1
        elif op == 15:  # mul
            regs[a] = (regs[b] * regs[c]) & 0xFFFF
            pc += 1
        elif op == 16:  # bge
            pc = (
                c
                if ((regs[a] & 0xFFFF) ^ 0x8000) >= ((regs[b] & 0xFFFF) ^ 0x8000)
                else pc + 1
            )
        elif op == 17:  # beq
            pc = c if regs[a] == regs[b] else pc + 1
        elif op == 18:  # jmp
            pc = a
        elif op == 19:  # mov
            regs[a] = regs[b] & 0xFFFF
            pc += 1
        elif op == 20:  # xor
            regs[a] = (regs[b] ^ regs[c]) & 0xFFFF
            pc += 1
        elif op == 21:  # and
            regs[a] = regs[b] & regs[c] & 0xFFFF
            pc += 1
        elif op == 22:  # ori
            regs[a] = (regs[b] | c) & 0xFFFF
            pc += 1
        elif op == 23:  # xori
            regs[a] = (regs[b] ^ c) & 0xFFFF
            pc += 1
        elif op == 24:  # shl
            regs[a] = (regs[b] << (regs[c] & 15)) & 0xFFFF
            pc += 1
        elif op == 25:  # shr
            regs[a] = (regs[b] & 0xFFFF) >> (regs[c] & 15)
            pc += 1
        elif op == 26:  # sra
            regs[a] = (
                (((regs[b] & 0xFFFF) ^ 0x8000) - 0x8000) >> (regs[c] & 15)
            ) & 0xFFFF
            pc += 1
        elif op == 27:  # slt
            regs[a] = (
                1
                if ((regs[b] & 0xFFFF) ^ 0x8000) < ((regs[c] & 0xFFFF) ^ 0x8000)
                else 0
            )
            pc += 1
        elif op == 28:  # slti
            regs[a] = 1 if ((regs[b] & 0xFFFF) ^ 0x8000) - 0x8000 < c else 0
            pc += 1
        elif op == 29:  # ckpt
            pc += 1
            if stop_at_ckpt:
                return (EXIT_CKPT, pc, cycles + cost, instructions + 1,
                        reads, writes, 0)
        elif op == 30:  # call
            sp = (regs[15] - 1) & 0xFFFF
            if sp >= n_data:
                return EXIT_WRITE, pc, cycles, instructions, reads, writes, sp
            writes += 1
            if undo is not None:
                undo.append((sp, data[sp]))
            data[sp] = (pc + 1) & 0xFFFF
            regs[15] = sp
            pc = a
        elif op == 31:  # ret
            sp = regs[15]
            if not 0 <= sp < n_data:
                return EXIT_READ, pc, cycles, instructions, reads, writes, sp
            reads += 1
            pc = data[sp]
            regs[15] = (sp + 1) & 0xFFFF
            if pc < 0:  # only a corrupted stack holds a non-word
                cycles += cost
                instructions += 1
                reason = EXIT_PC if cycles < max_cycles else EXIT_BUDGET
                return reason, pc, cycles, instructions, reads, writes, 0
        elif op == 32:  # push
            sp = (regs[15] - 1) & 0xFFFF
            if sp >= n_data:
                return EXIT_WRITE, pc, cycles, instructions, reads, writes, sp
            writes += 1
            if undo is not None:
                undo.append((sp, data[sp]))
            data[sp] = regs[a] & 0xFFFF
            regs[15] = sp
            pc += 1
        elif op == 33:  # pop
            sp = regs[15]
            if not 0 <= sp < n_data:
                return EXIT_READ, pc, cycles, instructions, reads, writes, sp
            reads += 1
            if a:
                regs[a] = data[sp] & 0xFFFF
            regs[15] = (sp + 1) & 0xFFFF
            pc += 1
        elif op < 36:  # in, out: run by the caller
            return EXIT_PORT, pc, cycles, instructions, reads, writes, 0
        elif op == 36:  # nop
            pc += 1
        else:  # halt
            return (EXIT_HALT, pc, cycles + cost, instructions + 1,
                    reads, writes, 0)
        cycles += cost
        instructions += 1
    return EXIT_BUDGET, pc, cycles, instructions, reads, writes, 0


class PythonLoop:
    """The Python rung: :class:`repro.sim._ckernel.MachineLoop`'s call
    shape over the decoded code."""

    __slots__ = ("_code",)

    def __init__(self, code: List[Tuple[int, ...]]):
        self._code = code

    def run(
        self, registers: List[int], pc: int, cycles: int, instructions: int,
        reads: int, writes: int, data: array, max_cycles: int,
        stop_at_ckpt: bool, undo: Optional[list] = None,
    ) -> Tuple[int, ...]:
        """See :meth:`repro.sim._ckernel.MachineLoop.run`; ``undo`` as
        for :func:`_python_run`."""
        return _python_run(self._code, registers, pc, cycles, instructions,
                           reads, writes, data, max_cycles, stop_at_ckpt,
                           undo)


class Machine:
    """Interpreter for the mini-ISA (see module docstring)."""

    def __init__(self, image: ProgramImage, config: Optional[MachineConfig] = None):
        self._setup(_prepare(image, config or MachineConfig()))

    @classmethod
    def from_source(
        cls, source: str, config: Optional[MachineConfig] = None
    ) -> "Machine":
        """A fresh machine running ``source``.

        The assembled image, its decoding, the packed code and the boot
        data are memoised per ``(source, config)`` and shared read-only
        by every machine built from them; registers, data memory and
        peripherals are each machine's own.
        """
        machine = cls.__new__(cls)
        machine._setup(_prepared(source, config or MachineConfig()))
        return machine

    def _setup(self, program: _Program) -> None:
        self._program = program
        self.image = program.image
        self.config = program.config
        self._code = program.code
        self.registers: List[int] = [0] * 16
        self.pc = 0
        self.halted = False
        #: Cycles and instructions retired since construction (or an
        #: engine reset); a chunk's committed steps count through
        #: ``MachineEngine.active_plan``'s commit.
        self.total_cycles = 0
        self.total_instructions = 0
        self.ports: Dict[int, Peripheral] = {OUTPUT_PORT: OutputPort()}
        #: The rung's loop runner (``_ckernel.MachineLoop`` or
        #: :class:`PythonLoop`); the first ``run`` resolves it.
        self._loop = None
        self.cold_boot()  # sets self.data

    def _blank_data(self) -> array:
        """Zeroed data memory."""
        return array("q", bytes(8 * self.config.data_space_words))

    def select_rung(self, machine_run) -> None:
        """Run on the compiled ``machine_run`` (``_ckernel.load()``'s), or
        on the Python loop when it is None."""
        self._loop = (
            PythonLoop(self._code) if machine_run is None
            else _ckernel.MachineLoop(machine_run, self._program.packed)
        )

    # ------------------------------------------------------------------
    # Boot / power management
    # ------------------------------------------------------------------

    def cold_boot(self) -> None:
        """crt0: zero registers, initialise .data, set SP, PC to entry."""
        self.registers = [0] * 16
        self.registers[15] = self.config.data_space_words  # stack pointer
        self.pc = 0
        self.halted = False
        self.data = self._program.boot[:]

    def power_fail(self) -> None:
        """Lose all volatile state (registers, PC; SRAM data too; volatile
        peripheral buffers)."""
        self.registers = [0] * 16
        self.pc = 0
        self.halted = False
        if not self.config.data_in_fram:
            self.data = self._blank_data()
        for peripheral in self.ports.values():
            peripheral.on_power_fail()

    def attach_peripheral(self, port: int, peripheral: Peripheral) -> None:
        """Map ``peripheral`` at ``port`` for ``in``/``out`` instructions."""
        self.ports[port] = peripheral

    @property
    def output_port(self) -> OutputPort:
        """The default console/telemetry port at :data:`OUTPUT_PORT`."""
        return self.ports[OUTPUT_PORT]

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def capture_full(self, include_peripherals: bool = False) -> MachineState:
        """Capture registers + PC + all data memory (the Hibernus snapshot).

        With ``include_peripherals`` the snapshot also carries every
        mapped peripheral's device state — the peripheral-aware extension
        the paper's discussion section calls for.
        """
        peripherals = None
        if include_peripherals:
            peripherals = {
                port: peripheral.capture_state()
                for port, peripheral in self.ports.items()
            }
        return MachineState(
            tuple(self.registers), self.pc, self.data.tolist(), peripherals
        )

    def capture_registers(self) -> MachineState:
        """Capture registers + PC only (the QuickRecall snapshot)."""
        return MachineState(tuple(self.registers), self.pc, None)

    def restore(self, state: MachineState) -> None:
        """Restore a snapshot taken by either capture method.

        A snapshot whose data does not fit this machine raises before
        anything is restored.
        """
        data = None
        if state.data is not None:
            if len(state.data) != len(self.data):
                raise MachineError("snapshot data size mismatch")
            data = array("q", state.data)
        self.registers = list(state.registers)
        self.registers[0] = 0
        self.pc = state.pc
        self.halted = False
        if data is not None:
            self.data = data
        if state.peripherals is not None:
            for port, payload in state.peripherals.items():
                if port in self.ports and payload is not None:
                    self.ports[port].restore_state(payload)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(
        self, max_cycles: int, stop_at_ckpt: bool = False
    ) -> ExecutionSlice:
        """Execute until the cycle budget is spent, ``halt``, or a ``ckpt``.

        Runs on the compiled loop when the ``_ckernel`` library loads
        (the ``mcu.kernel`` rung of :mod:`repro.degrade`, reported once
        per machine), else on the Python loop; both give the same
        slices, state and errors.  The loop stops before each
        ``in``/``out``, which runs here, and resumes.  On a
        :class:`MachineError` ``pc`` still names the faulting
        instruction and ``total_cycles`` counts only the retired ones.
        An instruction starts while cycles remain, so a slice may
        overshoot ``max_cycles`` by one instruction.

        Args:
            max_cycles: cycle budget for this slice (an int >= 0).
            stop_at_ckpt: when True, pause *after* executing a ``ckpt``
                marker so a checkpointing supervisor can act.

        Returns:
            An :class:`ExecutionSlice` with cycle/access accounting.
        """
        loop = self._loop
        if loop is None:
            loop = self._resolve_loop()
        slice_ = ExecutionSlice()
        if self.halted:
            slice_.halted = True
            return slice_
        regs = self.registers
        pc = self.pc
        cycles = instructions = reads = writes = 0
        energy = 0.0
        try:
            while True:
                reason, pc, cycles, instructions, reads, writes, address = (
                    loop.run(regs, pc, cycles, instructions, reads, writes,
                             self.data, max_cycles, stop_at_ckpt)
                )
                if reason != EXIT_PORT:
                    break
                op, a, b, _, cost = self._code[pc]
                energy += self._port(op, a, b, regs)
                pc += 1
                cycles += cost
                instructions += 1
            if reason == EXIT_HALT:
                self.halted = slice_.halted = True
            elif reason == EXIT_CKPT:
                slice_.hit_checkpoint = True
            elif reason == EXIT_PC:
                raise MachineError(f"PC out of range: {pc}")
            elif reason == EXIT_READ:
                raise MachineError(f"data read out of range: {address} (pc={pc})")
            elif reason == EXIT_WRITE:
                raise MachineError(f"data write out of range: {address} (pc={pc})")
        finally:
            self.pc = pc
            self.total_cycles += cycles
            self.total_instructions += instructions
            self._tally(slice_, cycles, instructions, reads, writes)
            slice_.peripheral_energy = energy
        return slice_

    def active_steps(
        self, budget: int, stop_at_ckpt: bool,
        access: Tuple[float, float, float, float],
    ) -> MachineSteps:
        """This machine's steps of ``budget`` cycles for the chunk loops
        (see :class:`~repro.sim.kernel.MachineSteps`)."""
        return MachineSteps(
            self, PythonLoop(self._code).run, self._program.packed, budget,
            stop_at_ckpt, self.config.data_in_fram, access,
        )

    def _resolve_loop(self):
        """This machine's loop runner, reporting the rung."""
        kernel = _ckernel.load()
        degrade.report("mcu.kernel", "python" if kernel is None else "c")
        self.select_rung(None if kernel is None else kernel.machine_run)
        return self._loop

    def _port(self, op: int, a: int, b: int, regs: List[int]) -> float:
        """Execute ``in rd, port`` (op 34) or ``out port, rs`` (op 35);
        returns the access energy."""
        port = b if op == 34 else a
        if port not in self.ports:
            raise MachineError(f"no peripheral at port {port}")
        peripheral = self.ports[port]
        if op == 34:
            value = peripheral.read() & 0xFFFF
            if a:
                regs[a] = value
        else:
            peripheral.write(regs[b])
        return peripheral.access_energy

    def _tally(
        self, slice_: ExecutionSlice, cycles, instructions, reads, writes
    ) -> ExecutionSlice:
        """Fill ``slice_``'s counters, mapping the loop's data reads and
        writes (and every fetch) onto the memory placement."""
        slice_.cycles = cycles
        slice_.instructions = instructions
        if self.config.data_in_fram:
            slice_.fram_reads = instructions + reads
            slice_.fram_writes = writes
        else:
            slice_.fram_reads = instructions
            slice_.sram_reads = reads
            slice_.sram_writes = writes
        return slice_

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import MachineError
from repro.mcu.assembler import ProgramImage
from repro.mcu.isa import to_signed, to_word
from repro.mcu.peripherals import OutputPort, Peripheral


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
    """
    data_wait = config.fram_data_wait if config.data_in_fram else 0
    code = []
    for index, ins in enumerate(image.instructions):
        spec = ins.spec
        kind = spec.kind
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


class Machine:
    """Interpreter for the mini-ISA (see module docstring)."""

    def __init__(self, image: ProgramImage, config: Optional[MachineConfig] = None):
        self.image = image
        self.config = config or MachineConfig()
        if image.data_size > self.config.data_space_words:
            raise MachineError(
                f"program claims {image.data_size} data words, machine has "
                f"{self.config.data_space_words}"
            )
        self.registers: List[int] = [0] * 16
        self.pc = 0
        self.halted = False
        self.total_cycles = 0
        self.ports: Dict[int, Peripheral] = {7: OutputPort()}
        self.data: List[int] = [0] * self.config.data_space_words
        self._code = _decode(image, self.config)
        self.cold_boot()

    # ------------------------------------------------------------------
    # Boot / power management
    # ------------------------------------------------------------------

    def cold_boot(self) -> None:
        """crt0: zero registers, initialise .data, set SP, PC to entry."""
        self.registers = [0] * 16
        self.registers[15] = self.config.data_space_words  # stack pointer
        self.pc = 0
        self.halted = False
        self.data = [0] * self.config.data_space_words
        for address, value in self.image.data_image.items():
            self.data[address] = value

    def power_fail(self) -> None:
        """Lose all volatile state (registers, PC; SRAM data too; volatile
        peripheral buffers)."""
        self.registers = [0] * 16
        self.pc = 0
        self.halted = False
        if not self.config.data_in_fram:
            self.data = [0] * self.config.data_space_words
        for peripheral in self.ports.values():
            peripheral.on_power_fail()

    def attach_peripheral(self, port: int, peripheral: Peripheral) -> None:
        """Map ``peripheral`` at ``port`` for ``in``/``out`` instructions."""
        self.ports[port] = peripheral

    @property
    def output_port(self) -> OutputPort:
        """The default console/telemetry port at port 7."""
        return self.ports[7]

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
            tuple(self.registers), self.pc, list(self.data), peripherals
        )

    def capture_registers(self) -> MachineState:
        """Capture registers + PC only (the QuickRecall snapshot)."""
        return MachineState(tuple(self.registers), self.pc, None)

    def restore(self, state: MachineState) -> None:
        """Restore a snapshot taken by either capture method."""
        self.registers = list(state.registers)
        self.registers[0] = 0
        self.pc = state.pc
        self.halted = False
        if state.data is not None:
            if len(state.data) != len(self.data):
                raise MachineError("snapshot data size mismatch")
            self.data = list(state.data)
        if state.peripherals is not None:
            for port, payload in state.peripherals.items():
                if port in self.ports and payload is not None:
                    self.ports[port].restore_state(payload)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, max_cycles: int, stop_at_ckpt: bool = False) -> ExecutionSlice:
        """Execute until the cycle budget is spent, ``halt``, or a ``ckpt``.

        The loop keeps the PC, the counters and the energy in locals and
        writes them back once, in ``finally``: on a :class:`MachineError`
        ``pc`` still names the faulting instruction and ``total_cycles``
        counts only the retired ones.  An instruction starts while cycles
        remain, so a slice may overshoot ``max_cycles`` by one instruction.

        Args:
            max_cycles: cycle budget for this slice (>= 0).
            stop_at_ckpt: when True, pause *after* executing a ``ckpt``
                marker so a checkpointing supervisor can act.

        Returns:
            An :class:`ExecutionSlice` with cycle/access accounting.
        """
        slice_ = ExecutionSlice()
        if self.halted:
            slice_.halted = True
            return slice_
        code = self._code
        regs = self.registers
        data = self.data
        n_data = len(data)
        ports = self.ports
        pc = self.pc
        # Fetches index ``code`` directly, so only an index past the end
        # raises; a negative PC must be caught before it wraps around.
        if pc < 0 < max_cycles:
            raise MachineError(f"PC out of range: {pc}")
        cycles = instructions = reads = writes = 0
        energy = 0.0
        # Inlined word helpers: ``((x & 0xFFFF) ^ 0x8000) - 0x8000`` is
        # ``to_signed(x)``, and ``(x & 0xFFFF) ^ 0x8000`` orders words the
        # way their signed values do.
        try:
            while cycles < max_cycles:
                try:
                    op, a, b, c, cost = code[pc]
                except IndexError:
                    raise MachineError(f"PC out of range: {pc}") from None
                if op == 0:  # add
                    regs[a] = (regs[b] + regs[c]) & 0xFFFF
                    pc += 1
                elif op == 1:  # ldi
                    regs[a] = c
                    pc += 1
                elif op == 2:  # ld
                    address = ((regs[b] & 0xFFFF) ^ 0x8000) - 0x8000 + c
                    if not 0 <= address < n_data:
                        raise MachineError(
                            f"data read out of range: {address} (pc={pc})"
                        )
                    reads += 1
                    if a:
                        regs[a] = data[address] & 0xFFFF
                    pc += 1
                elif op == 3:  # st
                    address = ((regs[b] & 0xFFFF) ^ 0x8000) - 0x8000 + c
                    if not 0 <= address < n_data:
                        raise MachineError(
                            f"data write out of range: {address} (pc={pc})"
                        )
                    writes += 1
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
                        cycles += cost
                        instructions += 1
                        slice_.hit_checkpoint = True
                        break
                elif op == 30:  # call
                    sp = (regs[15] - 1) & 0xFFFF
                    if sp >= n_data:
                        raise MachineError(f"data write out of range: {sp} (pc={pc})")
                    writes += 1
                    data[sp] = (pc + 1) & 0xFFFF
                    regs[15] = sp
                    pc = a
                elif op == 31:  # ret
                    sp = regs[15]
                    if not 0 <= sp < n_data:
                        raise MachineError(f"data read out of range: {sp} (pc={pc})")
                    reads += 1
                    pc = data[sp]
                    regs[15] = (sp + 1) & 0xFFFF
                    if pc < 0:  # only a corrupted stack holds a non-word
                        cycles += cost
                        instructions += 1
                        if cycles < max_cycles:
                            raise MachineError(f"PC out of range: {pc}")
                        break
                elif op == 32:  # push
                    sp = (regs[15] - 1) & 0xFFFF
                    if sp >= n_data:
                        raise MachineError(f"data write out of range: {sp} (pc={pc})")
                    writes += 1
                    data[sp] = regs[a] & 0xFFFF
                    regs[15] = sp
                    pc += 1
                elif op == 33:  # pop
                    sp = regs[15]
                    if not 0 <= sp < n_data:
                        raise MachineError(f"data read out of range: {sp} (pc={pc})")
                    reads += 1
                    if a:
                        regs[a] = data[sp] & 0xFFFF
                    regs[15] = (sp + 1) & 0xFFFF
                    pc += 1
                elif op == 34:  # in
                    if b not in ports:
                        raise MachineError(f"no peripheral at port {b}")
                    peripheral = ports[b]
                    value = peripheral.read() & 0xFFFF
                    if a:
                        regs[a] = value
                    energy += peripheral.access_energy
                    pc += 1
                elif op == 35:  # out
                    if a not in ports:
                        raise MachineError(f"no peripheral at port {a}")
                    peripheral = ports[a]
                    peripheral.write(regs[b])
                    energy += peripheral.access_energy
                    pc += 1
                elif op == 36:  # nop
                    pc += 1
                else:  # halt
                    cycles += cost
                    instructions += 1
                    self.halted = slice_.halted = True
                    break
                cycles += cost
                instructions += 1
        finally:
            self.pc = pc
            self.total_cycles += cycles
            slice_.cycles = cycles
            slice_.instructions = instructions
            slice_.peripheral_energy = energy
            if self.config.data_in_fram:
                slice_.fram_reads = instructions + reads
                slice_.fram_writes = writes
            else:
                slice_.fram_reads = instructions
                slice_.sram_reads = reads
                slice_.sram_writes = writes
        return slice_

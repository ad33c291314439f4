"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

from hypothesis import given, settings, strategies as st

from repro.analysis.crossover import find_crossover
from repro.analysis.pareto import pareto_points
from repro.core.design import hibernate_threshold, minimum_capacitance
from repro.mcu.assembler import assemble
from repro.mcu.engine import SyntheticEngine
from repro.mcu.isa import OPCODES, to_signed, to_word
from repro.mcu.machine import Machine, MachineConfig
from repro.mcu.programs import counter_program
from repro.storage.capacitor import Capacitor
from repro.transient.base import SnapshotStore

words = st.integers(min_value=0, max_value=0xFFFF)
signed_words = st.integers(min_value=-0x8000, max_value=0x7FFF)


@given(signed_words)
def test_word_round_trip(value):
    assert to_signed(to_word(value)) == value


@given(st.integers(min_value=-10**9, max_value=10**9))
def test_to_word_is_mod_2_16(value):
    assert to_word(value) == value % 0x10000


immediates = st.integers(min_value=-0x8000, max_value=0xFFFF)

#: Reference semantics of the register ALU ops on 16-bit words; the
#: machine stores ``to_word`` of the result.
ALU_MODELS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: a << (b & 15),
    "shr": lambda a, b: a >> (b & 15),
    "sra": lambda a, b: to_signed(a) >> (b & 15),
    "mul": lambda a, b: to_signed(a) * to_signed(b),
    "mulq": lambda a, b: (to_signed(a) * to_signed(b)) >> 15,
    "slt": lambda a, b: int(to_signed(a) < to_signed(b)),
}
IMMEDIATE_FORMS = sorted(name + "i" for name in ALU_MODELS if name + "i" in OPCODES)
BRANCH_MODELS = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: to_signed(a) < to_signed(b),
    "bge": lambda a, b: to_signed(a) >= to_signed(b),
}


def _run(source, r1=0, r2=0):
    """Assemble ``source`` + ``halt``, preset r1/r2, run it to the halt."""
    machine = Machine(assemble(source + "\nhalt\n"), MachineConfig(data_space_words=64))
    machine.registers[1] = r1
    machine.registers[2] = r2
    slice_ = machine.run(1000)
    assert slice_.halted
    return machine, slice_


def _alu(line, r1, r2=0):
    """Result register r3 after the one-instruction program ``line``."""
    machine, slice_ = _run(line, r1, r2)
    mnemonic = line.split()[0]
    assert slice_.instructions == 2
    assert slice_.cycles == OPCODES[mnemonic].cycles + OPCODES["halt"].cycles
    return machine.registers[3]


def _branch_taken(name, a, b):
    machine, _ = _run(f"{name} r1, r2, taken\n  ldi r3, 1\n  halt\ntaken:\n  ldi r3, 2", a, b)
    return machine.registers[3] == 2


def test_immediate_forms_cover_every_alui_opcode():
    assert IMMEDIATE_FORMS == sorted(n for n, spec in OPCODES.items() if spec.kind == "alui")


@given(words, words)
def test_machine_alu_add_matches_modular_arithmetic(a, b):
    assert _alu("add r3, r1, r2", a, b) == (a + b) & 0xFFFF


@given(words, words)
def test_machine_alu_mulq_is_q15(a, b):
    expected = to_word((to_signed(a) * to_signed(b)) >> 15)
    assert _alu("mulq r3, r1, r2", a, b) == expected


@given(words, st.integers(min_value=0, max_value=15))
def test_machine_sra_sign_extends(a, shift):
    expected = to_word(to_signed(a) >> shift)
    assert _alu("sra r3, r1, r2", a, shift) == expected
    assert _alu(f"srai r3, r1, {shift}", a) == expected


@given(st.sampled_from(sorted(ALU_MODELS)), words, words)
def test_register_alu_ops_match_model(name, a, b):
    assert _alu(f"{name} r3, r1, r2", a, b) == to_word(ALU_MODELS[name](a, b))


@given(st.sampled_from(IMMEDIATE_FORMS), words, immediates)
def test_immediate_alu_ops_match_model(name, a, imm):
    expected = to_word(ALU_MODELS[name[:-1]](a, to_word(imm)))
    assert _alu(f"{name} r3, r1, {imm}", a) == expected


@given(st.sampled_from(sorted(BRANCH_MODELS)), words, words)
def test_branches_match_model(name, a, b):
    assert _branch_taken(name, a, b) == BRANCH_MODELS[name](a, b)


@given(words, words)
def test_branch_comparisons_are_consistent(a, b):
    lt = _branch_taken("blt", a, b)
    ge = _branch_taken("bge", a, b)
    eq = _branch_taken("beq", a, b)
    ne = _branch_taken("bne", a, b)
    assert lt != ge
    assert eq != ne
    if eq:
        assert ge


@given(
    st.sampled_from([
        "add r0, r1, r2", "mulq r0, r1, r2", "addi r0, r1, -1", "slti r0, r1, 5",
        "ldi r0, {imm}", "mov r0, r1", "ld r0, r2, 0", "push r1\n  pop r0",
        "in r0, 7",
    ]),
    words,
    immediates,
)
def test_writes_to_r0_are_discarded(line, a, imm):
    machine, _ = _run(line.format(imm=imm), a, a % 64)
    assert machine.registers[0] == 0
    assert machine.registers[1:3] == [a, a % 64]


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=2000))
def test_counter_program_always_counts_exactly(target):
    machine = Machine(
        assemble(counter_program(target)), MachineConfig(data_space_words=64)
    )
    machine.run(10**7)
    assert machine.output_port.log == [target]


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=1e-7, max_value=1e-2),
    st.floats(min_value=0.1, max_value=5.0),
    st.lists(
        st.tuples(st.booleans(), st.floats(min_value=0.0, max_value=1e-4)),
        max_size=30,
    ),
)
def test_capacitor_voltage_always_bounded(capacitance, v_max, operations):
    cap = Capacitor(capacitance, v_max=v_max)
    for is_add, energy in operations:
        if is_add:
            cap.add_energy(energy)
        else:
            cap.draw_energy(energy)
        assert 0.0 <= cap.voltage <= v_max + 1e-12
        assert cap.stored_energy <= cap.storage_capacity + 1e-15


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=1e-6, max_value=1e-3),
    st.floats(min_value=0.5, max_value=3.0),
    st.floats(min_value=0.0, max_value=1e-3),
)
def test_capacitor_energy_conservation_on_draw(capacitance, v_initial, request_energy):
    cap = Capacitor(capacitance, v_max=4.0, v_initial=v_initial)
    before = cap.stored_energy
    drawn = cap.draw_energy(request_energy)
    assert math.isclose(before - cap.stored_energy, drawn, rel_tol=1e-9, abs_tol=1e-15)
    assert drawn <= request_energy + 1e-15


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=1e-9, max_value=1e-3),
    st.floats(min_value=1e-7, max_value=1e-3),
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=1.0, max_value=3.0),
)
def test_eq4_threshold_and_capacitance_are_inverse(e_s, c, v_min, margin):
    v_h = hibernate_threshold(e_s, c, v_min, margin=margin)
    assert v_h >= v_min
    recovered = minimum_capacitance(e_s, v_h, v_min, margin=margin)
    assert math.isclose(recovered, c, rel_tol=1e-6)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 100), st.floats(0, 100)), max_size=40))
def test_pareto_frontier_is_nondominated(pairs):
    costs = [p[0] for p in pairs]
    benefits = [p[1] for p in pairs]
    frontier = pareto_points(costs, benefits)
    # The frontier is strictly improving: more cost must buy more benefit.
    for (c1, b1), (c2, b2) in zip(frontier, frontier[1:]):
        assert c2 >= c1
        assert b2 > b1
    # Every input point is dominated by or equal to some frontier point.
    for cost, benefit in pairs:
        assert any(fc <= cost and fb >= benefit for fc, fb in frontier)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=-5.0, max_value=5.0),
)
def test_crossover_found_for_crossing_lines(slope_a, slope_b, offset):
    """Two lines with different slopes either cross inside the sweep (found
    and correct) or do not (None)."""
    xs = [float(x) for x in range(11)]
    ys_a = [slope_a * x for x in xs]
    ys_b = [offset + slope_b * x for x in xs]
    found = find_crossover(xs, ys_a, ys_b)
    diffs = [a - b for a, b in zip(ys_a, ys_b)]
    signs = {d > 0 for d in diffs if d != 0}
    if len(signs) == 2:
        assert found is not None
        # Analytic crossing of the two lines.
        analytic = offset / (slope_a - slope_b)
        assert math.isclose(found, analytic, rel_tol=1e-6, abs_tol=1e-6)
    elif 0.0 not in diffs:
        assert found is None


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from(["begin", "commit", "abort"]), max_size=30))
def test_snapshot_store_never_exposes_uncommitted(ops):
    store = SnapshotStore(slots=2)
    committed = []
    writing = None
    for op in ops:
        if op == "begin":
            writing = f"payload-{len(committed)}-{id(op)}"
            store.begin_write(writing, words=1)
        elif op == "commit" and writing is not None:
            store.commit()
            committed.append(writing)
            writing = None
        elif op == "abort":
            store.abort()
            writing = None
    if committed:
        assert store.latest() == committed[-1]
    else:
        assert not store.has_snapshot()


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=1e-6, max_value=1.0),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=7),
)
def test_worst_window_never_exceeds_mean_window(power, scales):
    """The worst window's harvest is at most the average window's."""
    from repro.harvest.base import ConstantPowerHarvester
    from repro.harvest.environment import (
        DayCondition,
        EnvironmentHarvester,
        WeatherSequence,
        worst_window_energy,
    )
    from repro.units import days

    weather = WeatherSequence(
        [DayCondition(f"d{i}", s) for i, s in enumerate(scales)]
    )
    env = EnvironmentHarvester(ConstantPowerHarvester(power), weather)
    horizon = days(len(scales))
    worst = worst_window_energy(env, horizon=horizon, window=days(1), dt=3600.0)
    mean = power * weather.mean_scale() * days(1)
    assert worst <= mean * 1.01 + 1e-12
    assert worst >= 0.0


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1.0), st.floats(min_value=1e-6, max_value=1.0))
def test_required_storage_sign_logic(harvest_power, load_power):
    """Zero storage needed iff the worst window covers the load."""
    from repro.harvest.base import ConstantPowerHarvester
    from repro.harvest.environment import required_storage
    from repro.units import days

    needed = required_storage(
        ConstantPowerHarvester(harvest_power),
        load_power=load_power,
        horizon=days(2),
    )
    scale = load_power * days(1)
    assert needed >= 0.0
    if harvest_power >= load_power:
        assert needed <= 1e-9 * scale  # float dust only
    else:
        assert needed > 0.1 * (load_power - harvest_power) * days(1)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=10**6),
    st.lists(st.integers(min_value=0, max_value=10**5), max_size=20),
)
def test_synthetic_engine_accounting(total, budgets):
    engine = SyntheticEngine(total_cycles=total)
    executed = 0
    for budget in budgets:
        slice_ = engine.run_cycles(budget)
        executed += slice_.cycles
        assert slice_.cycles <= budget
        assert engine.executed == executed
        assert engine.executed <= total
    assert engine.done == (executed >= total)

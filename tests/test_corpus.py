"""Instance generators: determinism, solvability metadata, program shape."""

import math

import pytest

from aclp import Config
from aclp.corpus import (BlocksInstance, StepBudgetError, add_unavailability,
                         event_calculus_program, first_ground, generate_blocks,
                         generate_jobshop)
from aclp.parser import parse_theory


def test_event_calculus_program_parses():
    theory = parse_theory(event_calculus_program())
    assert ("act", 2) in theory.abducibles
    assert ("not_clipped", 3) in theory.abducibles
    assert len(theory.ics) >= 2
    assert theory.is_defined("holds_at", 2)


def test_blocks_generator_is_deterministic():
    a, b = generate_blocks(5, seed=9), generate_blocks(5, seed=9)
    assert a.program == b.program
    assert a.initial == b.initial and a.goal == b.goal
    assert generate_blocks(5, seed=10).program != a.program


def test_blocks_position_count_is_third_of_blocks():
    for n in range(3, 9):
        inst = generate_blocks(n, seed=1)
        assert len(inst.positions) == max(2, math.ceil(n / 3))
        assert len(inst.blocks) == n


def test_blocks_initial_and_goal_are_well_formed_towers():
    inst = generate_blocks(6, seed=3)
    for state in (inst.initial, inst.goal):
        assert set(state) == set(inst.blocks)
        # supports are distinct: nothing has two blocks on it
        supports = list(state.values())
        assert len(supports) == len(set(supports))
        assert all(s in inst.places for s in supports)


def test_blocks_scramble_reaches_the_goal():
    # the recorded move sequence is itself a valid plan
    from aclp.validators import validate_blocks_plan
    from aclp.terms import Atom, Int, Struct, UserLit
    inst = generate_blocks(7, seed=4)
    delta = tuple(
        UserLit("act", (Int(t), Struct("move", (Atom(x), Atom(f), Atom(to)))))
        for t, (x, f, to) in enumerate(inst.scramble, start=1))
    ok, reason = validate_blocks_plan(inst, delta)
    assert ok, reason


def test_blocks_program_parses_and_declares_abducibles():
    theory = parse_theory(generate_blocks(4, seed=1).program)
    assert ("act", 2) in theory.abducibles
    assert theory.validate() == []


def test_jobshop_generator_is_deterministic():
    a, b = generate_jobshop(10, seed=2), generate_jobshop(10, seed=2)
    assert a.program == b.program
    assert [(t.index, t.resource, t.duration) for t in a.tasks] == \
           [(t.index, t.resource, t.duration) for t in b.tasks]


def test_jobshop_horizon_admits_a_schedule():
    inst = generate_jobshop(12, seed=5)
    # sequential per-resource packing always fits under the horizon
    next_free = {}
    for t in inst.tasks:
        s = next_free.get(t.resource, 0)
        assert s + t.duration <= inst.horizon
        next_free[t.resource] = s + t.duration


def test_jobshop_program_parses():
    theory = parse_theory(generate_jobshop(8, seed=1).program)
    assert ("start", 2) in theory.abducibles
    assert theory.validate() == []


def test_add_unavailability_adds_one_window():
    inst = generate_jobshop(10, seed=0)
    out = add_unavailability(inst, seed=0)
    assert inst.windows == {}
    assert len(out.windows) == 1
    ((r, (lo, hi)),) = out.windows.items()
    assert r in {t.resource for t in out.tasks}
    assert 0 <= lo < hi <= inst.horizon
    assert out.program != inst.program
    # deterministic as well
    again = add_unavailability(inst, seed=0)
    assert again.windows == out.windows and again.program == out.program


def test_first_ground_tells_a_cut_search_from_one_with_no_answer():
    inst = generate_blocks(7, seed=10)
    with pytest.raises(StepBudgetError, match="no answer in 1000 steps"):
        first_ground(inst, Config(max_steps=1000))
    inst.goal_text = "fail"
    assert first_ground(inst, Config(max_steps=1000)) is None

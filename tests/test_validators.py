"""Plan and schedule validators, exercised on hand-built traces."""

import pytest

from aclp.corpus import BlocksInstance, JobshopInstance, Task
from aclp.terms import Atom, Int, Struct, UserLit, Var
from aclp.validators import (extract_moves, extract_starts,
                             validate_blocks_plan, validate_jobshop_schedule)


def move(t, x, frm, to):
    return UserLit("act", (Int(t), Struct("move",
                                          (Atom(x), Atom(frm), Atom(to)))))


def start(name, s):
    return UserLit("start", (Atom(name), Int(s)))


def three_blocks(initial, goal):
    return BlocksInstance(n_blocks=3, positions=["p1", "p2"],
                          initial=initial, goal=goal, max_time=4)


# -- blocks -----------------------------------------------------------------

def test_empty_trace_with_goal_equal_to_initial_is_valid():
    inst = three_blocks({"b1": "p1", "b2": "b1", "b3": "b2"},
                        {"b1": "p1", "b2": "b1", "b3": "b2"})
    ok, reason = validate_blocks_plan(inst, ())
    assert ok, reason


def test_empty_trace_with_unmet_goal_is_invalid():
    inst = three_blocks({"b1": "p1", "b2": "b1", "b3": "b2"},
                        {"b1": "p1", "b2": "b1", "b3": "p2"})
    ok, reason = validate_blocks_plan(inst, ())
    assert not ok and "goal" in reason


def test_moving_a_covered_block_is_invalid():
    # b3 sits on b1; moving b1 violates its clearness precondition
    inst = three_blocks({"b1": "p1", "b2": "p2", "b3": "b1"},
                        {"b1": "b2", "b2": "p2", "b3": "p1"})
    ok, reason = validate_blocks_plan(inst, (move(1, "b1", "p1", "b2"),))
    assert not ok and "b1 is not clear" in reason


def test_moving_onto_a_covered_destination_is_invalid():
    inst = three_blocks({"b1": "p1", "b2": "p2", "b3": "b2"},
                        {"b1": "b3", "b2": "p2", "b3": "b2"})
    ok, reason = validate_blocks_plan(inst, (move(1, "b1", "p1", "b2"),))
    assert not ok and "b2 is not clear" in reason


def test_wrong_source_is_invalid():
    inst = three_blocks({"b1": "p1", "b2": "p2", "b3": "b2"},
                        {"b1": "p1", "b2": "p2", "b3": "b2"})
    ok, reason = validate_blocks_plan(inst, (move(1, "b1", "p2", "p1"),))
    assert not ok and "b1 is on p1" in reason


def test_time_bounds_and_conflicts():
    inst = three_blocks({"b1": "p1", "b2": "p2", "b3": "b2"},
                        {"b1": "p1", "b2": "p2", "b3": "b2"})
    ok, reason = validate_blocks_plan(inst, (move(9, "b1", "p1", "b3"),))
    assert not ok and "outside" in reason
    ok, reason = validate_blocks_plan(
        inst, (move(1, "b1", "p1", "b3"), move(1, "b3", "b2", "b1")))
    assert not ok and "conflicting" in reason


def test_valid_two_step_plan():
    inst = three_blocks({"b1": "p1", "b2": "p2", "b3": "b1"},
                        {"b1": "b2", "b2": "p2", "b3": "p1"})
    trace = (move(1, "b3", "b1", "p2"),)
    ok, reason = validate_blocks_plan(inst, trace)
    assert not ok  # b3 must go to a clear place and goal still unmet
    trace = (move(1, "b3", "b1", "b2"), move(2, "b1", "p1", "b3"))
    ok, reason = validate_blocks_plan(inst, trace)
    assert not ok  # b1 belongs on b2, not on b3
    trace = (move(1, "b3", "b1", "b2"), move(2, "b1", "p1", "p2"))
    ok, reason = validate_blocks_plan(inst, trace)
    assert not ok
    # the actual solution: clear b1 by parking b3 on... nothing is free;
    # use the move recorded by the scramble shape instead
    inst2 = three_blocks({"b1": "p1", "b2": "p2", "b3": "b1"},
                         {"b1": "p1", "b2": "p2", "b3": "b2"})
    ok, reason = validate_blocks_plan(inst2, (move(1, "b3", "b1", "b2"),))
    assert ok, reason


def test_extract_moves_rejects_non_ground():
    from aclp.terms import Var
    bad = UserLit("act", (Var("T", 0), Struct("move",
                                              (Atom("b1"), Atom("p1"),
                                               Atom("p2")))))
    try:
        extract_moves((bad,))
    except ValueError as e:
        assert "ground" in str(e)
    else:
        raise AssertionError("expected ValueError")


# -- job shop ---------------------------------------------------------------

def two_tasks(horizon=10, windows=None):
    return JobshopInstance([Task(1, "r1", 3), Task(2, "r1", 2)],
                           horizon, windows or {})


def test_disjoint_schedule_is_valid():
    ok, reason = validate_jobshop_schedule(
        two_tasks(), (start("t1", 0), start("t2", 3)))
    assert ok, reason


def test_overlap_on_shared_resource_is_invalid():
    ok, reason = validate_jobshop_schedule(
        two_tasks(), (start("t1", 0), start("t2", 2)))
    assert not ok and "overlap" in reason


def test_overlap_on_different_resources_is_fine():
    inst = JobshopInstance([Task(1, "r1", 3), Task(2, "r2", 3)], 10, {})
    ok, reason = validate_jobshop_schedule(
        inst, (start("t1", 0), start("t2", 0)))
    assert ok, reason


def test_window_violation_detected():
    inst = two_tasks(windows={"r1": (2, 5)})
    ok, reason = validate_jobshop_schedule(
        inst, (start("t1", 1), start("t2", 6)))
    assert not ok and "window" in reason
    ok, reason = validate_jobshop_schedule(
        inst, (start("t1", 5), start("t2", 0)))
    assert ok, reason


def test_missing_task_and_horizon_overflow():
    ok, reason = validate_jobshop_schedule(two_tasks(), (start("t1", 0),))
    assert not ok and "not scheduled" in reason
    ok, reason = validate_jobshop_schedule(
        two_tasks(horizon=4), (start("t1", 2), start("t2", 0)))
    assert not ok and "outside" in reason


def test_extract_starts_detects_conflicts():
    try:
        extract_starts((start("t1", 0), start("t1", 2)))
    except ValueError as e:
        assert "two start times" in str(e)
    else:
        raise AssertionError("expected ValueError")
    assert extract_starts((start("t1", 0), start("t1", 0))) == {1: 0}


def test_a_reason_names_the_literal_as_written():
    plan = (UserLit("act", (Var("T", 0), Struct("move", (
        Atom("b1"), Atom("p1"), Atom("p2"))))),)
    inst = three_blocks({"b1": "p1", "b2": "b1", "b3": "b2"},
                        {"b1": "p1", "b2": "b1", "b3": "b2"})
    assert validate_blocks_plan(inst, plan) == (
        False, "not a ground move action: act(T,move(b1,p1,p2))")
    with pytest.raises(ValueError, match=r"^not a ground start: start\(t1,_\)$"):
        extract_starts((UserLit("start", (Atom("t1"), Var("_", 3))),))

"""Independent answer validators for the benchmark corpora.

These never consult the solver: the blocks-world validator replays the
plan by forward simulation, the job-shop validator scans intervals for
overlaps and unavailability-window violations.
"""

from __future__ import annotations

from .corpus import BlocksInstance, JobshopInstance, _clear_set
from .terms import Atom, Int, Struct, UserLit, as_written


def extract_moves(delta) -> list:
    """(time, block, from, to) tuples from ground act/2 hypotheses."""
    moves = []
    for lit in delta:
        if not (isinstance(lit, UserLit) and lit.indicator == ("act", 2)):
            continue
        t, action = lit.args
        if not (isinstance(t, Int) and isinstance(action, Struct)
                and action.functor == "move" and action.arity == 3):
            raise ValueError(f"not a ground move action: {as_written(lit)}")
        x, frm, to = (a.name if isinstance(a, Atom) else None for a in action.args)
        if None in (x, frm, to):
            raise ValueError(f"non-atomic move arguments: {as_written(lit)}")
        moves.append((t.value, x, frm, to))
    return moves


def validate_blocks_plan(inst: BlocksInstance, delta) -> tuple:
    """(True, "") for a valid plan, else (False, reason)."""
    try:
        moves = extract_moves(delta)
    except ValueError as e:
        return False, str(e)
    seen_times = {}
    for t, x, frm, to in moves:
        if not 1 <= t <= inst.max_time:
            return False, f"time {t} outside 1..{inst.max_time}"
        if t in seen_times and seen_times[t] != (x, frm, to):
            return False, f"conflicting actions at time {t}"
        seen_times[t] = (x, frm, to)
    state = dict(inst.initial)
    blocks, places = set(inst.blocks), set(inst.places)
    for t in sorted(seen_times):
        x, frm, to = seen_times[t]
        clear = _clear_set(state, places)
        if x not in blocks:
            return False, f"t={t}: {x} is not a block"
        if to not in places or to == x:
            return False, f"t={t}: bad destination {to}"
        if state.get(x) != frm:
            return False, f"t={t}: {x} is on {state.get(x)}, not {frm}"
        if x not in clear:
            return False, f"t={t}: {x} is not clear"
        if to not in clear:
            return False, f"t={t}: {to} is not clear"
        state[x] = to
    for x, support in inst.goal.items():
        if state.get(x) != support:
            return False, f"goal: {x} is on {state.get(x)}, wanted {support}"
    return True, ""


def extract_starts(delta) -> dict:
    """task index -> start time from ground start/2 hypotheses."""
    starts = {}
    for lit in delta:
        if not (isinstance(lit, UserLit) and lit.indicator == ("start", 2)):
            continue
        name, s = lit.args
        if not (isinstance(name, Atom) and name.name.startswith("t")
                and isinstance(s, Int)):
            raise ValueError(f"not a ground start: {as_written(lit)}")
        index = int(name.name[1:])
        if index in starts and starts[index] != s.value:
            raise ValueError(f"two start times for task {index}")
        starts[index] = s.value
    return starts


def validate_jobshop_schedule(inst: JobshopInstance, delta) -> tuple:
    """(True, "") for a valid schedule, else (False, reason)."""
    try:
        starts = extract_starts(delta)
    except ValueError as e:
        return False, str(e)
    for t in inst.tasks:
        if t.index not in starts:
            return False, f"task {t.index} not scheduled"
        s = starts[t.index]
        if s < 0 or s + t.duration > inst.horizon:
            return False, f"task {t.index} outside 0..{inst.horizon}"
        window = inst.windows.get(t.resource)
        if window and s < window[1] and s + t.duration > window[0]:
            return False, f"task {t.index} inside unavailability window"
    for i, a in enumerate(inst.tasks):
        for b in inst.tasks[i + 1:]:
            if a.resource != b.resource:
                continue
            sa, sb = starts[a.index], starts[b.index]
            if sa < sb + b.duration and sb < sa + a.duration:
                return False, f"tasks {a.index} and {b.index} overlap on {a.resource}"
    return True, ""

"""Command-line behavior: modes, exit codes, output formats."""

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from aclp.cli import main
from aclp.corpus import generate_blocks, generate_jobshop
from aclp.optimize import RESCHEDULE_MAX_STEPS

SIMPLE = """\
abducible_predicate(a/1).
g(X) :- X :: 1..5, a(X).
ic :- a(Y), Y #< 3.
"""

JOBSHOP2 = """\
abducible_predicate(start/2).
task(t1). task(t2).
schedule :- start(t1, S1), S1 :: 0..6,
            start(t2, S2), S2 :: 0..6,
            S1 + 3 #<= S2 #\\/ S2 + 2 #<= S1.
"""


@pytest.fixture
def simple(tmp_path):
    p = tmp_path / "simple.aclp"
    p.write_text(SIMPLE)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_first_answer_text_output(simple, capsys):
    code, out, _ = run(capsys, "solve", simple, "--goal", "g(X)")
    assert code == 0
    assert "Δ = {a(" in out
    assert "3..5" in out


def test_no_answer_exits_1(simple, capsys):
    code, out, _ = run(capsys, "solve", simple, "--goal", "fail")
    assert code == 1 and out == ""


@pytest.mark.parametrize("mode", [[], ["--label"], ["--minimize", "X"]])
def test_an_exhausted_step_budget_is_named_on_stderr(simple, capsys, mode):
    code, out, err = run(capsys, "solve", simple, "--goal", "g(X)",
                         "--max-steps", "1", *mode)
    assert code == 1 and out == ""
    assert err == "no answer within the step budget (--max-steps 1)\n"


def test_a_min_changes_search_its_budget_cut_is_named_on_stderr(tmp_path,
                                                                capsys):
    prog = tmp_path / "js.aclp"
    prog.write_text(JOBSHOP2)
    ref = tmp_path / "old.facts"
    ref.write_text("start(t1, 0).\nstart(t2, 3).\n")
    code, out, err = run(capsys, "solve", str(prog), "--goal", "schedule",
                         "--min-changes", str(ref), "--max-steps", "1")
    assert (code, out) == (1, "")
    assert err == "no answer within the step budget (--max-steps 1)\n"


def test_min_changes_names_its_default_budget(tmp_path, capsys):
    # blocks 7, seed 10 finds no plan in RESCHEDULE_MAX_STEPS steps, the
    # budget of each re-solve when --max-steps is not given
    inst = generate_blocks(7, 10)
    prog = tmp_path / "blocks.aclp"
    prog.write_text(inst.program)
    ref = tmp_path / "empty.facts"
    ref.write_text("")
    code, out, err = run(capsys, "solve", str(prog), "--goal", inst.goal_text,
                         "--min-changes", str(ref))
    assert (code, out) == (1, "")
    assert err == ("no answer within the step budget "
                   f"(--max-steps {RESCHEDULE_MAX_STEPS})\n")


def test_a_search_that_completes_with_no_answer_names_no_budget(simple,
                                                                capsys):
    # a(1) breaks the IC, so the search ends well inside its budget
    code, out, err = run(capsys, "solve", simple, "--goal", "g(1)",
                         "--max-steps", "1000")
    assert (code, out, err) == (1, "", "")


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "solve", "/nonexistent.aclp", "--goal", "g")
    assert code == 2 and err != ""


@pytest.mark.parametrize("option", ["--initial", "--min-changes"])
def test_missing_hypothesis_file_exits_2(simple, tmp_path, capsys, option):
    code, _, err = run(capsys, "solve", simple, "--goal", "g(X)", option,
                       str(tmp_path / "missing.facts"))
    assert code == 2 and "missing.facts" in err


@pytest.mark.parametrize("option", [None, "--initial", "--min-changes"])
def test_a_file_that_is_not_utf8_exits_2(simple, tmp_path, capsys, option):
    bad = tmp_path / "bad.aclp"
    bad.write_bytes(b"p(\xff).\n")
    argv = ["solve", str(bad), "--goal", "p(X)"]
    if option is not None:
        argv = ["solve", simple, "--goal", "g(X)", option, str(bad)]
    code, _, err = run(capsys, *argv)
    assert code == 2 and "bad.aclp is not UTF-8" in err


@pytest.mark.parametrize("argv", [
    ["--all", "0"],
    ["--all", "-2"],
    ["bench", "jobshop", "--sizes", "0"],
    ["bench", "reschedule", "--sizes", "5", "0"],
    ["--max-depth", "0"],
    ["--max-depth", "-1"],
    ["bench", "jobshop", "--sizes", "3", "--max-depth", "0"],
    ["--max-steps", "0"],
    ["--max-steps", "-1"],
    ["bench", "jobshop", "--sizes", "3", "--max-steps", "0"],
])
def test_counts_below_one_exit_2(simple, capsys, argv):
    if argv[0] != "bench":
        argv = ["solve", simple, "--goal", "g(X)"] + argv
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err


def test_parse_error_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.aclp"
    p.write_text("p :- .")
    code, _, err = run(capsys, "solve", str(p), "--goal", "p")
    assert code == 2 and "error" in err


def test_unknown_goal_predicate_exits_2(simple, capsys):
    code, _, err = run(capsys, "solve", simple, "--goal", "nosuch")
    assert code == 2 and "unknown predicate" in err


def test_json_output_is_structured_and_stable(simple, capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, "solve", simple, "--goal", "g(X)", "--json")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    doc = json.loads(runs[0])
    (answer,) = doc["answers"]
    assert answer["hypotheses"][0]["predicate"] == "a"
    assert any("3..5" in d for d in answer["domains"].values())


def test_all_n_answers(simple, capsys):
    code, out, _ = run(capsys, "solve", simple, "--goal", "g(X), g(Y)",
                       "--all", "10")
    assert code == 0
    blocks = [b for b in out.strip().split("\n\n") if b]
    assert 1 < len(blocks) <= 10
    # reuse-first: the first block has the fewest hypotheses
    counts = [b.count("a(") for b in blocks]
    assert counts[0] == min(counts)


def test_label_grounds_the_answer(simple, capsys):
    code, out, _ = run(capsys, "solve", simple, "--goal", "g(X)", "--label")
    assert code == 0
    assert "Δ = {a(3)}" in out


def test_minimize_mode(simple, capsys):
    code, out, _ = run(capsys, "solve", simple, "--goal", "g(X)",
                       "--minimize", "X")
    assert code == 0
    assert "objective = 3" in out
    assert "a(3)" in out


def test_minimize_mode_finds_a_cheaper_labelling_after_the_first(tmp_path,
                                                                 capsys):
    p = tmp_path / "cost.aclp"
    p.write_text("abducible_predicate(a/2).\n"
                 "g :- X :: 1..2, C :: 0..9, (X #= 1 #/\\ C #= 5) "
                 "#\\/ (X #= 2 #/\\ C #= 3), a(X, C).\n")
    code, out, _ = run(capsys, "solve", str(p), "--goal", "g",
                       "--minimize", "C")
    assert code == 0
    assert out == "Δ = {a(2,3)}\nobjective = 3\n"


def test_initial_hypotheses_file(simple, tmp_path, capsys):
    init = tmp_path / "init.facts"
    init.write_text("a(4).\n")
    code, out, _ = run(capsys, "solve", simple, "--goal", "g(X)",
                       "--initial", str(init), "--label")
    assert code == 0
    assert "Δ = {a(4)}" in out.split("\n\n")[0]


@pytest.mark.parametrize("option", ["--initial", "--min-changes"])
def test_hypothesis_files_take_comments(tmp_path, capsys, option):
    prog = tmp_path / "js.aclp"
    prog.write_text(JOBSHOP2)
    facts = tmp_path / "old.facts"
    facts.write_text("% schedule v1.2. Kept as is.\n"
                     "start(t1, 0). % old schedule\n"
                     "start(t2, 3).  % moved. twice\n")
    code, out, _ = run(capsys, "solve", str(prog), "--goal", "schedule",
                       option, str(facts), "--label")
    assert code == 0
    assert out.startswith("Δ = {start(t1,0), start(t2,3)}\n")
    facts.write_text("start(t1, 0). % old schedule\nstart(t2, ).\n")
    code, _, err = run(capsys, "solve", str(prog), "--goal", "schedule",
                       option, str(facts))
    assert code == 2 and err.startswith("2:11: syntax error")


def test_each_hypothesis_fact_has_its_own_variables(tmp_path, capsys):
    prog = tmp_path / "ab.aclp"
    prog.write_text("abducible_predicate(a/1). abducible_predicate(b/1).\n"
                    "g :- a(1), b(2).\n")
    facts = tmp_path / "ab.facts"
    for text in ("a(X).\nb(Y).\n", "a(X), b(Y).\n"):
        facts.write_text(text)
        code, out, _ = run(capsys, "solve", str(prog), "--goal", "g",
                           "--initial", str(facts))
        assert (code, out) == (0, "Δ = {a(1), b(2)}\n")


def test_inconsistent_initial_hypotheses_exit_2(simple, tmp_path, capsys):
    init = tmp_path / "init.facts"
    init.write_text("a(1).\n")  # violates ic :- a(Y), Y #< 3
    code, _, err = run(capsys, "solve", simple, "--goal", "g(X)",
                       "--initial", str(init))
    assert code == 2 and "INITIAL_HYPOTHESIS_INCONSISTENT" in err


@pytest.mark.parametrize("option", ["--initial", "--min-changes"])
@pytest.mark.parametrize("fact", ["X #> 2", "Y :: 1..3", "not(a(1))"])
def test_a_hypothesis_fact_that_is_no_atom_exits_2(tmp_path, capsys, option,
                                                   fact):
    prog = tmp_path / "h.aclp"
    prog.write_text("abducible_predicate(a/1).\nh :- a(X), X #> 2.\n")
    facts = tmp_path / "bad.facts"
    facts.write_text(f"{fact}.\n")
    code, out, err = run(capsys, "solve", str(prog), "--goal", "h",
                         option, str(facts))
    assert code == 2 and out == ""
    assert err == f"initial hypothesis {fact} is not an atom\n"


def test_minimizing_an_atom_variable_exits_2(tmp_path, capsys):
    prog = tmp_path / "atoms.aclp"
    prog.write_text("abducible_predicate(a/1).\n"
                    "g(X) :- X :: [red, blue], a(X).\n")
    code, out, err = run(capsys, "solve", str(prog), "--goal", "g(X)",
                         "--minimize", "X")
    assert code == 2 and out == ""
    assert err == "cannot minimize X: its domain holds atoms\n"


def test_min_changes_mode(tmp_path, capsys):
    prog = tmp_path / "js.aclp"
    prog.write_text(JOBSHOP2)
    ref = tmp_path / "old.facts"
    ref.write_text("start(t1, 0).\nstart(t2, 3).\n")
    code, out, _ = run(capsys, "solve", str(prog), "--goal", "schedule",
                       "--min-changes", str(ref))
    assert code == 0
    assert "changes = 0" in out


def test_a_non_ground_min_changes_reference_exits_2(tmp_path, capsys):
    prog = tmp_path / "t.aclp"
    prog.write_text("abducible_predicate(start/2).\n"
                    "g :- S :: 0..5, start(a, S).\n")
    ref = tmp_path / "ng.facts"
    ref.write_text("start(a, X).\n")
    code, out, err = run(capsys, "solve", str(prog), "--goal", "g",
                         "--min-changes", str(ref))
    assert code == 2 and out == ""
    assert err == "reference hypothesis start(a,X) is not ground\n"


def test_ordering_an_atom_variable_exits_2(tmp_path, capsys):
    p = tmp_path / "atoms.aclp"
    p.write_text("abducible_predicate(p/1).\n"
                 "g :- X :: [a, b], p(X), X #< 3.\n")
    code, out, err = run(capsys, "solve", str(p), "--goal", "g")
    assert code == 2 and out == ""
    assert "order constraint over atoms" in err


def test_an_atom_takes_no_offset_inside_a_disjunction(tmp_path, capsys):
    p = tmp_path / "offset.aclp"
    p.write_text("abducible_predicate(p/1).\n"
                 "g :- X :: [a], Z :: 0..5, p(Z), X + 1 #= a #\\/ Z #= 9.\n"
                 "h :- X :: [a], Z :: 0..5, p(Z), X + 1 ## a #\\/ Z #= 9.\n")
    code, out, _ = run(capsys, "solve", str(p), "--goal", "g")
    assert code == 1 and out == ""
    code, out, _ = run(capsys, "solve", str(p), "--goal", "h")
    assert code == 0 and out == "Δ = {p(Z)}\nZ ∈ {0..5}\n"


@pytest.mark.parametrize("body, printed", [
    # `#=` with an atom gives an undeclared X the atom's domain
    ("X #= a, p(X)", "X ∈ {a}"),
    # `a ##= b`, a term equality of two atoms, is false, so the
    # disjunction leaves X #= 1
    ("X :: 0..1, a ##= b #\\/ X #= 1, p(X)", "X ∈ {1}"),
])
def test_a_constraint_decided_on_an_atom_prints_its_domain(tmp_path, capsys,
                                                           body, printed):
    p = tmp_path / "atom.aclp"
    p.write_text(f"abducible_predicate(p/1).\ng :- {body}.\n")
    code, out, _ = run(capsys, "solve", str(p), "--goal", "g")
    assert (code, out) == (0, f"Δ = {{p(X)}}\n{printed}\n")


@pytest.mark.parametrize("label", [[], ["--label"]])
def test_a_residual_constraint_grounded_by_unification_is_checked(
        tmp_path, capsys, label):
    # X has no domain, so `X ## a` waits in the store until q(X) binds X
    p = tmp_path / "residual.aclp"
    p.write_text("abducible_predicate(p/1).\n"
                 "g :- X ## a, q(X), p(X).\n"
                 "q(a).\n")
    code, out, _ = run(capsys, "solve", str(p), "--goal", "g", *label)
    assert code == 1 and out == ""


def test_naf_mode_validate_rejects_undeclared(tmp_path, capsys):
    p = tmp_path / "naf.aclp"
    p.write_text("p :- not(q).\nq :- fail.\n")
    code, _, err = run(capsys, "solve", str(p), "--goal", "p")
    assert code == 2 and "MISSING_NAF_DECLARATION" in err
    code, out, _ = run(capsys, "solve", str(p), "--goal", "p",
                       "--naf-mode", "autogenerate")
    assert code == 0 and "not_q" in out


def test_bench_blocksworld_small(capsys):
    code, out, _ = run(capsys, "bench", "blocksworld", "--sizes", "3", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3  # header + two rows
    assert all("VALID" in line for line in lines[1:])
    assert all("moves" in line for line in lines[1:])


def test_bench_jobshop_small_is_deterministic(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "bench", "jobshop", "--sizes", "5",
                           "--seed", "3")
        assert code == 0
        outs.append([line.split("s  ", 1)[-1]      # strip the timing column
                     for line in out.splitlines()])
    assert outs[0] == outs[1]
    assert any("makespan" in line and "VALID" in line for line in outs[0])


def test_bench_reschedule_small(capsys):
    code, out, _ = run(capsys, "bench", "reschedule", "--sizes", "6",
                       "--seed", "1", "--max-steps", "10000")
    assert code == 0
    row = out.strip().splitlines()[-1]
    assert "vs" in row and "VALID" in row


def test_bench_reschedule_reports_no_answer(monkeypatch, capsys):
    monkeypatch.setattr("aclp.corpus.Solver.solve",
                        lambda *args, **kwargs: iter(()))
    code, out, _ = run(capsys, "bench", "reschedule", "--sizes", "6")
    assert code == 0
    assert out.strip().splitlines()[-1].endswith("NO ANSWER")


def test_bench_names_a_search_that_its_budget_cut(capsys):
    # blocks 7, seed 10 finds no plan in 1,000 steps: that is no proof
    # that it has none
    code, out, _ = run(capsys, "bench", "blocksworld", "--sizes", "7",
                       "--seed", "10", "--max-steps", "1000")
    assert code == 0
    row = out.strip().splitlines()[-1].split()
    assert row[0] == "7" and row[2:] == ["1000", "steps", "BUDGET"]


@pytest.mark.parametrize("json_flag", [["--json"], []])
def test_a_reader_that_closes_stdout_early_sees_no_traceback(tmp_path,
                                                            json_flag):
    # the pipe's read end is closed before the CLI writes, so its first
    # write meets a broken pipe; the exit code is still the answers' own
    p = tmp_path / "many.aclp"
    p.write_text("abducible_predicate(a/1).\ng(X) :- X :: 1..60, a(X).\n")
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "aclp.cli", "solve", str(p), "--goal",
             "g(X)", "--all", "50", *json_flag],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_disjunction_wider_than_the_recursion_limit(tmp_path, capsys):
    n = 2 * sys.getrecursionlimit()
    disjunction = " #\\/ ".join(["X #= 1"] * n)
    p = tmp_path / "wide.aclp"
    p.write_text(f"abducible_predicate(a/1).\ng :- X :: 0..5, a(X), {disjunction}.\n")
    code, out, _ = run(capsys, "solve", str(p), "--goal", "g")
    assert code == 0 and out.count("#\\/") == n - 1
    code, out, _ = run(capsys, "solve", str(p), "--goal", "g", "--json")
    (answer,) = json.loads(out)["answers"]
    (c,) = answer["constraints"]
    assert c.startswith("(" * (n - 2) + "X #= 1 #\\/ X #= 1) #\\/ X #= 1)")
    assert c.count("#\\/") == n - 1
    code, out, _ = run(capsys, "solve", str(p), "--goal", "g", "--label")
    assert code == 0 and out == "Δ = {a(1)}\n"


def test_a_job_shop_stream_repeats_no_answer(tmp_path, capsys):
    inst = generate_jobshop(4, 1)
    p = tmp_path / "jobshop.aclp"
    p.write_text(inst.program)
    code, out, _ = run(capsys, "solve", str(p), "--goal", inst.goal_text,
                       "--all", "4", "--json")
    docs = [json.dumps(d, sort_keys=True) for d in json.loads(out)["answers"]]
    assert code == 0 and len(docs) == len(set(docs)) == 4


@pytest.mark.parametrize("program, facts, line", [
    ("p(1).\nic :- p(X).\n", None,
     "2:1: validation error: IC_WITHOUT_ABDUCIBLE: "
     "no abducible body literal in ic :- p(X)."),
    ("p(1).\nic :- p(_).\n", None,
     "2:1: validation error: IC_WITHOUT_ABDUCIBLE: "
     "no abducible body literal in ic :- p(_)."),
    ("g :- X :: 0..3, Y :: 0..3, X + Y #= 2.\n", None,
     "non-scalar operand in X + Y #= 2"),
    ("abducible_predicate(a/1).\ng :- a(1).\n", "b(X).\n",
     "INITIAL_HYPOTHESIS_INCONSISTENT: b(X)"),
    ("g :- X :: Y..5.\n", None, "non-ground domain bounds in X :: Y..5"),
    ("g :- X :: f(_)..5.\n", None,
     "non-ground domain bounds in X :: f(_)..5"),
], ids=["ic", "ic-anonymous", "non-scalar", "initial", "bounds",
        "bounds-anonymous"])
def test_each_message_names_terms_as_written(tmp_path, capsys, program,
                                             facts, line):
    prog = tmp_path / "m.aclp"
    prog.write_text(program)
    argv = ["solve", str(prog), "--goal", "g"]
    if facts is not None:
        init = tmp_path / "m.facts"
        init.write_text(facts)
        argv += ["--initial", str(init)]
    code, _, err = run(capsys, *argv)
    assert (code, err) == (2, line + "\n")
    assert not re.search(r"#\d|_A\d", err)

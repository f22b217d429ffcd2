"""End-to-end CLI behaviour: outputs, formats, and exit codes."""

from __future__ import annotations

import io

import pytest

from copar import _kernels as K
from copar import automaton, cli
from copar.automaton import parse_automaton, serialize_automaton, serialize_order
from copar.examples import example_loop_dfa, example_unordered_nfa

LOOP = "NFA 3 3 0 2\n0 1 1\n1 2 0\n2 2 0\n"


@pytest.fixture
def loop_path(tmp_path):
    p = tmp_path / "loop.nfa"
    p.write_text(LOOP)
    return str(p)


def test_sort_golden_stdout(loop_path, capsys):
    assert cli.main(["sort", loop_path]) == 0
    out = capsys.readouterr().out
    assert out == "ORDPART 3\n0: 0\n1: 2\n2: 1\nQUASI_WHEELER: true\n"


def test_sort_quasi_false_and_quotient(tmp_path, capsys):
    nfa = tmp_path / "in.nfa"
    nfa.write_text(serialize_automaton(example_unordered_nfa()))
    quot = tmp_path / "quot.nfa"
    assert cli.main(["sort", str(nfa), "--emit-quotient", str(quot)]) == 0
    assert capsys.readouterr().out.endswith("QUASI_WHEELER: false\n")
    text = quot.read_text()
    assert text.startswith("# forward-stable quotient\n")
    parse_automaton(text)  # round-trips


def test_sort_reads_stdin_writes_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.sys, "stdin", io.StringIO(LOOP))
    out = tmp_path / "out.txt"
    assert cli.main(["sort", "-", "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text().startswith("ORDPART 3\n")


def test_prune_golden(loop_path, capsys):
    assert cli.main(["prune", loop_path, "--mode", "inf"]) == 0
    assert capsys.readouterr().out == "# pruned inf\nNFA 3 2 0 2\n0 1 1\n2 2 0\n"
    assert cli.main(["prune", loop_path, "--mode", "sup"]) == 0
    assert capsys.readouterr().out == "# pruned sup\nNFA 3 2 0 2\n0 1 1\n1 2 0\n"


def test_colex_golden(loop_path, capsys):
    assert cli.main(["colex", loop_path]) == 0
    assert capsys.readouterr().out == "RANKS 3\n0 0 0\n1 3 3\n2 1 2\nCHAINS 1\n0 2 1\n"


def test_colex_make_ic(tmp_path, capsys):
    # state 2 receives both letters, so the run needs --make-ic
    nfa = tmp_path / "dirty.nfa"
    nfa.write_text("NFA 3 3 0 2\n0 1 0\n0 2 1\n1 2 0\n")
    assert cli.main(["colex", str(nfa)]) == 1
    assert "in-label-conflict" in capsys.readouterr().err
    assert cli.main(["colex", str(nfa), "--make-ic"]) == 0
    out = capsys.readouterr().out
    head, _, rest = out.partition("RANKS")
    assert head.count("# ic ") == 4 and "# ic 0 <- 0\n" in head
    assert rest.startswith(" 4\n")


def test_check_order_pass_and_fail(loop_path, tmp_path, capsys):
    good = tmp_path / "good.order"
    good.write_text(serialize_order([0, 2, 1]))
    assert cli.main(["check", loop_path, "--order", str(good)]) == 0
    assert "PASS" in capsys.readouterr().out
    bad = tmp_path / "bad.order"
    bad.write_text(serialize_order([0, 1, 2]))
    assert cli.main(["check", loop_path, "--order", str(bad)]) == 2
    assert "FAIL: letter-order" in capsys.readouterr().out


def test_check_partition_accepts_sort_output(loop_path, tmp_path, capsys):
    part = tmp_path / "claimed.ordpart"
    assert cli.main(["sort", loop_path, "-o", str(part)]) == 0
    assert cli.main(["check", loop_path, "--partition", str(part)]) == 0
    assert "PASS" in capsys.readouterr().out
    part.write_text("ORDPART 3\n0: 0\n1: 1\n2: 2\n")
    assert cli.main(["check", loop_path, "--partition", str(part)]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_gen_wheeler_is_seeded(capsys):
    assert cli.main(["gen", "--wheeler", "-n", "6", "--sigma", "2"]) == 0
    first = capsys.readouterr().out
    assert first.startswith(f"# seed {cli.DEFAULT_SEED}\nNFA 6 10 0 2\n")
    assert cli.main(["gen", "--wheeler", "-n", "6", "--sigma", "2"]) == 0
    assert capsys.readouterr().out == first
    parse_automaton(first)


def test_gen_dfa(capsys):
    assert cli.main(["gen", "--dfa", "-n", "5", "--sigma", "2", "--seed", "7", "-m", "8"]) == 0
    a = parse_automaton(capsys.readouterr().out)
    assert a.n == 5 and a.m == 8 and a.is_deterministic()


def test_bench_csv(capsys):
    assert cli.main(["bench", "--sizes", "64,128", "--trials", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,m,op,median_ms,max_splitters"
    assert len(lines) == 5  # 2 sizes x 2 ops
    seen = {(row.split(",")[0], row.split(",")[2]) for row in lines[1:]}
    assert seen == {("64", "sort"), ("128", "sort"), ("64", "prune"), ("128", "prune")}


def test_exit_code_3_on_parse_and_io_errors(tmp_path, capsys):
    bad = tmp_path / "bad.nfa"
    bad.write_text("DFA 3 0 0 1\n")
    assert cli.main(["sort", str(bad)]) == 3
    assert "parse error" in capsys.readouterr().err
    assert cli.main(["sort", str(tmp_path / "missing.nfa")]) == 3
    assert "i/o error" in capsys.readouterr().err


def test_exit_code_1_on_validation_and_contract_errors(tmp_path, capsys):
    unreachable = tmp_path / "unreachable.nfa"
    unreachable.write_text("NFA 3 1 0 1\n0 1 0\n")
    assert cli.main(["sort", str(unreachable)]) == 1
    assert "validation:" in capsys.readouterr().err
    nfa = tmp_path / "nondet.nfa"
    nfa.write_text(serialize_automaton(example_unordered_nfa()))
    assert cli.main(["prune", str(nfa), "--mode", "inf"]) == 1
    assert "DFA required" in capsys.readouterr().err


def test_exit_code_1_on_memory_error(loop_path, capsys, monkeypatch):
    # what numpy raises for `NFA 1000000000000 0 0 0`, without allocating
    def too_big(a):
        raise MemoryError("Unable to allocate 931. GiB for an array with shape (1000000000000,)")

    monkeypatch.setattr(automaton, "reachable_mask", too_big)
    assert cli.main(["sort", loop_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate") and err.count("\n") == 1


def test_exit_code_1_on_engine_status_error(loop_path, capsys, monkeypatch):
    def breach(regs, *args):
        regs[K.R_STATUS] = K.STATUS_HEAP_CAP

    monkeypatch.setattr(K, "run_full", breach)
    assert cli.main(["sort", loop_path]) == 1
    err = capsys.readouterr().err
    assert err == f"error: refinement engine invariant breached (status {K.STATUS_HEAP_CAP})\n"


def test_loop_fixture_matches_example():
    assert parse_automaton(LOOP) == example_loop_dfa()

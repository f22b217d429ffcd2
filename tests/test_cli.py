"""End-to-end CLI behaviour: outputs, formats, and exit codes."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from copar import _kernels as K
from copar import automaton, cli, colex, oracle, partition, refine
from copar.automaton import parse_automaton, serialize_automaton, serialize_order
from copar.examples import example_loop_dfa, example_quasi_wheeler_nfa, example_unordered_nfa
from copar.generators import gen_random_dfa

LOOP = "NFA 3 3 0 2\n0 1 1\n1 2 0\n2 2 0\n"


def _stdin(data: str | bytes) -> io.TextIOWrapper:
    """A stand-in for sys.stdin that, like the real one, has a byte buffer."""
    return io.TextIOWrapper(io.BytesIO(data.encode() if isinstance(data, str) else data))


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
    monkeypatch.setattr(cli.sys, "stdin", _stdin(LOOP))
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


def test_check_partition_reports_the_line_of_a_bad_field(loop_path, tmp_path, capsys):
    """The QUASI_WHEELER: line that `copar sort` writes counts as a line."""
    part = tmp_path / "claimed.ordpart"
    part.write_text("ORDPART 3\nQUASI_WHEELER: true\n0: 0\n1: x\n2: 2\n")
    assert cli.main(["check", loop_path, "--partition", str(part)]) == 3
    assert capsys.readouterr().err == "parse error: line 4: part line fields must be integers\n"


def test_check_partition_accepts_sort_output_of_a_sturmian_path(tmp_path, capsys, monkeypatch):
    """`copar sort` ranks a path by prefix doubling on the pure-Python
    backend and `copar check --partition` reruns the engine, so the two
    paths meet at n = 2 * 10^4."""
    monkeypatch.setattr(refine, "HAVE_NUMBA", False)
    n = 20_000
    word, prev = [0], [1]
    while len(word) < n - 1:
        word, prev = word * 2 + prev, word
    nfa = tmp_path / "sturmian.nfa"
    nfa.write_text(serialize_automaton(automaton.path_dfa(word[: n - 1])))
    part = tmp_path / "sorted.ordpart"
    assert cli.main(["sort", str(nfa), "-o", str(part)]) == 0
    assert part.read_text().startswith(f"ORDPART {n}\n")
    assert cli.main(["check", str(nfa), "--partition", str(part)]) == 0
    assert capsys.readouterr().out.startswith("PASS")


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


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_bench_rejects_fewer_than_one_trial(trials, capsys):
    assert cli.main(["bench", "--sizes", "4", "--trials", trials]) == 1
    assert capsys.readouterr().err == "error: trials must be >= 1\n"


def test_exit_code_3_on_parse_and_io_errors(tmp_path, capsys):
    bad = tmp_path / "bad.nfa"
    bad.write_text("DFA 3 0 0 1\n")
    assert cli.main(["sort", str(bad)]) == 3
    assert "parse error" in capsys.readouterr().err
    assert cli.main(["sort", str(tmp_path / "missing.nfa")]) == 3
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.parametrize("stream", ["stdin", "stdout"])
def test_exit_code_3_on_a_closed_stdin_or_stdout(stream, loop_path, tmp_path, capsys, monkeypatch):
    """A run started with stdin or stdout closed (0<&-, >&-) finds None there;
    check's PASS and FAIL verdicts go to stdout as well."""
    monkeypatch.setattr(cli.sys, stream, None)
    assert cli.main(["sort", "-" if stream == "stdin" else loop_path]) == 3
    assert capsys.readouterr().err == f"i/o error: {stream} is closed\n"
    good, bad = tmp_path / "loop.ord", tmp_path / "bad.order"
    good.write_text("ORDPART 3\n0: 0\n1: 2\n2: 1\nQUASI_WHEELER: true\n")
    bad.write_text(serialize_order([0, 1, 2]))
    for claim in (["--partition", str(good)], ["--order", str(bad)]):
        assert cli.main(["check", "-" if stream == "stdin" else loop_path, *claim]) == 3
        assert capsys.readouterr().err == f"i/o error: {stream} is closed\n"


@pytest.mark.parametrize(
    "data,line",
    [
        (b"NFA 2 1 0 1\n0 1 0\xff\n", 2),
        (b"\xfe\xffNFA 2 0 0 1\n", 1),
        (b"NFA 2 1 0 1\r\n0 1 0\r\n\xc3", 3),  # a sequence cut short
        (b"NFA 2 1 0 1\r0 1 0\x0b# \xe2\x82\n", 3),  # lines as str.splitlines counts them
        (b"# \xc3\xa9t\xc3\xa9\nNFA 2 1 0 1\n0 1 0\n\xed\xa0\x80\n", 4),  # a surrogate
    ],
)
@pytest.mark.parametrize("from_stdin", [False, True])
def test_exit_code_3_on_text_that_is_not_utf8(data, line, from_stdin, tmp_path, capsys, monkeypatch):
    path = tmp_path / "bad.nfa"
    path.write_bytes(data)
    if from_stdin:
        monkeypatch.setattr(cli.sys, "stdin", _stdin(data))
    assert cli.main(["sort", "-" if from_stdin else str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"parse error: line {line}: not UTF-8 text: byte 0x")
    assert err.count("\n") == 1


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
    # what numpy raises for an array too large to allocate, without allocating
    def too_big(a):
        raise MemoryError("Unable to allocate 931. GiB for an array with shape (1000000000000,)")

    monkeypatch.setattr(automaton, "reachable_mask", too_big)
    assert cli.main(["sort", loop_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate") and err.count("\n") == 1


def test_exit_code_3_on_header_ids_beyond_int64(capsys, monkeypatch):
    text = "NFA 100000000000000000000 1 0 1\n0 99999999999999999999 0\n"
    monkeypatch.setattr(cli.sys, "stdin", _stdin(text))
    assert cli.main(["sort", "-"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("parse error: line 1: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text,diagnostic",
    [
        ("NFA 1000000000000 0 0 0\n", "unreachable(1)"),
        ("NFA 2 1 0 9223372036854775807\n0 1 0\n", "unused-letter(1)"),
    ],
)
def test_header_beyond_m_is_refused_before_allocating(text, diagnostic, capsys, monkeypatch):
    def allocates(a):
        raise AssertionError("validate allocates per state and per letter")

    monkeypatch.setattr(refine, "validate", allocates)
    monkeypatch.setattr(cli.sys, "stdin", _stdin(text))
    assert cli.main(["sort", "-"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"validation: {diagnostic}: ") and err.count("\n") == 1


def test_distinct_edges_of_a_large_header_are_not_duplicates(capsys, monkeypatch):
    # a packed (src * n + dst) * sigma + letter key wraps around int64 here
    text = "NFA 4611686018427387904 2 0 1\n0 5 0\n4 5 0\n"
    monkeypatch.setattr(cli.sys, "stdin", _stdin(text))
    assert cli.main(["sort", "-"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation: unreachable(1): ") and err.count("\n") == 1


def _no_long_range(module, monkeypatch, limit=1000):
    """Make range() in `module` refuse more than `limit` steps."""

    def short_range(*args):
        r = range(*args)
        assert len(r) <= limit, f"range of {len(r)} steps"
        return r

    monkeypatch.setattr(module, "range", short_range, raising=False)


def test_make_ic_ignores_the_header_state_count(capsys, monkeypatch):
    monkeypatch.setattr(cli.sys, "stdin", _stdin("NFA 2 0 0 0\n"))
    assert cli.main(["colex", "-", "--make-ic"]) == 0
    small = capsys.readouterr().out
    assert small.startswith("# ic 0 <- 0\nRANKS 1\n")
    _no_long_range(automaton, monkeypatch)
    monkeypatch.setattr(cli.sys, "stdin", _stdin("NFA 1000000000000 0 0 0\n"))
    tracemalloc.start()
    try:
        assert cli.main(["colex", "-", "--make-ic"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out == small
    assert peak < 1 << 20


def test_check_order_compares_lengths_before_any_work_per_state(tmp_path, capsys):
    # a 24-byte header declares 10^12 states; a per-state list would not fit
    nfa, order = tmp_path / "huge.nfa", tmp_path / "one.order"
    nfa.write_text("NFA 1000000000000 0 0 0\n")
    order.write_text(serialize_order([0]))
    assert cli.main(["check", str(nfa), "--order", str(order)]) == 2
    assert capsys.readouterr().out == "FAIL: not-a-permutation (0,)\n"


def test_check_order_visits_only_used_letters(tmp_path, capsys, monkeypatch):
    nfa = tmp_path / "wide.nfa"
    nfa.write_text("NFA 3 2 0 1000000\n0 1 7\n0 2 999999\n")
    good, bad = tmp_path / "good.order", tmp_path / "bad.order"
    good.write_text(serialize_order([0, 1, 2]))
    bad.write_text(serialize_order([0, 2, 1]))
    _no_long_range(oracle, monkeypatch)
    assert cli.main(["check", str(nfa), "--order", str(good)]) == 0
    assert "PASS" in capsys.readouterr().out
    assert cli.main(["check", str(nfa), "--order", str(bad)]) == 2
    assert "FAIL: letter-order (2, 1)" in capsys.readouterr().out


def test_wheeler_check_visits_no_letter_one_by_one(tmp_path, capsys, monkeypatch):
    k = 10_000  # the path 0 -> 1 -> ... -> k, edge i reading letter i
    path = tmp_path / "letters.nfa"
    path.write_text(f"NFA {k + 1} {k} 0 {k}\n" + "".join(f"{i} {i + 1} {i}\n" for i in range(k)))
    _no_long_range(refine, monkeypatch)
    assert cli.main(["sort", str(path)]) == 0
    assert capsys.readouterr().out.endswith(f"{k}: {k}\nQUASI_WHEELER: true\n")
    # states k and k + 1 both read letter k - 1, entered out of order
    edges = [(i, i + 1, i) for i in range(k)] + [(0, k + 1, k - 1)]
    q = automaton.Automaton(k + 2, k, 0, edges)
    expected = ("target-order", ((0, k + 1), (k - 1, k), k - 1))
    assert refine._identity_wheeler_check(q) == (False, expected)


@pytest.mark.parametrize("command", ["sort", "colex"])
def test_cli_run_does_not_import_numpy_ma(loop_path, command):
    # numpy loads numpy.ma (about 12 ms) on the first np.unique call
    code = (
        "import sys\n"
        "from copar import cli\n"
        f"assert cli.main([{command!r}, {loop_path!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.endswith("False\n")


def test_engine_sort_does_not_import_numpy_ma(tmp_path):
    # a wrapper on refine.run_refinement, as a tracer sets, sorts this
    # Wheeler NFA on the engine, whose rounds run in the kernels
    from copar.generators import gen_wheeler_nfa

    path = tmp_path / "wheeler.nfa"
    path.write_text(serialize_automaton(gen_wheeler_nfa(3000, 3 * 2999, 3, 1)))
    code = (
        "import sys\n"
        "from copar import cli, partition, refine\n"
        "rounds = []\n"
        "run = partition.run_refinement\n"
        "refine.run_refinement = lambda ref: (run(ref), rounds.append(ref.rounds))\n"
        f"assert cli.main(['sort', {str(path)!r}]) == 0\n"
        "print(sum(rounds), 'numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    rounds, loaded = run.stdout.split()[-2:]
    assert int(rounds) > 0
    assert loaded == "False"


@pytest.mark.parametrize("argv", [["sort"], ["prune", "--mode", "inf"], ["colex"]])
def test_cli_run_does_not_import_oracle_bench_or_generators(loop_path, argv):
    code = (
        "import sys\n"
        "from copar import cli\n"
        f"assert cli.main([{argv[0]!r}, {loop_path!r}, *{argv[1:]!r}]) == 0\n"
        "print(sorted(m for m in ('copar.oracle', 'copar.bench', 'copar.generators')"
        " if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.endswith("[]\n")


def _child_output(code: str) -> str:
    """The last line a fresh interpreter prints after running code."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()[-1]


@pytest.fixture
def inputs(tmp_path, loop_path):
    """A path DFA, an NFA that admits no Wheeler order, a quasi-Wheeler NFA
    that is no tree, the loop DFA and the sort of that DFA, as files."""
    files = {name: tmp_path / f"{name}.nfa" for name in ("path", "nfa", "quasi")}
    files["loop"] = Path(loop_path)
    files["path"].write_text(serialize_automaton(automaton.path_dfa([0, 1, 0, 0, 1, 0, 1, 0, 0, 1])))
    files["nfa"].write_text(serialize_automaton(example_unordered_nfa()))
    files["quasi"].write_text(serialize_automaton(example_quasi_wheeler_nfa()))
    files["sorted"] = tmp_path / "loop.ordpart"
    assert cli.main(["sort", loop_path, "-o", str(files["sorted"])]) == 0
    return {name: str(path) for name, path in files.items()}


@pytest.mark.parametrize(
    ("argv", "setup", "loaded"),
    [
        (["sort", "path"], "refine.HAVE_NUMBA = False", []),
        (["sort", "path"], "refine.HAVE_NUMBA = True", ["copar.partition"]),
        (["sort", "nfa"], "", ["copar.partition"]),
        (["colex", "loop"], "import copar.colex\ncopar.colex.HAVE_NUMBA = False", ["copar.colex"]),
        (["prune", "loop", "--mode", "sup"], "", ["copar.partition", "copar.prune"]),
        (["check", "loop", "--partition", "sorted"], "", ["copar.partition"]),
        (["sort", "quasi"], "refine.HAVE_NUMBA = False", []),
    ],
)
def test_cli_run_loads_only_the_modules_its_path_runs(inputs, tmp_path, argv, setup, loaded):
    """A tree sorted by prefix doubling and a quasi-Wheeler NFA sorted by
    Moore rounds load no engine, and policy iteration no pruning; each
    backend is set where the gate reads it."""
    argv = [inputs.get(arg, arg) for arg in argv]
    if argv[0] != "check":
        argv += ["-o", str(tmp_path / "out.txt")]
    code = (
        "import sys\n"
        "from copar import cli, refine\n"
        f"{setup}\n"
        f"assert cli.main({argv!r}) == 0\n"
        "print(sorted(m for m in ('copar.colex', 'copar.partition', 'copar.prune') if m in sys.modules))\n"
    )
    assert _child_output(code) == repr(loaded)


def test_wrappers_set_before_the_first_command_see_the_engine_run(inputs, tmp_path):
    """A tracer may wrap refine.run_refinement and colex.refine_with_pruning
    before either module has bound them: the wrappers stay bound, so the
    tree sort and the colex both run the engine, with the untraced bytes."""
    def outputs(wrap: str) -> tuple[list[int], list[bytes]]:
        outs = [tmp_path / f"{command}{bool(wrap)}.txt" for command in ("sort", "colex")]
        code = (
            "from copar import cli, colex, refine\n"
            "rounds = []\n"
            f"{wrap}\n"
            f"assert cli.main(['sort', {inputs['path']!r}, '-o', {str(outs[0])!r}]) == 0\n"
            f"assert cli.main(['colex', {inputs['path']!r}, '-o', {str(outs[1])!r}]) == 0\n"
            "print(rounds)\n"
        )
        return json.loads(_child_output(code)), [out.read_bytes() for out in outs]

    wrap = (
        "run, prune = refine.run_refinement, colex.refine_with_pruning\n"
        "def traced_run(ref):\n"
        "    run(ref)\n"
        "    rounds.append(ref.rounds)\n"
        "def traced_prune(*args, **kw):\n"
        "    p = prune(*args, **kw)\n"
        "    rounds.append(p.rounds)\n"
        "    return p\n"
        "refine.run_refinement, colex.refine_with_pruning = traced_run, traced_prune"
    )
    rounds, traced = outputs(wrap)
    assert len(rounds) == 3 and min(rounds) > 0  # one refinement, two prunings
    assert outputs("") == ([], traced)


def test_import_copar_loads_no_numpy():
    code = (
        "import sys, copar\n"
        "print('numpy' in sys.modules, set(copar.__all__) <= set(dir(copar)))\n"
        "copar.Automaton, copar.gen_wheeler_nfa\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False True\nTrue\n"


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_cli_pins_one_blas_thread_before_numpy_loads(loop_path):
    # records the three variables at the moment the CLI child first imports numpy
    code = (
        "import json, os, runpy, sys\n"
        "seen = {}\n"
        "class Spy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy' and not seen:\n"
        f"            seen.update((v, os.environ.get(v)) for v in {BLAS_VARS!r})\n"
        "sys.meta_path.insert(0, Spy())\n"
        f"sys.argv = ['copar', 'sort', {loop_path!r}]\n"
        "try:\n"
        "    runpy.run_module('copar.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "print(json.dumps(seen))\n"
    )
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(PYTHONPATH=str(Path(cli.__file__).parents[1]), OMP_NUM_THREADS="3")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    seen = json.loads(run.stdout.splitlines()[-1])
    assert seen == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "3", "MKL_NUM_THREADS": "1"}


@pytest.mark.parametrize("argv", [["sort"], ["prune", "--mode", "inf"], ["colex"]], ids=lambda argv: argv[0])
def test_exit_code_1_on_engine_status_error(argv, loop_path, capsys, monkeypatch):
    def breach(regs, *args):
        regs[K.R_STATUS] = K.STATUS_HEAP_CAP

    monkeypatch.setattr(K, "run_full", breach)
    monkeypatch.setattr(colex, "MAX_POLICY_ITERATIONS", 0)  # colex runs the engine prunings
    run = partition.run_refinement
    monkeypatch.setattr(refine, "run_refinement", lambda ref: run(ref))  # and sort the engine
    assert cli.main([argv[0], loop_path, *argv[1:]]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: refinement engine invariant breached (status {K.STATUS_HEAP_CAP})\n"


@pytest.fixture(params=["policy", "engine"])
def big_colex(request, tmp_path, monkeypatch):
    """A DFA with m = 6000 as a file, colex_order run by policy iteration or
    capped to the engine prunings, and os.fork failing the test even where
    two CPUs show: either path runs in this process."""
    a = gen_random_dfa(3000, 4, 0, m=6000)
    path = tmp_path / "big.nfa"
    path.write_text(serialize_automaton(a))
    if request.param == "engine":
        monkeypatch.setattr(colex, "MAX_POLICY_ITERATIONS", 0)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("colex_order forked"))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return a, str(path)


def test_colex_stdout_equals_the_output_file(big_colex, tmp_path, capsys):
    src, dst = big_colex[1], tmp_path / "out.txt"
    assert cli.main(["colex", src]) == 0
    assert cli.main(["colex", src, "-o", str(dst)]) == 0
    out, err = capsys.readouterr()
    assert out.encode() == dst.read_bytes() and err == ""
    assert out.startswith("RANKS 3000\n")


def test_colex_runs_with_no_stdout(big_colex, tmp_path, monkeypatch):
    """As under `copar colex BIG -o FILE 1>&-`, where sys.stdout is None."""
    a, src = big_colex
    dst = tmp_path / "out.txt"
    monkeypatch.setattr(sys, "stdout", None)
    assert cli.main(["colex", src, "-o", str(dst)]) == 0
    assert dst.read_text() == colex.serialize_colex(colex.colex_order(a))


def test_exit_code_1_on_kernel_compile_error(tmp_path, capsys, monkeypatch):
    # numba compiles a kernel on its first call and reports a typing failure
    # over many lines; an NFA that admits no Wheeler order runs the engine
    nfa = tmp_path / "unordered.nfa"
    nfa.write_text(serialize_automaton(example_unordered_nfa()))

    def typing_failure(*args):
        raise K.KernelCompileError(
            "Failed in nopython mode pipeline (step: nopython frontend)\n"
            "Untyped global name 'HAVE_NUMBA'\n\nFile \"_kernels.py\", line 9:\n"
        )

    monkeypatch.setattr(K, "run_full", typing_failure)
    assert cli.main(["sort", str(nfa)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: kernel compilation failed: Failed in nopython mode pipeline")
    assert err.count("\n") == 1 and "Untyped global name" in err


def test_loop_fixture_matches_example():
    assert parse_automaton(LOOP) == example_loop_dfa()

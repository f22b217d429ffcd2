"""The compiled kernels stay inside numba's nopython subset.

numba is a declared dependency but may be absent, and then every kernel runs
as plain Python, so nothing else would notice a construct numba cannot
compile. This test parses copar/_kernels.py and allows in each @njit
function only scalar int64 array code: assignments and tuple unpacking to
names and subscripts, if/while/for-over-range, integer constants, arithmetic,
comparison and boolean operators, subscripts of parameters and locals,
.shape[0], attribute reads of st that name an Engine field, positional calls
to range and to the module's other @njit functions, and the module's int
constants R_*, STATUS_* and ALONE. It cannot check typing unification,
which only numba does.
"""

from __future__ import annotations

import ast
from pathlib import Path

from copar import _kernels as K

SOURCE = Path(K.__file__).read_text(encoding="utf-8")
TREE = ast.parse(SOURCE)

ALLOWED = (
    ast.Assign,
    ast.AugAssign,
    ast.If,
    ast.While,
    ast.For,
    ast.Break,
    ast.Continue,
    ast.Return,
    ast.Expr,
    ast.Name,
    ast.Constant,
    ast.Tuple,
    ast.Subscript,
    ast.Attribute,
    ast.Call,
    ast.BinOp,
    ast.UnaryOp,
    ast.BoolOp,
    ast.Compare,
    ast.operator,
    ast.unaryop,
    ast.boolop,
    ast.cmpop,
    ast.expr_context,
)
CONST_PREFIXES = ("R_", "STATUS_")
CONST_NAMES = ("ALONE",)


def _is_njit(node: ast.FunctionDef) -> bool:
    for d in node.decorator_list:
        f = d.func if isinstance(d, ast.Call) else d
        if isinstance(f, ast.Name) and f.id == "njit":
            return True
    return False


KERNELS = {
    node.name: node for node in TREE.body if isinstance(node, ast.FunctionDef) and _is_njit(node)
}


def _int_constant(name: str) -> bool:
    value = getattr(K, name, None)
    return (name.startswith(CONST_PREFIXES) or name in CONST_NAMES) and isinstance(value, int) and not isinstance(value, bool)


def _locals(fn: ast.FunctionDef) -> set[str]:
    names = {a.arg for a in fn.args.args}
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def _store_ok(target: ast.expr) -> bool:
    if isinstance(target, ast.Tuple):
        return all(_store_ok(t) for t in target.elts)
    return isinstance(target, (ast.Name, ast.Subscript))


def violations(fn: ast.FunctionDef) -> list[str]:
    """Every construct of fn outside the allowed subset, as 'line: what'."""
    a = fn.args
    if a.posonlyargs or a.kwonlyargs or a.vararg or a.kwarg or a.defaults or a.kw_defaults:
        return [f"{fn.lineno}: only plain positional parameters"]
    local = _locals(fn)
    body = fn.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # the docstring
    bad = []
    shape0_reads = set()  # ids of the .shape nodes read as .shape[0]
    for node in (n for stmt in body for n in ast.walk(stmt)):
        where = f"{getattr(node, 'lineno', fn.lineno)}: "
        if not isinstance(node, ALLOWED):
            bad.append(where + type(node).__name__)
        elif isinstance(node, ast.Constant):
            if not isinstance(node.value, int):
                bad.append(where + f"constant {node.value!r}")
        elif isinstance(node, ast.Expr):
            if not isinstance(node.value, ast.Call):
                bad.append(where + "expression statement")
        elif isinstance(node, ast.Assign):
            if not all(_store_ok(t) for t in node.targets):
                bad.append(where + "assignment target")
        elif isinstance(node, ast.AugAssign):
            if not isinstance(node.target, (ast.Name, ast.Subscript)):
                bad.append(where + "augmented assignment target")
        elif isinstance(node, ast.For):
            it = node.iter
            if not (
                isinstance(node.target, ast.Name)
                and isinstance(it, ast.Call)
                and isinstance(it.func, ast.Name)
                and it.func.id == "range"
            ) or node.orelse:
                bad.append(where + "for loop not over range")
        elif isinstance(node, ast.While):
            if node.orelse:
                bad.append(where + "while-else")
        elif isinstance(node, ast.Call):
            f = node.func
            if not (isinstance(f, ast.Name) and (f.id == "range" or f.id in KERNELS)):
                bad.append(where + f"call of {ast.unparse(f)}")
            if node.keywords:
                bad.append(where + "keyword argument")
        elif isinstance(node, ast.Subscript):
            v = node.value
            shape0 = (
                isinstance(v, ast.Attribute)
                and v.attr == "shape"
                and isinstance(node.slice, ast.Constant)
                and node.slice.value == 0
            )
            if shape0:
                shape0_reads.add(id(v))
            elif not (isinstance(v, ast.Name) and v.id in local):
                bad.append(where + f"subscript of {ast.unparse(v)}")
        elif isinstance(node, ast.Attribute):
            v = node.value
            if not isinstance(v, ast.Name) or v.id not in local:
                bad.append(where + f"attribute of {ast.unparse(v)}")
            elif id(node) not in shape0_reads and not (v.id == "st" and node.attr in K.Engine._fields):
                bad.append(where + f"attribute {ast.unparse(node)}")
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in local and node.id not in KERNELS and node.id != "range":
                if not _int_constant(node.id):
                    bad.append(where + f"global {node.id}")
    return bad


def test_kernels_found():
    assert set(KERNELS) == {"_sift_up", "_heap_push", "_prune_d11", "run_full"}


def test_kernels_stay_in_the_nopython_subset():
    found = {name: v for name, fn in KERNELS.items() if (v := violations(fn))}
    assert found == {}


def test_every_engine_unpack_follows_the_field_order():
    unpacks = [
        node
        for node in ast.walk(TREE)
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Name)
        and node.value.id == "st"
    ]
    assert len(unpacks) >= 1
    for unpack in unpacks:
        (target,) = unpack.targets
        assert isinstance(target, ast.Tuple), unpack.lineno
        assert tuple(t.id for t in target.elts) == K.Engine._fields, unpack.lineno


def test_checker_rejects_constructs_outside_the_subset():
    """Each snippet, seeded into a kernel body, must be reported."""
    seeds = [
        "x = [1, 2]",
        "x = {1: 2}",
        "x = {1}",
        "x = [i for i in range(3)]",
        "x = 'text'",
        "x = f'{regs}'",
        "x = 1.5",
        "x = None",
        "try:\n    x = 1\nexcept ValueError:\n    x = 2",
        "with regs:\n    x = 1",
        "x = lambda: 1",
        "def inner():\n    return 1",
        "yield 1",
        "global R_ROUNDS",
        "_heap_push(heap=regs, regs=regs, key=1)",
        "_heap_push(*regs)",
        "x = len(regs)",
        "x = regs.sum()",
        "x = regs.shape",
        "x = regs[1:2]",
        "x = st.nothing",
        "x = HAVE_NUMBA",
        "x = NREGS",
        "x = Engine",
        "for v in regs:\n    pass",
        "x = 1 if regs[0] else 2",
        "assert regs[0] == 0",
        "del regs",
        "regs",
    ]
    for snippet in seeds:
        fn = ast.parse(f"@njit(cache=True)\ndef k(regs, st, heap):\n    x = 0\n"
                       + "".join(f"    {line}\n" for line in snippet.splitlines())).body[0]
        assert violations(fn), snippet
    ok = ast.parse(
        "@njit(cache=True)\ndef k(regs, st, heap):\n    '''doc'''\n"
        "    a, b = regs[R_ROUNDS], -heap.shape[0]\n    h = st.heap\n    regs[R_ROUNDS] += h[0]\n"
        "    for i in range(a):\n        if i > b and not a or i == 1:\n            break\n"
        "    _heap_push(heap, regs, a // 2)\n    return a\n"
    ).body[0]
    assert violations(ok) == []

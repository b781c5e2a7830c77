"""Differential testing: the simulator vs a Python integer oracle.

Hypothesis generates random combinational expressions over a set of
known-value registers; each expression is evaluated twice — by the event-
driven simulator through a generated module, and by a Python big-int
oracle implementing the LRM width/sign rules directly.  Any divergence is
a real bug in lexer, parser, width resolution, or 4-state arithmetic.

Every example runs on both engines, the interpreter and the compiled
engine the evaluator uses by default, and each must match the oracle.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.verilog import run_simulation

WIDTH = 8
MASK = (1 << WIDTH) - 1

# (verilog operator, python oracle on masked unsigned ints)
_BINOPS = {
    "+": lambda a, b: (a + b) & MASK,
    "-": lambda a, b: (a - b) & MASK,
    "*": lambda a, b: (a * b) & MASK,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
}

_COMPARES = {
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "<": lambda a, b: int(a < b),
    "<=": lambda a, b: int(a <= b),
    ">": lambda a, b: int(a > b),
    ">=": lambda a, b: int(a >= b),
}


class _Expr:
    """A (verilog text, self-determined width, context evaluator) triple.

    ``at(width)`` implements the LRM two-step rule the real evaluator
    uses: the node is evaluated in a context of ``max(width, self
    width)`` bits — so e.g. ``(8'hFF << 4)`` retains its high bits when a
    16-bit context surrounds it.
    """

    def __init__(self, text: str, width: int, at):
        self.text = text
        self.width = width
        self._at = at

    def at(self, width: int) -> int:
        context = max(width, self.width)
        return self._at(context) & ((1 << context) - 1)

    @property
    def value(self) -> int:
        return self.at(self.width)


def _leaf(text: str, width: int, value: int) -> _Expr:
    return _Expr(text, width, lambda _w: value)


@st.composite
def expressions(draw, variables: dict[str, int], depth: int = 0):
    """Random expression over the fixed variables, with a context oracle."""
    if depth >= 3 or draw(st.booleans()):
        if draw(st.booleans()):
            name = draw(st.sampled_from(sorted(variables)))
            return _leaf(name, WIDTH, variables[name])
        literal = draw(st.integers(min_value=0, max_value=MASK))
        return _leaf(f"{WIDTH}'d{literal}", WIDTH, literal)
    kind = draw(st.sampled_from(
        ["bin", "cmp", "not", "neg", "shift", "concat", "ternary"]
    ))
    if kind == "bin":
        op = draw(st.sampled_from(sorted(_BINOPS)))
        lhs = draw(expressions(variables, depth + 1))
        rhs = draw(expressions(variables, depth + 1))
        width = max(lhs.width, rhs.width)
        ops = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
               "*": lambda a, b: a * b, "&": lambda a, b: a & b,
               "|": lambda a, b: a | b, "^": lambda a, b: a ^ b}

        def eval_bin(w, lhs=lhs, rhs=rhs, func=ops[op]):
            return func(lhs.at(w), rhs.at(w))

        return _Expr(f"({lhs.text} {op} {rhs.text})", width, eval_bin)
    if kind == "cmp":
        op = draw(st.sampled_from(sorted(_COMPARES)))
        lhs = draw(expressions(variables, depth + 1))
        rhs = draw(expressions(variables, depth + 1))
        inner = max(lhs.width, rhs.width)

        def eval_cmp(_w, lhs=lhs, rhs=rhs, func=_COMPARES[op], inner=inner):
            return func(lhs.at(inner), rhs.at(inner))

        return _Expr(f"({lhs.text} {op} {rhs.text})", 1, eval_cmp)
    if kind == "not":
        inner = draw(expressions(variables, depth + 1))
        return _Expr(
            f"(~{inner.text})", inner.width,
            lambda w, inner=inner: ~inner.at(w),
        )
    if kind == "neg":
        inner = draw(expressions(variables, depth + 1))
        return _Expr(
            f"(-{inner.text})", inner.width,
            lambda w, inner=inner: -inner.at(w),
        )
    if kind == "shift":
        inner = draw(expressions(variables, depth + 1))
        amount = draw(st.integers(min_value=0, max_value=WIDTH))
        direction = draw(st.sampled_from(["<<", ">>"]))

        def eval_shift(w, inner=inner, amount=amount, direction=direction):
            base = inner.at(w)
            return (base << amount) if direction == "<<" else (base >> amount)

        return _Expr(
            f"({inner.text} {direction} {amount})", inner.width, eval_shift
        )
    if kind == "concat":
        lhs = draw(expressions(variables, depth + 1))
        rhs = draw(expressions(variables, depth + 1))
        width = lhs.width + rhs.width

        def eval_concat(_w, lhs=lhs, rhs=rhs):
            # concat operands are always self-determined
            return (lhs.at(lhs.width) << rhs.width) | rhs.at(rhs.width)

        return _Expr(
            "{" + lhs.text + ", " + rhs.text + "}", width, eval_concat
        )
    # ternary
    cond = draw(expressions(variables, depth + 1))
    lhs = draw(expressions(variables, depth + 1))
    rhs = draw(expressions(variables, depth + 1))
    width = max(lhs.width, rhs.width)

    def eval_ternary(w, cond=cond, lhs=lhs, rhs=rhs):
        chosen = lhs if cond.at(cond.width) else rhs
        return chosen.at(w)

    return _Expr(
        f"({cond.text} ? {lhs.text} : {rhs.text})", width, eval_ternary
    )


def _outputs(source: str) -> list[list[str]]:
    """Output lines of ``source`` on each engine: interpreter, compiled."""
    outputs = []
    for compile_sim in (False, True):
        report, result = run_simulation(
            source, top="tb", compile_sim=compile_sim
        )
        assert report.ok, (compile_sim, report.errors, source)
        assert result is not None and result.finished, (compile_sim, source)
        outputs.append(result.output)
    return outputs


def _simulate_expression(
    text: str, variables: dict[str, int], out_width: int
) -> list[int]:
    decls = "\n".join(
        f"  reg [{WIDTH - 1}:0] {name} = {WIDTH}'d{value};"
        for name, value in variables.items()
    )
    source = (
        "module tb;\n"
        f"{decls}\n"
        f"  reg [{out_width - 1}:0] out;\n"
        "  initial begin\n"
        f"    out = {text};\n"
        '    $display("%0d", out);\n'
        "    $finish;\n"
        "  end\n"
        "endmodule\n"
    )
    return [int(output[0]) for output in _outputs(source)]


_VARS = {"va": 0xA5, "vb": 0x3C, "vc": 0x01, "vd": 0xFF}


@settings(max_examples=120, deadline=None)
@given(expr=expressions(_VARS))
def test_prop_expression_matches_oracle(expr):
    mask = (1 << expr.width) - 1
    for measured in _simulate_expression(expr.text, _VARS, expr.width):
        assert measured == expr.value & mask, expr.text


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.integers(min_value=0, max_value=MASK), min_size=4, max_size=4
    ),
    expr_seed=st.integers(min_value=0, max_value=2**16),
)
def test_prop_sum_reduction_matches_oracle(values, expr_seed):
    """Chained adds through a for-loop match Python's sum."""
    array_init = "\n".join(
        f"    mem[{i}] = {WIDTH}'d{v};" for i, v in enumerate(values)
    )
    source = (
        "module tb;\n"
        f"  reg [{WIDTH - 1}:0] mem [0:3];\n"
        f"  reg [{WIDTH + 3}:0] total;\n"
        "  integer i;\n"
        "  initial begin\n"
        f"{array_init}\n"
        "    total = 0;\n"
        "    for (i = 0; i < 4; i = i + 1) total = total + mem[i];\n"
        '    $display("%0d", total);\n'
        "    $finish;\n  end\nendmodule\n"
    )
    for output in _outputs(source):
        assert int(output[0]) == sum(values)


@settings(max_examples=40, deadline=None)
@given(
    value=st.integers(min_value=-(1 << (WIDTH - 1)), max_value=(1 << (WIDTH - 1)) - 1),
    amount=st.integers(min_value=0, max_value=WIDTH - 1),
)
def test_prop_signed_arith_shift_matches_python(value, amount):
    source = (
        "module tb;\n"
        f"  reg signed [{WIDTH - 1}:0] v;\n"
        "  initial begin\n"
        f"    v = {value};\n"
        f"    v = v >>> {amount};\n"
        '    $display("%0d", v);\n'
        "    $finish;\n  end\nendmodule\n"
    )
    for output in _outputs(source):
        assert int(output[0]) == value >> amount  # Python >> floors


@settings(max_examples=30, deadline=None)
@given(
    a=st.integers(min_value=0, max_value=MASK),
    b=st.integers(min_value=1, max_value=MASK),
)
def test_prop_division_and_modulo_match_oracle(a, b):
    source = (
        "module tb;\n"
        f"  reg [{WIDTH - 1}:0] q, r;\n"
        "  initial begin\n"
        f"    q = {WIDTH}'d{a} / {WIDTH}'d{b};\n"
        f"    r = {WIDTH}'d{a} % {WIDTH}'d{b};\n"
        '    $display("%0d %0d", q, r);\n'
        "    $finish;\n  end\nendmodule\n"
    )
    for output in _outputs(source):
        q_text, r_text = output[0].split()
        assert int(q_text) == a // b
        assert int(r_text) == a % b


@settings(max_examples=30, deadline=None)
@given(bits=st.integers(min_value=0, max_value=MASK))
def test_prop_reductions_match_oracle(bits):
    source = (
        "module tb;\n"
        f"  reg [{WIDTH - 1}:0] v;\n"
        "  reg r_and, r_or, r_xor;\n"
        "  initial begin\n"
        f"    v = {WIDTH}'d{bits};\n"
        "    r_and = &v; r_or = |v; r_xor = ^v;\n"
        '    $display("%b%b%b", r_and, r_or, r_xor);\n'
        "    $finish;\n  end\nendmodule\n"
    )
    expected = (
        f"{int(bits == MASK)}{int(bits != 0)}{bin(bits).count('1') % 2}"
    )
    for output in _outputs(source):
        assert output[0] == expected


@settings(max_examples=30, deadline=None)
@given(
    value=st.integers(min_value=0, max_value=MASK),
    hi=st.integers(min_value=0, max_value=WIDTH - 1),
    lo=st.integers(min_value=0, max_value=WIDTH - 1),
)
def test_prop_part_select_matches_oracle(value, hi, lo):
    if hi < lo:
        hi, lo = lo, hi
    source = (
        "module tb;\n"
        f"  reg [{WIDTH - 1}:0] v;\n"
        f"  reg [{hi - lo}:0] part;\n"
        "  initial begin\n"
        f"    v = {WIDTH}'d{value};\n"
        f"    part = v[{hi}:{lo}];\n"
        '    $display("%0d", part);\n'
        "    $finish;\n  end\nendmodule\n"
    )
    expected = (value >> lo) & ((1 << (hi - lo + 1)) - 1)
    for output in _outputs(source):
        assert int(output[0]) == expected

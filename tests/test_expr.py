"""Parser, printer, and evaluator tests for the expression DSL."""

import gc
import math

import numpy as np
import pytest
from conftest import fd_grad, fd_hess, random_ast

from isodeform import catalog, expr, jet
from isodeform.expr import (
    BinOp,
    Call,
    ExprError,
    Neg,
    Num,
    Pi,
    Var,
    eval_jet,
    eval_jets,
    eval_values,
    intern,
    parse,
    to_string,
)


# ------------------------------------------------------------------ parsing


def test_parse_basic_shapes():
    assert parse("u1", 2) == Var(0)
    assert parse("2.5", 1) == Num(2.5)
    assert parse("pi", 1) == Pi()
    assert parse("u1 + u2", 2) == BinOp("+", Var(0), Var(1))
    assert parse("sin(u1)", 1) == Call("sin", Var(0))


def test_precedence_mul_over_add():
    assert parse("1 + 2*u1", 1) == BinOp("+", Num(1.0), BinOp("*", Num(2.0), Var(0)))


def test_precedence_pow_over_mul():
    assert parse("2*u1^3", 1) == BinOp("*", Num(2.0), BinOp("^", Var(0), Num(3.0)))


def test_pow_right_assoc():
    assert parse("u1^2^3", 1) == BinOp("^", Var(0), BinOp("^", Num(2.0), Num(3.0)))


def test_unary_minus_binds_tighter_than_pow():
    # the documented quirk: -u1^2 == (-u1)^2
    ast = parse("-u1^2", 1)
    assert ast == BinOp("^", Neg(Var(0)), Num(2.0))
    assert eval_values((ast,), [3.0])[0] == pytest.approx(9.0)


def test_pow_with_negated_exponent():
    ast = parse("2^-3", 1)
    assert ast == BinOp("^", Num(2.0), Neg(Num(3.0)))
    assert eval_values((ast,), [0.0])[0] == pytest.approx(0.125)


def test_left_assoc_sub_div():
    assert eval_values((parse("8 - 3 - 2", 1),), [0.0])[0] == pytest.approx(3.0)
    assert eval_values((parse("8/2/2", 1),), [0.0])[0] == pytest.approx(2.0)


def test_number_formats():
    for text, want in [("1e-5", 1e-5), (".5", 0.5), ("2.", 2.0), ("3.25E+2", 325.0)]:
        assert parse(text, 1) == Num(want)


def test_no_implicit_multiplication():
    with pytest.raises(ExprError, match="unexpected 'u1'"):
        parse("2 u1", 1)


def test_syntax_error_offsets():
    with pytest.raises(ExprError, match="unexpected character '@'") as ei:
        parse("u1 + @", 1)
    assert ei.value.span[0] == 5
    with pytest.raises(ExprError, match="expected '\\)'") as ei:
        parse("sin(u1", 1)
    assert "expected ')'" in str(ei.value)
    with pytest.raises(ExprError, match="unexpected 'u2'") as ei:
        parse("u1 u2", 2)
    assert ei.value.span[0] == 3


def test_unknown_identifier_and_var_range():
    with pytest.raises(ExprError, match="unknown identifier 'x1'"):
        parse("x1", 1)
    with pytest.raises(ExprError, match="variable u3 out of range"):
        parse("u3", 2)
    with pytest.raises(ExprError, match="unknown identifier 'tan'"):
        parse("tan(u1)", 1)


# ------------------------------------------------------------------ printing


def test_print_known_forms():
    assert to_string(parse("-u1^2", 1)) == "-u1^2"
    assert to_string(parse("u1*(u2+1)", 2)) == "u1*(u2 + 1)"
    assert to_string(parse("(u1^2)^3", 1)) == "(u1^2)^3"
    assert to_string(parse("-(u1^2)", 1)) == "-(u1^2)"
    assert to_string(parse("sin(cos(u1))", 1)) == "sin(cos(u1))"


def test_roundtrip_fixpoint_random():
    rng = np.random.default_rng(20260816)
    for _ in range(300):
        ast = random_ast(rng, 3, int(rng.integers(0, 6)))
        printed = to_string(ast)
        reparsed = parse(printed, 3)
        assert reparsed == ast, printed
        assert to_string(reparsed) == printed


# ------------------------------------------------------------------ eval


def test_eval_value_matches_python():
    ast = parse("sin(u1)^2 + cos(u1)^2", 1)
    assert eval_values((ast,), [0.73])[0] == pytest.approx(1.0, abs=1e-15)
    ast = parse("exp(log(u1))", 1)
    assert eval_values((ast,), [2.7])[0] == pytest.approx(2.7, rel=1e-15)
    ast = parse("pi*u1", 1)
    assert eval_values((ast,), [2.0])[0] == pytest.approx(2 * math.pi)


def test_eval_value_batched():
    ast = parse("u1^2 + u2", 2)
    pts = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = eval_values((ast,), pts)[0]
    assert np.allclose(out, [3.0, 13.0])


def test_eval_jet_matches_eval_value_and_fd():
    rng = np.random.default_rng(7)
    for _ in range(40):
        ast = random_ast(rng, 2, int(rng.integers(1, 5)))
        pt = rng.uniform(0.3, 1.2, 2)
        j = eval_jet(ast, pt, 3)
        v = eval_values((ast,), pt)[0]
        assert np.asarray(j.value) == pytest.approx(v, rel=1e-12, abs=1e-12)
        scale = max(1.0, abs(v))
        for i in range(2):
            fd = fd_grad(lambda x: eval_values((ast,), x)[0], pt, i)
            assert abs(j.d1[i] - fd) < 1e-6 * max(scale, abs(fd))


def test_eval_jet_second_derivatives_vs_fd():
    ast = parse("sin(u1*u2) / (u1^2 + 1)", 2)
    pt = np.array([0.8, 1.1])
    j = eval_jet(ast, pt, 3)
    f = lambda x: eval_values((ast,), x)[0]
    for i in range(2):
        for k in range(2):
            assert j.d2()[i, k] == pytest.approx(fd_hess(f, pt, i, k), abs=2e-7)


def test_eval_jet_nonconstant_exponent():
    ast = parse("u1^u2", 2)
    pt = np.array([1.5, 0.7])
    j = eval_jet(ast, pt, 2)
    assert j.value == pytest.approx(1.5**0.7, rel=1e-14)
    f = lambda x: x[0] ** x[1]
    for i in range(2):
        assert j.d1[i] == pytest.approx(fd_grad(f, pt, i), rel=1e-7)


def test_eval_jet_integer_power_negative_base():
    # integer exponents must work on negative bases (repeated multiplication)
    ast = parse("u1^3", 1)
    j = eval_jet(ast, [-2.0], 2)
    assert j.value == pytest.approx(-8.0)
    assert j.d1[0] == pytest.approx(12.0)


def test_eval_errors_carry_spans():
    ast = parse("1/(u1 - 1)", 1)
    with pytest.raises(ExprError, match="division by a jet with value 0.0") as ei:
        eval_jet(ast, [1.0], 2)
    assert ei.value.span[0] == 0 and ei.value.span[1] >= 9
    ast = parse("log(u1)", 1)
    with pytest.raises(ExprError, match="log of a jet with value -3.0"):
        eval_jet(ast, [-3.0], 2)
    with pytest.raises(ExprError, match="log of a jet with value -3.0"):
        eval_values((ast,), [-3.0])[0]
    ast = parse("u1^0.5", 1)
    with pytest.raises(ExprError, match="power of a jet with value -1.0"):
        eval_jet(ast, [-1.0], 2)


@pytest.mark.parametrize(
    "src,at,value",
    [
        ("log(u1)", [-3.0, 2.0], "-3.0"),
        ("sqrt(u1 - 1)", [2.0, 0.5], "-0.5"),
        ("u1^0.5", [-0.25, 4.0], "-0.25"),
        ("1/(u1 - 1)", [1.0, 3.0], "0.0"),
        ("(u1 - 1)^-2", [3.0, 1.0], "0.0"),
    ],
)
def test_value_domain_errors_name_the_worst_value(src, at, value):
    # the value evaluator refuses what the jet evaluator refuses, in the
    # same words, and names the offending value as a plain float
    ast = parse(src, 1)
    pts = np.array(at)[:, None]
    with pytest.raises(ExprError, match=r"(of|division by) a jet with value") as ev:
        eval_values((ast,), pts)[0]
    with pytest.raises(ExprError, match=r"(of|division by) a jet with value") as ej:
        eval_jet(ast, pts, 2)
    assert (str(ev.value), ev.value.span) == (str(ej.value), ej.value.span)
    assert f" {value} " in str(ev.value)
    assert "float64" not in str(ev.value)


def test_num_literal_nonnegative_invariant():
    with pytest.raises(ValueError):
        Num(-1.0)


def test_eval_jet_batched_matches_pointwise():
    ast = parse("exp(0.3*u1)*sin(u2)", 2)
    pts = np.array([[0.1, 0.2], [0.5, 0.9], [1.0, 1.5]])
    jb = eval_jet(ast, pts, 3)
    for m in range(3):
        js = eval_jet(ast, pts[m], 3)
        assert np.array_equal(jb.coef[:, m], js.coef)


def test_order_zero_exponent_is_read_at_every_point():
    # at order 0 a jet has no derivatives to tell a varying exponent from a
    # constant one, so its values must decide
    pts = np.array([[2.0, 1.0], [2.0, 3.0]])
    for order in (0, 1, 2):
        assert np.allclose(eval_jet(parse("u1^u2", 2), pts, order).value, [2.0, 8.0])
    # a constant exponent still allows a negative base
    j = eval_jet(parse("u1^(u2 - u2 + 2)", 2), np.array([[-2.0, 1.0], [-3.0, 3.0]]), 0)
    assert np.array_equal(j.value, [4.0, 9.0])


# ------------------------------------------------------------------ rows


def _forbid(*_):
    raise AssertionError("composed a function of a bare coordinate")


@pytest.mark.parametrize("name", [*jet.TAYLOR, "square"])
def test_seeded_coordinate_functions_equal_composition(name, monkeypatch):
    # f(u_i) and u_i^2 are written from their Taylor coefficients, and give
    # the coefficients composing with (or squaring) the seeded u_i gives
    rng = np.random.default_rng(11)
    for n in range(1, 5):
        for batch in ((), (5,), (5, 1)):
            pt = rng.uniform(0.3, 1.7, batch + (n,))
            for order in range(5):
                sp = jet.jet_space(n, order)
                for i in range(n):
                    x = sp.variable(i, pt[..., i])
                    if name == "square":
                        src, want = f"u{i + 1}^2", jet._int_pow(x, 2)
                    else:
                        src, want = f"{name}(u{i + 1})", getattr(jet, name)(x)
                    with monkeypatch.context() as m:
                        m.setattr(jet, "_compose", _forbid)
                        m.setattr(jet, "_int_pow", _forbid)
                        got = eval_jet(parse(src, n), pt, order)
                    assert got.space is sp
                    assert np.array_equal(got.coef, want.coef), (src, batch, order)


ROW = (
    "2*sin(u1)*cos(u2)",
    "2*sin(u1)*sin(u2)*u3",
    "3 - u1*u2 + pi",
    "u1*u2/4 + sin(u1)",
    "(2*sin(u1)*sin(u2))^2 - 1/u3",
    "0",
    "2^u2 - u3^3 + 2^3",
    "exp(u1 - 1)*(u1*u2) - sqrt(2)",
)


def test_row_with_shared_subtrees_matches_each_ast_alone():
    (asts,), shared = expr.intern((ROW,), 3)
    assert shared
    pts = np.random.default_rng(5).uniform(0.4, 1.4, (4, 3))
    for order in (0, 2, 4):
        row = eval_jets(asts, pts, order, shared)
        for src, got in zip(ROW, row):
            alone = eval_jet(parse(src, 3), pts, order)
            assert got.space is alone.space
            assert np.array_equal(got.coef, alone.coef), (src, order)


def test_literals_act_on_coefficients_as_constant_jets_do():
    # a literal stays a float; each rule gives what the constant jet gives
    pts = np.random.default_rng(6).uniform(0.4, 1.4, (4, 2))
    x = eval_jet(parse("sin(u1)*u2", 2), pts, 3)
    c = jet.jet_space(2, 3).constant(0.37, 1)
    cases = {
        "0.37*X": c * x,
        "X*0.37": x * c,
        "X + 0.37": x + c,
        "0.37 + X": c + x,
        "X - 0.37": x - c,
        "0.37 - X": c - x,
        "X/0.37": x / c,
        "0.37/X": c / x,
        "-0.37*X": -c * x,
    }
    for src, want in cases.items():
        got = eval_jet(parse(src.replace("X", "(sin(u1)*u2)"), 2), pts, 3)
        assert np.array_equal(got.coef, want.coef), src


@pytest.mark.parametrize(
    "src,at,message,span",
    [
        ("log(u1)", [0.5, -0.25, 0.0], "log of a jet with value -0.25", (0, 7)),
        ("log(u1)", [0.0], "log of a jet with value 0.0", (0, 7)),
        ("1 + 3*log(u1)", [0.0], "log of a jet with value 0.0", (6, 13)),
        ("sqrt(u1)", [0.5, 0.0, -2.0], "sqrt of a jet with value -2.0", (0, 8)),
        ("sqrt(u1)", [0.0], "sqrt of a jet with value 0.0", (0, 8)),
        ("u1^-2", [0.5, 0.0], "division by a jet with value 0.0", (0, 5)),
        ("u1/0", [0.5], "division by a jet with value 0.0", (0, 4)),
        ("u1/(2-2)", [0.5], "division by a jet with value 0.0", (0, 7)),
    ],
)
def test_jet_domain_rules_keep_message_and_offset(src, at, message, span):
    # seeded functions, float divisors and folded constants are gated as
    # the jets they replace are
    for pts in (np.array(at)[:, None], np.array(at)[:, None, None]):
        for order in (0, 2, 4):
            with pytest.raises(ExprError, match=r"(of|division by) a jet with value") as ei:
                eval_jet(parse(src, 1), pts, order)
            assert (ei.value.message, ei.value.span) == (message, span)


@pytest.mark.parametrize("first", [0, 1])
def test_shared_divisor_error_names_the_first_division(first):
    # the shared divisor u1 - 0.5 is gated once, at its first division in
    # evaluation order, which raises as that entry alone does
    texts = ["1/(u1 - 0.5)", "u2 + 2/(u1 - 0.5)"]
    texts = texts[first:] + texts[:first]
    (row,), shared = intern([texts], 2)
    assert shared
    pts = np.array([[0.3, 0.1], [0.5, 0.2], [0.7, 0.3]])
    with pytest.raises(ExprError, match="division by a jet with value 0.0") as alone:
        eval_values((parse(texts[0], 2),), pts)[0]
    with pytest.raises(ExprError, match="division by a jet with value 0.0") as err:
        eval_values(row, pts, shared)
    assert err.value.span == alone.value.span
    assert err.value.span[0] == (0 if first == 0 else 5)
    assert str(err.value) == str(alone.value)


def test_eval_jets_leaves_no_jets_in_cyclic_garbage():
    # the evaluator's closures refer to each other; the cycle is broken when
    # the row is done, so the jets it built go when they are dropped, not
    # when the cyclic collector runs
    chart = catalog.sphcyl4()
    pts = np.full((16, 4), 0.7)
    gc.collect()
    saved = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        eval_jets(chart.components, pts, 4, chart.shared)
        gc.collect()
        left = [o for o in gc.garbage if isinstance(o, jet.JetScalar)]
    finally:
        gc.set_debug(saved)
        gc.garbage.clear()
    assert left == []

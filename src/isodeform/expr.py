"""Small expression DSL for chart components and scalar fields.

Grammar (precedence loosest to tightest, so unary minus binds tighter
than ``^``):

    expr    := term  (('+' | '-') term)*          left-assoc
    term    := power (('*' | '/') power)*         left-assoc
    power   := unary ('^' power)?                 right-assoc
    unary   := '-' unary | atom
    atom    := NUMBER | 'pi' | 'u<k>' | NAME '(' expr ')' | '(' expr ')'

Consequences worth knowing: ``-u1^2`` parses as ``(-u1)^2`` (so it is 9 at
u1=3), and ``2^-3`` parses as ``2^(-3)``.  There is no implicit
multiplication.  Variables are ``u1`` .. ``un`` (1-based in the source
text, 0-based in the AST).  Functions: sin, cos, exp, log, sqrt.

Integer exponents evaluate by binary powering (any base; a negative one
powers the reciprocal); non-integer or non-constant exponents require a
positive base.

Two row evaluators share these rules, each taking a row of ASTs (a
chart's components, the entries of an explicit Q) and evaluating a subtree
the row repeats, as ``intern`` finds it, once.  ``eval_values`` works on
floats and arrays, and runs each domain rule once per row on an operand
node, so a shared divisor is gated once.  ``eval_jets`` turns the row into
Taylor jets: literals stay floats that scale or shift a jet's
coefficients, and sin, cos, exp, log, sqrt of a bare coordinate, and its
square, are written from their univariate Taylor coefficients without a
jet product.  ``eval_jet`` is a row of one.
"""

from __future__ import annotations

import operator
import re
from functools import lru_cache

import numpy as np

from . import jet as jetmod
from .errors import HypothesisError, SceneError
from .jet import JetScalar, jet_space
from .record import Record

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")


class ExprError(SceneError):
    """A source that does not parse, or a value outside an operation's domain."""

    def __init__(self, message: str, span: tuple[int, int]):
        super().__init__(f"{message} (at offset {span[0]})")
        self.message = message
        self.span = span


# ------------------------------------------------------------------- AST
# Nodes of one kind with equal fields are equal and hash alike (``Record``);
# ``span``, a node's offsets in its source, is left out.


class Num(Record):
    _key = lambda self: (self.value,)

    def __init__(self, value: float, span=(0, 0)):
        # unary minus owns the sign; keeping literals non-negative makes the
        # print/parse fixpoint structural
        if not (value >= 0 and np.isfinite(value)):
            raise ValueError(f"Num literal must be finite and >= 0, got {value}")
        self.value, self.span = value, span


class Var(Record):
    _key = lambda self: (self.index,)  # index is 0-based

    def __init__(self, index: int, span=(0, 0)):
        self.index, self.span = index, span


class Pi(Record):
    def __init__(self, span=(0, 0)):
        self.span = span


class Neg(Record):
    _key = lambda self: (self.child,)

    def __init__(self, child: "ExprAst", span=(0, 0)):
        self.child, self.span = child, span


class BinOp(Record):
    _key = lambda self: (self.op, self.left, self.right)  # op: + - * / ^

    def __init__(self, op: str, left: "ExprAst", right: "ExprAst", span=(0, 0)):
        self.op, self.left, self.right, self.span = op, left, right, span


class Call(Record):
    _key = lambda self: (self.name, self.arg)

    def __init__(self, name: str, arg: "ExprAst", span=(0, 0)):
        self.name, self.arg, self.span = name, arg, span


ExprAst = Num | Var | Pi | Neg | BinOp | Call


# ------------------------------------------------------------------- lexer

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^()])
    """,
    re.VERBOSE,
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprError(f"unexpected character {text[pos]!r}", (pos, pos + 1))
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# ------------------------------------------------------------------- parser


class _Parser:
    def __init__(self, text: str, n_vars: int):
        self.text = text
        self.n_vars = n_vars
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ExprError(f"expected {op!r}", (pos, pos + 1))
        return self.advance()

    def parse(self) -> ExprAst:
        node = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExprError(f"unexpected {text!r}", (pos, pos + len(text)))
        return node

    def expr(self) -> ExprAst:
        node = self.term()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                node = BinOp(text, node, rhs, (node.span[0], rhs.span[1]))
            else:
                return node

    def term(self) -> ExprAst:
        node = self.power()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.power()
                node = BinOp(text, node, rhs, (node.span[0], rhs.span[1]))
            else:
                return node

    def power(self) -> ExprAst:
        base = self.unary()
        kind, text, pos = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            exponent = self.power()  # right-assoc
            return BinOp("^", base, exponent, (base.span[0], exponent.span[1]))
        return base

    def unary(self) -> ExprAst:
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            child = self.unary()
            return Neg(child, (pos, child.span[1]))
        return self.atom()

    def atom(self) -> ExprAst:
        kind, text, pos = self.advance()
        if kind == "number":
            return Num(float(text), (pos, pos + len(text)))
        if kind == "name":
            span = (pos, pos + len(text))
            if text == "pi":
                return Pi(span)
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                rp = self.expect_op(")")
                return Call(text, arg, (pos, rp[2] + 1))
            m = re.fullmatch(r"u(\d+)", text)
            if m:
                idx = int(m.group(1))
                if not 1 <= idx <= self.n_vars:
                    raise ExprError(
                        f"variable {text} out of range (n_vars={self.n_vars})", span
                    )
                return Var(idx - 1, span)
            raise ExprError(f"unknown identifier {text!r}", span)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprError(f"unexpected {text!r}" if text else "unexpected end of input",
                              (pos, pos + max(1, len(text))))


@lru_cache(maxsize=256)
def parse(text: str, n_vars: int) -> ExprAst:
    """Parse a DSL expression with variables u1..u<n_vars>.

    Cached: nothing modifies an AST, so every caller may share one parse, and
    the integrands that evaluate a scene's few sources per call reparse
    none.  The bound keeps long-lived processes from growing the cache.
    """
    return _Parser(text, n_vars).parse()


# ------------------------------------------------------------------- printer

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_POW, _LEVEL_UNARY, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _fmt_number(v: float) -> str:
    s = repr(float(v))
    return s[:-2] if s.endswith(".0") else s


def _print(node: ExprAst, min_level: int) -> str:
    if isinstance(node, Num):
        s, lvl = _fmt_number(node.value), _LEVEL_ATOM
    elif isinstance(node, Var):
        s, lvl = f"u{node.index + 1}", _LEVEL_ATOM
    elif isinstance(node, Pi):
        s, lvl = "pi", _LEVEL_ATOM
    elif isinstance(node, Call):
        s, lvl = f"{node.name}({_print(node.arg, 0)})", _LEVEL_ATOM
    elif isinstance(node, Neg):
        s, lvl = f"-{_print(node.child, _LEVEL_UNARY)}", _LEVEL_UNARY
    elif isinstance(node, BinOp):
        if node.op in "+-":
            lvl = _LEVEL_ADD
            s = f"{_print(node.left, lvl)} {node.op} {_print(node.right, lvl + 1)}"
        elif node.op in "*/":
            lvl = _LEVEL_MUL
            s = f"{_print(node.left, lvl)}{node.op}{_print(node.right, lvl + 1)}"
        else:  # ^  right-assoc; base must be at unary level or tighter
            lvl = _LEVEL_POW
            s = f"{_print(node.left, _LEVEL_UNARY)}^{_print(node.right, lvl)}"
    else:
        raise TypeError(f"not an AST node: {node!r}")
    return f"({s})" if lvl < min_level else s


def to_string(node: ExprAst) -> str:
    """Render with minimal parentheses; reparsing gives a structurally
    identical AST (spans excluded from equality)."""
    return _print(node, 0)


# ------------------------------------------------------------------- eval


def _memo_reader(ev_node, memo: dict):
    """``ev_node`` behind ``memo`` (see ``intern``), which maps the id of each
    shared node to (uses left, value or None): a shared node is evaluated
    once and its value dropped after its last read."""

    def ev(nd):
        if id(nd) not in memo:
            return ev_node(nd)
        uses, out = memo.pop(id(nd))
        if out is None:
            out = ev_node(nd)
        if uses > 1:
            memo[id(nd)] = (uses - 1, out)
        return out

    return ev


def eval_jets(nodes, point, order: int, shared: dict | None = None) -> list[JetScalar]:
    """Evaluate a row of ASTs to jets of the given order at `point`, shape
    (*batch, n).

    ``shared`` is the use count by id that ``intern`` gives for the row: a
    subtree the row repeats is evaluated once.  Literals and ``pi`` stay
    floats, so ``c*x``, ``x + c``, ``x - c`` and ``c - x`` scale or shift the
    coefficients of x, and ``x/c`` multiplies them by 1/c; a row root that
    is a float becomes a constant jet.  A function of a bare coordinate u_i,
    and u_i^2, is written from its univariate Taylor coefficients into the
    pure-power slots of u_i (``JetSpace.univariate``); any other argument is
    composed (``jet._compose``).  Each rule gives the coefficients plain jet
    arithmetic gives, up to the sign of a zero, under the same domain rules.
    """
    point = np.asarray(point, dtype=float)
    n_vars = point.shape[-1]
    sp = jet_space(n_vars, order)
    batch_ndim = point.ndim - 1
    seeds: dict = {}

    def coord(nd: Var):
        if nd.index >= n_vars:
            raise ExprError(
                f"variable u{nd.index + 1} exceeds point dimension {n_vars}", nd.span
            )
        return point[..., nd.index]

    def seed(nd: Var) -> JetScalar:
        if nd.index not in seeds:
            seeds[nd.index] = sp.variable(nd.index, coord(nd))
        return seeds[nd.index]

    def ev_node(nd):
        if isinstance(nd, Num):
            return float(nd.value)
        if isinstance(nd, Pi):
            return np.pi
        if isinstance(nd, Var):
            return seed(nd)
        if isinstance(nd, Neg):
            return -ev(nd.child)
        try:
            if isinstance(nd, Call):
                taylor = jetmod.TAYLOR[nd.name]
                if isinstance(nd.arg, Var):
                    return sp.univariate(nd.arg.index, taylor(coord(nd.arg), order))
                a = ev(nd.arg)
                if isinstance(a, JetScalar):
                    return jetmod._compose(a, taylor(a.value, order))
                return float(taylor(a, 0)[0])
            if isinstance(nd, BinOp):
                if nd.op == "^":
                    return ev_pow(nd)
                return _arith(nd.op, ev(nd.left), ev(nd.right))
        except HypothesisError as e:  # a jet domain rule: name the node
            raise ExprError(str(e), nd.span) from e
        raise TypeError(f"not an AST node: {nd!r}")

    def ev_pow(nd: BinOp) -> JetScalar:
        if isinstance(nd.left, Var):
            x = coord(nd.left)
            b = ev(nd.right)
            if not isinstance(b, JetScalar) and b == 2:
                return sp.univariate(nd.left.index, [x * x, 2 * x, 1.0])
            a = seed(nd.left)
        else:
            a, b = ev(nd.left), ev(nd.right)
            if not isinstance(a, JetScalar):
                a = sp.constant(a, batch_ndim)
        if isinstance(b, JetScalar):
            v = np.asarray(b.value)
            if np.any(b.coef[1:] != 0) or np.any(v != v.flat[0]):
                return jetmod.exp(b * jetmod.log(a))
            b = v.flat[0]  # the same number at every point
        b = float(b)
        return a ** int(b) if b.is_integer() else jetmod.powf(a, b)

    ev = _memo_reader(ev_node, {k: (uses, None) for k, uses in (shared or {}).items()})
    try:
        out = [ev(nd) for nd in nodes]
    finally:
        ev = None  # ev and ev_node refer to each other: break the cycle
    return [v if isinstance(v, JetScalar) else sp.constant(v, batch_ndim) for v in out]


def eval_jet(node: ExprAst, point, order: int) -> JetScalar:
    """One AST as a row of its own; see ``eval_jets``."""
    return eval_jets((node,), point, order)[0]


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _arith(op: str, a, b):
    """a op b for + - * /, each a jet or a Python float (a jet's reflected
    methods apply a float to its coefficients).  A float divisor is gated as
    a jet divisor is, and x/c is x*(1/c) as for a constant jet."""
    if op == "/" and not isinstance(b, JetScalar):
        op, b = "*", float(jetmod.reciprocal(b))
    return _ARITH[op](a, b)


def eval_values(nodes, point, shared: dict | None = None) -> list:
    """Evaluate a row of ASTs on floats or numpy arrays at `point`, shape
    (*batch, n): a float for an entry constant over the batch, else an
    array (*batch).

    Deliberately does not touch the jet machinery: this is the independent
    route used by the finite-difference oracle and the path integrands.
    ``shared`` is the use count by id that ``intern`` gives for the row, as
    for ``eval_jets``: a subtree the row repeats is evaluated once.  Domain
    violations raise ExprError with the jet evaluator's rule and text,
    naming the worst offending value; each rule runs once per row on an
    operand node, so a shared divisor is gated at its first division only,
    which is also where it would raise.
    """
    point = np.asarray(point, dtype=float)
    gated = set()

    def gate(rule, operand, v, span, *args) -> None:
        key = (rule, id(operand))
        if key not in gated:
            try:
                rule(v, *args)
            except HypothesisError as e:  # a jet domain rule: name the node
                raise ExprError(str(e), span) from e
            gated.add(key)

    def ev_node(nd):
        if isinstance(nd, Num):
            return nd.value
        if isinstance(nd, Pi):
            return np.pi
        if isinstance(nd, Var):
            return point[..., nd.index]
        if isinstance(nd, Neg):
            return -ev(nd.child)
        if isinstance(nd, Call):
            v = ev(nd.arg)
            if nd.name in ("log", "sqrt"):
                gate(jetmod.require_positive, nd.arg, v, nd.span, nd.name)
            return getattr(np, nd.name)(v)
        if isinstance(nd, BinOp):
            a = ev(nd.left)
            b = ev(nd.right)
            if nd.op == "+":
                return a + b
            if nd.op == "-":
                return a - b
            if nd.op == "*":
                return a * b
            if nd.op == "/":
                gate(jetmod.reciprocal, nd.right, b, nd.span)
                return a / b
            # ^
            a = np.asarray(a, dtype=float)
            bb = np.asarray(b, dtype=float)
            if bb.ndim == 0 and float(bb).is_integer():
                if bb < 0:
                    gate(jetmod.reciprocal, nd.left, a, nd.span)
                return a ** int(bb)
            gate(jetmod.require_positive, nd.left, a, nd.span, "non-integer power")
            return a ** bb
        raise TypeError(f"not an AST node: {nd!r}")

    ev = _memo_reader(ev_node, {k: (uses, None) for k, uses in (shared or {}).items()})
    out = [ev(nd) for nd in nodes]
    return [np.asarray(v, dtype=float) if np.ndim(v) else float(v) for v in out]


def intern(rows, n_vars: int):
    """Parse rows of sources (or take ASTs) into ASTs whose equal subtrees
    (spans aside) are one object, the first in evaluation order so errors
    keep their offsets; and the use count by id of each non-leaf subtree
    that evaluating the rows in order repeats."""
    table, uses = {}, {}

    def canon(nd):  # children first, so a node's key holds their ids
        kids = [canon(v) if isinstance(v, Record) else v for v in nd._key()]
        key = (type(nd), *(id(v) if isinstance(v, Record) else v for v in kids))
        if key not in table:  # a first occurrence: evaluating it reads its children
            table[key] = type(nd)(*kids, nd.span)
            count(kids)
        return table[key]

    def count(nodes):
        for v in nodes:
            if isinstance(v, (Neg, BinOp, Call)):
                uses[id(v)] = uses.get(id(v), 0) + 1

    def ast(e):
        return e if isinstance(e, ExprAst) else parse(e, n_vars)

    out = tuple(tuple(canon(ast(e)) for e in row) for row in rows)
    count(nd for row in out for nd in row)
    return out, {k: u for k, u in uses.items() if u > 1}

"""Tiny arithmetic expression grammar for closed-form sources and initial data.

Grammar (no eval):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ('+'|'-') factor | power
    power  := atom ('^' factor)?
    atom   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

Names: variables x1, x2, x3, t; constant pi; functions sin, cos, exp.
Python's parser reads it, `^` as `**` (same precedence and associativity),
through a whitelist of the grammar's nodes; evaluation broadcasts in numpy.
"""

import ast
import math
import operator
import re
from functools import reduce

import numpy as np

from .errors import ParseError

_NUMBER = re.compile(rb"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
# the grammar reads "01" as a number, Python rejects it
_LEADING_ZEROS = re.compile(r"(?<![\w.])0+(?=[0-9])")

_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_NAMES = ("x1", "x2", "x3", "t", "pi")
_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv,
           ast.Pow: operator.pow}
# the other nodes of a checked tree; ast.walk visits operators as nodes too
_NODES = {ast.BinOp, ast.UnaryOp, ast.UAdd, ast.USub, ast.Load, *_BINOPS}


def _eval(node, env):
    kind = type(node)
    if kind is ast.BinOp:
        return _BINOPS[type(node.op)](_eval(node.left, env),
                                      _eval(node.right, env))
    if kind is ast.UnaryOp:
        val = _eval(node.operand, env)
        return -val if type(node.op) is ast.USub else val
    if kind is ast.Call:
        return _FUNCS[node.func.id](_eval(node.args[0], env))
    return env[node.id] if kind is ast.Name else node.value


def _factors(node):
    """The operands of the multiplication chain at the top of a tree, in
    evaluation order (a lone operand for any other tree)."""
    out, todo = [], [node]
    while todo:
        node = todo.pop()
        if type(node) is ast.BinOp and type(node.op) is ast.Mult:
            todo += [node.right, node.left]
        else:
            out.append(node)
    return out


class Expression:
    """A compiled scalar expression over (x1, x2, x3, t)."""

    def __init__(self, text, line=0):
        self.text = text.strip()
        self.line = line
        src = _LEADING_ZEROS.sub("", " ".join(text.replace("^", "**").split()))
        if not src:
            raise ParseError(line, "empty expression")
        if "#" in src or "\0" in src:  # "\0": a ValueError on Python 3.10
            raise ParseError(line, "bad character '#' or '\\0'")
        try:
            self.ast = ast.parse(src, mode="eval").body
        except SyntaxError as exc:
            raise ParseError(line, exc.msg) from None
        except (RecursionError, MemoryError):  # the parser's depth limits
            raise ParseError(line, "nested too deeply") from None
        # the whitelist; each number literal gets the float of its text
        self._src = data = src.encode()
        callees = set()
        for node in ast.walk(self.ast):
            kind = type(node)
            if kind is ast.Constant:
                literal = data[node.col_offset:node.end_col_offset]
                if not _NUMBER.fullmatch(literal):
                    raise ParseError(line, f"bad literal {literal.decode()}")
                node.value = float(literal)
            elif kind is ast.Name:
                if node.id not in _NAMES and id(node) not in callees:
                    raise ParseError(line, f"unknown name {node.id!r}")
            elif kind is ast.Call:
                if not (type(node.func) is ast.Name and node.func.id in _FUNCS
                        and len(node.args) == 1):
                    raise ParseError(line, "only sin, cos and exp of one "
                                           "argument may be called")
                callees.add(id(node.func))
            elif kind not in _NODES:
                raise ParseError(line, f"unsupported {kind.__name__}")

    def __call__(self, x1, x2, x3, t=0.0):
        """The value on the broadcast grid of the arguments.  A value that
        fails in float arithmetic, is complex (a negative base to a
        fractional power) or has a non-finite sample is a ParseError on the
        expression's line; numpy's warnings are silenced, not raised."""
        env = {"x1": x1, "x2": x2, "x3": x3, "t": t, "pi": math.pi}
        try:
            with np.errstate(all="ignore"):
                val = _eval(self.ast, env)
        except RecursionError:
            raise ParseError(self.line, "nested too deeply") from None
        except ArithmeticError as exc:
            raise ParseError(self.line,
                             f"{type(exc).__name__} in evaluation") from None
        if np.iscomplexobj(val):
            raise ParseError(self.line, "complex value")
        if not np.isfinite(val).all():
            raise ParseError(self.line, "non-finite value (inf or nan)")
        return np.broadcast_to(val, np.broadcast_shapes(
            np.shape(x1), np.shape(x2), np.shape(x3))).astype(float) if np.isscalar(val) else val

    def separate(self):
        """The expression as a product f(x1, x2, x3) * g(t) of the factors of
        its top multiplication chain: (f, g), f the product of the factors
        without t (constants among them) and g of the others, or None when
        t does not appear; None when a factor holds both t and a coordinate.
        f and g are Expressions on the same line, with the value checks of
        __call__; f * g is the expression's value up to roundoff, so either
        may fail a check that the value passes (their product overflow, say)
        and not the other way round."""
        space, time = [], []
        for node in _factors(self.ast):
            names = {n.id for n in ast.walk(node) if type(n) is ast.Name}
            if "t" not in names:
                space.append(node)
            elif names.isdisjoint(("x1", "x2", "x3")):
                time.append(node)
            else:
                return None
        return self._product(space), self._product(time) if time else None

    def _product(self, nodes):
        """The product of some of the tree's nodes, in the order given, as
        an Expression whose text is theirs, each in parentheses."""
        part = object.__new__(Expression)
        part.ast = reduce(lambda a, b: ast.BinOp(a, ast.Mult(), b), nodes) \
            if nodes else ast.Constant(1.0)
        part.text = " * ".join(
            f"({self._src[n.col_offset:n.end_col_offset].decode()})"
            for n in nodes) or "1"
        part.line, part._src = self.line, self._src
        return part

    def __repr__(self):
        return f"Expression({self.text!r})"

    def __eq__(self, other):
        return isinstance(other, Expression) and self.text == other.text

    def __hash__(self):
        return hash(self.text)

"""Scalar expression language: parsing, printing, differentiation.

Grammar (whitespace insignificant)::

    expr     := ('-')? term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := base ('^' exponent)?
    base     := number | ident | '(' expr ')' | func '(' expr ')'
    func     := sqrt | exp | log | sin | cos | tan | atan
    exponent := ('-')? number

Non-smooth primitives (abs, min, max, sign) are rejected at parse time;
everything the engine differentiates must be smooth on its domain. Every
expression argument of the engine, text or AST, enters through `parse`,
which checks its variables.

ASTs are immutable and may share subtrees. `Calculus` derives and folds a
family of expressions (a metric and all its partials) as one DAG: each
distinct node object is derived or folded once and its result reused,
keyed by identity. `differentiate` and `constant_fold` are one-shot calls of
the same code.

`CHILDREN` names each node's operands and `apply` holds the grammar's numeric
rules on plain operands. `evaluate` is a tree walk over `apply`, `Evaluator`
a DAG walk; `jets.AstEvaluator` is an `Evaluator` that runs jet arithmetic
where an operand is a jet, so plain numbers follow one set of rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainEvalError, ExpressionError

SMOOTH_FUNCS = ("sqrt", "exp", "log", "sin", "cos", "tan", "atan")
_REJECTED_FUNCS = ("abs", "min", "max", "sign")


# --- AST nodes ---------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: float  # constant literal; integer-valued exponents use repeated
    #                  multiplication, real ones exp(p*log(base))


@dataclass(frozen=True)
class Func:
    name: str
    arg: "Node"


Node = Const | Var | BinOp | Pow | Func

# the operand fields of each operator node, in evaluation order
CHILDREN = {BinOp: ("left", "right"), Pow: ("base",), Func: ("arg",)}


# --- tokenizer / parser ------------------------------------------------------

class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            seen_dot = False
            while j < n and (source[j].isdigit() or (source[j] == "." and not seen_dot)):
                if source[j] == ".":
                    seen_dot = True
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    while k < n and source[k].isdigit():
                        k += 1
                    j = k
            text = source[i:j]
            try:
                float(text)
            except ValueError:
                raise ExpressionError(f"malformed number {text!r}", i)
            tokens.append(_Token("num", text, i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("ident", source[i:j], i))
            i = j
            continue
        raise ExpressionError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.pos = 0
        self.variables = frozenset(variables)

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok.kind != kind:
            raise ExpressionError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return tok

    def parse_expr(self) -> Node:
        if self.peek().kind == "-":
            tok = self.next()
            node = BinOp("-", Const(0.0), self.parse_term())
        else:
            node = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> Node:
        node = self.parse_factor()
        while self.peek().kind in ("*", "/"):
            op = self.next().kind
            node = BinOp(op, node, self.parse_factor())
        return node

    def parse_factor(self) -> Node:
        if self.peek().kind == "-":
            self.next()
            return BinOp("-", Const(0.0), self.parse_factor())
        node = self.parse_base()
        if self.peek().kind == "^":
            self.next()
            sign = 1.0
            if self.peek().kind == "-":
                self.next()
                sign = -1.0
            tok = self.expect("num")
            node = Pow(node, sign * float(tok.text))
        return node

    def parse_base(self) -> Node:
        tok = self.next()
        if tok.kind == "num":
            return Const(float(tok.text))
        if tok.kind == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        if tok.kind == "ident":
            if self.peek().kind == "(":
                name = tok.text
                if name in _REJECTED_FUNCS:
                    raise ExpressionError(f"non-smooth primitive {name!r} is not allowed", tok.pos)
                if name not in SMOOTH_FUNCS:
                    raise ExpressionError(f"unknown function {name!r}", tok.pos)
                self.next()
                arg = self.parse_expr()
                self.expect(")")
                return Func(name, arg)
            if tok.text not in self.variables:
                raise ExpressionError(f"undeclared variable {tok.text!r}", tok.pos)
            return Var(tok.text)
        raise ExpressionError(f"unexpected {tok.text or 'end of input'!r}", tok.pos)


def parse(source, variables) -> Node:
    """The AST of `source`, a text or an AST, whose free variables must be
    drawn from `variables`. An AST is checked and returned as the same
    object: `Calculus` and the jet evaluators key their caches by identity."""
    if isinstance(source, Node):
        extra = free_vars(source) - frozenset(variables)
        if extra:
            raise ExpressionError(f"undeclared variable {min(extra)!r}")
        return source
    if not isinstance(source, str):
        raise ExpressionError(f"an expression must be a string, got {source!r}")
    parser = _Parser(_tokenize(source), variables)
    node = parser.parse_expr()
    end = parser.next()
    if end.kind != "end":
        raise ExpressionError(f"trailing input {end.text!r}", end.pos)
    return node


# --- printing / structure ----------------------------------------------------

def to_source(node: Node) -> str:
    """Print an AST back to grammar-conformant text (round-trips through parse)."""
    if isinstance(node, Const):
        if node.value < 0:
            return f"(0 - {-node.value!r})"
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, BinOp):
        return f"({to_source(node.left)} {node.op} {to_source(node.right)})"
    if isinstance(node, Pow):
        exp = node.exponent
        text = repr(exp) if exp >= 0 else f"-{-exp!r}"
        return f"({to_source(node.base)})^{text}"
    if isinstance(node, Func):
        return f"{node.name}({to_source(node.arg)})"
    raise TypeError(f"not an AST node: {node!r}")


def free_vars(node: Node) -> frozenset[str]:
    """The variable names in `node`, each distinct node object visited once."""
    names, seen, stack = set(), set(), [node]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Var):
            names.add(node.name)
        elif not isinstance(node, Const):
            if type(node) not in CHILDREN:
                raise TypeError(f"not an AST node: {node!r}")
            stack += (getattr(node, f) for f in CHILDREN[type(node)])
    return frozenset(names)


# --- exact differentiation and substitution ----------------------------------

class Calculus:
    """Exact derivatives and constant folding of ASTs, each result remembered
    by the identity of the node it was taken of.

    A subtree that several expressions share is derived (or folded) once, and
    every expression that contains it receives the same result object, so a
    table of derivatives is a DAG whose evaluators can share subexpressions
    too. Each result equals, node for node, the tree that deriving or
    folding its expression alone would build; only node objects are shared.
    Keys are node identities, never dataclass equality, which would merge
    `Const(0.0)` with `Const(-0.0)`. A holder of one `Calculus` (each
    `RiemannStructure` keeps one) shares across all its calls.
    """

    def __init__(self):
        self._derivs: dict = {}   # (id(node), var) -> (node, derivative)
        self._folds: dict = {}    # id(node) -> (node, folded)
        self._chains: dict = {}   # id(node) -> (node, its factor of every derivative)

    def differentiate(self, node: Node, var: str) -> Node:
        key = (id(node), var)
        hit = self._derivs.get(key)
        if hit is None:
            hit = self._derivs[key] = (node, self._derive(node, var))
        return hit[1]

    def fold(self, node: Node) -> Node:
        hit = self._folds.get(id(node))
        if hit is None:
            hit = self._folds[id(node)] = (node, self._fold(node))
        return hit[1]

    def _chain(self, node: Node) -> Node:
        """The factor of ∂node that does not depend on the variable, built
        once per node, so the partials of `node` in all variables share it."""
        hit = self._chains.get(id(node))
        if hit is None:
            hit = self._chains[id(node)] = (node, _chain_factor(node))
        return hit[1]

    def _derive(self, node: Node, var: str) -> Node:
        if isinstance(node, Const):
            return Const(0.0)
        if isinstance(node, Var):
            return Const(1.0) if node.name == var else Const(0.0)
        if isinstance(node, BinOp):
            dl = self.differentiate(node.left, var)
            dr = self.differentiate(node.right, var)
            if node.op in ("+", "-"):
                if _is_zero(dl) and _is_zero(dr):
                    return Const(0.0)
                return BinOp(node.op, dl, dr)
            if node.op == "*":
                terms = []
                if not _is_zero(dl):
                    terms.append(BinOp("*", dl, node.right))
                if not _is_zero(dr):
                    terms.append(BinOp("*", node.left, dr))
                if not terms:
                    return Const(0.0)
                return terms[0] if len(terms) == 1 else BinOp("+", terms[0], terms[1])
            if node.op == "/":
                # (l/r)' = l'/r - l*r'/r^2
                first = Const(0.0) if _is_zero(dl) else BinOp("/", dl, node.right)
                if _is_zero(dr):
                    return first
                return BinOp("-", first, BinOp("/", BinOp("*", node.left, dr), self._chain(node)))
            raise TypeError(f"unknown operator {node.op!r}")
        if isinstance(node, Pow):
            db = self.differentiate(node.base, var)
            if _is_zero(db) or node.exponent == 0:
                return Const(0.0)
            return BinOp("*", self._chain(node), db)
        if isinstance(node, Func):
            da = self.differentiate(node.arg, var)
            if _is_zero(da):
                return Const(0.0)
            return BinOp("*", self._chain(node), da)
        raise TypeError(f"not an AST node: {node!r}")

    def _fold(self, node: Node) -> Node:
        """`node` with its constant sub-trees folded; `node` itself when
        nothing folds."""
        if isinstance(node, (Const, Var)):
            return node
        if isinstance(node, BinOp):
            left = self.fold(node.left)
            right = self.fold(node.right)
            if isinstance(left, Const) and isinstance(right, Const):
                if node.op == "/" and right.value == 0:
                    return _binop(node, left, right)
                return Const({"+": left.value + right.value,
                              "-": left.value - right.value,
                              "*": left.value * right.value,
                              "/": left.value / right.value if right.value else math.nan}[node.op])
            if node.op == "*" and (_is_zero(left) or _is_zero(right)):
                return Const(0.0)
            if node.op == "*" and isinstance(left, Const) and left.value == 1.0:
                return right
            if node.op == "*" and isinstance(right, Const) and right.value == 1.0:
                return left
            if node.op in ("+", "-") and _is_zero(right):
                return left
            if node.op == "+" and _is_zero(left):
                return right
            if node.op == "/" and _is_zero(left):
                return Const(0.0)
            return _binop(node, left, right)
        if isinstance(node, Pow):
            base = self.fold(node.base)
            if node.exponent == 1.0:
                return base
            if isinstance(base, Const) and float(node.exponent).is_integer():
                return Const(base.value ** node.exponent)
            return node if base is node.base else Pow(base, node.exponent)
        if isinstance(node, Func):
            arg = self.fold(node.arg)
            return node if arg is node.arg else Func(node.name, arg)
        raise TypeError(f"not an AST node: {node!r}")


def _chain_factor(node: Node) -> Node:
    """r^2 of l/r, p*b^(p-1) of b^p, h'(a) of h(a)."""
    if isinstance(node, BinOp):
        return Pow(node.right, 2.0)
    if isinstance(node, Pow):
        return BinOp("*", Const(node.exponent), Pow(node.base, node.exponent - 1.0))
    f = node.arg
    if node.name == "sqrt":
        return BinOp("/", Const(0.5), Func("sqrt", f))
    if node.name == "exp":
        return Func("exp", f)
    if node.name == "log":
        return BinOp("/", Const(1.0), f)
    if node.name == "sin":
        return Func("cos", f)
    if node.name == "cos":
        return BinOp("-", Const(0.0), Func("sin", f))
    if node.name == "tan":
        return BinOp("/", Const(1.0), Pow(Func("cos", f), 2.0))
    if node.name == "atan":
        return BinOp("/", Const(1.0), BinOp("+", Const(1.0), Pow(f, 2.0)))
    raise TypeError(f"unknown function {node.name!r}")


def _binop(node: BinOp, left: Node, right: Node) -> BinOp:
    """`node` with operands `left` and `right`: `node` itself if they are its own."""
    return node if left is node.left and right is node.right else BinOp(node.op, left, right)


def differentiate(node: Node, var: str) -> Node:
    """Exact derivative of the AST with respect to `var` (no simplification
    beyond dropping obvious zero branches)."""
    return Calculus().differentiate(node, var)


def _is_zero(node: Node) -> bool:
    return isinstance(node, Const) and node.value == 0.0


def substitute(node: Node, bindings: dict) -> Node:
    """Replace variables by constants or sub-expressions.

    `bindings` maps variable names to numbers or AST nodes.
    """
    if isinstance(node, Const):
        return node
    if isinstance(node, Var):
        if node.name in bindings:
            repl = bindings[node.name]
            return Const(float(repl)) if isinstance(repl, (int, float)) else repl
        return node
    if isinstance(node, BinOp):
        return BinOp(node.op, substitute(node.left, bindings), substitute(node.right, bindings))
    if isinstance(node, Pow):
        return Pow(substitute(node.base, bindings), node.exponent)
    if isinstance(node, Func):
        return Func(node.name, substitute(node.arg, bindings))
    raise TypeError(f"not an AST node: {node!r}")


def apply(node: Node, *operands):
    """The value of the operator node `node` on the plain values (floats or
    NumPy arrays) of its operands, in `CHILDREN` order."""
    if isinstance(node, BinOp):
        a, b = operands
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if not np.all(np.asarray(b) != 0):
            raise DomainEvalError("division by zero")
        return a / b
    if isinstance(node, Pow):
        (base,) = operands
        p = node.exponent
        if float(p).is_integer():
            return np.power(base, int(p)) if p >= 0 else 1.0 / np.power(base, -int(p))
        if not np.all(np.asarray(base) > 0):
            raise DomainEvalError("real power of a non-positive base")
        return np.power(base, p)
    if isinstance(node, Func):
        (arg,) = operands
        if node.name in ("sqrt", "log") and not np.all(np.asarray(arg) > 0):
            raise DomainEvalError(f"{node.name} of a non-positive value")
        return getattr(np, {"atan": "arctan"}.get(node.name, node.name))(arg)
    raise TypeError(f"not an AST node: {node!r}")


def evaluate(node: Node, env: dict):
    """Plain numeric evaluation (floats or numpy arrays in `env`), a tree
    walk: the cheap path for validation sampling and quadrature integrands
    that need only values. A shared subtree is evaluated at each read."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    return apply(node, *[evaluate(getattr(node, f), env) for f in CHILDREN.get(type(node), ())])


class Evaluator:
    """Values of a family of ASTs in one environment, each distinct node
    object computed once (`_compute`) and kept under its identity, never
    dataclass equality, which would merge `Const(0.0)` with `Const(-0.0)`.
    A node's value is a pure function of its operands', so sharing changes
    no bit. Given `root`, it serves that AST and keeps only the nodes read
    more than once: a tree then holds no more values at a time than a
    recursive walk, which matters for values batched over many fibers.
    """

    def __init__(self, env: dict, root=None):
        self.env = env
        self._memo: dict = {}     # id(node) -> (node, value)
        self._shared = None if root is None else _read_twice(root)

    def __call__(self, node):
        return self._eval(node)

    def _eval(self, node):
        hit = self._memo.get(id(node))
        if hit is not None:
            return hit[1]
        value = self._compute(node)
        if self._shared is None or id(node) in self._shared:
            self._memo[id(node)] = (node, value)
        return value

    def _compute(self, node):
        if isinstance(node, Const):
            return node.value
        if isinstance(node, Var):
            return self.env[node.name]
        return apply(node, *[self._eval(getattr(node, f)) for f in CHILDREN.get(type(node), ())])


def _read_twice(root) -> set:
    """The ids of the node objects that the AST `root` reads more than once."""
    seen, shared, stack = set(), set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            shared.add(id(node))
            continue
        seen.add(id(node))
        stack.extend(getattr(node, f) for f in CHILDREN.get(type(node), ()))
    return shared


def constant_fold(node: Node) -> Node:
    """Fold constant sub-trees (used to keep derivative ASTs small)."""
    return Calculus().fold(node)

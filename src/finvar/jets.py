"""Taylor-mode automatic differentiation on multivariate truncated jets.

A Jet holds every mixed partial derivative of a scalar quantity up to its
effective order r, stored as *plain* partial values (not divided by the
factorial of the multi-index).  Multi-indices are enumerated in graded
lexicographic order, so the rows of degree <= r form a prefix of the
space's table: a jet stores that prefix and nothing above it, and its
coefficient tables are comparable bit-for-bit across runs and across
spaces of different order.

Coefficients carry an optional trailing batch shape, so one Jet can
represent the same expression evaluated at many fiber points at once;
all arithmetic broadcasts over the batch.

A quantity that depends on the base point x alone lives in the x-only space
`jet_space(xnames, r)`, beside the full (x, y) space `jet_space(xnames +
ynames, r)`: at order 6 it has 28 rows instead of 210, and a product of two
x-only jets takes 210 Leibniz triples instead of 3,003. `+` and `*` of jets
from two spaces embed the jet of the smaller space, whose names must be a
prefix of the other's, into the larger one (its rows scattered into zeros at
the rows that involve the other names) and go on with the larger space's
arithmetic; each jet keeps its embedded copy, so a shared jet is embedded
once. This changes no bit: every output row of an x-only product sums the
same Leibniz pairs in the same order in either space, and a mixed product
runs the larger space's full table, zeros included, because skipping them
would regroup `np.add.reduceat`'s sums. `deriv` by a name outside the jet's
space gives a zero jet, and `partial(mu)` takes a multi-index over the jet's
own space, so an x-only jet is read with an x-only multi-index.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import expressions as ex
from .errors import DomainEvalError, OrderLimitError

K_MAX = 8  # bitension needs order-6 mixed partials of F^2, the bienergy Hessian order-8


# --- jet space: multi-index tables, cached per (variables, order) -------------

_SPACE_CACHE: dict = {}


def jet_space(names, order: int) -> "JetSpace":
    key = (tuple(names), order)
    space = _SPACE_CACHE.get(key)
    if space is None:
        space = JetSpace(tuple(names), order)
        _SPACE_CACHE[key] = space
    return space


class JetSpace:
    """Precomputed index machinery for jets in a fixed variable list and order."""

    def __init__(self, names: tuple, order: int):
        if order < 0:
            raise ValueError("jet order must be non-negative")
        if order > K_MAX:
            raise OrderLimitError(f"jet order {order} exceeds K_max = {K_MAX}")
        self.names = names
        self.m = len(names)
        self.order = order
        self.exps = np.array(sorted(
            (e for e in itertools.product(range(order + 1), repeat=self.m) if sum(e) <= order),
            key=lambda e: (sum(e), e)), dtype=np.int64).reshape(-1, self.m)
        self.ncoef = self.exps.shape[0]
        self.degrees = self.exps.sum(axis=1)
        # nrows[r]: length of the graded prefix of multi-indices of degree <= r
        self.nrows = [int(np.sum(self.degrees <= r)) for r in range(order + 1)]
        self.index = {tuple(e): i for i, e in enumerate(self.exps)}
        self.var_pos = {name: i for i, name in enumerate(names)}
        # derivative gather tables: deriv[v][i] = index of mu + e_v (or -1 past order)
        self._deriv_idx = np.full((self.m, self.ncoef), -1, dtype=np.int64)
        for i, e in enumerate(self.exps):
            if self.degrees[i] >= order:
                continue
            for v in range(self.m):
                shifted = tuple(e[k] + (1 if k == v else 0) for k in range(self.m))
                self._deriv_idx[v, i] = self.index[shifted]
        self._mul_tables: dict = {}
        # all orders' tables are built with the space: `benchmarks/tracing.py`
        # reads the left operand's table at a product's order, also when the
        # product of an x-only jet and an (x, y) jet ran the (x, y) table
        for r in range(order + 1):
            self._mul_table(r)

    def _mul_table(self, r: int):
        """Leibniz triples for products valid to total order r, grouped by output index."""
        table = self._mul_tables.get(r)
        if table is not None:
            return table
        ii, jj, kk, ww = [], [], [], []
        n_out = self.nrows[r]
        for i in range(n_out):
            ei = self.exps[i]
            # the partners of degree <= r - |i| are a prefix of the table
            for j in range(self.nrows[r - self.degrees[i]]):
                ek = ei + self.exps[j]
                k = self.index[tuple(ek)]
                w = 1.0
                for v in range(self.m):
                    w *= math.comb(int(ek[v]), int(ei[v]))
                ii.append(i)
                jj.append(j)
                kk.append(k)
                ww.append(w)
        order_by_k = np.argsort(np.asarray(kk), kind="stable")
        ii = np.asarray(ii)[order_by_k]
        jj = np.asarray(jj)[order_by_k]
        kk = np.asarray(kk)[order_by_k]
        ww = np.asarray(ww, dtype=np.float64)[order_by_k]
        starts = np.searchsorted(kk, np.arange(n_out))
        table = (ii, jj, ww, starts)
        self._mul_tables[r] = table
        return table

    # --- constructors ---------------------------------------------------------

    def constant(self, value) -> "Jet":
        value = np.asarray(value, dtype=np.float64)
        c = np.zeros((self.ncoef,) + value.shape)
        c[0] = value
        return Jet(self, c, self.order)

    def variable(self, name, value) -> "Jet":
        jet = self.constant(value)
        if self.order >= 1:
            jet.c[self.index[tuple(1 if v == name else 0 for v in self.names)]] = 1.0
        return jet

    def point_env(self, values: dict) -> dict:
        """Seeded variable jets for evaluating expressions at a point."""
        return {name: self.variable(name, values[name]) for name in values}


# --- jets ---------------------------------------------------------------------

def _lift(c: np.ndarray, ndim: int) -> np.ndarray:
    """Insert batch axes after the coefficient axis until `c` has `ndim` axes;
    a batch mismatch left after that raises at the `+` or `*`."""
    if c.ndim >= ndim:
        return c
    return c.reshape(c.shape[:1] + (1,) * (ndim - c.ndim) + c.shape[1:])


class Jet:
    """Truncated multivariate Taylor expansion with plain-partial coefficients.

    `order` is the effective order, at most the space's order (derivatives and
    products lower it).  `c` holds only the rows of total degree <= `order`, the
    graded prefix of the space's multi-index table: shape
    `(space.nrows[order],) + batch`.
    """

    __slots__ = ("space", "c", "order", "_embedded")

    def __init__(self, space: JetSpace, c: np.ndarray, order: int):
        self.space = space
        self.c = c
        self.order = order
        self._embedded = None

    def _in(self, space: JetSpace) -> "Jet":
        """This jet in `space`, whose names extend this jet's own; remembered.

        Both tables are in graded order, so the rows of `space` whose extra
        exponents are all 0 are this jet's rows, in the same order."""
        up = self._embedded
        if up is None or up.space is not space:
            m = self.space.m
            if space.names[:m] != self.space.names:
                raise ValueError(f"jets over {self.space.names} and {space.names} do not "
                                 "combine: neither variable list is a prefix of the other")
            order = min(self.order, space.order)
            own = ~space.exps[:space.nrows[order], m:].any(axis=1)
            c = np.zeros(own.shape + self.c.shape[1:])
            c[own] = self.c[:self.space.nrows[order]]
            up = self._embedded = Jet(space, c, order)
        return up

    def _common(self, other: "Jet"):
        """Both jets in the space of the one with more variables."""
        if self.space.names == other.space.names:
            return self, other
        if self.space.m < other.space.m:
            return self._in(other.space), other
        return self, other._in(self.space)

    @property
    def value(self):
        return self.c[0]

    def partial(self, mu) -> np.ndarray:
        """Plain mixed partial for the multi-index `mu` over the jet's own
        space variables (an x-only jet takes an x-only multi-index)."""
        if sum(mu) > self.order:
            raise OrderLimitError(f"partial {mu} beyond effective order {self.order}")
        return self.c[self.space.index[tuple(mu)]]

    def coefficients(self) -> dict:
        """Full coefficient table {multi-index: plain partial} up to the effective order."""
        return {tuple(int(v) for v in e): c for e, c in zip(self.space.exps, self.c)}

    # --- arithmetic -----------------------------------------------------------

    def _align(self, other):
        """Coefficients and a plain array that broadcasts against their batch."""
        other = np.asarray(other, dtype=np.float64)
        return _lift(self.c, other.ndim + 1), other

    @staticmethod
    def _align_pair(a: np.ndarray, b: np.ndarray):
        """Two coefficient arrays whose batches (of any rank) broadcast."""
        ndim = max(a.ndim, b.ndim)
        return _lift(a, ndim), _lift(b, ndim)

    def __add__(self, other):
        if isinstance(other, Jet):
            self, other = self._common(other)
            order = min(self.order, other.order)
            n = self.space.nrows[order]
            a, b = self._align_pair(self.c[:n], other.c[:n])
            return Jet(self.space, a + b, order)
        c, other = self._align(other)
        head = c[0] + other
        c = np.broadcast_to(c, c.shape[:1] + head.shape).copy()
        c[0] = head
        return Jet(self.space, c, self.order)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.space, -self.c, self.order)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            c, other = self._align(other)
            return Jet(self.space, c * other, self.order)
        self, other = self._common(other)
        sp = self.space
        r = min(self.order, other.order)
        ii, jj, ww, starts = sp._mul_table(r)
        a, b = self._align_pair(self.c, other.c)
        prod = a[ii] * b[jj]
        prod *= ww.reshape((-1,) + (1,) * (prod.ndim - 1))
        return Jet(sp, np.add.reduceat(prod, starts, axis=0), r)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        c, other = self._align(other)
        if not np.all(other != 0):
            raise DomainEvalError("division by zero")
        return Jet(self.space, c / other, self.order)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, p):
        p = float(p)
        if p.is_integer():
            return self._int_pow(int(p))
        # real exponent: exp(p*log(f)), requires a positive base
        return (p * self.log()).exp()

    def _int_pow(self, k: int):
        if k == 0:
            return self.space.constant(np.ones(self.c.shape[1:]))
        base = self if k > 0 else self.reciprocal()
        k = abs(k)
        result = None
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # --- derivatives ------------------------------------------------------------

    def deriv(self, name: str) -> "Jet":
        """Partial derivative; lowers the effective order by one. By a name
        outside the jet's space it is a zero jet."""
        if self.order == 0:
            raise OrderLimitError("derivative of an order-0 jet has no trustworthy coefficients")
        sp = self.space
        order = self.order - 1
        if name not in sp.var_pos:
            return Jet(sp, np.zeros((sp.nrows[order],) + self.c.shape[1:]), order)
        return Jet(sp, self.c[sp._deriv_idx[sp.var_pos[name], :sp.nrows[order]]], order)

    # --- analytic functions (truncated composition h(f) = sum h_k (f-f0)^k) ----

    def _compose(self, taylor_coeffs):
        """taylor_coeffs[k] = h^(k)(value)/k!, each a scalar or batch array."""
        u = Jet(self.space, self.c.copy(), self.order)
        u.c[0] = 0.0
        # the constant term, truncated like `self`: an order-0 argument stays order 0
        acc = Jet(self.space, np.zeros((self.space.nrows[self.order],) + self.c.shape[1:]),
                  self.order)
        acc.c[0] = taylor_coeffs[0]
        power = None
        for k in range(1, self.order + 1):
            power = u if power is None else power * u
            acc = acc + power * taylor_coeffs[k]
        return acc

    def reciprocal(self):
        a = self.value
        if not np.all(np.asarray(a) != 0):
            raise DomainEvalError("division by zero")
        return self._compose([(-1.0) ** k / a ** (k + 1) for k in range(self.order + 1)])

    def sqrt(self):
        a = self.value
        if not np.all(np.asarray(a) > 0):
            raise DomainEvalError("sqrt of a non-positive value")
        coeffs, acc, fact = [], np.sqrt(a), 1.0
        for k in range(self.order + 1):
            coeffs.append(acc / fact)
            acc = acc * (0.5 - k) / a
            fact *= k + 1
        return self._compose(coeffs)

    def exp(self):
        e = np.exp(self.value)
        fact = [math.factorial(k) for k in range(self.order + 1)]
        return self._compose([e / fact[k] for k in range(self.order + 1)])

    def log(self):
        a = self.value
        if not np.all(np.asarray(a) > 0):
            raise DomainEvalError("log of a non-positive value")
        coeffs = [np.log(a)]
        for k in range(1, self.order + 1):
            coeffs.append((-1.0) ** (k - 1) / (k * a ** k))
        return self._compose(coeffs)

    def sin(self):
        return self._trig(np.sin(self.value), np.cos(self.value))

    def cos(self):
        return self._trig(np.cos(self.value), -np.sin(self.value))

    def _trig(self, f0, f1):
        cycle = [f0, f1, -f0, -f1]
        return self._compose([cycle[k % 4] / math.factorial(k) for k in range(self.order + 1)])

    def tan(self):
        c = self.cos()
        if not np.all(np.asarray(c.value) != 0):
            raise DomainEvalError("tan at a pole of cos")
        return self.sin() / c

    def atan(self):
        # Taylor coefficients of atan at a: integrate the reciprocal series of
        # 1 + (a+s)^2 = (1+a^2) + 2a s + s^2 term by term.
        a = np.asarray(self.value, dtype=np.float64)
        K = self.order
        coeffs = [np.arctan(a)]
        if K >= 1:
            q0 = 1.0 + a * a
            q1 = 2.0 * a
            w = [1.0 / q0]
            for k in range(1, K):
                s = q1 * w[k - 1]
                if k >= 2:
                    s = s + w[k - 2]
                w.append(-s / q0)
            for k in range(1, K + 1):
                coeffs.append(w[k - 1] / k)
        return self._compose(coeffs)


def sum_terms(terms):
    """((t₀ + t₁) + t₂) + …: a left fold, so the summation order, and with it
    every bit of the result, is fixed. Works on jets, arrays and numbers."""
    acc = terms[0]
    for t in terms[1:]:
        acc = acc + t
    return acc


# --- expression evaluation on jets ---------------------------------------------

_FUNC_TABLE = {
    "sqrt": Jet.sqrt, "exp": Jet.exp, "log": Jet.log,
    "sin": Jet.sin, "cos": Jet.cos, "tan": Jet.tan, "atan": Jet.atan,
}


def eval_ast(node, env: dict) -> Jet:
    """Evaluate an expression AST in an environment of jets (and numbers)."""
    result = _eval(node, env)
    if not isinstance(result, Jet):
        jet = next(v for v in env.values() if isinstance(v, Jet))
        return jet.space.constant(np.broadcast_to(result, jet.c.shape[1:]))
    return result


def _eval(node, env):
    if isinstance(node, ex.Const):
        return node.value
    if isinstance(node, ex.Var):
        return env[node.name]
    if isinstance(node, ex.BinOp):
        a = _eval(node.left, env)
        b = _eval(node.right, env)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if not isinstance(b, Jet) and not np.all(np.asarray(b) != 0):
            raise DomainEvalError("division by zero")
        return a / b
    if isinstance(node, ex.Pow):
        base = _eval(node.base, env)
        if isinstance(base, Jet):
            return base ** node.exponent
        p = node.exponent
        if float(p).is_integer():
            return base ** int(p)
        if not np.all(np.asarray(base) > 0):
            raise DomainEvalError("real power of a non-positive base")
        return base ** p
    if isinstance(node, ex.Func):
        arg = _eval(node.arg, env)
        if isinstance(arg, Jet):
            return _FUNC_TABLE[node.name](arg)
        if node.name in ("sqrt", "log") and not np.all(np.asarray(arg) > 0):
            raise DomainEvalError(f"{node.name} of a non-positive value")
        return getattr(np, {"atan": "arctan"}.get(node.name, node.name))(arg)
    raise TypeError(f"not an AST node: {node!r}")


def eval_jet(ast, point: dict, order: int) -> Jet:
    """All mixed partials of `ast` at `point` up to total order `order`.

    `point` maps every free variable to a value; the variable enumeration
    order of the coefficient table follows the key order of `point`.
    """
    if order > K_MAX:
        raise OrderLimitError(f"order {order} exceeds K_max = {K_MAX}")
    space = jet_space(tuple(point), order)
    return eval_ast(ast, space.point_env({k: np.asarray(v, dtype=np.float64) for k, v in point.items()}))

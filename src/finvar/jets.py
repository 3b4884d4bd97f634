"""Taylor-mode automatic differentiation on multivariate truncated jets.

A Jet holds every mixed partial derivative of a scalar quantity up to a
total order K, stored as *plain* partial values (not divided by the
factorial of the multi-index).  Multi-indices are enumerated in graded
lexicographic order, so coefficient tables are comparable bit-for-bit
across runs.

Coefficients carry an optional trailing batch shape, so one Jet can
represent the same expression evaluated at many fiber points at once;
all arithmetic broadcasts over the batch.
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
        # zero-out masks by effective order
        self._trunc_mask = [self.degrees <= r for r in range(order + 1)]

    def _mul_table(self, r: int):
        """Leibniz triples for products valid to total order r, grouped by output index."""
        table = self._mul_tables.get(r)
        if table is not None:
            return table
        ii, jj, kk, ww = [], [], [], []
        low = [i for i in range(self.ncoef) if self.degrees[i] <= r]
        by_deg: dict = {}
        for i in low:
            by_deg.setdefault(self.degrees[i], []).append(i)
        for i in low:
            ei = self.exps[i]
            for dj in range(r - self.degrees[i] + 1):
                for j in by_deg.get(dj, ()):
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
        n_out = int(np.sum(self.degrees <= r))
        starts = np.searchsorted(kk, np.arange(n_out))
        table = (ii, jj, ww, starts, n_out)
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

class Jet:
    """Truncated multivariate Taylor expansion with plain-partial coefficients.

    `order` is the effective order: coefficients of total degree above it are
    identically zero and carry no information (they appear when derivatives
    or products reduce the trustworthy order below the space's capacity).
    """

    __slots__ = ("space", "c", "order")

    def __init__(self, space: JetSpace, c: np.ndarray, order: int):
        self.space = space
        self.c = c
        self.order = order

    @property
    def value(self):
        return self.c[0]

    def partial(self, mu) -> np.ndarray:
        """Plain mixed partial for the multi-index `mu` (tuple over space vars)."""
        if sum(mu) > self.order:
            raise OrderLimitError(f"partial {mu} beyond effective order {self.order}")
        return self.c[self.space.index[tuple(mu)]]

    def coefficients(self) -> dict:
        """Full coefficient table {multi-index: plain partial} up to the effective order."""
        sp = self.space
        return {tuple(int(v) for v in sp.exps[i]): self.c[i]
                for i in range(sp.ncoef) if sp.degrees[i] <= self.order}

    # --- arithmetic -----------------------------------------------------------

    def _align(self, other):
        """Expand coefficient axes so a plain array broadcasts against the batch."""
        other = np.asarray(other, dtype=np.float64)
        batch = np.broadcast_shapes(self.c.shape[1:], other.shape)
        c = self.c.reshape(self.c.shape[:1] + (1,) * (len(batch) - self.c.ndim + 1) + self.c.shape[1:])
        return c, other, batch

    @staticmethod
    def _align_pair(a: np.ndarray, b: np.ndarray):
        """Insert batch axes so two coefficient arrays broadcast against
        each other (batch shapes may differ in rank)."""
        batch = np.broadcast_shapes(a.shape[1:], b.shape[1:])
        nb = len(batch)
        a = a.reshape(a.shape[:1] + (1,) * (nb - (a.ndim - 1)) + a.shape[1:])
        b = b.reshape(b.shape[:1] + (1,) * (nb - (b.ndim - 1)) + b.shape[1:])
        return a, b

    def __add__(self, other):
        if isinstance(other, Jet):
            a, b = self._align_pair(self.c, other.c)
            return Jet(self.space, a + b, min(self.order, other.order))
        c, other, batch = self._align(other)
        c = np.broadcast_to(c, (self.space.ncoef,) + batch).copy()
        c[0] = c[0] + other
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
            c, other, _ = self._align(other)
            return Jet(self.space, c * other, self.order)
        sp = self.space
        r = min(self.order, other.order)
        ii, jj, ww, starts, n_out = sp._mul_table(r)
        a, b = self._align_pair(self.c, other.c)
        prod = a[ii] * b[jj]
        prod *= ww.reshape((-1,) + (1,) * (prod.ndim - 1))
        out = np.add.reduceat(prod, starts, axis=0)
        c = np.zeros((sp.ncoef,) + prod.shape[1:])
        c[:n_out] = out
        return Jet(sp, c, r)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        c, other, _ = self._align(other)
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
        """Partial derivative; lowers the effective order by one."""
        if self.order == 0:
            raise OrderLimitError("derivative of an order-0 jet has no trustworthy coefficients")
        sp = self.space
        idx = sp._deriv_idx[sp.var_pos[name]]
        valid = idx >= 0
        c = np.zeros_like(self.c)
        c[valid] = self.c[idx[valid]]
        order = max(self.order - 1, 0)
        c[~sp._trunc_mask[order]] = 0.0
        return Jet(sp, c, order)

    # --- analytic functions (truncated composition h(f) = sum h_k (f-f0)^k) ----

    def _compose(self, taylor_coeffs):
        """taylor_coeffs[k] = h^(k)(value)/k!, each a scalar or batch array."""
        u = Jet(self.space, self.c.copy(), self.order)
        u.c[0] = 0.0
        acc = self.space.constant(np.broadcast_to(taylor_coeffs[0], self.c.shape[1:]))
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
        coeffs = []
        c = np.sqrt(a)
        p = 0.5
        fact = 1.0
        acc = c.copy() if isinstance(c, np.ndarray) else c
        for k in range(self.order + 1):
            coeffs.append(acc / fact)
            acc = acc * (p - k) / a
            fact *= (k + 1)
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
        space = next(v.space for v in env.values() if isinstance(v, Jet))
        batch = next(np.asarray(v.value).shape for v in env.values() if isinstance(v, Jet))
        return space.constant(np.broadcast_to(result, batch))
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
        if not isinstance(b, Jet):
            if not np.all(np.asarray(b) != 0):
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

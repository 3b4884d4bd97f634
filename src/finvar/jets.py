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

A jet lives in the space of the variables it was seeded from: a quantity of
the base point x alone in the x-only space `jet_space(xnames, r)`, one of the
fiber coordinate y alone in the y-only space `jet_space(ynames, r)`, and the
(x, y) space appears only where the two meet. At order 6 with two x and two
y names either small space has 28 rows against 210, and a product in it
takes 210 Leibniz triples against 3,003. Where `+` and `*` meet jets of two
spaces (`JetSpace._route`, cached per pair of space objects):

- when one jet's names are among the other's, it is embedded into the other
  space by name (`JetSpace._sub_rows`: its rows scattered into zeros at the
  rows that involve the other names), and the larger space's arithmetic
  runs; each jet keeps its embedded copy, so a shared jet is embedded once;
- when the names are disjoint, the jets meet in their union: the two name
  lists joined in sorted order of the lists, so x names come before y names
  and one (x, y) space serves every product. A sum embeds both jets.
  A product such as βᵢ(x)·yⁱ is one gather and multiply
  (`JetSpace._outer_rows`): each row of the union has exactly one Leibniz
  pair with both factors nonzero, of weight 1, so there is no table and no
  `np.add.reduceat`;
- names that overlap with neither set holding the other do not combine.

This changes no bit against evaluating everything in the (x, y) space: a row
of a product of two jets of one small space sums the same Leibniz pairs in
the same order in either space, and the full table's sum for a row of a
disjoint product is its one pair plus exact zeros. Only the sign of a zero
coefficient can differ, and 0 × inf or 0 × NaN, which the full table would
add in as NaN. A mixed product of an embedded jet runs the larger space's
full table, zeros included, because skipping them would regroup
`np.add.reduceat`'s sums. `deriv` by a name outside the jet's space gives a
zero jet, and `partial(mu)` takes a multi-index over the jet's own space, so
an x-only jet is read with an x-only multi-index.

Arithmetic pays only for coefficients it can change. `+`, `-` and `*` of two
jets of one space object and one batch rank go straight to their NumPy
kernel; the embedding runs only for two spaces and the batch alignment only
for two batch ranks. `a - b` is one subtraction, bitwise the sum with the
negation. Each jet carries a `zero` flag, True only when every coefficient is
exactly 0, set where that is known when the jet is made (see `Jet`). A
product with a zero factor is a fresh zero jet and runs no Leibniz kernel; a
sum with a zero term is the other term when that one already has the result's
space, order and batch shape. Neither changes a nonzero coefficient, since
x + 0 = x. They can change only the sign of a zero coefficient, and 0 × inf
or 0 × NaN, which is 0 on the skipped path where the kernel gives NaN.

A row of degree d of a result reads only the operands' rows of degree <= d
(<= d + 1 for `deriv`): a product row sums its own Leibniz pairs, in the same
order and at the same place in the table of every order >= d, and a sum,
a gather or a composition is row by row. So a jet's rows of degree <= r form a
prefix that does not depend on its higher rows, and `Jet.truncated(r)`, a
view of that prefix, gives every later operation the same rows bit for bit.
A sum keeps the least order of its terms (`least_order`); where a term would
be built above that order, the engine cuts a factor to the sum's order
first, so no product computes rows the sum throws away (truncated Taylor
propagation, Griewank & Walther, *Evaluating Derivatives*, 2nd ed., ch. 13).
A cut can change only the sign of a zero coefficient, where the zero rules
above skip a term or a factor of the cut jet that they ran on the uncut one.

`AstEvaluator` evaluates a family of expression ASTs in one environment, each
distinct node object once: ASTs that share subtrees share their jets.
`eval_ast` evaluates one AST the same way, keeping only the values it reads
again.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import expressions as ex
from .errors import DomainEvalError, OrderLimitError

K_MAX = 8  # τ₂ and the Hessian integrand need order 6 (finsler.ORDER_TABLE); tests use 8


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
        self._routes: dict = {}
        self._sub_row_cache: dict = {}
        self._outer_row_cache: dict = {}
        # all orders' tables are built with the space: `benchmarks/tracing.py`
        # reads the left operand's table at a product's order, also when the
        # product ran another space's table or the outer-product gather
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

    def _route(self, other: "JetSpace"):
        """(space, embed_self, embed_other): the space where a jet of this
        space meets a jet of `other`, and which of the two is embedded there;
        remembered per `other`.

        Equal name lists share this space (their rows agree up to the smaller
        order); otherwise the jet whose names are among the other's embeds
        into the other space, and jets over disjoint names meet in their
        union, the two name lists joined in sorted order of the lists (x names
        before y names), at the larger of the two orders. Names that overlap
        without one set holding the other do not combine."""
        route = self._routes.get(other)
        if route is None:
            na, nb = set(self.names), set(other.names)
            if self.names == other.names:
                route = (self, False, False)
            elif nb <= na:
                route = (self, False, True)
            elif na <= nb:
                route = (other, True, False)
            elif na.isdisjoint(nb):
                first, second = sorted((self.names, other.names))
                route = (jet_space(first + second, max(self.order, other.order)), True, True)
            else:
                raise ValueError(f"jets over {self.names} and {other.names} do not combine: "
                                 "neither variable set contains the other")
            self._routes[other] = route
        return route

    def _rows_of(self, e: np.ndarray, sub: "JetSpace") -> np.ndarray:
        """For each row of the exponent table `e` over this space's names, the
        row of `sub` whose exponents are its exponents at `sub`'s names."""
        part = e[:, [self.var_pos[name] for name in sub.names]]
        return np.array([sub.index[tuple(mu)] for mu in part.tolist()], dtype=np.int64)

    def _sub_rows(self, sub: "JetSpace", order: int) -> np.ndarray:
        """Where the rows of degree <= `order` of `sub`, whose names are all
        among this space's, sit in this space: where a jet of `sub` embeds."""
        rows = self._sub_row_cache.get((sub, order))
        if rows is None:
            e = np.zeros((sub.nrows[order], self.m), dtype=np.int64)
            e[:, [self.var_pos[name] for name in sub.names]] = sub.exps[:sub.nrows[order]]
            rows = np.array([self.index[tuple(mu)] for mu in e.tolist()], dtype=np.int64)
            self._sub_row_cache[(sub, order)] = rows
        return rows

    def _outer_rows(self, sa: "JetSpace", sb: "JetSpace", r: int):
        """For each row of degree <= r of this space, the union of the
        disjoint spaces `sa` and `sb`: the row of `sa` and the row of `sb`
        whose product is its one Leibniz pair (of weight 1)."""
        rows = self._outer_row_cache.get((sa, sb, r))
        if rows is None:
            e = self.exps[:self.nrows[r]]
            rows = self._outer_row_cache[(sa, sb, r)] = (self._rows_of(e, sa),
                                                         self._rows_of(e, sb))
        return rows

    # --- constructors ---------------------------------------------------------

    def constant(self, value) -> "Jet":
        return self._seeded(value, None)

    def variable(self, name, value) -> "Jet":
        if name not in self.var_pos:
            raise ValueError(f"{name!r} is not a variable of the jet space {self.names}")
        return self._seeded(value, name if self.order >= 1 else None)

    def _seeded(self, value, name) -> "Jet":
        """The jet of value + (name - value), or of the constant when `name`
        is None; its coefficients are final before the jet is made."""
        value = np.asarray(value, dtype=np.float64)
        c = np.zeros((self.ncoef,) + value.shape)
        c[0] = value
        if name is not None:
            c[self.index[tuple(1 if v == name else 0 for v in self.names)]] = 1.0
        return Jet(self, c, self.order, name is None and not value.any())

    def zeros(self, order: int, batch: tuple) -> "Jet":
        """A fresh zero jet of effective order `order` over a batch of shape `batch`."""
        return Jet(self, np.zeros((self.nrows[order],) + batch), order, True)

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


_NUMBERS = (float, int)   # Python numbers (and NumPy float64): no array coercion


class Jet:
    """Truncated multivariate Taylor expansion with plain-partial coefficients.

    `order` is the effective order, at most the space's order (derivatives and
    products lower it).  `c` holds only the rows of total degree <= `order`, the
    graded prefix of the space's multi-index table: shape
    `(space.nrows[order],) + batch`.

    `zero` is True only when every coefficient is exactly 0 (either sign). It
    is set where that is known for free or by one small `any()`: a constant
    of zero, `deriv` by an absent name, of a zero jet or with all gathered
    rows 0, a product with a zero factor, the negation or embedding of a zero
    and the sum of two zeros. It may be False on a zero jet, never True on
    another, so `c` is never written after a jet is made.
    """

    __slots__ = ("space", "c", "order", "zero", "_embedded")

    def __init__(self, space: JetSpace, c: np.ndarray, order: int, zero: bool = False):
        self.space = space
        self.c = c
        self.order = order
        self.zero = zero
        self._embedded = None

    def _in(self, space: JetSpace) -> "Jet":
        """This jet in `space`, which has every one of this jet's names; remembered.

        A row of `space` whose exponents at the other names are all 0 is a
        row of this jet (`JetSpace._sub_rows`); every other row is 0."""
        up = self._embedded
        if up is None or up.space is not space:
            order = min(self.order, space.order)
            c = np.zeros((space.nrows[order],) + self.c.shape[1:])
            c[space._sub_rows(self.space, order)] = self.c[:self.space.nrows[order]]
            up = self._embedded = Jet(space, c, order, self.zero)
        return up

    def _common(self, other: "Jet"):
        """Both jets in the space where they meet (`JetSpace._route`)."""
        space, embed_a, embed_b = self.space._route(other.space)
        return (self._in(space) if embed_a else self), (other._in(space) if embed_b else other)

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

    def truncated(self, order: int) -> "Jet":
        """This jet cut to effective order `order`: its graded prefix of rows,
        a view with no copy and the same `zero` flag; the jet itself when it
        is already of order <= `order`. Every row of an operation's result
        reads only the operands' rows of at most its own degree (see the
        module docstring), so a term cut to the order its sum keeps gives
        that sum's rows bit for bit."""
        if order >= self.order:
            return self
        if order < 0:
            raise OrderLimitError(f"jet order {order} is below 0")
        return Jet(self.space, self.c[:self.space.nrows[order]], order, self.zero)

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

    def _sum(self, other: "Jet", subtract: bool) -> "Jet":
        """self + other, or self - other in one `np.subtract` (IEEE defines
        x - y as x + (-y), so the bits are those of the sum with a negation).

        A zero term is skipped when the other term already is the result:
        same space, order and batch shape. x + 0 = x for every nonzero x, so
        that changes at most the sign of a zero coefficient."""
        a, b = (self, other) if self.space is other.space else self._common(other)
        order = min(a.order, b.order)
        if b.zero and a.order == order and (b.c.ndim == 1 or b.c.shape[1:] == a.c.shape[1:]):
            return a
        if a.zero and not subtract and b.order == order and b.space is a.space \
                and (a.c.ndim == 1 or a.c.shape[1:] == b.c.shape[1:]):
            return b
        ac, bc = a.c, b.c
        if a.order != b.order:
            n = a.space.nrows[order]
            ac, bc = ac[:n], bc[:n]
        if ac.ndim != bc.ndim:
            ac, bc = self._align_pair(ac, bc)
        c = np.subtract(ac, bc) if subtract else np.add(ac, bc)
        return Jet(a.space, c, order, a.zero and b.zero)

    def _shift(self, other, subtract: bool) -> "Jet":
        """self ± a number or array, which moves only the value row."""
        if isinstance(other, _NUMBERS):
            c = self.c.copy()
        else:
            c, other = self._align(other)
            c = np.broadcast_to(c, c.shape[:1] + np.broadcast_shapes(c.shape[1:], other.shape))
            c = c.copy()
        c[0] = c[0] - other if subtract else c[0] + other
        return Jet(self.space, c, self.order)

    def __add__(self, other):
        if isinstance(other, Jet):
            return self._sum(other, False)
        return self._shift(other, False)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.space, -self.c, self.order, self.zero)

    def __sub__(self, other):
        if isinstance(other, Jet):
            return self._sum(other, True)
        return self._shift(other, True)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """The Leibniz product (a gather for disjoint spaces, see the module
        docstring), or the scaled coefficients for a number.

        A product with a zero factor is a fresh zero jet and runs no kernel,
        so 0 × inf and 0 × NaN give 0 there, where the kernel gives NaN."""
        if not isinstance(other, Jet):
            if isinstance(other, _NUMBERS):
                return Jet(self.space, self.c * other, self.order,
                           self.zero and math.isfinite(other))
            c, other = self._align(other)
            return Jet(self.space, c * other, self.order)
        a, b, sp, outer = self, other, self.space, False
        if other.space is not sp:
            sp, embed_a, embed_b = sp._route(other.space)
            outer = embed_a and embed_b
            if embed_a != embed_b:
                a, b = (self._in(sp), other) if embed_a else (self, other._in(sp))
        r = min(a.order, b.order)
        ac, bc = a.c, b.c
        if a.zero or b.zero:
            batch = ac.shape[1:]
            if bc.shape[1:] != batch:
                batch = np.broadcast_shapes(batch, bc.shape[1:])
            return sp.zeros(r, batch)
        if ac.ndim != bc.ndim:
            ac, bc = self._align_pair(ac, bc)
        if outer:
            ia, ib = sp._outer_rows(a.space, b.space, r)
            return Jet(sp, ac[ia] * bc[ib], r)
        ii, jj, ww, starts = sp._mul_tables[r]
        prod = ac[ii] * bc[jj]
        prod *= ww if prod.ndim == 1 else ww.reshape((-1,) + (1,) * (prod.ndim - 1))
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
            return sp.zeros(order, self.c.shape[1:])
        c = self.c[sp._deriv_idx[sp.var_pos[name], :sp.nrows[order]]]
        return Jet(sp, c, order, self.zero or not c.any())

    # --- analytic functions (truncated composition h(f) = sum h_k (f-f0)^k) ----

    def _compose(self, taylor_coeffs):
        """taylor_coeffs[k] = h^(k)(value)/k!, each a scalar or batch array."""
        c = self.c.copy()
        c[0] = 0.0
        u = Jet(self.space, c, self.order, self.zero)
        # the constant term, truncated like `self`: an order-0 argument stays order 0
        c = np.zeros((self.space.nrows[self.order],) + self.c.shape[1:])
        c[0] = taylor_coeffs[0]
        acc = Jet(self.space, c, self.order)
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


def least_order(*tables) -> int:
    """The least effective order of the jets in `tables` (jets or nested
    lists of jets): the order a sum or product of them keeps."""
    return min(t.order if isinstance(t, Jet) else least_order(*t) for t in tables)


def truncated(table, order: int):
    """A jet or a nested list of jets, each cut to `order` (`Jet.truncated`)."""
    if isinstance(table, Jet):
        return table.truncated(order)
    return [truncated(t, order) for t in table]


# --- expression evaluation on jets ---------------------------------------------

_FUNC_TABLE = {
    "sqrt": Jet.sqrt, "exp": Jet.exp, "log": Jet.log,
    "sin": Jet.sin, "cos": Jet.cos, "tan": Jet.tan, "atan": Jet.atan,
}


class AstEvaluator:
    """Jets of a family of expression ASTs in one environment of jets (and
    numbers), such as a `RiemannStructure`'s derivative table at one point.

    Each distinct node object is evaluated once, and its value is kept,
    under the node's identity, for every later AST of the family that
    contains it, so ASTs that share subtrees share their subexpression jets.
    A node's jet is a pure function of its children's jets, so sharing
    changes no bit. Keys are identities, never dataclass equality, which
    would merge `Const(0.0)` with `Const(-0.0)`.
    """

    def __init__(self, env: dict):
        self.env = env
        self._memo: dict = {}     # id(node) -> (node, jet or number)

    def __call__(self, node) -> Jet:
        result = self._eval(node)
        if not isinstance(result, Jet):
            jet = next(v for v in self.env.values() if isinstance(v, Jet))
            return jet.space.constant(np.broadcast_to(result, jet.c.shape[1:]))
        return result

    def _keeps(self, node) -> bool:
        """Whether `node`'s value is kept for later reads: always, in a family."""
        return True

    def _eval(self, node):
        hit = self._memo.get(id(node))
        if hit is not None:
            return hit[1]
        value = self._compute(node)
        if self._keeps(node):
            self._memo[id(node)] = (node, value)
        return value

    def _compute(self, node):
        if isinstance(node, ex.Const):
            return node.value
        if isinstance(node, ex.Var):
            return self.env[node.name]
        if isinstance(node, ex.BinOp):
            a = self._eval(node.left)
            b = self._eval(node.right)
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
            base = self._eval(node.base)
            if isinstance(base, Jet):
                return base ** node.exponent
            p = node.exponent
            if float(p).is_integer():
                return base ** int(p)
            if not np.all(np.asarray(base) > 0):
                raise DomainEvalError("real power of a non-positive base")
            return base ** p
        if isinstance(node, ex.Func):
            arg = self._eval(node.arg)
            if isinstance(arg, Jet):
                return _FUNC_TABLE[node.name](arg)
            if node.name in ("sqrt", "log") and not np.all(np.asarray(arg) > 0):
                raise DomainEvalError(f"{node.name} of a non-positive value")
            return getattr(np, {"atan": "arctan"}.get(node.name, node.name))(arg)
        raise TypeError(f"not an AST node: {node!r}")


class _SingleAst(AstEvaluator):
    """One AST: keeps only the values of the nodes it reads more than once.

    An AST without shared subtrees (a parsed one) then holds no more jets at
    a time than a recursive walk, one per pending operand, which matters for
    jets batched over many fibers."""

    def __init__(self, env: dict, root):
        super().__init__(env)
        seen, self._shared, stack = set(), set(), [root]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                self._shared.add(id(node))
                continue
            seen.add(id(node))
            stack.extend(getattr(node, f) for f in _CHILDREN.get(type(node), ()))

    def _keeps(self, node) -> bool:
        return id(node) in self._shared


_CHILDREN = {ex.BinOp: ("left", "right"), ex.Pow: ("base",), ex.Func: ("arg",)}


def eval_ast(node, env: dict) -> Jet:
    """Evaluate an expression AST in an environment of jets (and numbers),
    each distinct node object once."""
    return _SingleAst(env, node)(node)


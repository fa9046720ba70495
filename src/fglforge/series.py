"""Exact truncated power series in one and several variables.

One-variable series are dense lists of coefficients c_0..c_N (x^{N+1} and
beyond are unknown, not zero).  Multivariable series are sparse maps from
exponent tuples to coefficients, truncated by total degree.  Every operation
computes its exact output precision: sums and products keep the minimum of
the operand precisions and the derivative drops one order.

Coefficients can live in any ring object following the RingElement
interface (the closed coefficient-ring family or a graded polynomial ring).
A series stores the canonical payloads of its coefficients, and its
arithmetic runs on the ring's payload hooks: _add, _neg and _mul, and the
multiply-accumulate hooks _operand, _mul_add and _settle for sums of
products.  Sums, scaling, products, composition and substitution all run
through the loops of one payload shape per kind of series, dense lists or
sparse maps, with no branch on the ring.  Both series classes share one body
(_Series) that reads the class's shape, so composition and substitution
take the shape and the origin from the series with no branch on its class.
The public constructors unbox the ring elements they are given;
coefficient() and the coeffs view box what they read.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .errors import (
    InsufficientPrecision,
    NonUnitLinearCoefficient,
    NonzeroConstantTerm,
    RingMismatch,
)
from .rings import RingElement, sparse_add


def _coerce_scalar(ring, c):
    if isinstance(c, int):
        return ring.from_int(c)
    if isinstance(c, Fraction):
        return ring.from_fraction(c)
    if c.ring != ring:
        raise RingMismatch("scalar lives in a different ring")
    return c


# -- payload shapes -------------------------------------------------------------
# A one-variable series on payloads is a list c_0..c_n with its zeros; a
# multi-variable one is a map from exponent tuples to nonzero payloads.  Each
# shape has one product loop, shared by the series' *, composition and the
# substitution core.  A product adds into accumulators (None for the empty
# sum), which settle once; a right factor is prepared once, through the
# ring's _operand.


class _Dense:
    """Payload lists c_0..c_n."""

    def accumulators(self, n):
        return [None] * (n + 1)

    def prepare(self, ring, b):
        operand, is_zero = ring._operand, ring._is_zero
        return [(j, operand(q)) for j, q in enumerate(b) if not is_zero(q)]

    def product(self, ring, accs, a, right, n):
        """Add the products a_i b_j with i + j <= n into accs[i + j], by
        increasing i."""
        mul_add, is_zero = ring._mul_add, ring._is_zero
        for i, p in enumerate(a[: n + 1]):
            if is_zero(p):
                continue
            room = n - i
            for j, q in right:
                if j > room:
                    break
                accs[i + j] = mul_add(accs[i + j], p, q)
        return accs

    def add(self, ring, a, b):
        add = ring._add
        return [add(p, q) for p, q in zip(a, b)]

    def neg(self, ring, a):
        neg = ring._neg
        return [neg(p) for p in a]

    def scale(self, ring, a, c):
        mul = ring._mul
        return [mul(c, p) for p in a]

    def settle(self, ring, accs):
        settle, zero = ring._settle, ring.zero().payload
        return [zero if p is None else settle(p) for p in accs]

    def cut(self, a, n):
        """The payloads of c_0..c_n."""
        return a[: n + 1]

    def box(self, ring, a):
        return tuple([RingElement(ring, p) for p in a])


class _Sparse:
    """Maps from exponent tuples to nonzero payloads.  A sum leaves its map as
    it cancels and comes back when it is added to again."""

    def accumulators(self, n):
        return {}

    def prepare(self, ring, b):
        operand = ring._operand
        return [(k, sum(k), operand(q)) for k, q in b.items()]

    def product(self, ring, out, a, right, n):
        """Add the products of the terms of a and b of total degree at most n
        into out; b is walked in its own order, which fixes the order of new
        keys."""
        mul_add, is_zero = ring._mul_add, ring._is_zero
        for k1, p in a.items():
            room = n - sum(k1)
            if room < 0:
                continue
            for k2, d2, q in right:
                if d2 > room:
                    continue
                k = tuple(map(operator.add, k1, k2))
                acc = mul_add(out.get(k), p, q)
                if is_zero(acc):
                    out.pop(k, None)
                else:
                    out[k] = acc
        return out

    add = staticmethod(sparse_add)

    def neg(self, ring, a):
        neg = ring._neg
        return {k: neg(p) for k, p in a.items()}

    def scale(self, ring, a, c):
        mul, is_zero = ring._mul, ring._is_zero
        out = {}
        for k, p in a.items():
            q = mul(c, p)
            if not is_zero(q):
                out[k] = q
        return out

    def settle(self, ring, out):
        settle = ring._settle
        return {k: settle(acc) for k, acc in out.items()}

    def cut(self, a, n):
        """The nonzero payloads of total degree at most n."""
        return {k: p for k, p in a.items() if sum(k) <= n}

    def box(self, ring, a):
        return {k: RingElement(ring, p) for k, p in a.items()}


_DENSE, _SPARSE = _Dense(), _Sparse()


class _Series:
    """What both series classes share, run by the class's payload shape
    (_shape): every result has the ring and variables of self and is built by
    _like(payloads, precision); _origin is the key of the constant term."""

    __slots__ = ("ring", "precision", "payloads")

    @property
    def coeffs(self):
        """The coefficients as ring elements, in the shape of payloads."""
        return self._shape.box(self.ring, self.payloads)

    def truncate(self, precision):
        if not 0 <= precision <= self.precision:
            raise ValueError(f"cannot truncate precision {self.precision} to {precision}")
        return self._like(self._payloads(precision), precision)

    def constant_term(self):
        return self.coefficient(self._origin)

    def _check(self, other):
        if other.ring != self.ring or other._origin != self._origin:
            raise RingMismatch("series are not over the same ring and variables")
        return min(self.precision, other.precision)

    def _payloads(self, n):
        """The payloads of the terms of degree at most n."""
        return self._shape.cut(self.payloads, n)

    # -- arithmetic ------------------------------------------------------
    # on payloads, through the ring's hooks and the class's shape
    def __add__(self, other):
        n = self._check(other)
        return self._like(self._shape.add(self.ring, self._payloads(n), other._payloads(n)), n)

    def __sub__(self, other):
        n = self._check(other)
        shape, ring = self._shape, self.ring
        return self._like(shape.add(ring, self._payloads(n), shape.neg(ring, other._payloads(n))), n)

    def __neg__(self):
        return self._like(self._shape.neg(self.ring, self.payloads), self.precision)

    def __mul__(self, other):
        if isinstance(other, _Series):
            n = self._check(other)
            shape, ring = self._shape, self.ring
            right = shape.prepare(ring, other._payloads(n))
            out = shape.product(ring, shape.accumulators(n), self._payloads(n), right, n)
            return self._like(shape.settle(ring, out), n)
        return self.scale(other)

    def scale(self, c):
        x = _coerce_scalar(self.ring, c).payload
        return self._like(self._shape.scale(self.ring, self.payloads, x), self.precision)

    def __eq__(self, other):
        if not isinstance(other, _Series):
            return NotImplemented
        return (
            self.ring == other.ring
            and self._origin == other._origin
            and self.precision == other.precision
            and self.payloads == other.payloads
        )

    def __hash__(self):
        return hash((self.ring, self._origin, self.precision, len(self.payloads)))


class TruncatedSeries1(_Series):
    """A power series in one variable, exact modulo x^{N+1}: payloads holds
    the canonical payloads of c_0..c_N."""

    __slots__ = ()
    _shape, _origin = _DENSE, 0

    def __init__(self, ring, coeffs, precision=None):
        if precision is None:
            precision = len(coeffs) - 1
        if precision < 0:
            raise ValueError("precision must be nonnegative")
        payloads = [_coerce_scalar(ring, c).payload for c in coeffs[: precision + 1]]
        payloads += [ring.zero().payload] * (precision + 1 - len(payloads))
        self.ring = ring
        self.precision = precision
        self.payloads = tuple(payloads)

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls, ring, precision):
        return cls(ring, [], precision)

    @classmethod
    def constant(cls, ring, value, precision):
        return cls(ring, [value], precision)

    @classmethod
    def x(cls, ring, precision):
        return cls(ring, [ring.zero(), ring.one()], precision)

    @classmethod
    def from_ints(cls, ring, ints, precision=None):
        return cls(ring, list(ints), precision)

    @classmethod
    def from_fractions(cls, ring, values, precision=None):
        return cls(ring, [Fraction(v) for v in values], precision)

    @classmethod
    def _from_payloads(cls, ring, payloads, precision):
        """The series with these canonical payloads as coefficients c_0..c_N."""
        out = object.__new__(cls)
        out.ring = ring
        out.precision = precision
        out.payloads = tuple(payloads)
        return out

    def _like(self, payloads, precision):
        return self._from_payloads(self.ring, payloads, precision)

    # -- basic access -----------------------------------------------------
    def coefficient(self, n: int):
        if not 0 <= n <= self.precision:
            raise IndexError(f"coefficient {n} outside 0..{self.precision}")
        return RingElement(self.ring, self.payloads[n])

    def is_zero(self) -> bool:
        return all(map(self.ring._is_zero, self.payloads))

    # bound in each class's own namespace, where perfbench's tracer finds them
    __mul__ = __rmul__ = _Series.__mul__

    # -- calculus ----------------------------------------------------------
    def derive(self) -> "TruncatedSeries1":
        """d/dx, at precision N-1."""
        if self.precision == 0:
            raise InsufficientPrecision(
                "the derivative of a precision-0 series carries no information"
            )
        ring = self.ring
        out = [ring._mul(p, ring.from_int(n).payload) for n, p in enumerate(self.payloads) if n]
        return self._like(out, self.precision - 1)

    def integrate(self) -> "TruncatedSeries1":
        """Antiderivative with zero constant term, at precision N+1; raises
        when a coefficient has no unique quotient by its new exponent."""
        divide = self.ring.divide
        out = [self.ring.zero().payload]
        for n, c in enumerate(self.payloads):
            out.append(divide(c, n + 1))
        return self._like(out, self.precision + 1)

    # -- composition and friends ---------------------------------------
    def compose(self, inner) -> "TruncatedSeries1":
        """self(inner); inner must vanish at the origin."""
        return compose_series(self, inner)

    def inverse(self) -> "TruncatedSeries1":
        """Multiplicative inverse 1/f for f with unit constant term."""
        ring = self.ring
        if not ring.is_unit(self.payloads[0]):
            raise NonUnitLinearCoefficient("constant term is not a unit")
        mul_add, settle, is_zero = ring._mul_add, ring._settle, ring._is_zero
        operand, mul, neg = ring._operand, ring._mul, ring._neg
        f = [(k, p) for k, p in enumerate(self.payloads) if k and not is_zero(p)]
        c0i = ring.invert(self.payloads[0])
        zero = ring.zero().payload
        out = [c0i]
        # the right factors out[m] prepared once, None when zero
        ops = [None if is_zero(c0i) else operand(c0i)]
        for n in range(1, self.precision + 1):
            acc = None
            for k, a in f:
                if k > n:
                    break
                b = ops[n - k]
                if b is not None:
                    acc = mul_add(acc, a, b)
            p = zero if acc is None else neg(mul(c0i, settle(acc)))
            out.append(p)
            ops.append(None if is_zero(p) else operand(p))
        return self._like(out, self.precision)

    def revert(self) -> "TruncatedSeries1":
        """Compositional inverse g with f(g(x)) = x = g(f(x)).

        Solved coefficient by coefficient from a table of the powers of g
        (Knuth, TAOCP vol. 2, 4.7): [x^m] f(g) = sum_k f_k [x^m] g^k = 0 for
        m >= 2, and [x^m] g^k for k >= 2 needs only g_1..g_{m-1}, so each
        new coefficient costs O(m^2) ring operations.  Only the linear
        coefficient is inverted, so this works over any commutative ring
        where it is a unit.
        """
        ring = self.ring
        mul_add, settle, is_zero = ring._mul_add, ring._settle, ring._is_zero
        operand, mul, neg = ring._operand, ring._mul, ring._neg
        f = self.payloads
        if not is_zero(f[0]):
            raise NonzeroConstantTerm("reversion needs f(0) = 0")
        if self.precision < 1 or not ring.is_unit(f[1]):
            raise NonUnitLinearCoefficient("reversion needs f'(0) to be a unit")
        f1_inv = ring.invert(f[1])
        n = self.precision
        zero = ring.zero().payload
        g = [zero, f1_inv]
        # powers[k][j] = [x^j] g^k as a prepared right factor, None when zero,
        # one column j at a time; powers[1] holds the coefficients of g
        powers = [None, [None, None if is_zero(f1_inv) else operand(f1_inv)]]
        for m in range(2, n + 1):
            powers.append([None] * m)  # g^m starts at x^m
            err = None
            for k in range(2, m + 1):
                # g^k = g * g^(k-1), whose x^j coefficient vanishes for j < k-1
                prev = powers[k - 1]
                c = None
                for i in range(1, m - k + 2):
                    a, b = g[i], prev[m - i]
                    if b is not None and not is_zero(a):
                        c = mul_add(c, a, b)
                if c is not None:
                    c = settle(c)
                    c = None if is_zero(c) else operand(c)
                powers[k].append(c)
                if c is not None and not is_zero(f[k]):
                    err = mul_add(err, f[k], c)
            p = zero if err is None else neg(mul(f1_inv, settle(err)))
            g.append(p)
            powers[1].append(None if is_zero(p) else operand(p))
        return self._like(g, n)

    def __repr__(self):
        # iojson imports this module, so a module-level import would be a cycle
        from .iojson import series1_to_text

        return f"<series {series1_to_text(self, 'x')} + O(x^{self.precision + 1})>"


class TruncatedSeriesN(_Series):
    """A sparse series in several variables, exact modulo total degree > N:
    payloads maps exponent tuples to the nonzero canonical payloads."""

    __slots__ = ("nvars",)
    _shape = _SPARSE

    def __init__(self, ring, nvars, coeffs, precision):
        self.ring = ring
        self.nvars = nvars
        self.precision = precision
        payloads = {tuple(k): _coerce_scalar(ring, c).payload for k, c in coeffs.items()}
        self.payloads = {
            k: p for k, p in payloads.items() if sum(k) <= precision and not ring._is_zero(p)
        }

    @classmethod
    def zero(cls, ring, nvars, precision):
        return cls(ring, nvars, {}, precision)

    @classmethod
    def variable(cls, ring, nvars, index, precision):
        key = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(ring, nvars, {key: ring.one()}, precision)

    @classmethod
    def _from_payloads(cls, ring, nvars, payloads, precision):
        """The series with these nonzero canonical payloads, keyed by exponent
        tuples of total degree at most the precision."""
        out = object.__new__(cls)
        out.ring = ring
        out.nvars = nvars
        out.precision = precision
        out.payloads = payloads
        return out

    def _like(self, payloads, precision):
        return self._from_payloads(self.ring, self.nvars, payloads, precision)

    @property
    def _origin(self):
        return (0,) * self.nvars

    def coefficient(self, key):
        key = tuple(key)
        if min(key, default=0) < 0 or sum(key) > self.precision:
            raise IndexError(f"{key} is not a monomial of degree 0..{self.precision}")
        return RingElement(self.ring, self.payloads.get(key, self.ring.zero().payload))

    __mul__ = __rmul__ = _Series.__mul__

    def __repr__(self):
        terms = len(self.payloads)
        return f"<series in {self.nvars} vars, {terms} terms, prec {self.precision}>"


class TruncatedSeries2(TruncatedSeriesN):
    """Two-variable series, the body type of formal group laws."""

    def __init__(self, ring, nvars, coeffs, precision):
        if nvars != 2:
            raise ValueError("TruncatedSeries2 has exactly two variables")
        super().__init__(ring, 2, coeffs, precision)

    @classmethod
    def from_entries(cls, ring, entries, precision):
        """entries: iterable of (i, j, coefficient)."""
        coeffs = {}
        for i, j, c in entries:
            coeffs[(i, j)] = coeffs.get((i, j), ring.zero()) + c
        return cls(ring, 2, coeffs, precision)

    def at(self, i, j):
        return self.coefficient((i, j))

    def partial_y_at_zero(self) -> TruncatedSeries1:
        """(dF/dy)(x, 0), at precision N-1."""
        if self.precision < 1:
            raise InsufficientPrecision("(dF/dy)(x, 0) needs precision >= 1")
        out = [self.ring.zero().payload] * self.precision
        for (i, j), p in self.payloads.items():
            if j == 1 and i <= self.precision - 1:
                out[i] = p
        return TruncatedSeries1._from_payloads(self.ring, out, self.precision - 1)


# -- substitution -------------------------------------------------------------


def compose_series(outer: TruncatedSeries1, inner):
    """outer(inner) for an inner series (1 or n variables) vanishing at 0.

    Horner's rule at shrinking precision (Brent and Kung, J. ACM 25 (1978)):
    acc_n = c_n and acc_k = c_k + inner * acc_{k+1}, so that the result is
    sum_{j<k} c_j inner^j + inner^k acc_k.  inner^k starts in degree k, so
    acc_k is needed only to precision n-k.  acc_{k+1} is known to precision
    n-k-1 and is multiplied at precision n-k: its unknown degree n-k meets
    only the zero constant term of inner, so the product is exact to
    precision n-k.

    Every inner shape runs in one loop on payloads, through the product loop
    of its shape: the inner's terms are prepared once, each step's products
    are summed through the ring's _mul_add and settled once, and c_k goes in
    at the origin.  The result has the class and variables of the inner.
    """
    if outer.ring != inner.ring:
        raise RingMismatch(f"{outer.ring} vs {inner.ring}")
    if not inner.constant_term().is_zero():
        raise NonzeroConstantTerm("inner series must vanish at the origin")
    n = min(outer.precision, inner.precision)
    ring, shape, origin = inner.ring, inner._shape, inner._origin
    right = shape.prepare(ring, inner._payloads(n))
    acc = shape.accumulators(-1)  # empty: the series of precision -1
    for k in range(n, -1, -1):
        acc = shape.settle(ring, shape.product(ring, shape.accumulators(n - k), acc, right, n - k))
        c = outer.payloads[k]
        if not ring._is_zero(c):
            acc[origin] = c
    return inner._like(acc, n)


def _substitution(body: TruncatedSeries2, n: int, origin=0):
    """The function (u, v) -> body(u, v) modulo degree n + 1, on payloads.

    u and v are payload lists c_0..c_n (origin 0, the key of their constant
    term) or maps keyed by exponent tuples (origin the zero tuple), truncated
    at n, and vanish at the origin; so does the result, unless the body has a
    constant term.  The body's terms c x^i y^j within degree n are read once.
    Each call caches the powers of u and v from the first power up.  Every
    term with i, j >= 1 adds the product (c u^i) v^j into one set of
    accumulators, through the shape's product loop, scaling u^i first only
    when c is not 1; the sum is settled once.  The terms in one variable, and
    the constant term, are then added as payloads: c times that power (or 1),
    with no product by c when c is 1.  So x + y - beta xy costs one product,
    and x + y none.
    """
    ring = body.ring
    shape = _DENSE if origin == 0 else _SPARSE
    terms = [(i, j, c) for (i, j), c in sorted(body.payloads.items()) if i + j <= n]
    one = ring.one().payload
    # the constant series 1, for a constant term of the body
    if shape is _DENSE:
        unit = [one] + [ring.zero().payload] * n
    else:
        unit = {} if ring._is_zero(one) else {origin: one}
    # the highest power of u and of v a term reads, and the powers of v that
    # are right factors of a product
    u_top = max((i for i, _, _ in terms), default=0)
    v_top = max((j for _, j, _ in terms), default=0)
    v_rights = {j for i, j, _ in terms if i and j}

    def powers(w, top):
        """[None, w, w^2, ..., w^top], each power a product with w."""
        pows = [None, w]
        if top > 1:
            right = shape.prepare(ring, w)
            while len(pows) <= top:
                accs = shape.product(ring, shape.accumulators(n), pows[-1], right, n)
                pows.append(shape.settle(ring, accs))
        return pows

    def substitute(u, v):
        u_pows, v_pows = powers(u, u_top), powers(v, v_top)
        rights = {j: shape.prepare(ring, v_pows[j]) for j in v_rights}
        total = shape.accumulators(n)
        rest = []
        for i, j, c in terms:
            if i and j:
                left = u_pows[i] if c == one else shape.scale(ring, u_pows[i], c)
                shape.product(ring, total, left, rights[j], n)
            else:
                rest.append((u_pows[i] if i else v_pows[j] if j else unit, c))
        out = shape.settle(ring, total)
        for term, c in rest:
            out = shape.add(ring, out, term if c == one else shape.scale(ring, term, c))
        return out

    return substitute


def substitute_pair(body: TruncatedSeries2, u, v):
    """body(u, v) for series u, v of one shape vanishing at the origin.

    u and v are both one-variable series, or both series in the same number
    of variables, over the body's ring; anything else raises RingMismatch.
    The result has the shape of u, at the least of the three precisions.  It
    is computed on payloads by the substitution core (_substitution).
    """
    ring = body.ring
    if u.ring != ring or v.ring != ring:
        raise RingMismatch(f"{ring} vs {u.ring} and {v.ring}")
    if u._origin != v._origin:
        raise RingMismatch("substituted series must be in the same variables")
    if not (u.constant_term().is_zero() and v.constant_term().is_zero()):
        raise NonzeroConstantTerm("substituted series must vanish at the origin")
    n = min(body.precision, u.precision, v.precision)
    out = _substitution(body, n, u._origin)(u._payloads(n), v._payloads(n))
    return u._like(out, n)


def embed2(body: TruncatedSeries2, nvars: int, positions) -> TruncatedSeriesN:
    """View a two-variable series inside an nvars-variable series ring."""
    p0, p1 = positions
    out = {}
    for (i, j), c in body.payloads.items():
        key = [0] * nvars
        key[p0] = i
        key[p1] = j
        out[tuple(key)] = c
    return TruncatedSeriesN._from_payloads(body.ring, nvars, out, body.precision)

"""The rational Lazard ring, the (L, LB) Hopf algebroid at finite truncation,
its dualization machinery, and finite groupoid fixtures.

Two flavors of truncated Hopf algebroid share one table-driven
representation: Gamma is a free module over the base ring A with a finite
basis per degree, and the structure maps eta_L (implicit: A-coefficients),
eta_R, epsilon and Delta are stored on that basis.

* lazard_lb_rational: A = Q[m_1..m_N] (|m_i| = i), Gamma = A[b_1..b_N] with
  basis the b-monomials of degree <= N.  eta_R classifies the universal law
  transported along the universal coordinate change; Delta comes from
  composition of coordinate changes.
* finite_groupoid: functions on the indiscrete groupoid on n objects;
  A = Q^n, Gamma free on one column function per object.

The dual Gamma^vee is modeled by A-linear functionals on the basis, with
the convolution-style composition product f o g = f . (id (x) g) . Delta.
The right unit eta_R: A -> Gamma is the coaction of Gamma on R = A, so
coaction_to_action and twisted_ring_multiply read eta_R from the algebroid
and take no coaction argument.  An element of the twisted ring
R (x)^hat_A Gamma^vee is again an A-valued functional on Gamma: simple_tensor
and twisted_ring_multiply return DualFunctionals.

Inside the layer a value of A is a payload of A: Gamma elements, the
structure maps and the stored functionals all hold payloads.  The public
calls (DualFunctional, coaction_to_action, simple_tensor,
twisted_ring_multiply) check that ring elements lie over A, and box results.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import AlgebroidMismatch, NotQAlgebra, RingMismatch, Unsupported
from .fgl import FormalGroupLaw, _Record, _require_axioms, from_logarithm, logarithm
from .gradedpoly import (
    GradedPolynomialRing,
    coordinate_change_ring,
    lazard_base_ring,
    split_payload,
)
from .rings import CoefficientRing, Rationals, RingElement
from .series import TruncatedSeries1, TruncatedSeries2


# -- the rational universal formal group law ----------------------------------


def _generic_series(ring, prefix: str, n: int) -> TruncatedSeries1:
    """t + g_1 t^2 + ... + g_n t^{n+1}, with g_i the generator named prefix+i."""
    coeffs = [ring.zero(), ring.one()]
    coeffs += [ring.generator(f"{prefix}{i}") for i in range(1, n + 1)]
    return TruncatedSeries1(ring, coeffs, n + 1)


def _monomial_image(ring, key, one, images, mul):
    """prod_i images[i]^e_i for the packed monomial key = prod_i g_i^e_i of
    ring, multiplied up from one by mul."""
    out = one
    for i, e in enumerate(ring.unpack(key)):
        for _ in range(e):
            out = mul(out, images[i + 1])
    return out


def universal_fgl_rational(precision: int) -> FormalGroupLaw:
    """The universal rational law: log(t) = t + m_1 t^2 + ... + m_{N-1} t^N
    over Q[m_1..m_{N-1}], graded with |m_i| = i and validated."""
    if precision < 2:
        raise ValueError("the universal law needs precision >= 2")
    ring = lazard_base_ring(precision - 1)
    log = _generic_series(ring, "m", precision - 1)
    grading = {f"m{i}": i for i in range(1, precision)}
    return from_logarithm(log, ring, precision, grading=grading, name="universal_rational")


def classify_rational(fgl: FormalGroupLaw) -> dict:
    """The classifying assignment m_i -> coefficient of t^{i+1} in the log."""
    if not fgl.ring.is_q_algebra():
        raise NotQAlgebra(f"{fgl.ring} is not a Q-algebra")
    log = logarithm(fgl)
    return {f"m{i}": log.coefficient(i + 1) for i in range(1, fgl.precision)}


def specialize(fgl: FormalGroupLaw, assignment: dict, target: CoefficientRing) -> FormalGroupLaw:
    """Push a law over a graded polynomial ring through a generator assignment."""
    ring = fgl.ring
    if not isinstance(ring, GradedPolynomialRing):
        raise Unsupported("specialization applies to laws over polynomial rings")
    # the series drops the coefficients that evaluate to zero
    values = {k: ring.evaluate(c, assignment, target) for k, c in fgl.body.coeffs.items()}
    body = TruncatedSeries2(target, 2, values, fgl.precision)
    out = FormalGroupLaw(body)
    _require_axioms(out, "the specialized law")
    return out


# -- the base ring of the groupoid fixture -------------------------------------


class FunctionRing(CoefficientRing):
    """Q^n: exact rational functions on n points, componentwise operations."""

    kind = "functions"
    _identity = ("n",)

    def __init__(self, n: int):
        if not 1 <= n:
            raise ValueError("need at least one point")
        self.n = n

    def from_int(self, k):
        return RingElement(self, (Fraction(k),) * self.n)

    def from_fraction(self, q):
        return RingElement(self, (Fraction(q),) * self.n)

    def chi(self, j: int) -> RingElement:
        return RingElement(
            self, tuple(Fraction(1) if i == j else Fraction(0) for i in range(self.n))
        )

    def from_values(self, values) -> RingElement:
        values = tuple(Fraction(v) for v in values)
        if len(values) != self.n:
            raise ValueError("wrong number of components")
        return RingElement(self, values)

    def _canonical(self, payload):
        return tuple(Fraction(v) for v in payload)

    def _add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def _neg(self, a):
        return tuple(-x for x in a)

    def _mul(self, a, b):
        return tuple(x * y for x, y in zip(a, b))

    def _is_zero(self, a):
        return all(x == 0 for x in a)

    def to_expr(self, payload):
        # a display-only list, outside the expression grammar
        return "[" + ", ".join(str(v) for v in payload) + "]"

    def is_unit(self, a):
        return all(x != 0 for x in a)

    def invert(self, a):
        if not self.is_unit(a):
            raise Unsupported("a component vanishes; not a unit")
        return tuple(1 / x for x in a)

    def is_q_algebra(self):
        return True

    def __repr__(self):
        return f"Q^{self.n}"


# -- truncated Hopf algebroids ---------------------------------------------------


class HopfAlgebroidTrunc:
    """A cogroupoid object in commutative rings, stored on a Gamma-basis.

    A Gamma element is a map basis-key -> payload of A (its eta_L
    coefficients).  A subclass gives the basis and the structure maps on
    it, all on payloads of A:

    * gamma_basis(), basis_degree(key) and basis_label(key);
    * basis_mul(k1, k2): the key of the product of two basis elements, or
      None once it passes the truncation (the coefficient is always 1);
    * eps_basis(key): the counit of a basis element;
    * delta_basis(key): Delta as a map (key, key) -> coefficient, the
      coefficient acting on the leftmost tensor factor;
    * eta_r(payload): the right unit, as a Gamma element;
    * one_gamma(), the unit of Gamma, and base_sample(), the generators of
      A that the structural checks try.
    """

    def __init__(self, flavor, base, truncation):
        self.flavor = flavor
        self.base = base
        self.truncation = truncation

    def g_mul(self, u: dict, v: dict) -> dict:
        """The product of two Gamma elements."""
        base = self.base
        mul, add, is_zero = base._mul, base._add, base._is_zero
        basis_mul = self.basis_mul
        out = {}
        for k1, c1 in u.items():
            for k2, c2 in v.items():
                k = basis_mul(k1, k2)
                if k is not None:
                    _add_term(out, k, mul(c1, c2), add, is_zero)
        return out


class LazardAlgebroid(HopfAlgebroidTrunc):
    """(Q[m_*], Q[m_*, b_*]) truncated at a top degree."""

    def __init__(self, truncation: int):
        super().__init__("lazard_lb_rational", lazard_base_ring(truncation), truncation)
        n = truncation
        self.bring = coordinate_change_ring(n)
        self._basis = [
            key for d in range(n + 1) for key in self.bring.monomial_keys_of_degree(d)
        ]
        # Delta's generator table is built on the first delta_basis call:
        # the idempotence check reads eta_R alone
        self._delta_gen_payloads = None
        # eta_R on m-generators: the log of the conjugated universal law is
        # log o b^{-1}; unit tests cross-check against the classify route.
        combined = GradedPolynomialRing(
            [(f"{p}{i}", i) for p in "mb" for i in range(1, n + 1)], n
        )
        log = _generic_series(combined, "m", n)
        change = _generic_series(combined, "b", n)
        conjugated_log = log.compose(change.revert())
        self._etar_gen = {
            i: split_payload(combined, conjugated_log.payloads[i + 1], n)
            for i in range(1, n + 1)
        }

    # -- basis ----------------------------------------------------------------
    def gamma_basis(self):
        return list(self._basis)

    def basis_degree(self, key):
        return self.bring.key_degree(key)

    def basis_mul(self, k1, k2):
        deg = self.bring.key_degree
        if deg(k1) + deg(k2) > self.truncation:
            return None
        return k1 + k2

    def eps_basis(self, key):
        return {0: 1} if key == 0 else {}

    def one_gamma(self):
        return {0: {0: 1}}

    def base_sample(self):
        return [self.base.generator(f"m{i}").payload for i in range(1, self.truncation + 1)]

    def basis_label(self, key):
        return self.bring.to_expr({key: 1})

    def _build_delta_table(self):
        n = self.truncation
        # Delta on b-generators: composition of universal coordinate changes.
        pair_ring = GradedPolynomialRing(
            [(f"{p}{i}", i) for p in "cd" for i in range(1, n + 1)], n
        )
        first = _generic_series(pair_ring, "c", n)
        second = _generic_series(pair_ring, "d", n)
        # the composite change applies the left-factor arrow first:
        # c = second o first, so that Delta is compatible with the right unit
        composite = second.compose(first)
        self._pair_ring = pair_ring
        self._delta_gen_payloads = {
            i: composite.payloads[i + 1] for i in range(1, n + 1)
        }

    def delta_basis(self, key):
        if self._delta_gen_payloads is None:
            self._build_delta_table()
        payload = _monomial_image(
            self.bring, key, {0: 1}, self._delta_gen_payloads, self._pair_ring._mul
        )
        return {
            (c_key, d_key): {0: coeff}
            for d_key, c_part in split_payload(self._pair_ring, payload, self.truncation).items()
            for c_key, coeff in c_part.items()
        }

    # -- eta_R -------------------------------------------------------------------
    def _eta_r_m_monomial(self, m_key):
        return _monomial_image(self.base, m_key, self.one_gamma(), self._etar_gen, self.g_mul)

    def eta_r(self, payload) -> dict:
        # eta_R is a map of Q-algebras, so it fixes the constants
        if not payload:
            return {}
        if len(payload) == 1 and 0 in payload:
            return {0: payload}
        base = self.base
        mul, add, is_zero = base._mul, base._add, base._is_zero
        out = {}
        for m_key, coeff in payload.items():
            scalar = {0: coeff}
            for k, c in self._eta_r_m_monomial(m_key).items():
                _add_term(out, k, mul(scalar, c), add, is_zero)
        return out

    def eta_r_generator(self, i: int) -> dict:
        return dict(self._etar_gen[i])


class GroupoidAlgebroid(HopfAlgebroidTrunc):
    """Functions on the indiscrete groupoid on n objects.

    Basis element j is the function supported on the arrows with second
    index j; its A-multiples sweep out all functions on arrows.  The dual
    Gamma^vee is the groupoid algebra (matrix units under composition).
    """

    def __init__(self, n: int):
        if not 1 <= n <= 5:
            raise ValueError("fixture supports 1..5 objects")
        super().__init__("finite_groupoid", FunctionRing(n), 0)
        self.n = n

    def gamma_basis(self):
        return list(range(self.n))

    def basis_degree(self, key):
        return 0

    def basis_mul(self, k1, k2):
        return k1 if k1 == k2 else None

    def eps_basis(self, key):
        return self.base.chi(key).payload

    def one_gamma(self):
        return dict.fromkeys(range(self.n), self.base.one().payload)

    def base_sample(self):
        return [self.base.chi(j).payload for j in range(self.n)]

    def basis_label(self, key):
        return f"s{key}"

    def delta_basis(self, key):
        one = self.base.one().payload
        return {(k, key): one for k in range(self.n)}

    def eta_r(self, payload) -> dict:
        # the constant function with value payload[j] on column j
        return {j: (value,) * self.n for j, value in enumerate(payload) if value}


def lb_structure_maps(truncation: int) -> LazardAlgebroid:
    """The rational (L, LB) Hopf algebroid to the given degree."""
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    return LazardAlgebroid(truncation)


def groupoid_fixture(n: int) -> GroupoidAlgebroid:
    """The indiscrete-groupoid algebroid on n objects."""
    return GroupoidAlgebroid(n)


# -- the axiom report -----------------------------------------------------------


class HopfCheck(_Record):
    __slots__ = ("law", "passed", "witness")

    def __init__(self, law: str, passed: bool, witness: str | None = None):
        self.law = law
        self.passed = passed
        self.witness = witness


class HopfReport(_Record):
    __slots__ = ("flavor", "truncation", "checks")

    def __init__(self, flavor: str, truncation: int, checks: list):
        self.flavor = flavor
        self.truncation = truncation
        self.checks = checks

    @property
    def passed(self):
        return all(c.passed for c in self.checks)


class _Products(dict):
    """(i, j) -> values[i] * values[j] on payloads, filled on first lookup."""

    __slots__ = ("values", "mul")

    def __init__(self, values, mul):
        super().__init__()
        self.values = values
        self.mul = mul

    def __missing__(self, key):
        i, j = key
        p = self[key] = self.mul(self.values[i], self.values[j])
        return p


def hopf_axiom_check(algebroid: HopfAlgebroidTrunc) -> HopfReport:
    """Both counit laws, coassociativity, and eps o eta_L = eps o eta_R = id,
    verified on generators and the Gamma basis up to the truncation.

    Each distinct value of A that the counit and coassociativity laws meet
    (a counit value, a Delta coefficient or an eta_R coefficient) gets an
    index; each is pushed through eta_R at most once, each product of two of
    them is computed once, and each Delta table is read once.
    """
    base = algebroid.base
    mul, add, is_zero, freeze = base._mul, base._add, base._is_zero, base._freeze
    eps_values = {key: algebroid.eps_basis(key) for key in algebroid.gamma_basis()}

    checks = []
    units = (
        ("eps_eta_L", lambda a: {k: mul(a, c) for k, c in algebroid.one_gamma().items()}),
        ("eps_eta_R", algebroid.eta_r),
    )
    for law, unit in units:
        bad = [a for a in algebroid.base_sample() if _pair(base, unit(a), eps_values) != a]
        witness = f"on {base.to_expr(bad[0])}" if bad else None
        checks.append(HopfCheck(law, witness is None, witness))

    basis_mul = algebroid.basis_mul
    values, index, pushed = [], {}, []
    products = _Products(values, mul)
    tables = {}  # basis key -> [(k1, k2, index of c, eta_R(c))]

    def intern(payload):
        frozen = freeze(payload)
        i = index.get(frozen)
        if i is None:
            i = index[frozen] = len(values)
            values.append(payload)
            pushed.append(None)
        return i

    def push(i):
        """eta_R of values[i], as (basis key, value index) pairs."""
        if pushed[i] is None:
            image = algebroid.eta_r(values[i])
            pushed[i] = tuple((k, intern(p)) for k, p in image.items())
        return pushed[i]

    def delta(key):
        table = tables.get(key)
        if table is None:
            table = tables[key] = []
            for (k1, k2), c in algebroid.delta_basis(key).items():
                i = intern(c)
                table.append((k1, k2, i, push(i)))
        return table

    eps = {key: intern(p) for key, p in eps_values.items()}
    one = base.one().payload
    left_fail = right_fail = None
    for key in algebroid.gamma_basis():
        target = {key: one}
        # (id (x) eps) Delta = id
        acc = {}
        for k1, k2, c, _ in delta(key):
            for j, e in push(eps[k2]):
                k = basis_mul(k1, j)
                if k is not None:
                    _add_term(acc, k, products[c, e], add, is_zero)
        if acc != target and right_fail is None:
            right_fail = f"basis {key} (degree {algebroid.basis_degree(key)})"
        # (eps (x) id) Delta = id
        acc = {}
        for k1, k2, c, _ in delta(key):
            _add_term(acc, k2, products[c, eps[k1]], add, is_zero)
        if acc != target and left_fail is None:
            left_fail = f"basis {key} (degree {algebroid.basis_degree(key)})"
    checks.append(HopfCheck("counit_left", left_fail is None, left_fail))
    checks.append(HopfCheck("counit_right", right_fail is None, right_fail))

    coassoc_fail = None
    for key in algebroid.gamma_basis():
        lhs = {}
        rhs = {}
        for k1, k2, c, _ in delta(key):
            for j1, j2, d, _ in delta(k1):
                _add_term(lhs, (j1, j2, k2), products[c, d], add, is_zero)
            for j2, j3, _, d_pushed in delta(k2):
                # the coefficient d enters the middle factor via eta_L: push
                # it through the balance as eta_R on the left factor
                for j, e in d_pushed:
                    j1 = basis_mul(k1, j)
                    if j1 is not None:
                        _add_term(rhs, (j1, j2, j3), products[c, e], add, is_zero)
        if lhs != rhs and coassoc_fail is None:
            coassoc_fail = f"basis {key} (degree {algebroid.basis_degree(key)})"
    checks.append(HopfCheck("coassociativity", coassoc_fail is None, coassoc_fail))

    return HopfReport(algebroid.flavor, algebroid.truncation, checks)


# -- dual functionals -------------------------------------------------------------


def _add_term(out, key, p, add, is_zero):
    """out[key] += p on a payload map, dropping a zero sum."""
    if key in out:
        p = add(out[key], p)
    if is_zero(p):
        out.pop(key, None)
    else:
        out[key] = p


def _pair(ring, gamma, values):
    """sum_k gamma_k * values_k over the keys of gamma that values holds, on
    payload maps of ring; the result is a payload."""
    mul, add = ring._mul, ring._add
    total = ring.zero().payload
    for key, c in gamma.items():
        v = values.get(key)
        if v is not None:
            total = add(total, mul(c, v))
    return total


def _base_payload(base, a):
    """The payload of a, which must be a ring element over base."""
    if not isinstance(a, RingElement) or a.ring != base:
        raise RingMismatch(f"{a!r} is not an element of {base}")
    return a.payload


def _convolve(algebroid, f_values, g_values) -> dict:
    """{key: f((id (x) g) Delta(key))} over the Gamma basis, f and g given by
    the payloads of their basis values; the coefficient of g enters through
    eta_R, which each value of g passes through once, on first use."""
    base = algebroid.base
    mul, add = base._mul, base._add
    basis_mul = algebroid.basis_mul
    out, pushed = {}, {}
    for key in algebroid.gamma_basis():
        total = base.zero().payload
        for (k1, k2), c in algebroid.delta_basis(key).items():
            gv = g_values.get(k2)
            if gv is None:
                continue
            if k2 not in pushed:
                pushed[k2] = tuple(algebroid.eta_r(gv).items())
            for j, e in pushed[k2]:
                v = f_values.get(basis_mul(k1, j))
                if v is not None:
                    total = add(total, mul(mul(c, e), v))
        out[key] = total
    return out


class DualFunctional:
    """An A-linear functional on Gamma, stored on the basis up to truncation:
    payloads holds the payload of each nonzero basis value."""

    def __init__(self, algebroid: HopfAlgebroidTrunc, values: dict):
        base = algebroid.base
        basis = set(algebroid.gamma_basis())
        for key, v in values.items():
            _base_payload(base, v)
            if key not in basis:
                raise ValueError(f"{key!r} is not a Gamma basis key of the algebroid")
        self.algebroid = algebroid
        self.payloads = {k: v.payload for k, v in values.items() if not v.is_zero()}

    @property
    def values(self) -> dict:
        base = self.algebroid.base
        return {k: RingElement(base, p) for k, p in self.payloads.items()}

    def __call__(self, gamma: dict) -> RingElement:
        base = self.algebroid.base
        return RingElement(base, _pair(base, gamma, self.payloads))

    def __eq__(self, other):
        if not isinstance(other, DualFunctional):
            return NotImplemented
        if other.algebroid is not self.algebroid:
            raise AlgebroidMismatch("functionals over different algebroids")
        return self.payloads == other.payloads

    def __hash__(self):
        return hash((id(self.algebroid), len(self.payloads)))

    def __repr__(self):
        entries = ", ".join(f"{k}: {v!r}" for k, v in sorted(self.values.items(), key=str))
        return f"<functional {{{entries}}}>"


def _functional(algebroid, payloads: dict) -> DualFunctional:
    """The functional with the given basis payloads, zeros dropped; the
    payloads come from the layer itself, so they are not checked."""
    is_zero = algebroid.base._is_zero
    f = DualFunctional.__new__(DualFunctional)
    f.algebroid = algebroid
    f.payloads = {k: p for k, p in payloads.items() if not is_zero(p)}
    return f


def epsilon_functional(algebroid: HopfAlgebroidTrunc) -> DualFunctional:
    """The counit as a functional: the unit of the dual algebra."""
    return _functional(algebroid, {k: algebroid.eps_basis(k) for k in algebroid.gamma_basis()})


def dual_compose(f: DualFunctional, g: DualFunctional) -> DualFunctional:
    """The composition product on Gamma^vee: f o g = f . (id (x) g) . Delta."""
    if f.algebroid is not g.algebroid:
        raise AlgebroidMismatch("functionals over different algebroids")
    return _functional(f.algebroid, _convolve(f.algebroid, f.payloads, g.payloads))


# -- the action on A and the twisted ring ------------------------------------------


def coaction_to_action(f: DualFunctional, r: RingElement) -> RingElement:
    """The action lambda(f, r) = (id_R (x) f)(eta_R(r)) on R = A, with the
    right unit as the coaction; it extends eta_L^vee."""
    base = f.algebroid.base
    return RingElement(base, _pair(base, f.algebroid.eta_r(_base_payload(base, r)), f.payloads))


def simple_tensor(u: RingElement, phi: DualFunctional) -> DualFunctional:
    """u . phi in R (x)^hat_A Gamma^vee; with R = A it is the functional
    B -> u . phi(B)."""
    base = phi.algebroid.base
    u = _base_payload(base, u)
    return _functional(phi.algebroid, {k: base._mul(u, p) for k, p in phi.payloads.items()})


def twisted_ring_multiply(
    u: RingElement,
    phi: DualFunctional,
    v: RingElement,
    psi: DualFunctional,
) -> DualFunctional:
    """(u.phi)(v.psi) = u . Delta(phi)(v) o psi in the twisted ring, expanded
    on the Gamma basis.

    Delta(phi)(v) is evaluated through the right unit: on a basis element B
    it is phi(B . eta_R(v)), which avoids an explicit splitting of the
    comultiplication of Gamma^vee.
    """
    algebroid = phi.algebroid
    if psi.algebroid is not algebroid:
        raise AlgebroidMismatch("operands over different algebroids")
    base = algebroid.base
    eta_r_v = algebroid.eta_r(_base_payload(base, v))
    one = base.one().payload
    middle = {
        key: _pair(base, algebroid.g_mul({key: one}, eta_r_v), phi.payloads)
        for key in algebroid.gamma_basis()
    }
    return simple_tensor(u, _functional(algebroid, _convolve(algebroid, middle, psi.payloads)))


# -- the rational idempotence check ---------------------------------------------


def _rank(matrix) -> int:
    """Exact rank of a matrix of ints and Fractions, by fraction-free
    elimination (Bareiss, Math. Comp. 22 (1968)).

    Each row is scaled to integers by the lcm of its denominators (the
    integer view of Q).  Each pivot row then clears its column from the rows
    left with integer row operations, and every new row is divided by the
    gcd of its entries (in place of Bareiss's exact division by the previous
    pivot), so the entries stay small and no Fraction is formed.
    """
    rows = [ints for ints, _ in map(Rationals()._as_integers, matrix) if any(ints)]
    rank = 0
    col = 0
    while rows:
        pivot = next((r for r in rows if r[col]), None)
        if pivot is not None:
            rank += 1
            p = pivot[col]
            left = []
            for r in rows:
                if r is pivot:
                    continue
                c = r[col]
                if c:
                    r = [p * x - c * y for x, y in zip(r, pivot)]
                    g = math.gcd(*r)
                    if not g:
                        continue
                    if g != 1:
                        r = [x // g for x in r]
                left.append(r)
            rows = left
        col += 1
    return rank


class DegreeRank(_Record):
    __slots__ = ("degree", "dimension", "rank")

    def __init__(self, degree: int, dimension: int, rank: int):
        self.degree = degree
        self.dimension = dimension
        self.rank = rank

    @property
    def full(self):
        return self.rank == self.dimension


class IdempotenceReport(_Record):
    __slots__ = ("max_degree", "degrees")

    def __init__(self, max_degree: int, degrees: list):
        self.max_degree = max_degree
        self.degrees = degrees

    @property
    def passed(self):
        return all(d.full for d in self.degrees)


def specialized_classifying_map(algebroid: LazardAlgebroid) -> dict:
    """eta_R base-changed along m_i -> 0: images of the m-generators in Q[b_*]."""
    bring = algebroid.bring
    out = {}
    for i in range(1, algebroid.truncation + 1):
        payload = {}
        for b_key, coeff in algebroid.eta_r_generator(i).items():
            const = coeff.get(0)
            if const:
                payload[b_key] = const
        out[i] = RingElement(bring, payload)
    return out


def rank_table(algebroid: LazardAlgebroid, images: dict, max_degree: int) -> IdempotenceReport:
    """Degreewise ranks of the multiplicative extension of the given generator
    images Q[m_*] -> Q[b_*]."""
    base = algebroid.base
    bring = algebroid.bring
    degrees = []
    for d in range(1, max_degree + 1):
        rows = base.monomial_keys_of_degree(d)
        cols = bring.monomial_keys_of_degree(d)
        col_index = {key: idx for idx, key in enumerate(cols)}
        matrix = []
        for m_key in rows:
            img = _monomial_image(base, m_key, bring.one(), images, operator.mul)
            row = [0] * len(cols)
            for b_key, c in img.payload.items():
                if bring.key_degree(b_key) == d:
                    row[col_index[b_key]] = c
            matrix.append(row)
        degrees.append(DegreeRank(d, len(rows), _rank(matrix)))
    return IdempotenceReport(max_degree, degrees)


def hq_idempotence_check(max_degree: int) -> IdempotenceReport:
    """Verify that the right unit, base-changed along the additive point,
    is invertible degree by degree (dimensions are the partition numbers)."""
    if max_degree > 8:
        raise ValueError("the idempotence check stops at degree 8")
    algebroid = lb_structure_maps(max_degree)
    return rank_table(algebroid, specialized_classifying_map(algebroid), max_degree)


def partitions(d: int) -> int:
    """Number of partitions of d (independent enumeration for the tests)."""
    parts = [0] * (d + 1)
    parts[0] = 1
    for k in range(1, d + 1):
        for total in range(k, d + 1):
            parts[total] += parts[total - k]
    return parts[d]

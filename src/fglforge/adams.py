"""The two models of the degree-0 K-theory operation algebra.

* Series model: Z[[x]] with the composition product, determined by
  (1-x)^-k o (1-x)^-l = (1-x)^-kl, together with omega(f) = (1-x) df/dx.
  The full operation ring is a beta-twisted Laurent algebra over the
  inverse limit along omega, modeled here by finite towers
  (f_0, ..., f_D) with omega(f_{j+1}) = f_j; the twist is b^-1 a b = omega(a).

* Sequence model: Q^Z with pointwise multiplication, windowed to a finite
  index range; the twist is b^-1 a b = sigma(a) with sigma the shift
  (a_n) -> (a_{n+1}).

The Adams transform (a_n) -> sum a_n/n! (-log(1-x))^n is an isomorphism
between the models carrying sigma to omega; the k-th Adams operation is the
tower (k^-n (1-x)^-k)_n, equivalently the sequence (k^n)_n.

The composition product is evaluated through the transform in integers: the
operands' numerators go through the forward and inverse integer tables, with
one divmod by m! per coefficient.  When both factors are integral that
remainder is checked to be zero (closure of Z[[x]] under o is a theorem being
monitored, not assumed).  The forward transform, omega and the tower relation
run on numerators too, so towers and omega live over Z, Q and Z_(p).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import (
    InsufficientDepth,
    InsufficientPrecision,
    IntegralityViolation,
    ModelMismatch,
    NonInvertibleK,
    RingMismatch,
    WindowMiss,
)
from .rings import Integers, Rationals, _NumberRing
from .series import TruncatedSeries1

_Z = Integers()
_Q = Rationals()


def geometric_power(k: int, precision: int, ring=_Z) -> TruncatedSeries1:
    """(1-x)^-k for any integer k (a polynomial when k <= 0)."""
    coeffs = []
    c = Fraction(1)
    for n in range(precision + 1):
        coeffs.append(c)
        c = c * Fraction(k + n, n + 1)
    if any(v.denominator != 1 for v in coeffs):
        raise IntegralityViolation(f"(1-x)^-{k} produced a non-integral coefficient")
    return TruncatedSeries1.from_ints(ring, [v.numerator for v in coeffs], precision)


def omega(f: TruncatedSeries1) -> TruncatedSeries1:
    """(1-x) * df/dx at precision N-1, over Z, Q or Z_(p): coefficient m is
    (m+1) c_(m+1) - m c_m on the numerators of f, each boxed once."""
    if f.precision == 0:
        raise InsufficientPrecision("omega of a precision-0 series carries no information")
    c, d = _numerators(f, f.precision)
    box = f.ring._canonical
    payloads = [box(s if d == 1 else Fraction(s, d)) for s in _omega_numerators(c)]
    return TruncatedSeries1._from_payloads(f.ring, payloads, f.precision - 1)


def _omega_numerators(c):
    """The numerators of omega(f) over d from those of f: (m+1) c_(m+1) - m c_m."""
    return [(m + 1) * c[m + 1] - m * c[m] for m in range(len(c) - 1)]


# -- the Adams transform -------------------------------------------------------


# Lower-triangular integer tables of the transform and its inverse, grown on
# demand: fwd[n][k] = n! [y^n] (1 - exp(-y))^k = (-1)^(n-k) k! S(n, k) and
# inv[m][n] = m! [x^m] (-log(1-x))^n / n! = c(m, n), from the Stirling
# recurrences (Comtet, Advanced Combinatorics, ch. V).  Row n does not depend
# on the precision.  A table grows on a copy that is then rebound, never in
# place, so a concurrent reader always holds a complete table.
_TABLES = {"forward": [[1]], "inverse": [[1]]}


def _next_forward_row(row):
    """fwd[n+1][k] = k (fwd[n][k-1] - fwd[n][k])."""
    padded = [0, *row, 0]
    return [k * (padded[k] - padded[k + 1]) for k in range(len(row) + 1)]


def _next_inverse_row(row):
    """inv[m+1][n] = inv[m][n-1] + m inv[m][n]."""
    m = len(row) - 1
    padded = [0, *row, 0]
    return [padded[n] + m * padded[n + 1] for n in range(m + 2)]


def _table(name: str, next_row, precision: int):
    rows = _TABLES[name]
    if len(rows) <= precision:
        rows = list(rows)
        while len(rows) <= precision:
            rows.append(next_row(rows[-1]))
        _TABLES[name] = rows
    return rows[: precision + 1]


def _forward_matrix(precision: int):
    """Rows 0..precision of fwd[n][k] = n! [y^n] (1 - exp(-y))^k, k <= n."""
    return _table("forward", _next_forward_row, precision)


def _inverse_matrix(precision: int):
    """Rows 0..precision of inv[m][n] = m! [x^m] (-log(1-x))^n / n!, n <= m."""
    return _table("inverse", _next_inverse_row, precision)


class AdamsSequence:
    """A rational sequence on a finite window [lo, hi] of integer indices."""

    __slots__ = ("lo", "values")

    def __init__(self, lo: int, values):
        self.lo = lo
        self.values = tuple(Fraction(v) for v in values)
        if not self.values:
            raise WindowMiss(f"the window [{lo}, {lo - 1}] is empty")

    @property
    def hi(self) -> int:
        return self.lo + len(self.values) - 1

    @property
    def window(self):
        return (self.lo, self.hi)

    def value(self, n: int) -> Fraction:
        if not self.lo <= n <= self.hi:
            raise WindowMiss(f"index {n} outside window [{self.lo}, {self.hi}]")
        return self.values[n - self.lo]

    def shift(self, j: int) -> "AdamsSequence":
        """sigma^j: n -> value(n + j); the window moves to [lo-j, hi-j]."""
        return AdamsSequence(self.lo - j, self.values)

    twist = shift  # beta^-j a beta^j

    def _meet(self, other):
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if hi < lo:
            raise WindowMiss("windows do not overlap")
        return lo, hi

    def _pointwise(self, other: "AdamsSequence", op) -> "AdamsSequence":
        lo, hi = self._meet(other)
        return AdamsSequence(lo, [op(self.value(n), other.value(n)) for n in range(lo, hi + 1)])

    def __add__(self, other):
        return self._pointwise(other, operator.add)

    def __sub__(self, other):
        return self._pointwise(other, operator.sub)

    def __mul__(self, other):
        if isinstance(other, AdamsSequence):
            return self._pointwise(other, operator.mul)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "AdamsSequence":
        c = Fraction(c)
        return AdamsSequence(self.lo, [c * v for v in self.values])

    def __neg__(self):
        return self.scale(-1)

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)

    def agrees_on_overlap(self, other: "AdamsSequence") -> bool:
        """Equality of values on the intersection of the two windows."""
        lo, hi = self._meet(other)
        return all(self.value(n) == other.value(n) for n in range(lo, hi + 1))

    def __eq__(self, other):
        if not isinstance(other, AdamsSequence):
            return NotImplemented
        return self.lo == other.lo and self.values == other.values

    def __hash__(self):
        return hash((self.lo, self.values))

    def __repr__(self):
        vals = ", ".join(str(v) for v in self.values)
        return f"<sequence [{self.lo}..{self.hi}]: {vals}>"


def adams_transform(f: TruncatedSeries1) -> AdamsSequence:
    """a_n = n! [y^n] f(1 - exp(-y)), on the window [0, N].

    A ring isomorphism onto its image: products under o map to pointwise
    products, and omega maps to the shift.
    """
    if f.ring not in (_Z, _Q):
        raise RingMismatch("composition series live over Z or Q")
    a, d = _numerators(f, f.precision)
    sums = _forward_sums(a, f.precision)
    return AdamsSequence(0, sums if d == 1 else [Fraction(s, d) for s in sums])


def adams_transform_inv(seq: AdamsSequence) -> TruncatedSeries1:
    """sum_n a_n/n! (-log(1-x))^n at precision hi; the window must start at 0."""
    if seq.lo != 0:
        raise WindowMiss("inverse transform needs a window starting at 0")
    precision = seq.hi
    coeffs = [
        sum(map(operator.mul, row, seq.values)) / math.factorial(m)
        for m, row in enumerate(_inverse_matrix(precision))
    ]
    return TruncatedSeries1.from_fractions(_Q, coeffs, precision)


def _numerators(f: TruncatedSeries1, n: int):
    """c_0..c_n of f as integers over d, the lcm of their denominators."""
    if not isinstance(f.ring, _NumberRing):
        raise RingMismatch("omega and towers live over Z, Q or Z_(p)")
    payloads = f.payloads[: n + 1]
    if f.ring == _Z:
        return payloads, 1
    d = math.lcm(*(q.denominator for q in payloads))
    return [q.numerator * (d // q.denominator) for q in payloads], d


def _forward_sums(a, n: int):
    """sum_k fwd[m][k] a_k for m = 0..n: the forward transform, times d."""
    return [sum(map(operator.mul, row, a)) for row in _forward_matrix(n)]


def circ_compose(f: TruncatedSeries1, g: TruncatedSeries1) -> TruncatedSeries1:
    """The composition product, through the Adams transform in integers.

    The operands' numerators over their common denominators go through both
    tables; coefficient m is the inverse sum over m! and the denominators.
    Integral inputs must give integral output: a nonzero remainder of the
    divmod by m! signals an implementation bug, not a property of the inputs.
    """
    if f.ring not in (_Z, _Q) or g.ring not in (_Z, _Q):
        raise RingMismatch("composition series live over Z or Q")
    n = min(f.precision, g.precision)
    a, d_f = _numerators(f, n)
    b, d_g = _numerators(g, n)
    product = list(map(operator.mul, _forward_sums(a, n), _forward_sums(b, n)))
    sums = [sum(map(operator.mul, row, product)) for row in _inverse_matrix(n)]
    if f.ring == _Z and g.ring == _Z:
        coeffs = []
        for m, s in enumerate(sums):
            c, remainder = divmod(s, math.factorial(m))
            if remainder:
                raise IntegralityViolation(
                    "integral composition series produced a non-integral coefficient"
                )
            coeffs.append(c)
        return TruncatedSeries1._from_payloads(_Z, coeffs, n)
    d = d_f * d_g
    coeffs = [Fraction(s, math.factorial(m) * d) for m, s in enumerate(sums)]
    return TruncatedSeries1._from_payloads(_Q, coeffs, n)


# -- towers ---------------------------------------------------------------------


class OmegaTower:
    """Levels f_0..f_D over Z, Q or Z_(p), at one precision, with omega(f_{j+1}) = f_j.

    The tower relation is verified through coefficient index N-1 (the
    derivative inside omega drops one order of information), on numerators:
    omega(f_{j+1}) = u / d_g and f_j = v / d_f agree when d_f u = d_g v.
    """

    __slots__ = ("levels", "precision")

    def __init__(self, levels):
        levels = list(levels)
        if not levels:
            raise ValueError("a tower needs at least one level")
        precision = min(f.precision for f in levels)
        levels = [f.truncate(precision) for f in levels]
        numerators = [_numerators(f, precision) for f in levels]
        if precision >= 1:  # at precision 0 the relation carries no content
            for j, ((t, d_f), (s, d_g)) in enumerate(zip(numerators, numerators[1:])):
                if levels[j].ring != levels[j + 1].ring or any(
                    d_f * u != d_g * v for u, v in zip(_omega_numerators(s), t)
                ):
                    raise ValueError(f"omega(level {j + 1}) != level {j}")
        self.levels = tuple(levels)
        self.precision = precision

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def level(self, j: int) -> TruncatedSeries1:
        return self.levels[j]

    def omega_shift(self, j: int) -> "OmegaTower":
        """The twist omega^j; j < 0 consumes depth, j > 0 costs precision."""
        tower = self
        if j >= 0:
            for _ in range(j):
                new_top = omega(tower.levels[0])
                levels = [new_top] + [
                    f.truncate(new_top.precision) for f in tower.levels[:-1]
                ]
                tower = OmegaTower(levels)
            return tower
        if -j > tower.depth:
            raise InsufficientDepth(
                f"twist by beta^{j} needs depth > {-j - 1}, have {tower.depth}"
            )
        return OmegaTower(tower.levels[-j:])

    twist = omega_shift  # beta^-j a beta^j

    def _levelwise(self, other: "OmegaTower", op) -> list:
        """op on each pair of levels both towers have, at the common precision."""
        precision = min(self.precision, other.precision)
        return [
            op(f.truncate(precision), g.truncate(precision))
            for f, g in zip(self.levels, other.levels)
        ]

    def circ(self, other: "OmegaTower") -> "OmegaTower":
        return OmegaTower(self._levelwise(other, circ_compose))

    __mul__ = circ

    def __add__(self, other):
        return OmegaTower(self._levelwise(other, operator.add))

    def scale(self, c) -> "OmegaTower":
        return OmegaTower([f.scale(c) for f in self.levels])

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self.levels)

    def agrees_on_overlap(self, other: "OmegaTower") -> bool:
        """Equality of the common levels at the common precision."""
        return all(self._levelwise(other, operator.eq))

    def __eq__(self, other):
        if not isinstance(other, OmegaTower):
            return NotImplemented
        return self.levels == other.levels

    def __hash__(self):
        return hash(self.levels)

    def __repr__(self):
        return f"<tower depth {self.depth} precision {self.precision}>"


# -- the twisted Laurent algebra ----------------------------------------------------


class TwistedLaurent:
    """A finite sum of beta^j * a_j in normal form (beta powers on the left).

    model = "sequence": a_j are AdamsSequences, twist a.beta = beta.sigma(a).
    model = "tower":    a_j are OmegaTowers,   twist a.beta = beta.omega(a).

    Each component class supplies the twist, the product and the agreement
    on the overlap of its model.
    """

    __slots__ = ("model", "terms")

    def __init__(self, model: str, terms: dict):
        if model not in ("sequence", "tower"):
            raise ValueError(f"unknown model {model!r}")
        self.model = model
        self.terms = {int(j): a for j, a in terms.items() if not a.is_zero()}

    def component(self, j: int):
        return self.terms.get(j)

    def is_zero(self):
        return not self.terms

    def _check(self, other):
        if not isinstance(other, TwistedLaurent):
            raise ModelMismatch("expected a twisted Laurent element")
        if other.model != self.model:
            raise ModelMismatch(f"{self.model} vs {other.model}")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for j, a in other.terms.items():
            out[j] = out[j] + a if j in out else a
        return TwistedLaurent(self.model, out)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, TwistedLaurent):
            self._check(other)
            out = {}
            for i, a in self.terms.items():
                for j, b in other.terms.items():
                    prod = (a.twist(j) if j else a) * b
                    key = i + j
                    out[key] = out[key] + prod if key in out else prod
            return TwistedLaurent(self.model, out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c):
        return TwistedLaurent(self.model, {j: a.scale(c) for j, a in self.terms.items()})

    def agrees_with(self, other: "TwistedLaurent") -> bool:
        """Componentwise equality on common windows (resp. common depth and
        precision); the honest equality notion when operands went through
        twists that shrink their domains differently."""
        self._check(other)
        return set(self.terms) == set(other.terms) and all(
            a.agrees_on_overlap(other.terms[j]) for j, a in self.terms.items()
        )

    def __eq__(self, other):
        if not isinstance(other, TwistedLaurent):
            return NotImplemented
        self._check(other)
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.model, tuple(sorted(self.terms))))

    def __repr__(self):
        parts = [f"beta^{j}*{a!r}" for j, a in sorted(self.terms.items())]
        return f"<{self.model}: {' + '.join(parts) or '0'}>"


# -- named elements --------------------------------------------------------------


def adams_operation_tower(k: int, depth: int, precision: int, ring=None) -> TwistedLaurent:
    """psi^k in the tower model: level n is k^-n (1-x)^-k.

    k must be invertible in the coefficient ring: any nonzero k over Q,
    k = +-1 over Z.
    """
    if k == 0:
        raise NonInvertibleK("psi^0 has no tower model (0 is not invertible)")
    if ring is None:
        ring = _Z if k in (1, -1) else _Q
    if ring == _Z and k not in (1, -1):
        raise NonInvertibleK(f"{k} is not invertible over Z")
    if ring not in (_Z, _Q):
        raise NonInvertibleK("towers live over Z or Q")
    base = geometric_power(k, precision, ring)
    levels = []
    for n in range(depth + 1):
        factor = Fraction(1, 1) / Fraction(k) ** n
        levels.append(base.scale(factor))
    return TwistedLaurent("tower", {0: OmegaTower(levels)})


def adams_operation_sequence(k: int, window) -> TwistedLaurent:
    """psi^k in the sequence model: (k^n) on the window.

    For k = 0 the rank-projector convention applies: psi^0 is the
    characteristic function of 0 (0^0 = 1, and 0 at negative indices).
    """
    lo, hi = window
    if k == 0:
        values = [1 if n == 0 else 0 for n in range(lo, hi + 1)]
    else:
        values = [Fraction(k) ** n for n in range(lo, hi + 1)]
    return TwistedLaurent("sequence", {0: AdamsSequence(lo, values)})


def idempotent_sequence(n: int, window) -> AdamsSequence:
    """The characteristic function of n on the window."""
    lo, hi = window
    if not lo <= n <= hi:
        raise WindowMiss(f"{n} outside window [{lo}, {hi}]")
    return AdamsSequence(lo, [1 if m == n else 0 for m in range(lo, hi + 1)])


def idempotent_element(n: int, window) -> TwistedLaurent:
    return TwistedLaurent("sequence", {0: idempotent_sequence(n, window)})


def unit_sequence(window) -> AdamsSequence:
    lo, hi = window
    return AdamsSequence(lo, [1] * (hi - lo + 1))


def beta_power_sequence(j: int, window) -> TwistedLaurent:
    """beta^j (times the unit) in the sequence model."""
    return TwistedLaurent("sequence", {j: unit_sequence(window)})


def beta_power_tower(j: int, depth: int, precision: int, ring=_Z) -> TwistedLaurent:
    """beta^j (times the o-unit tower, all levels (1-x)^-1)."""
    unit = geometric_power(1, precision, ring)
    return TwistedLaurent("tower", {j: OmegaTower([unit] * (depth + 1))})


# -- the isomorphism between the models --------------------------------------------


def tower_to_sequence(element: TwistedLaurent) -> TwistedLaurent:
    """Transport along the Adams transform: degree-0 data maps levelwise,
    with index -k read from level k; beta maps to beta.

    The resulting windows are [-depth, precision] per component.
    """
    if element.model != "tower":
        raise ModelMismatch("expected a tower-model element")
    terms = {}
    for j, tower in element.terms.items():
        head = adams_transform(tower.level(0))
        # a_0 = f(0): index -k is the constant term of level k
        negative = [tower.level(k).payloads[0] for k in range(tower.depth, 0, -1)]
        terms[j] = AdamsSequence(-tower.depth, negative + list(head.values))
    return TwistedLaurent("sequence", terms)


def sequence_to_tower(element: TwistedLaurent, depth: int | None = None) -> TwistedLaurent:
    """The inverse transport: level k is the inverse transform of the
    sequence shifted down by k, so the requested depth cannot exceed the
    available negative window."""
    if element.model != "sequence":
        raise ModelMismatch("expected a sequence-model element")
    terms = {}
    for j, seq in element.terms.items():
        available = -seq.lo
        want = available if depth is None else depth
        if want < 0 or want > available or seq.lo > 0:
            raise InsufficientDepth(
                f"depth {want} needs window down to {-want}, have [{seq.lo}, {seq.hi}]"
            )
        levels = []
        for k in range(want + 1):
            shifted = AdamsSequence(0, [seq.value(n - k) for n in range(0, seq.hi + 1)])
            levels.append(adams_transform_inv(shifted))
        terms[j] = OmegaTower(levels)
    return TwistedLaurent("tower", terms)


def mult_add_iso(element: TwistedLaurent, depth: int | None = None) -> TwistedLaurent:
    """The isomorphism between the models, in whichever direction applies."""
    if element.model == "tower":
        return tower_to_sequence(element)
    return sequence_to_tower(element, depth)


def eigenspace_action(element: TwistedLaurent, m: int) -> dict:
    """The action on the rank-one test module Q[beta^±1]: beta^m maps to
    sum_j a_j(m) beta^(m+j); returned as an exponent -> coefficient map."""
    if element.model != "sequence":
        raise ModelMismatch("the eigenspace action reads the sequence model")
    out = {}
    for j, seq in element.terms.items():
        c = seq.value(m)
        if c:
            out[m + j] = out.get(m + j, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}

"""Exact arithmetic over a closed family of coefficient rings.

The family covers the integers, the rationals, Z/m, the p-local integers,
Laurent extensions by a single graded variable, and quotients of a Laurent
ring over a field by a principal generator.  Every element is kept in a
canonical form so that equality of payloads is equality in the ring.

All values are immutable after construction and every operation is pure.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import Inconsistent, RingMismatch, Undecidable, Unsupported


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class RingElement:
    """An exact element of a coefficient ring, in canonical form."""

    __slots__ = ("ring", "payload")

    def __init__(self, ring, payload):
        self.ring = ring
        self.payload = payload

    def _coerce(self, other):
        if isinstance(other, RingElement):
            if other.ring != self.ring:
                raise RingMismatch(f"{self.ring} vs {other.ring}")
            return other
        if isinstance(other, int):
            return self.ring.from_int(other)
        if isinstance(other, Fraction):
            return self.ring.from_fraction(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring._add(self.payload, other.payload))

    __radd__ = __add__

    def __neg__(self):
        return RingElement(self.ring, self.ring._neg(self.payload))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring._mul(self.payload, other.payload))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return self.inverse() ** (-n)
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            try:
                other = self._coerce(other)
            except (Unsupported, ValueError):
                return NotImplemented
        if not isinstance(other, RingElement):
            return NotImplemented
        if other.ring != self.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")
        return self.payload == other.payload

    def __hash__(self):
        return hash((self.ring, self.ring._freeze(self.payload)))

    def __bool__(self):
        return not self.ring._is_zero(self.payload)

    def is_zero(self) -> bool:
        return self.ring._is_zero(self.payload)

    def is_unit(self) -> bool:
        return self.ring.is_unit(self)

    def inverse(self) -> "RingElement":
        return self.ring.invert(self)

    def __repr__(self):
        from .expressions import element_to_expr

        return element_to_expr(self)


class CoefficientRing:
    """Base class: a descriptor for one member of the supported ring family."""

    kind = "abstract"

    # -- construction -------------------------------------------------
    def element(self, payload) -> RingElement:
        return RingElement(self, self._canonical(payload))

    def zero(self) -> RingElement:
        return self.from_int(0)

    def one(self) -> RingElement:
        return self.from_int(1)

    def from_int(self, n: int) -> RingElement:
        raise NotImplementedError

    def from_fraction(self, q: Fraction) -> RingElement:
        q = Fraction(q)
        if q.denominator == 1:
            return self.from_int(q.numerator)
        raise Unsupported(f"{self} has no canonical image of {q}")

    # -- payload arithmetic (internal) ---------------------------------
    def _canonical(self, payload):
        return payload

    def _add(self, a, b):
        raise NotImplementedError

    def _neg(self, a):
        raise NotImplementedError

    def _mul(self, a, b):
        raise NotImplementedError

    def _is_zero(self, a) -> bool:
        raise NotImplementedError

    def _freeze(self, a):
        """Hashable canonical image of a payload."""
        return a

    # -- structural predicates -----------------------------------------
    def is_unit(self, elt: RingElement) -> bool:
        raise NotImplementedError

    def invert(self, elt: RingElement) -> RingElement:
        raise NotImplementedError

    def is_nilpotent(self, elt: RingElement) -> bool:
        """Only sound within the decidable family."""
        return elt.is_zero()

    def is_q_algebra(self) -> bool:
        return False

    def is_field(self) -> bool:
        return False

    def is_domain(self) -> bool:
        return False

    def generators(self) -> dict:
        """Named distinguished elements resolvable in expressions."""
        return {}

    def generator_degrees(self) -> dict:
        """Default grading of the named generators (may be overridden per use)."""
        return {}

    def __ne__(self, other):
        return not self.__eq__(other)


class Integers(CoefficientRing):
    kind = "integers"

    def from_int(self, n):
        return RingElement(self, int(n))

    def _canonical(self, payload):
        return int(payload)

    def _add(self, a, b):
        return a + b

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        return a * b

    def _is_zero(self, a):
        return a == 0

    def is_unit(self, elt):
        return elt.payload in (1, -1)

    def invert(self, elt):
        if not self.is_unit(elt):
            raise Unsupported(f"{elt.payload} is not a unit in Z")
        return elt

    def is_domain(self):
        return True

    def __eq__(self, other):
        return isinstance(other, Integers)

    def __hash__(self):
        return hash("Z")

    def __repr__(self):
        return "Z"


class Rationals(CoefficientRing):
    kind = "rationals"

    def from_int(self, n):
        return RingElement(self, Fraction(n))

    def from_fraction(self, q):
        return RingElement(self, Fraction(q))

    def _canonical(self, payload):
        return Fraction(payload)

    def _add(self, a, b):
        return a + b

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        return a * b

    def _is_zero(self, a):
        return a == 0

    def is_unit(self, elt):
        return elt.payload != 0

    def invert(self, elt):
        if elt.payload == 0:
            raise Unsupported("0 is not a unit in Q")
        return RingElement(self, 1 / elt.payload)

    def is_q_algebra(self):
        return True

    def is_field(self):
        return True

    def is_domain(self):
        return True

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class IntegersMod(CoefficientRing):
    """Z/m with residues in [0, m).  IntegersMod(1) is the zero ring."""

    kind = "integers_mod"

    def __init__(self, modulus: int):
        if modulus < 1:
            raise ValueError("modulus must be a positive integer")
        self.modulus = modulus

    def from_int(self, n):
        return RingElement(self, n % self.modulus)

    def _canonical(self, payload):
        return int(payload) % self.modulus

    def _add(self, a, b):
        return (a + b) % self.modulus

    def _neg(self, a):
        return (-a) % self.modulus

    def _mul(self, a, b):
        return (a * b) % self.modulus

    def _is_zero(self, a):
        return a == 0

    def is_unit(self, elt):
        if self.modulus == 1:
            return True
        return math.gcd(elt.payload, self.modulus) == 1

    def invert(self, elt):
        if not self.is_unit(elt):
            raise Unsupported(f"{elt.payload} is not a unit mod {self.modulus}")
        if self.modulus == 1:
            return elt
        return RingElement(self, pow(elt.payload, -1, self.modulus))

    def is_nilpotent(self, elt):
        # a is nilpotent mod m iff every prime factor of m divides a
        if elt.payload == 0:
            return True
        return pow(elt.payload, self.modulus.bit_length(), self.modulus) == 0

    def is_field(self):
        return _is_prime(self.modulus)

    def is_domain(self):
        return self.is_field()

    def __eq__(self, other):
        return isinstance(other, IntegersMod) and other.modulus == self.modulus

    def __hash__(self):
        return hash(("Zmod", self.modulus))

    def __repr__(self):
        return f"Z/{self.modulus}"


class PLocalIntegers(CoefficientRing):
    """Integers localized at a prime p: reduced fractions a/b with p not | b."""

    kind = "p_local"

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    def from_int(self, n):
        return RingElement(self, Fraction(n))

    def from_fraction(self, q):
        q = Fraction(q)
        if q.denominator % self.p == 0:
            raise Unsupported(f"{q} is not {self.p}-local")
        return RingElement(self, q)

    def _canonical(self, payload):
        q = Fraction(payload)
        if q.denominator % self.p == 0:
            raise ValueError(f"{q} is not {self.p}-local")
        return q

    def _add(self, a, b):
        return a + b

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        return a * b

    def _is_zero(self, a):
        return a == 0

    def is_unit(self, elt):
        return elt.payload != 0 and elt.payload.numerator % self.p != 0

    def invert(self, elt):
        if not self.is_unit(elt):
            raise Unsupported(f"{elt.payload} is not a unit in Z_({self.p})")
        return RingElement(self, 1 / elt.payload)

    def is_domain(self):
        return True

    def valuation(self, elt) -> int:
        """p-adic valuation of a nonzero element."""
        q = elt.payload
        if q == 0:
            raise ValueError("valuation of zero")
        v = 0
        n = q.numerator
        while n % self.p == 0:
            n //= self.p
            v += 1
        return v

    def __eq__(self, other):
        return isinstance(other, PLocalIntegers) and other.p == self.p

    def __hash__(self):
        return hash(("Zlocal", self.p))

    def __repr__(self):
        return f"Z_({self.p})"


class LaurentExtension(CoefficientRing):
    """base[v, v^-1] with the variable carrying an integer degree.

    Payloads are maps exponent -> nonzero base element.
    """

    kind = "laurent"

    def __init__(self, base: CoefficientRing, variable: str = "beta", degree: int = 1):
        if isinstance(base, LaurentExtension) and base.variable == variable:
            raise ValueError(f"base already contains the variable {variable!r}")
        self.base = base
        self.variable = variable
        self.degree = int(degree)

    def from_int(self, n):
        c = self.base.from_int(n)
        return RingElement(self, {} if c.is_zero() else {0: c})

    def from_fraction(self, q):
        c = self.base.from_fraction(q)
        return RingElement(self, {} if c.is_zero() else {0: c})

    def var(self, power: int = 1) -> RingElement:
        return RingElement(self, {int(power): self.base.one()})

    def monomial(self, coeff: RingElement, power: int) -> RingElement:
        if coeff.ring != self.base:
            raise RingMismatch("monomial coefficient must live in the base ring")
        return RingElement(self, {} if coeff.is_zero() else {int(power): coeff})

    def _canonical(self, payload):
        return {e: c for e, c in payload.items() if not c.is_zero()}

    def _add(self, a, b):
        out = dict(a)
        for e, c in b.items():
            s = out[e] + c if e in out else c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
        return out

    def _neg(self, a):
        return {e: -c for e, c in a.items()}

    def _mul(self, a, b):
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                p = c1 * c2
                if e in out:
                    p = out[e] + p
                if p.is_zero():
                    out.pop(e, None)
                else:
                    out[e] = p
        return out

    def _is_zero(self, a):
        return not a

    def _freeze(self, a):
        return tuple(sorted((e, c.ring._freeze(c.payload)) for e, c in a.items()))

    def is_unit(self, elt):
        terms = elt.payload
        if not terms:
            return self.base.is_unit(self.base.zero())  # zero ring case
        units = [e for e, c in terms.items() if c.is_unit()]
        if len(units) != 1:
            return False
        return all(self.base.is_nilpotent(c) for e, c in terms.items() if e != units[0])

    def invert(self, elt):
        terms = elt.payload
        if not self.is_unit(elt):
            raise Unsupported("element is not a unit in the Laurent ring")
        if not terms:  # zero ring
            return elt
        (e0,) = [e for e, c in terms.items() if c.is_unit()]
        u = terms[e0]
        lead = RingElement(self, {-e0: u.inverse()})
        if len(terms) == 1:
            return lead
        # elt = u*v^e0 * (1 + n) with n nilpotent: (1+n)^-1 = 1 - n + n^2 - ...
        one = self.one()
        n = lead * elt - one
        inv = one
        power = one
        sign = -1
        while True:
            power = power * n
            if power.is_zero():
                break
            inv = inv + (power if sign > 0 else -power)
            sign = -sign
        return lead * inv

    def is_nilpotent(self, elt):
        return all(self.base.is_nilpotent(c) for c in elt.payload.values())

    def is_q_algebra(self):
        return self.base.is_q_algebra()

    def is_domain(self):
        return self.base.is_domain()

    def generators(self):
        gens = {self.variable: self.var()}
        for name, g in self.base.generators().items():
            gens[name] = RingElement(self, {0: g})
        return gens

    def generator_degrees(self):
        degs = {self.variable: self.degree}
        degs.update(self.base.generator_degrees())
        return degs

    def __eq__(self, other):
        return (
            isinstance(other, LaurentExtension)
            and other.base == self.base
            and other.variable == self.variable
            and other.degree == self.degree
        )

    def __hash__(self):
        return hash(("Laurent", self.base, self.variable, self.degree))

    def __repr__(self):
        return f"{self.base}[{self.variable}^±1]"


# -- polynomial helpers over a field (payloads: dict exponent -> element) ----


def _poly_degree(a: dict) -> int:
    return max(a) if a else -1


def _poly_scale(a: dict, c: RingElement) -> dict:
    if c.is_zero():
        return {}
    return {e: x * c for e, x in a.items()}


def _poly_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = out[e] - c if e in out else -c
        if s.is_zero():
            out.pop(e, None)
        else:
            out[e] = s
    return out


def _poly_mul(a: dict, b: dict) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            p = c1 * c2
            if e in out:
                p = out[e] + p
            if p.is_zero():
                out.pop(e, None)
            else:
                out[e] = p
    return out


def _poly_mod(a: dict, f: dict) -> dict:
    """Remainder of a by the monic polynomial f, over a field."""
    d = _poly_degree(f)
    a = dict(a)
    while a:
        da = _poly_degree(a)
        if da < d:
            break
        lead = a[da]
        shift = {da - d + e: c * lead for e, c in f.items()}
        a = _poly_sub(a, shift)
    return a


def _poly_monic(a: dict) -> dict:
    lead = a[_poly_degree(a)]
    return _poly_scale(a, lead.inverse())


def _poly_gcd(a: dict, b: dict) -> dict:
    """Monic gcd over a field; gcd(a, 0) = monic(a)."""
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    return _poly_monic(a) if a else {}


class QuotientByPrincipal(CoefficientRing):
    """K[v^±1]/(f) for a Laurent ring over a field and f with unit constant term.

    The generator is normalized to a monic polynomial with f(0) != 0 and
    degree >= 1; cosets are represented by polynomials of smaller degree.
    The variable stays invertible in the quotient because f(0) is a unit.
    """

    kind = "quotient"

    def __init__(self, base: LaurentExtension, generator: RingElement):
        if not isinstance(base, LaurentExtension) or not base.base.is_field():
            raise Unsupported("quotient normal form needs a Laurent ring over a field")
        if generator.ring != base:
            raise RingMismatch("generator must be an element of the base ring")
        if generator.is_zero():
            raise ValueError("generator must be nonzero")
        poly = _strip_unit(generator.payload)
        if _poly_degree(poly) < 1:
            raise ValueError("generator is a unit; the quotient is the zero ring")
        self.base = base
        self.modulus = poly  # monic, poly[0] != 0
        self._deg = _poly_degree(poly)
        # v^-1 = -f(0)^-1 * (f - f(0))/v, reduced
        c0inv = poly[0].inverse()
        self._var_inv = {e - 1: -(c * c0inv) for e, c in poly.items() if e >= 1}

    def _reduce(self, payload: dict) -> dict:
        neg = -min((e for e in payload if e < 0), default=0)
        poly = {e + neg: c for e, c in payload.items()}
        poly = _poly_mod(poly, self.modulus)
        for _ in range(neg):
            poly = _poly_mod(_poly_mul(poly, self._var_inv), self.modulus)
        return poly

    def from_int(self, n):
        c = self.base.base.from_int(n)
        return RingElement(self, {} if c.is_zero() else {0: c})

    def from_fraction(self, q):
        c = self.base.base.from_fraction(q)
        return RingElement(self, {} if c.is_zero() else {0: c})

    def from_base(self, elt: RingElement) -> RingElement:
        if elt.ring != self.base:
            raise RingMismatch("expected an element of the covering Laurent ring")
        return RingElement(self, self._reduce(elt.payload))

    def _canonical(self, payload):
        return self._reduce({e: c for e, c in payload.items() if not c.is_zero()})

    def _add(self, a, b):
        return self.base._add(a, b)

    def _neg(self, a):
        return self.base._neg(a)

    def _mul(self, a, b):
        return self._reduce(self.base._mul(a, b))

    def _is_zero(self, a):
        return not a

    def _freeze(self, a):
        return self.base._freeze(a)

    def is_unit(self, elt):
        if not elt.payload:
            return False
        return _poly_degree(_poly_gcd(elt.payload, self.modulus)) == 0

    def invert(self, elt):
        # extended Euclid over the coefficient field
        r0, r1 = dict(self.modulus), dict(elt.payload)
        s0, s1 = {}, {0: self.base.base.one()}
        while r1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        if _poly_degree(r0) != 0:
            raise Unsupported("element is not a unit in the quotient ring")
        lead_inv = r0[0].inverse()
        return RingElement(self, self._reduce(_poly_scale(s0, lead_inv)))

    def is_q_algebra(self):
        return self.base.base.is_q_algebra()

    def generators(self):
        return {name: self.from_base(g) for name, g in self.base.generators().items()}

    def generator_degrees(self):
        return self.base.generator_degrees()

    def __eq__(self, other):
        return (
            isinstance(other, QuotientByPrincipal)
            and other.base == self.base
            and other._freeze(other.modulus) == self._freeze(self.modulus)
        )

    def __hash__(self):
        return hash(("Quot", self.base, self._freeze(self.modulus)))

    def __repr__(self):
        return f"{self.base}/(f), deg f = {self._deg}"


def _poly_divmod(a: dict, b: dict):
    """Quotient and remainder over a field (b nonzero)."""
    d = _poly_degree(b)
    lead_inv = b[d].inverse()
    q = {}
    a = dict(a)
    while a and _poly_degree(a) >= d:
        da = _poly_degree(a)
        c = a[da] * lead_inv
        q[da - d] = c
        a = _poly_sub(a, {da - d + e: x * c for e, x in b.items()})
    return q, a


def _strip_unit(payload: dict) -> dict:
    """Normalize a nonzero Laurent element over a field to a monic polynomial
    with nonzero constant term generating the same ideal."""
    low = min(payload)
    poly = {e - low: c for e, c in payload.items()}
    return _poly_monic(poly)


ZERO_RING = IntegersMod(1)


# -- module-level operations on the family -----------------------------------


def ring_arithmetic(a: RingElement, b: RingElement | None, op: str):
    """Dispatch table mirror of the element operators.

    op is one of add, mul, neg, eq, is_unit; neg and is_unit ignore b.
    """
    if op == "add":
        return a + b
    if op == "mul":
        return a * b
    if op == "neg":
        return -a
    if op == "eq":
        return a == b
    if op == "is_unit":
        return a.is_unit()
    raise ValueError(f"unknown op {op!r}")


def is_zero_ring(ring: CoefficientRing) -> bool:
    """True iff 1 = 0 in the ring."""
    if isinstance(ring, IntegersMod):
        return ring.modulus == 1
    if isinstance(ring, (Integers, Rationals, PLocalIntegers)):
        return False
    if isinstance(ring, LaurentExtension):
        return is_zero_ring(ring.base)
    if isinstance(ring, QuotientByPrincipal):
        return False  # unit generators are normalized away at construction
    return ring.one() == ring.zero()


def is_zero_divisor(r: RingElement) -> bool:
    """True iff some nonzero s has r*s = 0.

    Decides the family: integral domains, Z/m, Laurent rings over a field or
    over Z/m, and quotients of a Laurent ring over a field.  Everything else
    raises Undecidable (a scope limit, not a wrong answer).
    """
    witness = zero_divisor_witness(r)
    return witness is not None


def zero_divisor_witness(r: RingElement):
    """A nonzero annihilator of r, or None when r is not a zero divisor."""
    ring = r.ring
    if is_zero_ring(ring):
        return None
    if r.is_zero():
        return ring.one()
    if ring.is_domain() or r.is_unit():
        return None
    if isinstance(ring, IntegersMod):
        g = math.gcd(r.payload, ring.modulus)
        if g == 1:
            return None
        return ring.from_int(ring.modulus // g)
    if isinstance(ring, LaurentExtension) and isinstance(ring.base, IntegersMod):
        # McCoy: a polynomial over Z/m is a zero divisor iff a single nonzero
        # constant annihilates it; Laurent shifts do not change coefficients.
        m = ring.base.modulus
        need = 1
        for c in r.payload.values():
            need = need * (m // math.gcd(c.payload, m)) // math.gcd(
                need, m // math.gcd(c.payload, m)
            )
        if need >= m:
            return None
        return ring.from_int(need)
    if isinstance(ring, QuotientByPrincipal):
        g = _poly_gcd(r.payload, ring.modulus)
        if _poly_degree(g) == 0:
            return None
        cofactor, rem = _poly_divmod(ring.modulus, g)
        if rem:
            raise Inconsistent("the gcd with the modulus does not divide the modulus")
        return RingElement(ring, ring._reduce(cofactor))
    raise Undecidable(f"no zero-divisor routine for {ring}")


def quotient_by_element(ring: CoefficientRing, r: RingElement) -> CoefficientRing:
    """The quotient of the ring by the principal ideal (r), normalized.

    Returns a member of the same closed family; iterated quotients compose.
    """
    if r.ring != ring:
        raise RingMismatch("r must be an element of the ring being quotiented")
    if is_zero_ring(ring):
        return ZERO_RING
    if r.is_zero():
        raise ValueError("generator must be nonzero")
    if r.is_unit():
        return ZERO_RING
    if isinstance(ring, Integers):
        return IntegersMod(abs(r.payload))
    if isinstance(ring, Rationals):
        return ZERO_RING
    if isinstance(ring, PLocalIntegers):
        k = ring.valuation(r)
        return IntegersMod(ring.p**k) if k else ZERO_RING
    if isinstance(ring, IntegersMod):
        return IntegersMod(math.gcd(ring.modulus, r.payload))
    if isinstance(ring, LaurentExtension):
        exps = sorted(r.payload)
        if len(exps) == 1:
            # (c * v^k) = (c) since v is invertible
            base_q = quotient_by_element(ring.base, r.payload[exps[0]])
            if is_zero_ring(base_q):
                return ZERO_RING
            return LaurentExtension(base_q, ring.variable, ring.degree)
        if ring.base.is_field():
            return QuotientByPrincipal(ring, r)
        raise Unsupported(
            "multi-term generators are only supported over a field "
            f"(got base {ring.base})"
        )
    if isinstance(ring, QuotientByPrincipal):
        g = _poly_gcd(r.payload, ring.modulus)
        if _poly_degree(g) == 0:
            return ZERO_RING
        return QuotientByPrincipal(ring.base, RingElement(ring.base, g))
    raise Unsupported(f"no quotient normal form for {ring}")


def project(elt: RingElement, target: CoefficientRing) -> RingElement:
    """Image of elt under the canonical surjection onto a quotient of its ring.

    Supports exactly the reduction maps produced by quotient_by_element.
    """
    ring = elt.ring
    if ring == target:
        return elt
    if is_zero_ring(target):
        return target.zero()
    if isinstance(target, IntegersMod):
        if isinstance(ring, Integers):
            return target.from_int(elt.payload)
        if isinstance(ring, IntegersMod) and ring.modulus % target.modulus == 0:
            return target.from_int(elt.payload)
        if isinstance(ring, PLocalIntegers):
            num, den = elt.payload.numerator, elt.payload.denominator
            return target.from_int(num * pow(den, -1, target.modulus))
    if isinstance(target, LaurentExtension) and isinstance(ring, LaurentExtension):
        if target.variable == ring.variable:
            out = {}
            for e, c in elt.payload.items():
                img = project(c, target.base)
                if not img.is_zero():
                    out[e] = img
            return RingElement(target, out)
    if isinstance(target, QuotientByPrincipal):
        if ring == target.base:
            return target.from_base(elt)
        if isinstance(ring, QuotientByPrincipal) and ring.base == target.base:
            return RingElement(target, target._reduce(elt.payload))
    raise Unsupported(f"no canonical map {ring} -> {target}")

"""Exact arithmetic over a closed family of coefficient rings.

The family covers the integers, the rationals, Z/m, the p-local integers,
Laurent extensions by a single graded variable, and quotients of a Laurent
ring over a field by a principal generator.  Every element is kept in a
canonical form so that equality of payloads is equality in the ring.

All values are immutable after construction and every operation is pure.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import Inconsistent, IntegralityViolation, RingMismatch, Undecidable, Unsupported


# The first 13 primes.  As Miller-Rabin bases they decide primality exactly
# below _PRIME_BOUND (Sorenson and Webster, "Strong pseudoprimes to twelve
# prime bases", Math. Comp. 86 (2017)).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the first 13 prime bases.

    A multiple of a base is decided by division, at any size; any other n at
    or above _PRIME_BOUND, where the bases are no longer known to suffice,
    raises Unsupported.
    """
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    if n < 43 * 43:
        # no prime factor up to 41, and any composite below 43^2 has one
        return True
    if n >= _PRIME_BOUND:
        # n itself may have too many digits to print
        raise Unsupported(
            f"no primality decision for a {n.bit_length()}-bit integer >= {_PRIME_BOUND}"
        )
    # n - 1 = d 2^s with d odd; n is a strong probable prime to base a when
    # a^d = 1 or a^(d 2^r) = -1 mod n for some r < s
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sparse_add(ring, a: dict, b: dict) -> dict:
    """The sum of two sparse maps key -> nonzero payload of ring, zeros
    dropped; the keys of a keep their order and new keys of b follow."""
    add, is_zero = ring._add, ring._is_zero
    out = dict(a)
    for k, q in b.items():
        p = add(out[k], q) if k in out else q
        if is_zero(p):
            out.pop(k, None)
        else:
            out[k] = p
    return out


# -- canonical printing helpers for the ring classes' to_expr ----------------


def _join_terms(terms):
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        if t.startswith("-"):
            out += " - " + t[1:]
        else:
            out += " + " + t
    return out


def _needs_parens(s: str) -> bool:
    depth = 0
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0:
            return True
    return False


def _coeff_times(coeff_str: str, var_str: str) -> str:
    if coeff_str == "1":
        return var_str
    if coeff_str == "-1":
        # unary minus binds tighter than '^' in the grammar, so a leading
        # "-beta^-4" would re-parse as (-beta)^-4; spell the -1 out instead
        if "^" in var_str:
            return f"-1*{var_str}"
        return "-" + var_str
    if _needs_parens(coeff_str.lstrip("-")) or (
        coeff_str.startswith("-") and _needs_parens(coeff_str[1:])
    ):
        return f"({coeff_str})*{var_str}"
    return f"{coeff_str}*{var_str}"


def _power_str(var: str, e: int) -> str:
    if e == 1:
        return var
    return f"{var}^{e}"


class RingElement:
    """An exact element of a coefficient ring, in canonical form."""

    __slots__ = ("ring", "payload")

    def __init__(self, ring, payload):
        self.ring = ring
        self.payload = payload

    def _coerce(self, other):
        if isinstance(other, RingElement):
            if other.ring is self.ring or other.ring == self.ring:
                return other
            raise RingMismatch(f"{self.ring} vs {other.ring}")
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
        if other.ring is self.ring or other.ring == self.ring:
            return self.payload == other.payload
        raise RingMismatch(f"{self.ring} vs {other.ring}")

    def __hash__(self):
        return hash((self.ring, self.ring._freeze(self.payload)))

    def __bool__(self):
        return not self.ring._is_zero(self.payload)

    def is_zero(self) -> bool:
        return self.ring._is_zero(self.payload)

    def is_unit(self) -> bool:
        return self.ring.is_unit(self.payload)

    def inverse(self) -> "RingElement":
        return RingElement(self.ring, self.ring.invert(self.payload))

    def __repr__(self):
        return self.ring.to_expr(self.payload)


class CoefficientRing:
    """Base class: a descriptor for one member of the supported ring family."""

    kind = "abstract"

    # the attributes that identify a ring within its class
    _identity = ()

    # -- identity -------------------------------------------------------
    # A ring operation compares the rings of its operands, which are almost
    # always one object, so that case stops at `is`.
    def __eq__(self, other):
        if self is other:
            return True
        return type(other) is type(self) and all(
            getattr(self, name) == getattr(other, name) for name in self._identity
        )

    def __hash__(self):
        return hash((type(self).__name__, *(getattr(self, name) for name in self._identity)))

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

    # multiply-accumulate, for sums of products such as series coefficients:
    # the right factor b goes through _operand once, acc is None for the empty
    # sum, and _settle makes the finished sum canonical.  A ring may update
    # acc in place, as long as the accumulators are its own; _is_zero reads
    # an accumulator as well as a payload.
    def _operand(self, b):
        return b

    def _mul_add(self, acc, a, b):
        p = self._mul(a, b)
        return p if acc is None else self._add(acc, p)

    def _settle(self, acc):
        return acc

    def _freeze(self, a):
        """Hashable canonical image of a payload."""
        return a

    # the integer view of Z, Q and Z_(p), as FLINT's fmpq_poly: payloads as
    # integers over their lcm denominator d, and back one at a time by
    # _from_integer(s, d), the canonical payload of s/d
    def _as_integers(self, payloads):
        raise RingMismatch(f"integer vectors live over Z, Q or Z_(p), not {self}")

    def to_expr(self, payload) -> str:
        """Canonical expression string of a payload; it re-parses to an equal
        element (expressions.element_to_expr is the public entry)."""
        return str(payload)

    # -- structural predicates -----------------------------------------
    # Decisions take and return payloads of this ring; RingElement.is_unit
    # and .inverse, and the module functions below, box at the public edge.
    def is_unit(self, a) -> bool:
        raise NotImplementedError

    def invert(self, a):
        raise NotImplementedError

    def divide(self, a, n: int):
        """The x with n*x = a for a positive integer n; raises Inconsistent
        when there is none and Unsupported when there may be several."""
        if self.is_q_algebra():
            return self._mul(a, self.from_fraction(Fraction(1, n)).payload)
        d = self.from_int(n).payload
        if self.is_unit(d):
            return self._mul(a, self.invert(d))
        if self._is_zero(d) and not self._is_zero(a):
            raise Inconsistent(f"{n} is zero in {self} and {self.to_expr(a)} is not")
        raise Unsupported(f"no unique quotient by {n} in {self}")

    def is_nilpotent(self, a) -> bool:
        """Only sound within the decidable family."""
        return self._is_zero(a)

    def is_q_algebra(self) -> bool:
        return False

    def is_field(self) -> bool:
        return False

    def is_domain(self) -> bool:
        return False

    def is_domain_mod_nilpotents(self) -> bool:
        """True when the ring modulo its nilpotents is known to be a domain."""
        return self.is_domain()

    def generators(self) -> dict:
        """Named distinguished elements resolvable in expressions."""
        return {}

    def element_degrees(self, a, degrees: dict) -> set:
        """The set of weighted degrees of the monomials of a.

        degrees maps generator names to degrees; a generator it leaves out
        keeps the ring's own degree.  Empty for zero; {0} for nonzero
        constants.  A quotient ring, which has no grading unless its
        variable has degree 0, raises Unsupported.
        """
        return set() if self._is_zero(a) else {0}

    # -- family decisions ----------------------------------------------
    # The module functions of the same names run the checks every family
    # shares (zero ring, zero element, unit, domain, same ring) and then ask
    # the ring; these defaults refuse what a family does not decide.
    def is_zero_ring(self) -> bool:
        return False

    def zero_divisor_witness(self, r):
        """r is nonzero and not a unit; the ring is nonzero, not a domain."""
        raise Undecidable(f"no zero-divisor routine for {self}")

    def quotient_by_element(self, r) -> "CoefficientRing":
        """r is nonzero and not a unit; the ring is nonzero."""
        raise Unsupported(f"no quotient normal form for {self}")

    def project(self, a, target: "CoefficientRing"):
        """a is a payload of this ring; target is another, nonzero ring."""
        raise Unsupported(f"no canonical map {self} -> {target}")

    def to_json(self) -> dict:
        raise Unsupported(f"{self} has no JSON descriptor")


class _NumberRing(CoefficientRing):
    """Z, Q and Z_(p): domains whose payloads are Python ints or Fractions
    with their own arithmetic."""

    _add = staticmethod(operator.add)
    _neg = staticmethod(operator.neg)
    _mul = staticmethod(operator.mul)
    _is_zero = staticmethod(operator.not_)

    def is_domain(self):
        return True

    def invert(self, a):
        if not self.is_unit(a):
            raise Unsupported(f"{a} is not a unit in {self}")
        return 1 / a

    def _as_integers(self, payloads):
        d = math.lcm(*(q.denominator for q in payloads))
        return [q.numerator * (d // q.denominator) for q in payloads], d

    def _from_integer(self, s, d):
        return self._canonical(Fraction(s, d))

    def to_json(self):
        return {"kind": self.kind}


class Integers(_NumberRing):
    kind = "integers"

    def from_int(self, n):
        return RingElement(self, int(n))

    def _canonical(self, payload):
        return int(payload)

    def is_unit(self, a):
        return a in (1, -1)

    def invert(self, a):
        if not self.is_unit(a):
            raise Unsupported(f"{a} is not a unit in Z")
        return a

    def divide(self, a, n):
        q, r = divmod(a, n)
        if r:
            raise Inconsistent(f"{a} is not divisible by {n} in Z")
        return q

    def _as_integers(self, payloads):
        return payloads, 1

    def _from_integer(self, s, d):
        q, r = divmod(s, d)
        if r:
            raise IntegralityViolation(f"{s}/{d} is not an integer")
        return q

    def quotient_by_element(self, r):
        return IntegersMod(abs(r))

    def project(self, a, target):
        if isinstance(target, IntegersMod):
            return target._canonical(a)
        return super().project(a, target)

    def __repr__(self):
        return "Z"


class Rationals(_NumberRing):
    kind = "rationals"

    def from_int(self, n):
        return RingElement(self, Fraction(n))

    def from_fraction(self, q):
        return RingElement(self, Fraction(q))

    def _canonical(self, payload):
        return Fraction(payload)

    _from_integer = staticmethod(Fraction)

    def is_unit(self, a):
        return a != 0

    def is_q_algebra(self):
        return True

    def is_field(self):
        return True

    def __repr__(self):
        return "Q"


class IntegersMod(CoefficientRing):
    """Z/m with residues in [0, m).  IntegersMod(1) is the zero ring."""

    kind = "integers_mod"
    _identity = ("modulus",)

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

    def is_unit(self, a):
        return math.gcd(a, self.modulus) == 1

    def invert(self, a):
        if not self.is_unit(a):
            raise Unsupported(f"{a} is not a unit mod {self.modulus}")
        return pow(a, -1, self.modulus)

    def divide(self, a, n):
        # n*x = a mod m has gcd(n, m) solutions when the gcd divides a, else none
        g = math.gcd(n, self.modulus)
        if a % g:
            raise Inconsistent(f"{a} is not divisible by {n} mod {self.modulus}")
        if g > 1:
            raise Unsupported(f"{a}/{n} has {g} values mod {self.modulus}")
        return super().divide(a, n)

    def is_nilpotent(self, a):
        # a is nilpotent mod m iff every prime factor of m divides a
        if a == 0:
            return True
        return pow(a, self.modulus.bit_length(), self.modulus) == 0

    def is_field(self):
        return _is_prime(self.modulus)

    def is_domain(self):
        return self.is_field()

    def is_domain_mod_nilpotents(self):
        return len(_prime_power_factors(self.modulus)) == 1

    def is_zero_ring(self):
        return self.modulus == 1

    def zero_divisor_witness(self, r):
        return self.modulus // math.gcd(r, self.modulus)

    def quotient_by_element(self, r):
        return IntegersMod(math.gcd(self.modulus, r))

    def project(self, a, target):
        if isinstance(target, IntegersMod) and self.modulus % target.modulus == 0:
            return target._canonical(a)
        return super().project(a, target)

    def to_json(self):
        return {"kind": self.kind, "modulus": self.modulus}

    def __repr__(self):
        return f"Z/{self.modulus}"


class PLocalIntegers(_NumberRing):
    """Integers localized at a prime p: reduced fractions a/b with p not | b."""

    kind = "p_local"
    _identity = ("p",)

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

    def is_unit(self, a):
        return a != 0 and a.numerator % self.p != 0

    def divide(self, a, n):
        q = a / n
        if q.denominator % self.p == 0:
            raise Inconsistent(f"{a} is not divisible by {n} in {self}")
        return q

    def valuation(self, a) -> int:
        """p-adic valuation of a nonzero element."""
        if a == 0:
            raise ValueError("valuation of zero")
        v = 0
        n = a.numerator
        while n % self.p == 0:
            n //= self.p
            v += 1
        return v

    def quotient_by_element(self, r):
        return IntegersMod(self.p ** self.valuation(r))

    def project(self, a, target):
        # a ring map Z_(p) -> Z/m exists only when m is a power of p, that is
        # when p^bit_length(m) = 0 mod m; then every denominator is a unit
        if isinstance(target, IntegersMod) and not pow(
            self.p, target.modulus.bit_length(), target.modulus
        ):
            return target._canonical(a.numerator * pow(a.denominator, -1, target.modulus))
        return super().project(a, target)

    def to_json(self):
        return {"kind": self.kind, "prime": self.p}

    def __repr__(self):
        return f"Z_({self.p})"


def _geometric_inverse(ring: CoefficientRing, u):
    """Inverse of the payload u = 1 + n with n nilpotent: 1 - n + n^2 - ..."""
    one = ring.one().payload
    minus_n = ring._neg(ring._add(u, ring._neg(one)))
    inv = power = one
    while True:
        power = ring._mul(power, minus_n)
        if ring._is_zero(power):
            return inv
        inv = ring._add(inv, power)


def _prime_power_factors(m: int) -> list:
    """The prime powers exactly dividing m, by increasing prime."""
    out, p = [], 2
    while p * p <= m:
        if m % p == 0:  # p ** bit_length(m) > m, so the gcd is the p-part
            out.append(math.gcd(m, p ** m.bit_length()))
            m //= out[-1]
        p += 1
    return out + [m] if m > 1 else out


class LaurentExtension(CoefficientRing):
    """base[v, v^-1] with the variable carrying an integer degree.

    Payloads are maps exponent -> nonzero payload of the base, so a tower of
    Laurent variables nests maps down to the payloads of its innermost ring.
    """

    kind = "laurent"
    _identity = ("base", "variable", "degree")

    def __init__(self, base: CoefficientRing, variable: str = "beta", degree: int = 1):
        if variable in base.generators():
            raise ValueError(f"base already contains the variable {variable!r}")
        self.base = base
        self.variable = variable
        self.degree = int(degree)

    def from_int(self, n):
        return self.monomial(self.base.from_int(n), 0)

    def from_fraction(self, q):
        return self.monomial(self.base.from_fraction(q), 0)

    def var(self, power: int = 1) -> RingElement:
        return RingElement(self, {int(power): self.base.one().payload})

    def monomial(self, coeff: RingElement, power: int) -> RingElement:
        if coeff.ring != self.base:
            raise RingMismatch("monomial coefficient must live in the base ring")
        return RingElement(self, {} if coeff.is_zero() else {int(power): coeff.payload})

    def _canonical(self, payload):
        canonical, is_zero = self.base._canonical, self.base._is_zero
        return {e: c for e, v in payload.items() if not is_zero(c := canonical(v))}

    # the sparse Laurent kernels, on the base's payload hooks
    def _add(self, a, b):
        return sparse_add(self.base, a, b)

    def _neg(self, a):
        neg = self.base._neg
        return {e: neg(c) for e, c in a.items()}

    def _mul(self, a, b):
        return self._settle(self._mul_add(None, a, self._operand(b)))

    # An accumulator maps an exponent to an accumulator of the base, filled
    # and settled through the base's own hooks.  An exponent leaves as its sum
    # cancels; a product that vanishes on an exponent not yet present leaves
    # nothing.
    def _operand(self, b):
        operand = self.base._operand
        return [(e, operand(c)) for e, c in b.items()]

    def _mul_add(self, acc, a, b_terms):
        if acc is None:
            acc = {}
        base = self.base
        mul_add, is_zero = base._mul_add, base._is_zero
        get = acc.get
        for e1, x in a.items():
            for e2, y in b_terms:
                e = e1 + e2
                s = mul_add(get(e), x, y)
                if is_zero(s):
                    acc.pop(e, None)
                else:
                    acc[e] = s
        return acc

    def _settle(self, acc):
        settle = self.base._settle
        return {e: settle(s) for e, s in acc.items()}

    def _is_zero(self, a):
        return not a

    def _freeze(self, a):
        return tuple(sorted((e, self.base._freeze(c)) for e, c in a.items()))

    def to_expr(self, payload):
        terms = []
        for e in sorted(payload):
            c = self.base.to_expr(payload[e])
            terms.append(c if e == 0 else _coeff_times(c, _power_str(self.variable, e)))
        return _join_terms(terms)

    def _components(self):
        """When the innermost coefficient ring is Z/m and m is not a prime
        power: (e, ring) for each prime power q exactly dividing m, where ring
        is this tower over Z/q and e = 1 mod q, 0 mod m/q.  Else empty.
        Not cached: it only runs for elements that fail _unit_term."""
        inner = self.base
        while isinstance(inner, LaurentExtension):
            inner = inner.base
        if not isinstance(inner, IntegersMod):
            return []
        m = inner.modulus
        qs = _prime_power_factors(m)
        if len(qs) < 2:
            return []
        return [((m // q) * pow(m // q, -1, q), self._over(IntegersMod(q))) for q in qs]

    def _over(self, inner: CoefficientRing) -> "LaurentExtension":
        """This tower of Laurent variables over another innermost ring."""
        base = self.base._over(inner) if isinstance(self.base, LaurentExtension) else inner
        return LaurentExtension(base, self.variable, self.degree)

    def _unit_term(self, a: dict):
        """The exponent of the one unit coefficient when all the others are
        nilpotent, which makes the element a unit; else None."""
        base = self.base
        units = [e for e, c in a.items() if base.is_unit(c)]
        if len(units) == 1 and all(base.is_nilpotent(c) for e, c in a.items() if e != units[0]):
            return units[0]
        return None

    def is_unit(self, a):
        if not a:
            return self.is_zero_ring()
        if self._unit_term(a) is not None:
            return True
        # That test is also necessary when the base modulo its nilpotents is a
        # domain, whose Laurent units are unit monomials.  Z/m is the product
        # of its Z/q.  Over any other base a unit need have no unit term, such
        # as e1 + e2 v for orthogonal idempotents with e1 + e2 = 1.
        if self.base.is_domain_mod_nilpotents():
            return False
        components = self._components()
        if not components:
            raise Undecidable(f"no unit test for {self} beyond unit monomials")
        return all(ring.is_unit(self.project(a, ring)) for _, ring in components)

    def invert(self, a):
        if not self.is_unit(a):
            raise Unsupported("element is not a unit in the Laurent ring")
        e0 = self._unit_term(a)
        if e0 is None:
            # a unit over every Z/q: add up e * (the inverse over Z/q), whose
            # residues in [0, q) are payloads over Z/m (none over Z/1: 0 = 1)
            total = {}
            for e, ring in self._components():
                inv = ring.invert(self.project(a, ring))
                total = self._add(total, self._mul(self.from_int(e).payload, inv))
            return total
        lead = {-e0: self.base.invert(a[e0])}
        if len(a) == 1:
            return lead
        # a = u*v^e0 * (1 + n) with n nilpotent
        return self._mul(lead, _geometric_inverse(self, self._mul(lead, a)))

    def divide(self, a, n):
        divide = self.base.divide
        return {e: divide(c, n) for e, c in a.items()}

    def is_nilpotent(self, a):
        return all(map(self.base.is_nilpotent, a.values()))

    def is_q_algebra(self):
        return self.base.is_q_algebra()

    def is_domain(self):
        return self.base.is_domain()

    def is_domain_mod_nilpotents(self):
        return self.base.is_domain_mod_nilpotents()

    def generators(self):
        gens = {self.variable: self.var()}
        for name, g in self.base.generators().items():
            gens[name] = RingElement(self, {0: g.payload})
        return gens

    def element_degrees(self, a, degrees):
        d_var = degrees.get(self.variable, self.degree)
        return {
            dc + e * d_var for e, c in a.items() for dc in self.base.element_degrees(c, degrees)
        }

    def is_zero_ring(self):
        return self.base.is_zero_ring()

    def zero_divisor_witness(self, r):
        if not isinstance(self.base, IntegersMod):
            return super().zero_divisor_witness(r)
        # McCoy: a polynomial over Z/m is a zero divisor iff a single nonzero
        # constant annihilates it; Laurent shifts do not change coefficients.
        m = self.base.modulus
        need = math.lcm(*(m // math.gcd(c, m) for c in r.values()))
        return None if need >= m else {0: need}

    def quotient_by_element(self, r):
        if len(r) == 1:
            # (c * v^k) = (c) since v is invertible; c is no unit of a nonzero base
            (c,) = r.values()
            return LaurentExtension(self.base.quotient_by_element(c), self.variable, self.degree)
        if self.base.is_field():
            return QuotientByPrincipal(self, RingElement(self, r))
        raise Unsupported(
            "multi-term generators are only supported over a field "
            f"(got base {self.base})"
        )

    def project(self, a, target):
        if isinstance(target, LaurentExtension) and target.variable == self.variable:
            base, onto = self.base, target.base
            return target._canonical({e: _project(base, c, onto) for e, c in a.items()})
        if isinstance(target, QuotientByPrincipal) and target.base == self:
            return target._reduce(a)
        return super().project(a, target)

    def to_json(self):
        return {
            "kind": self.kind,
            "base": self.base.to_json(),
            "variable": self.variable,
            "degree": self.degree,
        }

    def __repr__(self):
        return f"{self.base}[{self.variable}^±1]"


# -- polynomial helpers over a field K, on payloads of K[v^±1] ---------------


def _poly_degree(a: dict) -> int:
    return max(a) if a else -1


def _poly_monic(field: CoefficientRing, a: dict) -> dict:
    lead_inv = field.invert(a[_poly_degree(a)])
    return {e: field._mul(x, lead_inv) for e, x in a.items()}


def _poly_gcd(field: CoefficientRing, a: dict, b: dict) -> dict:
    """Monic gcd over a field; gcd(a, 0) = monic(a)."""
    while b:
        a, b = b, _poly_divmod(field, a, b)[1]
    return _poly_monic(field, a) if a else {}


class QuotientByPrincipal(CoefficientRing):
    """K[v^±1]/(f) for a Laurent ring over a field and f with unit constant term.

    The generator is normalized to a monic polynomial with f(0) != 0 and
    degree >= 1; cosets are represented by polynomials of smaller degree,
    whose payloads are those of the Laurent ring.  The variable stays
    invertible in the quotient because f(0) is a unit.
    """

    kind = "quotient"
    _identity = ("base", "_frozen_modulus")

    def __init__(self, base: LaurentExtension, generator: RingElement):
        if not isinstance(base, LaurentExtension) or not base.base.is_field():
            raise Unsupported("quotient normal form needs a Laurent ring over a field")
        if generator.ring != base:
            raise RingMismatch("generator must be an element of the base ring")
        if generator.is_zero():
            raise ValueError("generator must be nonzero")
        field = base.base
        poly = _strip_unit(field, generator.payload)
        if _poly_degree(poly) < 1:
            raise ValueError("generator is a unit; the quotient is the zero ring")
        self.base = base
        self.modulus = poly  # monic, poly[0] != 0
        self._frozen_modulus = base._freeze(poly)
        self._deg = _poly_degree(poly)
        # v^-1 = -f(0)^-1 * (f - f(0))/v, reduced
        c0inv = field.invert(poly[0])
        self._var_inv = {e - 1: field._neg(field._mul(c, c0inv)) for e, c in poly.items() if e >= 1}

    def _reduce(self, payload: dict) -> dict:
        field = self.base.base
        neg = -min((e for e in payload if e < 0), default=0)
        poly = {e + neg: c for e, c in payload.items()}
        poly = _poly_divmod_monic(field, poly, self.modulus)[1]
        for _ in range(neg):
            poly = _poly_divmod_monic(field, self.base._mul(poly, self._var_inv), self.modulus)[1]
        return poly

    # a constant has degree 0 < deg f, so it is already reduced
    def from_int(self, n):
        return RingElement(self, self.base.from_int(n).payload)

    def from_fraction(self, q):
        return RingElement(self, self.base.from_fraction(q).payload)

    def from_base(self, elt: RingElement) -> RingElement:
        if elt.ring != self.base:
            raise RingMismatch("expected an element of the covering Laurent ring")
        return RingElement(self, self._reduce(elt.payload))

    def _canonical(self, payload):
        return self._reduce(self.base._canonical(payload))

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

    def to_expr(self, payload):
        return self.base.to_expr(payload)

    def is_unit(self, a):
        # gcd(0, f) = f has degree >= 1
        return _poly_degree(_poly_gcd(self.base.base, a, self.modulus)) == 0

    def invert(self, a):
        # extended Euclid over the coefficient field
        laurent, field = self.base, self.base.base
        r0, r1 = self.modulus, a
        s0, s1 = {}, {0: field.one().payload}
        while r1:
            q, r = _poly_divmod(field, r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, laurent._add(s0, laurent._neg(laurent._mul(q, s1)))
        if _poly_degree(r0) != 0:
            raise Unsupported("element is not a unit in the quotient ring")
        lead_inv = field.invert(r0[0])
        return self._reduce({e: field._mul(x, lead_inv) for e, x in s0.items()})

    def is_q_algebra(self):
        return self.base.base.is_q_algebra()

    def generators(self):
        return {name: self.from_base(g) for name, g in self.base.generators().items()}

    def element_degrees(self, a, degrees):
        # f has f(0) != 0 and degree >= 1, so the ideal (f) is homogeneous
        # only when the variable has degree 0
        var = self.base.variable
        d = degrees.get(var, self.base.degree)
        if d != 0:
            raise Unsupported(
                f"{self} has no grading with |{var}| = {d}: its modulus is not homogeneous"
            )
        return super().element_degrees(a, degrees)

    def zero_divisor_witness(self, r):
        field = self.base.base
        g = _poly_gcd(field, r, self.modulus)
        cofactor, rem = _poly_divmod(field, self.modulus, g)
        if rem:
            raise Inconsistent("the gcd with the modulus does not divide the modulus")
        return self._reduce(cofactor)

    def quotient_by_element(self, r):
        g = _poly_gcd(self.base.base, r, self.modulus)
        return QuotientByPrincipal(self.base, RingElement(self.base, g))

    def project(self, a, target):
        if isinstance(target, QuotientByPrincipal) and target.base == self.base:
            return target._reduce(a)
        return super().project(a, target)

    def to_json(self):
        generator = self.base.to_expr(self.modulus)
        return {"kind": self.kind, "base": self.base.to_json(), "generator": generator}

    def __repr__(self):
        return f"{self.base}/(f), deg f = {self._deg}"


def _poly_divmod(field: CoefficientRing, a: dict, b: dict):
    """Quotient and remainder over a field (b nonzero)."""
    lead_inv, mul = field.invert(b[_poly_degree(b)]), field._mul
    q, r = _poly_divmod_monic(field, a, {e: mul(x, lead_inv) for e, x in b.items()})
    return {e: mul(x, lead_inv) for e, x in q.items()}, r


def _poly_divmod_monic(ring: CoefficientRing, a: dict, b: dict):
    """Quotient and remainder by a monic b, over any ring: nothing is inverted."""
    mul, neg = ring._mul, ring._neg
    d = _poly_degree(b)
    q = {}
    while a and _poly_degree(a) >= d:
        da = _poly_degree(a)
        c = a[da]
        q[da - d] = c
        a = sparse_add(ring, a, {da - d + e: neg(mul(x, c)) for e, x in b.items()})
    return q, a


def _strip_unit(field: CoefficientRing, payload: dict) -> dict:
    """Normalize a nonzero Laurent element over a field to a monic polynomial
    with nonzero constant term generating the same ideal."""
    low = min(payload)
    return _poly_monic(field, {e - low: c for e, c in payload.items()})


ZERO_RING = IntegersMod(1)


# -- module-level decisions on the family ------------------------------------
# Each runs the checks shared by every family, then asks the ring's method of
# the same name.


def is_zero_ring(ring: CoefficientRing) -> bool:
    """True iff 1 = 0 in the ring."""
    return ring.is_zero_ring()


def zero_divisor_witness(r: RingElement):
    """A nonzero annihilator of r, or None when r is not a zero divisor.

    Decides the family: integral domains, Z/m, Laurent rings over a field or
    over Z/m, and quotients of a Laurent ring over a field.  Everything else
    raises Undecidable (a scope limit, not a wrong answer).
    """
    ring = r.ring
    if is_zero_ring(ring):
        return None
    if r.is_zero():
        return ring.one()
    if ring.is_domain() or r.is_unit():
        return None
    witness = ring.zero_divisor_witness(r.payload)
    return None if witness is None else RingElement(ring, witness)


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
    return ring.quotient_by_element(r.payload)


def project(elt: RingElement, target: CoefficientRing) -> RingElement:
    """Image of elt under the canonical surjection onto a quotient of its ring.

    Supports exactly the reduction maps produced by quotient_by_element.
    """
    return RingElement(target, _project(elt.ring, elt.payload, target))


def _project(ring: CoefficientRing, a, target: CoefficientRing):
    """project on a payload a of ring, with the checks every family shares."""
    if ring == target:
        return a
    if target.is_zero_ring():
        return target.zero().payload
    return ring.project(a, target)

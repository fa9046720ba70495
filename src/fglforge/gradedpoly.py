"""Graded polynomial rings over Q, truncated by total weighted degree.

These carry the rational Lazard-type coefficient rings Q[m_1, m_2, ...] and
Q[m_*, b_*]: finitely many named generators with positive integer degrees,
exact rational coefficients, and every monomial of degree above the
configured truncation identified with zero.  Truncation by degree is an
ideal, so the result is an honest ring and all arithmetic stays exact below
the cut.

Monomials are packed exponent vectors (one fixed-width field per generator),
so monomial products are single integer additions.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import RingMismatch, Unsupported
from .rings import (
    CoefficientRing,
    RingElement,
    _coeff_times,
    _geometric_inverse,
    _join_terms,
    _power_str,
)

_BITS = 6
_MASK = (1 << _BITS) - 1


def _norm_coeff(c):
    """Keep integer-valued coefficients as ints for speed."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


class _DegreeMemo(dict):
    """Packed monomial -> weighted degree, filled on first lookup."""

    __slots__ = ("degrees",)

    def __init__(self, degrees):
        super().__init__({0: 0})
        self.degrees = degrees

    def __missing__(self, key):
        d = 0
        rest = key
        for w in self.degrees:
            d += (rest & _MASK) * w
            rest >>= _BITS
        self[key] = d
        return d


class GradedPolynomialRing(CoefficientRing):
    """Q[g_1, ..., g_k] with deg(g_i) > 0, truncated above max_degree."""

    kind = "graded_polynomial"
    _identity = ("gens", "max_degree")

    def __init__(self, generators, max_degree: int):
        """generators: iterable of (name, degree) with positive degrees."""
        gens = [(str(name), int(degree)) for name, degree in generators]
        if any(d < 1 for _, d in gens):
            raise ValueError("generator degrees must be positive")
        if len(set(name for name, _ in gens)) != len(gens):
            raise ValueError("generator names must be distinct")
        if not 0 <= max_degree <= _MASK:
            raise ValueError(f"max_degree must lie in [0, {_MASK}]")
        self.gens = tuple(gens)
        self.names = tuple(name for name, _ in gens)
        self.degrees = tuple(d for _, d in gens)
        self.max_degree = max_degree
        self._index = {name: i for i, (name, _) in enumerate(gens)}
        self._deg_memo = _DegreeMemo(self.degrees)

    # -- monomial keys ----------------------------------------------------
    def pack(self, exponents) -> int:
        key = 0
        for i, e in enumerate(exponents):
            e = int(e)
            if not 0 <= e <= _MASK:
                raise ValueError(f"exponent {e} outside [0, {_MASK}]")
            key |= e << (i * _BITS)
        return key

    def unpack(self, key: int):
        out = []
        for _ in self.gens:
            out.append(key & _MASK)
            key >>= _BITS
        return tuple(out)

    def key_degree(self, key: int) -> int:
        return self._deg_memo[key]

    def monomial_keys_of_degree(self, d: int):
        """All packed monomials of exact weighted degree d, sorted."""
        keys = []

        def rec(i, remaining, key):
            if remaining == 0:
                keys.append(key)
                return
            if i == len(self.gens):
                return
            w = self.degrees[i]
            e = 0
            while e * w <= remaining:
                rec(i + 1, remaining - e * w, key | (e << (i * _BITS)))
                e += 1

        rec(0, d, 0)
        return sorted(keys)

    # -- element construction ----------------------------------------------
    def from_int(self, n):
        return RingElement(self, {0: n} if n else {})

    def from_fraction(self, q):
        q = _norm_coeff(Fraction(q))
        return RingElement(self, {0: q} if q else {})

    def generator(self, name: str) -> RingElement:
        i = self._index[name]
        if self.degrees[i] > self.max_degree:
            return RingElement(self, {})
        return RingElement(self, {1 << (i * _BITS): 1})

    def monomial(self, exponents, coeff=1) -> RingElement:
        exponents = [int(e) for e in exponents]
        if len(exponents) > len(self.gens) or any(e < 0 for e in exponents):
            raise ValueError(f"bad exponent vector {exponents} for {self}")
        # the weighted degree comes from the exponents, before packing, so an
        # exponent too wide for its field is truncated away, not packed
        if sum(e * w for e, w in zip(exponents, self.degrees)) > self.max_degree:
            return RingElement(self, {})
        key = self.pack(exponents)
        c = _norm_coeff(Fraction(coeff))
        return RingElement(self, {key: c} if c else {})

    def _canonical(self, payload):
        out = {}
        for key, c in payload.items():
            c = _norm_coeff(c)
            if c and self.key_degree(key) <= self.max_degree:
                out[key] = c
        return out

    # -- payload arithmetic -------------------------------------------------
    def _add(self, a, b):
        out = dict(a)
        for k, c in b.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = _norm_coeff(s)
            else:
                out.pop(k, None)
        return out

    def _neg(self, a):
        return {k: -c for k, c in a.items()}

    def _mul(self, a, b):
        return self._settle(self._mul_add(None, a, self._operand(b)))

    def _operand(self, b):
        # each term's degree is read once; b keeps its insertion order, so
        # the product's key order does not depend on the degrees
        deg = self._deg_memo
        return [(k, c, deg[k]) for k, c in b.items()]

    def _mul_add(self, acc, a, b_terms):
        # the products go into acc in place, a key leaving as its sum cancels;
        # integral Fractions stay until _settle
        if acc is None:
            acc = {}
        get = acc.get
        deg = self._deg_memo
        max_degree = self.max_degree
        for k1, c1 in a.items():
            room = max_degree - deg[k1]
            for k2, c2, d2 in b_terms:
                if d2 > room:
                    continue
                k = k1 + k2
                s = get(k, 0) + c1 * c2
                if s:
                    acc[k] = s
                else:
                    del acc[k]
        return acc

    def _settle(self, acc):
        for k, c in acc.items():
            if type(c) is Fraction and c.denominator == 1:
                acc[k] = c.numerator
        return acc

    def _is_zero(self, a):
        return not a

    def _freeze(self, a):
        return tuple(sorted(a.items()))

    def to_expr(self, payload):
        terms = []
        for key in sorted(payload, key=lambda k: (self.key_degree(k), self.unpack(k))):
            exps = self.unpack(key)
            var_part = "*".join(_power_str(self.names[i], e) for i, e in enumerate(exps) if e)
            c = str(payload[key])
            terms.append(_coeff_times(c, var_part) if var_part else c)
        return _join_terms(terms)

    # -- structure ----------------------------------------------------------
    def is_unit(self, a):
        # positive-degree generators are nilpotent below the truncation cut
        return bool(a.get(0))

    def invert(self, a):
        c0 = a.get(0)
        if not c0:
            raise Unsupported("element has zero constant term; not a unit")
        c0_inv = Fraction(1, 1) / c0
        scaled = self._canonical({k: c * c0_inv for k, c in a.items()})
        return self._mul(_geometric_inverse(self, scaled), self.from_fraction(c0_inv).payload)

    def is_nilpotent(self, a):
        return 0 not in a

    def is_q_algebra(self):
        return True

    def is_domain_mod_nilpotents(self):
        return True  # modulo the nilpotent positive-degree part it is Q

    def generators(self):
        return {name: self.generator(name) for name in self.names}

    def generator_degrees(self):
        return {name: d for name, d in self.gens}

    def element_degrees(self, a, degrees):
        weights = tuple(degrees.get(name, d) for name, d in self.gens)
        memo = self._deg_memo if weights == self.degrees else _DegreeMemo(weights)
        return {memo[key] for key in a}

    def to_json(self):
        return {
            "kind": self.kind,
            "generators": [{"name": n, "degree": d} for n, d in self.gens],
            "max_degree": self.max_degree,
        }

    # -- graded structure -----------------------------------------------------
    def evaluate(self, elt: RingElement, assignment: dict, target: CoefficientRing):
        """Substitute ring elements for the generators.

        Every generator must be assigned; the target must be a Q-algebra
        whenever a non-integer coefficient occurs.
        """
        missing = [n for n in self.names if n not in assignment]
        if missing:
            raise Unsupported(f"no value assigned to {missing}")
        values = [assignment[n] for n in self.names]
        for v in values:
            if v.ring != target:
                raise RingMismatch("assignment values must live in the target ring")
        total = target.zero()
        for key, c in elt.payload.items():
            term = target.from_fraction(c)
            for i, e in enumerate(self.unpack(key)):
                if e:
                    term = term * values[i] ** e
            total = total + term
        return total

    def __repr__(self):
        return f"Q[{', '.join(self.names)}]<=deg {self.max_degree}"


def lazard_base_ring(n: int) -> GradedPolynomialRing:
    """Q[m_1..m_n] with |m_i| = i (the rational Lazard ring), truncated above
    degree n."""
    return GradedPolynomialRing([(f"m{i}", i) for i in range(1, n + 1)], n)


def coordinate_change_ring(n: int) -> GradedPolynomialRing:
    """Q[b_1..b_n] with |b_i| = i, truncated above degree n."""
    return GradedPolynomialRing([(f"b{i}", i) for i in range(1, n + 1)], n)


def split_payload(ring: GradedPolynomialRing, payload: dict, first_count: int):
    """Split a payload over gens = A-gens + B-gens into {B-key: A-payload}.

    Both blocks keep the packed layout, so the pieces are directly valid in
    rings whose generator lists are the corresponding prefixes/suffixes.
    """
    shift = first_count * _BITS
    mask = (1 << shift) - 1
    out = {}
    for key, c in payload.items():
        b_key = key >> shift
        a_key = key & mask
        out.setdefault(b_key, {})[a_key] = c
    return out

"""Formal group laws: construction, axiom checking, n-series, v-coefficients,
logarithms, coordinate changes and gradings.

A formal group law is a two-variable truncated series F with F(x,0) = x,
F(0,y) = y, F symmetric and associative to the working precision.  The
grading convention used throughout: x and y carry degree -1, so the (i,j)
coefficient of a graded law is homogeneous of degree i+j-1 (making
x + y - beta*x*y graded with |beta| = 1).
"""

from __future__ import annotations

from .errors import (
    AxiomsFailed,
    BadCoordinate,
    BadLogShape,
    IncompatibleRing,
    InsufficientPrecision,
    NotQAlgebra,
)
from .rings import IntegersMod, LaurentExtension, RingElement, _is_prime
from .series import (
    TruncatedSeries1,
    TruncatedSeries2,
    TruncatedSeriesN,
    _substitution,
    compose_series,
    embed2,
    substitute_pair,
)


# the memo of F at beta = 1 before it is derived; None means no such law
_UNSET = object()


class FormalGroupLaw:
    """A bivariate truncated series with the formal-group-law axioms."""

    def __init__(self, body: TruncatedSeries2, grading=None, name=None):
        self.ring = body.ring
        self.precision = body.precision
        self.body = body
        self.grading = grading
        self.name = name
        self._axiom_report = None
        self._logarithm = None
        self._beta_one = _UNSET
        # k -> the most precise [k](x) that n_series has built
        self._n_series = {}

    @property
    def validated(self) -> bool:
        return self._axiom_report is not None and self._axiom_report.passed

    def coefficient(self, i: int, j: int) -> RingElement:
        return self.body.at(i, j)

    def __eq__(self, other):
        if not isinstance(other, FormalGroupLaw):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.precision == other.precision
            and self.body == other.body
        )

    def __hash__(self):
        return hash((self.ring, self.precision))

    def __repr__(self):
        label = self.name or "fgl"
        return f"<{label} over {self.ring} at precision {self.precision}>"


class _Record:
    """A plain record: the fields are the class's ``__slots__``.

    Records compare equal when they have the same type and equal fields, print
    as ``Name(field=value, ...)`` and, being mutable, are unhashable, as an
    unfrozen dataclass with ``eq`` is.  Plain classes keep ``dataclasses`` (and
    with it ``inspect``, ``ast`` and ``dis``) out of every CLI process.
    """

    __slots__ = ()
    __hash__ = None

    def _values(self):
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class AxiomCheck(_Record):
    __slots__ = ("axiom", "passed", "witness")

    def __init__(self, axiom: str, passed: bool, witness: tuple | None = None):
        self.axiom = axiom
        self.passed = passed
        self.witness = witness


class AxiomReport(_Record):
    __slots__ = ("checks",)

    def __init__(self, checks: list):
        self.checks = checks

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]


class NSeries(_Record):
    """[k](x): the k-fold formal sum of x with itself."""

    __slots__ = ("k", "series")

    def __init__(self, k: int, series: TruncatedSeries1):
        self.k = k
        self.series = series


def _first_mismatch(a: dict, b: dict):
    """The first key, by total degree and then lexicographically, where two
    coefficient maps differ; the maps hold no zeros, so an absent key is a
    zero."""
    keys = set(a) | set(b)
    for key in sorted(keys, key=lambda k: (sum(k), k)):
        if a.get(key) != b.get(key):
            return key
    return None


def _associativity_witness(fgl: FormalGroupLaw, symmetric: bool):
    """The first monomial where F(F(x,y),z) and F(x,F(y,z)) differ, or None.

    A = F(F(x,y),z) is one substitution.  When F is symmetric, F(x,F(y,z)) =
    F(F(y,z),x) = A(y,z,x), whose x^i y^j z^k coefficient is A's at (j,k,i):
    a rotation of A's keys, with no second substitution.
    """
    ring, n, body = fgl.ring, fgl.precision, fgl.body
    f_xy = embed2(body, 3, (0, 1))
    var_z = TruncatedSeriesN.variable(ring, 3, 2, n)
    lhs = substitute_pair(body, f_xy, var_z).payloads
    if symmetric:
        rhs = {(r, p, q): c for (p, q, r), c in lhs.items()}
    else:
        var_x = TruncatedSeriesN.variable(ring, 3, 0, n)
        rhs = substitute_pair(body, var_x, embed2(body, 3, (1, 2))).payloads
    return _first_mismatch(lhs, rhs)


def _unitality_witness(body: TruncatedSeries2):
    """The first (i, 0) or (0, i), by i and x before y, where F(x, 0) or
    F(0, y) differs from x, read off the body's terms on the axes; or None.
    Only an axis term or a missing linear term can differ, and only up to
    the precision."""
    ring, coeffs = body.ring, body.payloads
    one, zero = ring.one().payload, ring.zero().payload
    keys = {k for k in coeffs if 0 in k}
    if body.precision >= 1:
        keys |= {(1, 0), (0, 1)}
    wrong = [k for k in keys if coeffs.get(k, zero) != (one if sum(k) == 1 else zero)]
    return min(wrong, key=lambda k: (sum(k), k[1] != 0), default=None)


def _invariant_logarithm(fgl: FormalGroupLaw) -> TruncatedSeries1:
    """The integral of the invariant differential, 1 / (dF/dy)(x, 0),
    memoized on the law."""
    if fgl._logarithm is None:
        fgl._logarithm = fgl.body.partial_y_at_zero().inverse().integrate()
    return fgl._logarithm


def _linearised_by_logarithm(fgl: FormalGroupLaw) -> bool:
    """True when F is unital, l = int 1/(dF/dy)(x, 0) exists and l'(y) F_x =
    l'(x) F_y modulo degree N.  G = l(F) - l(x) - l(y) has l'(y) G_x - l'(x) G_y
    = l'(F) (l'(y) F_x - l'(x) F_y), l'(F) a unit, so the lowest part G_s of a
    nonzero G, s <= N, has dG_s/dx = dG_s/dy: over a Q-algebra G_s = c (x+y)^s,
    and G(x, 0) = 0 forces c = 0.  So l(F) = l(x) + l(y) modulo degree N+1, and
    F is associative (Ravenel, Complex Cobordism and Stable Homotopy Groups of
    Spheres, App. A2); conversely, that identity differentiates to this one.
    For a symmetric F, l'(x) F_y is the mirror of l'(y) F_x: one product.
    False says nothing: the caller compares three-variable substitutions.
    """
    n, body, ring = fgl.precision, fgl.body, fgl.ring
    if n < 1 or not ring.is_q_algebra() or _unitality_witness(body) is not None:
        return False
    dlog = enumerate(_invariant_logarithm(fgl).derive().payloads)
    dlog_y = {(0, k): c for k, c in dlog if not ring._is_zero(c)}
    dlog_y = TruncatedSeries2._from_payloads(ring, 2, dlog_y, n - 1)

    def times_dlog_y(terms):  # l'(y) F_x modulo degree N, for F with these payloads
        f_x = {(a - 1, b): ring._mul(c, ring.from_int(a).payload) for (a, b), c in terms.items() if a}
        return (TruncatedSeries2._from_payloads(ring, 2, f_x, n - 1) * dlog_y).payloads

    mirror = {(j, i): c for (i, j), c in body.payloads.items()}
    p = times_dlog_y(body.payloads)
    q = p if mirror == body.payloads else times_dlog_y(mirror)
    return p == {(j, i): c for (i, j), c in q.items()}


def _law_of_logarithm(log: TruncatedSeries1, n: int) -> TruncatedSeries2:
    """l^{-1}(l(x) + l(y)) modulo degree n+1 over a Q-algebra, l(0) = 0 and
    l'(0) = 1, from the invariant differential (Hazewinkel, Formal Groups and
    Applications, 1978): l'(F) F_x = l'(x) and l'(F) F_y = l'(y), so l'(y) F_x
    = l'(x) F_y.  With lambda_k = (k+1) l_{k+1}, h_ab = b f_ab and a f_ab =
    h_ba (F is symmetric), its x^i y^j coefficient reads, as lambda_0 = 1,

        h_{i,j+1} = sum_{k=0..j} lambda_k h_{j-k,i+1} - sum_{k=1..i} lambda_k h_{i-k,j+1}.

    From F(x, 0) = x, each antidiagonal s = i + j + 1 = 2..n is solved on its
    half i > j by increasing j, on the ring's payload hooks, and mirrored.
    """
    ring = log.ring
    mul, mul_add, settle, is_zero = ring._mul, ring._mul_add, ring._settle, ring._is_zero
    one = ring.one().payload
    f = {(1, 0): one, (0, 1): one} if n else {}
    # h[b][a] = h_ab, None when zero, from h_01 = 1; lambda_k and -lambda_k
    # as right factors
    h = [[None] * (n + 2) for _ in range(n + 2)]
    h[1][0] = one
    lam = log.truncate(n).derive().payloads if n >= 2 else ()
    plus = [None if is_zero(c) else ring._operand(c) for c in lam]
    minus = [None if is_zero(c) else ring._operand(ring._neg(c)) for c in lam]
    for s in range(2, n + 1):
        for j in range(s // 2):
            i, acc = s - 1 - j, None
            terms = h[i + 1][j::-1] + h[j + 1][i - 1 :: -1]
            for a, c in zip(terms, plus[: j + 1] + minus[1 : i + 1]):
                if a is not None and c is not None:
                    acc = mul_add(acc, a, c)
            if acc is None or is_zero(acc := settle(acc)):
                continue
            value = ring.divide(acc, j + 1)
            h[j + 1][i], h[i][j + 1] = acc, mul(value, ring.from_int(i).payload)
            f[(i, j + 1)] = f[(j + 1, i)] = value
    return TruncatedSeries2._from_payloads(ring, 2, f, n)


def check_axioms(fgl: FormalGroupLaw) -> AxiomReport:
    """Per-axiom pass/fail with the first offending coefficient as witness.

    Unitality is read off the body's terms on the axes: the first (i, 0) or
    (0, i), by i and x before y, where F(x, 0) or F(0, y) differs from x.
    Symmetry is the first key where F(x, y) and F(y, x) differ.

    Associativity is the first monomial where F(F(x,y),z) and F(x,F(y,z))
    differ.  A unital law whose body is x + y + c xy within its precision,
    read off its terms (see _product_law_coefficient), passes with no
    substitution and no witness: 1 + c F(x, y) = (1 + cx)(1 + cy), so
    F(F(x,y),z) = x + y + z + c(xy + yz + zx) + c^2 xyz, an identity of
    polynomials over Z[c] and so over any commutative ring.  It is symmetric
    in x, y, z, so it equals F(F(y,z),x) = F(x,F(y,z)), modulo degree N+1
    too (Landweber, Amer. J. Math. 98 (1976); Ravenel, Complex Cobordism
    and Stable Homotopy Groups of Spheres, App. A2).  For every other law,
    over a Q-algebra it is first tried through the logarithm l, as the
    two-variable identity l'(y) F_x = l'(x) F_y, which can only confirm a
    pass; every failure, and every law it cannot decide, goes through the
    three-variable comparison, which then sets the verdict and the witness.
    That comparison computes F(F(x,y),z) once; when symmetry has passed,
    F(x,F(y,z)) is its rotation (see _associativity_witness), else a second
    substitution.  When F(0, 0) is not 0, F(F(x,y),z) is undefined:
    associativity fails with no witness, as unitality has failed at (0, 0).

    The result is memoized on the law; a full pass marks it validated.
    """
    if fgl._axiom_report is not None:
        return fgl._axiom_report
    body = fgl.body
    checks = []

    witness = _unitality_witness(body)
    unital = witness is None
    checks.append(AxiomCheck("unitality", unital, witness))

    witness = _first_mismatch(body.payloads, {(j, i): c for (i, j), c in body.payloads.items()})
    symmetric = witness is None
    checks.append(AxiomCheck("symmetry", symmetric, witness))

    if body.constant_term().is_zero():
        product_law = unital and _product_law_coefficient(body, fgl.precision) is not None
        if product_law or _linearised_by_logarithm(fgl):
            witness = None
        else:
            witness = _associativity_witness(fgl, symmetric)
        checks.append(AxiomCheck("associativity", witness is None, witness))
    else:
        checks.append(AxiomCheck("associativity", False, None))

    if fgl.grading is not None:
        ok = grade_check(fgl, fgl.grading)
        checks.append(AxiomCheck("grading", ok, None))

    report = AxiomReport(checks)
    if report.passed:
        fgl._axiom_report = report
    return report


def _require_axioms(fgl: FormalGroupLaw, what: str | None = None) -> None:
    """Raise AxiomsFailed, naming the failed axioms, unless the law validates;
    the law is named by what, else by its repr, formed only to raise."""
    report = check_axioms(fgl)
    if not report.passed:
        failed = ", ".join(c.axiom for c in report.failures())
        raise AxiomsFailed(f"{what or repr(fgl)} fails its axioms: {failed}")


def _plus_c_xy(ring, c, precision: int) -> TruncatedSeries2:
    """The body x + y + c xy."""
    one = ring.one()
    return TruncatedSeries2.from_entries(ring, [(1, 0, one), (0, 1, one), (1, 1, c)], precision)


def named_fgl(name: str, ring, precision: int) -> FormalGroupLaw:
    """One of the built-in laws: additive, multiplicative, universal_rational,
    honda_h1.  The universal law builds its own coefficient ring; for it the
    ring argument is ignored and may be None."""
    if name == "additive":
        fgl = FormalGroupLaw(_plus_c_xy(ring, ring.zero(), precision), name="additive")
    elif name == "multiplicative":
        if not isinstance(ring, LaurentExtension):
            raise IncompatibleRing(
                "the multiplicative law needs a Laurent ring with a Bott variable"
            )
        if ring.degree != 1:
            # x + y - beta xy is homogeneous of degree -1 only when |beta| = 1
            raise IncompatibleRing(
                f"the multiplicative law needs its Bott variable in degree 1, "
                f"not {ring.degree}"
            )
        fgl = FormalGroupLaw(
            _plus_c_xy(ring, -ring.var(), precision),
            grading={ring.variable: ring.degree},
            name="multiplicative",
        )
    elif name == "honda_h1":
        if not (isinstance(ring, IntegersMod) and _is_prime(ring.modulus)):
            raise IncompatibleRing("honda_h1 lives over a prime field F_p")
        fgl = FormalGroupLaw(_plus_c_xy(ring, ring.one(), precision), name="honda_h1")
    elif name == "universal_rational":
        # hopf imports this module, so a module-level import would be a cycle
        from .hopf import universal_fgl_rational

        return universal_fgl_rational(precision)
    else:
        raise IncompatibleRing(f"unknown formal group law {name!r}")
    _require_axioms(fgl, f"builtin law {name}")
    return fgl


def formal_inverse(fgl: FormalGroupLaw) -> TruncatedSeries1:
    """The series i(x) with F(x, i(x)) = 0, found by a triangular solve."""
    ring = fgl.ring
    n = fgl.precision
    inv = [ring.zero().payload] * (n + 1)
    if n >= 1:
        inv[1] = ring._neg(ring.one().payload)
    x1 = TruncatedSeries1.x(ring, n)
    for m in range(2, n + 1):
        partial = TruncatedSeries1._from_payloads(ring, inv[: m + 1], m)
        err = substitute_pair(fgl.body, x1.truncate(m), partial).payloads[m]
        inv[m] = ring._neg(err)
    return TruncatedSeries1._from_payloads(ring, inv, n)


def _at_beta_one(fgl: FormalGroupLaw):
    """F_1 = F at beta = 1, over the base ring at the law's precision, when F
    lives over base[beta^±1] and each coefficient of x^i y^j is one term
    c_ij beta^(i+j-1); else None.  Decided on the coefficients alone, not on
    the law's name or grading annotation, and memoized on the law.
    """
    if fgl._beta_one is not _UNSET:
        return fgl._beta_one
    ring = fgl.ring
    fgl._beta_one = None
    if not isinstance(ring, LaurentExtension):
        return None
    coeffs = {}
    for (i, j), terms in fgl.body.payloads.items():
        if len(terms) != 1 or i + j - 1 not in terms:
            return None
        coeffs[(i, j)] = terms[i + j - 1]
    fgl._beta_one = TruncatedSeries2._from_payloads(ring.base, 2, coeffs, fgl.precision)
    return fgl._beta_one


def _product_law_coefficient(body: TruncatedSeries2, n: int):
    """c when the body of a law that passes unitality is x + y + c xy modulo
    degree n + 1, else None.

    Unitality makes the terms on the axes x + y, so only the terms with both
    exponents >= 1 within degree n are read: c is zero when (1, 1) lies
    beyond n, and at n <= 2 every such law has this form.  c is a payload.
    """
    mixed = {key: c for key, c in body.payloads.items() if key[0] and key[1] and sum(key) <= n}
    c = mixed.pop((1, 1), body.ring.zero().payload)
    return None if mixed else c


def _product_law_n_series(ring, c, k: int, n: int) -> list:
    """The payloads of [k](x) = sum_{i=1..n} C(k, i) c^(i-1) x^i for the law
    x + y + c xy, any k != 0, in O(n) ring operations.

    1 + c F(x, y) = (1 + cx)(1 + cy), so 1 + c [k](x) = (1 + cx)^k.  The
    identity of the coefficients holds over Z[c], a domain, so over any ring,
    c a zero divisor or zero included.  C(k, i) = C(k, i-1) (k-i+1) / i is an
    exact integer division, for negative k too.  c is a payload.
    """
    out = [ring.zero().payload] * (n + 1)
    power = ring.one().payload  # c^(i-1)
    binomial = 1
    for i in range(1, n + 1):
        binomial = binomial * (k - i + 1) // i
        # for k > 0 every C(k, i) with i > k is 0, and a zero power of c
        # stays zero
        if binomial == 0 or ring._is_zero(power):
            break
        out[i] = ring._mul(ring.from_int(binomial).payload, power)
        power = ring._mul(power, c)
    return out


def n_series(fgl: FormalGroupLaw, k: int, precision: int | None = None) -> NSeries:
    """[k](x) modulo x^(precision+1), by default at the law's precision.

    The x^m coefficient of [k](x) depends only on F modulo degree m+1, so
    [k](x) at a lower precision is a truncation of [k](x) at a higher one.
    The law keeps, for each k, the most precise [k](x) built for it, and a
    request at or below that precision truncates it.  At precision <= 1 the
    result is kx, as F(x, y) = x + y modulo degree 2, with nothing built.
    Every path but k = 0 validates the law first and raises AxiomsFailed if
    it fails: the methods below are exact only for an associative law.

    When the law lives over R[beta^±1] and each coefficient of x^i y^j is one
    term c_ij beta^(i+j-1), as for a graded law with |beta| = 1 over an
    ungraded R, then beta F(x, y) = F_1(beta x, beta y) for F_1 = F at
    beta = 1, a law over R (Landweber, Amer. J. Math. 98 (1976)).  By
    induction on k, [k]_F(x) = beta^-1 [k]_{F_1}(beta x): the x^m
    coefficient of [k]_F is c_m beta^(m-1), where c_m is that of [k]_{F_1}.
    So [k] is built on F_1, derived once per law, over R, and its result is
    read back once.  F_1 is the image of the validated F under the ring map
    beta -> 1, so it is a law too.

    The law [k] is built on, F_1 or else F, is read within degree precision.
    When it is x + y + c xy there, decided on its terms and not on its name,
    [k](x) is the closed form sum_{i>=1} C(k, i) c^(i-1) x^i for any k, in
    O(precision) ring operations (see _product_law_n_series); at precision
    2 every law has that form.  Otherwise, for k > 0, by double-and-add,
    [2m] = F([m],[m]) and [m+1] = F(x,[m]): about 2 log2(k) substitutions,
    made by the substitution core on payload lists.  For k < 0, [k] = [-k]
    composed with the formal inverse of the same law, both at the requested
    precision.
    """
    ring = fgl.ring
    n = fgl.precision if precision is None else precision
    if n > fgl.precision:
        raise InsufficientPrecision(
            f"need precision >= {n} for [{k}](x), have {fgl.precision}"
        )
    if k == 0:
        return NSeries(0, TruncatedSeries1.zero(ring, n))
    _require_axioms(fgl)
    built = fgl._n_series.get(k)
    if built is not None and built.precision >= n:
        return NSeries(k, built.truncate(n))
    if n <= 1:
        return NSeries(k, TruncatedSeries1(ring, [ring.zero(), ring.from_int(k)], n))
    body = _at_beta_one(fgl)
    graded = body is not None
    if not graded:
        body = fgl.body
    c = _product_law_coefficient(body, n)
    if c is not None:
        acc = _product_law_n_series(body.ring, c, k, n)
    else:
        # every step works modulo x^(n+1), reading only the body's terms
        # within degree n, on payload lists through the substitution core
        substitute = _substitution(body, n)
        x1 = TruncatedSeries1.x(body.ring, n).payloads
        acc = x1
        for bit in bin(abs(k))[3:]:
            acc = substitute(acc, acc)
            if bit == "1":
                acc = substitute(x1, acc)
    if k < 0 and c is None:
        inverse = formal_inverse(FormalGroupLaw(body.truncate(n)))
        acc = compose_series(TruncatedSeries1._from_payloads(body.ring, acc, n), inverse)._payloads(n)
    if graded:
        # the payloads of c_m beta^(m-1) over R[beta^±1]
        acc = [{} if body.ring._is_zero(p) else {m - 1: p} for m, p in enumerate(acc)]
    acc = TruncatedSeries1._from_payloads(ring, acc, n)
    fgl._n_series[k] = acc
    return NSeries(k, acc)


def _power_beyond(p: int, n: int, precision: int) -> str | None:
    """p^n as text when it exceeds precision >= 0, else None, for n >= 0.

    p^n is formed only when |p| < 2 or n <= precision.bit_length(); past
    that |p^n| >= 2^n > precision is certain, and the bound is written p^n,
    since its decimal form may be too long to print.
    """
    if abs(p) < 2 or n <= precision.bit_length():
        power = p**n
        return str(power) if power > precision else None
    if p < 0 and n % 2:
        return None
    return f"({p})^{n}" if p < 0 else f"{p}^{n}"


def v_coefficient(fgl: FormalGroupLaw, p: int, n: int) -> RingElement:
    """The coefficient of x^(p^n) in the p-series; v_0 = p by construction.

    It is read from n_series(fgl, p, p^n): [p](x) modulo x^(p^n + 1), a
    truncation of the law's most precise [p](x) when one was built, and px
    for n = 0.  A p^n beyond the law's precision raises
    InsufficientPrecision before the law is touched.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 0:
        raise ValueError(f"the height n must be nonnegative, got {n}")
    beyond = _power_beyond(p, n, fgl.precision)
    if beyond is not None:
        raise InsufficientPrecision(
            f"need precision >= {beyond} for v_{n} at p = {p}, have {fgl.precision}"
        )
    target = p**n
    return n_series(fgl, p, target).series.coefficient(target)


def logarithm(fgl: FormalGroupLaw) -> TruncatedSeries1:
    """The unique l with l(0) = 0, l'(0) = 1 and l(F(x,y)) = l(x) + l(y).

    Integrates the invariant differential: l'(x) * (dF/dy)(x, 0) = 1, so
    a law at precision 0, which has no dF/dy, raises InsufficientPrecision.
    """
    if not fgl.ring.is_q_algebra():
        raise NotQAlgebra(f"{fgl.ring} is not a Q-algebra")
    if fgl.precision < 1:
        raise InsufficientPrecision(f"need precision >= 1 for the logarithm, have {fgl.precision}")
    return _invariant_logarithm(fgl)


def from_logarithm(
    log: TruncatedSeries1, ring, precision: int, grading=None, name=None
) -> FormalGroupLaw:
    """The law l^{-1}(l(x) + l(y)) determined by a logarithm, validated; built
    and checked through l'(y) F_x = l'(x) F_y, with no composition."""
    if not ring.is_q_algebra():
        raise NotQAlgebra(f"{ring} is not a Q-algebra")
    if log.ring != ring:
        raise BadLogShape("logarithm lives in a different ring")
    if precision > log.precision:
        raise InsufficientPrecision("logarithm is less precise than requested")
    if not log.coefficient(0).is_zero() or log.precision < 1 or log.coefficient(1) != ring.one():
        raise BadLogShape("need l(0) = 0 and l'(0) = 1")
    fgl = FormalGroupLaw(_law_of_logarithm(log, precision), grading=grading, name=name)
    _require_axioms(fgl, "the law of a logarithm")
    return fgl


def change_coordinates(fgl: FormalGroupLaw, b: TruncatedSeries1) -> FormalGroupLaw:
    """The conjugate law F^b(x,y) = b(F(b^{-1}(x), b^{-1}(y))), validated.

    The convention (b outside, b^{-1} on the arguments) is fixed here once;
    the Hopf-algebroid axioms downstream are convention-independent checks.
    """
    ring = fgl.ring
    if b.ring != ring:
        raise BadCoordinate("coordinate change lives in a different ring")
    if not b.coefficient(0).is_zero() or b.precision < 1 or b.coefficient(1) != ring.one():
        raise BadCoordinate("need b(0) = 0 and b'(0) = 1")
    n = min(fgl.precision, b.precision)
    b_inv = b.truncate(n).revert()
    terms = [(m, c) for m, c in enumerate(b_inv.payloads) if not ring._is_zero(c)]
    u = TruncatedSeries2._from_payloads(ring, 2, {(m, 0): c for m, c in terms}, n)
    v = TruncatedSeries2._from_payloads(ring, 2, {(0, m): c for m, c in terms}, n)
    inner = substitute_pair(fgl.body, u, v)
    body = compose_series(b.truncate(n), inner)
    out = FormalGroupLaw(body)
    # a non-graded change destroys homogeneity: keep the annotation only
    # when it remains true of the conjugate
    if fgl.grading is not None and grade_check(out, fgl.grading):
        out = FormalGroupLaw(body, grading=fgl.grading)
    _require_axioms(out, "the coordinate-changed law")
    return out


def grade_check(fgl: FormalGroupLaw, degrees: dict) -> bool:
    """True iff every coefficient a_ij is homogeneous of degree i+j-1
    (x and y carrying degree -1)."""
    for (i, j), p in fgl.body.payloads.items():
        present = fgl.ring.element_degrees(p, degrees)
        if present and present != {i + j - 1}:
            return False
    return True

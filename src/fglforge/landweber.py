"""Stagewise regular-sequence checking for (formal group law, module) pairs.

For each requested prime p the checker walks the tower of quotients
Q_0 = M, Q_{n+1} = Q_n/(v_n), where v_n is the coefficient of x^(p^n) in the
p-series (so v_0 = p).  A stage passes when multiplication by v_n is
injective, i.e. its image is not a zero divisor; the walk stops at the first
failure or at the first zero quotient.  A quotient that dies at stage n
certifies exactness with height n-1 (the index of the last v that acted):
the multiplicative law dies after v_0, v_1 and has height 1, a Q-algebra
dies after v_0 and has height 0, and a module that is zero before any stage
reports the vacuous height -1.

Verdicts are always scoped: "exact" means exact for the requested primes, up
to the requested height bound, at the working precision.  No extrapolation
beyond that scope is performed or implied.
"""

from __future__ import annotations

from .errors import InsufficientPrecision
from .expressions import element_to_expr
from .fgl import FormalGroupLaw, _power_beyond, _Record, n_series, v_coefficient
from .rings import (
    RingElement,
    _is_prime,
    is_zero_ring,
    project,
    quotient_by_element,
    zero_divisor_witness,
)


class LandweberInput(_Record):
    """A law, a module (None = the ring itself, or a cyclic-quotient
    generator), the primes to test, and the height bound."""

    __slots__ = ("fgl", "module", "primes", "max_height")

    def __init__(
        self, fgl: FormalGroupLaw, module: RingElement | None, primes: list, max_height: int
    ):
        self.fgl = fgl
        self.module = module
        self.primes = primes
        self.max_height = max_height
        if not self.primes:
            raise ValueError("no primes to check")
        for p in self.primes:
            if not _is_prime(p):
                raise ValueError(f"{p} is not prime")
        if len(set(self.primes)) != len(self.primes):
            raise ValueError(f"repeated prime in {self.primes}")
        if self.max_height < 0:
            raise ValueError("max_height must be nonnegative")
        if self.module is not None and self.module.ring != self.fgl.ring:
            raise ValueError("module generator must live in the coefficient ring")

    @property
    def precision(self):
        return self.fgl.precision


class StageRecord(_Record):
    __slots__ = ("n", "status", "ring", "v_value", "v_degree", "witness")

    def __init__(
        self,
        n: int,
        status: str,  # injective | fails | quotient_zero
        ring: str,
        v_value: str | None = None,
        v_degree: int | None = None,
        witness: str | None = None,
    ):
        self.n = n
        self.status = status
        self.ring = ring
        self.v_value = v_value
        self.v_degree = v_degree
        self.witness = witness


class PrimeVerdict(_Record):
    __slots__ = (
        "prime",
        "stages",
        "exact",
        "height",
        "failed_stage",
        "witness",
        "height_within_bound",
    )

    def __init__(
        self,
        prime: int,
        stages: list,
        exact: bool,
        height: int | None = None,
        failed_stage: int | None = None,
        witness: str | None = None,
        height_within_bound: bool = True,
    ):
        self.prime = prime
        self.stages = stages
        self.exact = exact
        self.height = height
        self.failed_stage = failed_stage
        self.witness = witness
        self.height_within_bound = height_within_bound


class LandweberReport(_Record):
    __slots__ = ("primes", "max_height", "precision", "per_prime")

    def __init__(
        self, primes: list, max_height: int, precision: int, per_prime: list | None = None
    ):
        self.primes = primes
        self.max_height = max_height
        self.precision = precision
        self.per_prime = [] if per_prime is None else per_prime

    @property
    def exact(self) -> bool:
        return all(v.exact for v in self.per_prime)

    def first_failure(self):
        for v in self.per_prime:
            if not v.exact:
                return (v.prime, v.failed_stage, v.witness)
        return None

    def summary(self) -> str:
        scope = (
            f"primes {self.primes}, height <= {self.max_height}, "
            f"precision {self.precision}"
        )
        if self.exact:
            heights = {v.prime: v.height for v in self.per_prime}
            return f"exact in scope ({scope}); heights {heights}"
        p, n, w = self.first_failure()
        return f"fails at (p={p}, n={n}) with witness {w} ({scope})"


def _top_power(p: int, max_height: int, precision: int) -> int:
    """The largest p^n with n <= max_height and p^n <= precision, for a prime
    p, found by multiplying up: p^max_height itself may be far too large to
    form."""
    power = 1
    for _ in range(max_height):
        if power * p > precision:
            break
        power *= p
    return power


def _check_one_prime(inp: LandweberInput, p: int) -> PrimeVerdict:
    fgl = inp.fgl
    chain = [fgl.ring]
    if inp.module is not None:
        chain.append(quotient_by_element(fgl.ring, inp.module))
    stages = []
    for n in range(inp.max_height + 1):
        current = chain[-1]
        if is_zero_ring(current):
            stages.append(StageRecord(n, "quotient_zero", repr(current)))
            return PrimeVerdict(p, stages, exact=True, height=n - 1)
        if n == 1:
            # [p](x) once, at the highest precision a stage can read; each
            # stage's v_coefficient reads a truncation of it.  When p itself
            # is beyond the precision, v_coefficient raises instead
            top = _top_power(p, inp.max_height, fgl.precision)
            if top >= p:
                n_series(fgl, p, top)
        v = v_coefficient(fgl, p, n)
        image = v
        for ring in chain[1:]:
            image = project(image, ring)
        record = StageRecord(
            n,
            "injective",
            repr(current),
            v_value=element_to_expr(v),
            v_degree=p**n - 1,
        )
        witness = zero_divisor_witness(image)
        if witness is not None:
            record.status = "fails"
            record.witness = element_to_expr(witness)
            stages.append(record)
            return PrimeVerdict(
                p,
                stages,
                exact=False,
                failed_stage=n,
                witness=record.witness,
            )
        stages.append(record)
        chain.append(quotient_by_element(current, image))
    # every stage up to the bound was injective without the quotient dying:
    # exact as far as tested, height not determined within the bound
    return PrimeVerdict(p, stages, exact=True, height=None, height_within_bound=False)


def landweber_check(inp: LandweberInput) -> LandweberReport:
    """Run the stagewise criterion for every requested prime.

    Precision is checked lazily: a stage that needs the coefficient of
    x^(p^n) beyond the working precision raises InsufficientPrecision, but
    stages never reached (because the quotient died first) need none.
    Per-prime verdicts are independent; the report lists them in the
    requested order.

    v_0 = p needs no p-series.  On reaching stage 1, [p](x) is built once,
    modulo x^(p^n + 1) for the largest p^n within both the height bound and
    the precision; every stage reads its v_n through v_coefficient from a
    truncation of it.
    """
    report = LandweberReport(list(inp.primes), inp.max_height, inp.precision)
    for p in inp.primes:
        report.per_prime.append(_check_one_prime(inp, p))
    return report


class VRow(_Record):
    __slots__ = ("n", "value", "degree", "homogeneous")

    def __init__(self, n: int, value: RingElement, degree: int, homogeneous: bool | None):
        self.n = n
        self.value = value
        self.degree = degree
        self.homogeneous = homogeneous


def v_sequence_report(fgl: FormalGroupLaw, p: int, max_height: int):
    """The raw v_n values with their graded degrees p^n - 1.

    When the law carries a grading, each v_n is checked to be homogeneous of
    that degree; ungraded laws report None.  The law's precision must reach
    x^(p^max_height).  [p](x) is built once, modulo x^(p^max_height + 1),
    on reaching row 1; every row reads its v_n through v_coefficient from a
    truncation of it.
    """
    if max_height < 0:
        raise ValueError("max_height must be nonnegative")
    beyond = _power_beyond(p, max_height, fgl.precision)
    if beyond is not None:
        raise InsufficientPrecision(
            f"need precision >= {beyond} for v_{max_height} at p = {p}"
        )
    rows = []
    for n in range(max_height + 1):
        if n == 1:
            # row 0 has checked that p is prime, so p^max_height is at most
            # the precision
            n_series(fgl, p, p**max_height)
        v = v_coefficient(fgl, p, n)
        degree = p**n - 1
        homogeneous = None
        if fgl.grading is not None:
            present = v.ring.element_degrees(v.payload, fgl.grading)
            homogeneous = not present or present == {degree}
        rows.append(VRow(n, v, degree, homogeneous))
    return rows

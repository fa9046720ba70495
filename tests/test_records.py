"""The report and input records of fgl, hopf and landweber: construction,
defaults, equality, repr and hashing, as the dataclasses they replace had."""

import pytest

from fglforge.fgl import AxiomCheck, AxiomReport, NSeries, named_fgl
from fglforge.hopf import DegreeRank, HopfCheck, HopfReport, IdempotenceReport
from fglforge.landweber import (
    LandweberInput,
    LandweberReport,
    PrimeVerdict,
    StageRecord,
    VRow,
)
from fglforge.rings import Integers
from fglforge.series import TruncatedSeries1

Z = Integers()
ADD = named_fgl("additive", Z, 4)
TWO_X = TruncatedSeries1(Z, [Z.zero(), Z.from_int(2)], 3)

# (positional, the same by keyword, one field changed, repr)
CASES = [
    (
        lambda: AxiomCheck("symmetry", True),
        lambda: AxiomCheck(axiom="symmetry", passed=True, witness=None),
        lambda: AxiomCheck("symmetry", True, (1, 2)),
        "AxiomCheck(axiom='symmetry', passed=True, witness=None)",
    ),
    (
        lambda: AxiomReport([AxiomCheck("unitality", True)]),
        lambda: AxiomReport(checks=[AxiomCheck("unitality", True)]),
        lambda: AxiomReport([AxiomCheck("unitality", False)]),
        "AxiomReport(checks=[AxiomCheck(axiom='unitality', passed=True, witness=None)])",
    ),
    (
        lambda: NSeries(2, TWO_X),
        lambda: NSeries(k=2, series=TWO_X),
        lambda: NSeries(3, TWO_X),
        "NSeries(k=2, series=<series 2*x + O(x^4)>)",
    ),
    (
        lambda: HopfCheck("antipode", False, "b1"),
        lambda: HopfCheck(law="antipode", passed=False, witness="b1"),
        lambda: HopfCheck("antipode", False),
        "HopfCheck(law='antipode', passed=False, witness='b1')",
    ),
    (
        lambda: HopfReport("groupoid", 2, [HopfCheck("counit", True)]),
        lambda: HopfReport(flavor="groupoid", truncation=2, checks=[HopfCheck("counit", True)]),
        lambda: HopfReport("groupoid", 3, [HopfCheck("counit", True)]),
        "HopfReport(flavor='groupoid', truncation=2, "
        "checks=[HopfCheck(law='counit', passed=True, witness=None)])",
    ),
    (
        lambda: DegreeRank(2, 2, 1),
        lambda: DegreeRank(degree=2, dimension=2, rank=1),
        lambda: DegreeRank(2, 2, 2),
        "DegreeRank(degree=2, dimension=2, rank=1)",
    ),
    (
        lambda: IdempotenceReport(2, [DegreeRank(1, 1, 1)]),
        lambda: IdempotenceReport(max_degree=2, degrees=[DegreeRank(1, 1, 1)]),
        lambda: IdempotenceReport(2, []),
        "IdempotenceReport(max_degree=2, degrees=[DegreeRank(degree=1, dimension=1, rank=1)])",
    ),
    (
        lambda: LandweberInput(ADD, None, [2, 3], 1),
        lambda: LandweberInput(fgl=ADD, module=None, primes=[2, 3], max_height=1),
        lambda: LandweberInput(ADD, None, [2, 3], 2),
        "LandweberInput(fgl=<additive over Z at precision 4>, module=None, "
        "primes=[2, 3], max_height=1)",
    ),
    (
        lambda: StageRecord(0, "injective", "Z", v_value="2", v_degree=0),
        lambda: StageRecord(
            n=0, status="injective", ring="Z", v_value="2", v_degree=0, witness=None
        ),
        lambda: StageRecord(0, "fails", "Z", v_value="2", v_degree=0),
        "StageRecord(n=0, status='injective', ring='Z', v_value='2', v_degree=0, witness=None)",
    ),
    (
        lambda: PrimeVerdict(2, [], exact=True, height=0),
        lambda: PrimeVerdict(
            prime=2,
            stages=[],
            exact=True,
            height=0,
            failed_stage=None,
            witness=None,
            height_within_bound=True,
        ),
        lambda: PrimeVerdict(2, [], exact=True, height=0, height_within_bound=False),
        "PrimeVerdict(prime=2, stages=[], exact=True, height=0, failed_stage=None, "
        "witness=None, height_within_bound=True)",
    ),
    (
        lambda: LandweberReport([2], 1, 4),
        lambda: LandweberReport(primes=[2], max_height=1, precision=4, per_prime=[]),
        lambda: LandweberReport([2], 1, 5),
        "LandweberReport(primes=[2], max_height=1, precision=4, per_prime=[])",
    ),
    (
        lambda: VRow(1, Z.from_int(2), 1, None),
        lambda: VRow(n=1, value=Z.from_int(2), degree=1, homogeneous=None),
        lambda: VRow(1, Z.from_int(2), 1, True),
        "VRow(n=1, value=2, degree=1, homogeneous=None)",
    ),
]


@pytest.mark.parametrize(
    "positional, keyword, changed, text", CASES, ids=[case[3].split("(")[0] for case in CASES]
)
def test_record_behaves_as_its_dataclass(positional, keyword, changed, text):
    record = positional()
    assert repr(record) == text
    assert record == keyword() and not record != keyword()
    assert record != changed() and not record == changed()
    with pytest.raises(TypeError):
        hash(record)


def test_records_compare_false_across_types():
    assert AxiomCheck("counit", True) != HopfCheck("counit", True)
    assert not AxiomCheck("counit", True) == HopfCheck("counit", True)
    assert DegreeRank(1, 1, 1) != (1, 1, 1)


def test_record_fields_are_checked_and_not_shared():
    with pytest.raises(ValueError):
        LandweberInput(ADD, None, [], 1)
    a, b = LandweberReport([2], 1, 4), LandweberReport([2], 1, 4)
    a.per_prime.append(PrimeVerdict(2, [], exact=True))
    assert b.per_prime == [] and a != b

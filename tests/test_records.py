"""The package's records: immutable named tuples with value equality and
hashing, a field-by-field repr, and validation at construction."""

from fractions import Fraction

import pytest

from toricqh import corpus
from toricqh.batyrev import Presentation, QuantumRelation
from toricqh.corpus import CatalogEntry
from toricqh.lattice import Facet
from toricqh.newton import ValuedPoly
from toricqh.potential import Superpotential, Term
from toricqh.solver import CriticalPoint, SolverConfig, SolveReport
from toricqh.support import SupportFunction

FAN = corpus.build("cp1")[0]


def _point(value=2 + 0j):
    return CriticalPoint((1 + 0j,), 0.0, 1, 3, value)


# (record class, one of its fields, a function of one int giving equal
# records for equal ints and different records for different ints)
RECORDS = [
    (Facet, "normal", lambda k: Facet((1, 0), Fraction(k))),
    (CatalogEntry, "name", lambda k: CatalogEntry("e", 1, ((1,), (-k,)), "an entry")),
    (SupportFunction, "values", lambda k: SupportFunction(FAN, (Fraction(-1), Fraction(k)))),
    (QuantumRelation, "a", lambda k: QuantumRelation((0, 1), ((2, k),))),
    (Presentation, "rays", lambda k: Presentation(((1,), (-1,)), (Fraction(k), Fraction(-1)), ())),
    (Term, "coefficient", lambda k: Term((1, 0), float(k), Fraction(-1))),
    (Superpotential, "terms", lambda k: Superpotential(1, (Term((1,), 1.0, Fraction(k)), Term((-1,), 1.0, Fraction(-1))))),
    (SolverConfig, "seed", lambda k: SolverConfig(seed=k)),
    (CriticalPoint, "cluster_size", lambda k: _point(complex(k))),
    (SolveReport, "points", lambda k: SolveReport(2, (_point(complex(k)),), 8)),
    (ValuedPoly, "terms", lambda k: ValuedPoly(((0, Fraction(k)), (1, Fraction(0))))),
]


@pytest.mark.parametrize("cls, _field, make", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_record_has_value_equality_and_hashing(cls, _field, make):
    a, b, c = make(1), make(1), make(2)
    assert type(a) is cls and a is not b
    assert a == b and hash(a) == hash(b) and len({a, b, c}) == 2
    assert a != c


@pytest.mark.parametrize("cls, field, make", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_record_rejects_assignment(cls, field, make):
    record = make(1)
    assert field in repr(record)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.no_such_field = None
    assert record == make(1)


def test_record_replace_changes_one_field():
    point = _point()
    assert point._replace(cluster_size=1) == CriticalPoint((1 + 0j,), 0.0, 1, 1, 2 + 0j)
    assert point.cluster_size == 3


def test_facet_and_critical_point_repr():
    assert repr(Facet((1, -2), Fraction(-1, 2))) == "Facet(normal=(1, -2), offset=Fraction(-1, 2))"
    assert repr(CriticalPoint((1 + 0j, -0.5 + 2j), 1e-13, 2, 7, -3 + 0j, True)) == (
        "CriticalPoint(coords=((1+0j), (-0.5+2j)), residual=1e-13, hessian_rank=2, cluster_size=7, "
        "value=(-3+0j), exact=True)"
    )
    assert repr(SolverConfig()) == "SolverConfig(seed=0, starts=None)"


def test_facets_order_by_normal_then_offset():
    facets = [Facet((0, 1), Fraction(0)), Facet((0, -1), Fraction(2)), Facet((0, -1), Fraction(-1))]
    assert sorted(facets) == [facets[2], facets[1], facets[0]]


@pytest.mark.parametrize("build, message", [
    (lambda: SolverConfig(seed=-1), "seed must be in [0, 2**64)"),
    (lambda: SolverConfig(3, 2**32 + 1), "starts must be in [1, 2**32]"),
    (lambda: Superpotential(1, (Term((1,), 1.0, Fraction(0)), Term((1,), 2.0, Fraction(0)))),
     "superpotential exponents must be pairwise distinct"),
    (lambda: SupportFunction(FAN, (Fraction(-1),)), "need one value per ray"),
    (lambda: ValuedPoly(((0, Fraction(0)),)), "need at least two terms"),
    (lambda: ValuedPoly(((1, Fraction(0)), (1, Fraction(2)))), "degrees must be pairwise distinct"),
    (lambda: ValuedPoly(((-1, Fraction(0)), (1, Fraction(2)))), "degrees must be nonnegative"),
])
def test_validating_record_raises_its_message(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_validating_records_keep_their_defaults_and_keywords():
    assert SolverConfig() == SolverConfig(0, None) == SolverConfig(starts=None, seed=0)
    assert SolverConfig(seed=5, starts=40).starts == 40
    assert SupportFunction(fan=FAN, values=(Fraction(-1),) * 2).values == (-1, -1)

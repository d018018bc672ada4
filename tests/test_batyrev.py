import json
from fractions import Fraction

from toricqh import corpus
from toricqh.batyrev import (
    Presentation,
    QuantumRelation,
    presentation,
    quantum_sr_generators,
    render_text,
    to_json,
)
from toricqh.fan import Fan
from toricqh.potential import build_potential
from toricqh.support import SupportFunction, monotone_support


def paper_order_fan(rays, maximal):
    return Fan(len(rays[0]), rays, maximal)


def presentation_from_json(text: str) -> Presentation:
    """Inverse of `to_json`: support values are read off the relation data,
    and rays in no relation keep the monotone value -1. The emitted linear
    relations and each sigmaC must be the ones the rays and `a` determine."""
    data = json.loads(text)
    rays = tuple(tuple(r) for r in data["rays"])
    assert data["linear"] == linear_relations(rays)
    values = [Fraction(-1)] * len(rays)
    quantum = []
    for rel in data["quantum"]:
        a = tuple(sorted((int(k), v) for k, v in rel["a"].items()))
        assert rel["sigmaC"] == [i for i, _ in a]
        for i, s in zip(sorted(set(rel["C"]) | set(rel["sigmaC"])), rel["sF"], strict=True):
            values[i] = Fraction(s)
        quantum.append(QuantumRelation(tuple(rel["C"]), a))
    return Presentation(rays, tuple(values), tuple(quantum))


def linear_relations(rays):
    """sum_rho <m, n_rho> z_rho = 0 for each standard basis character m, in
    the JSON schema of `to_json`."""
    d = len(rays[0])
    units = [[int(i == k) for i in range(d)] for k in range(d)]
    return [{"m": m, "coeffs": [sum(a * b for a, b in zip(m, ray)) for ray in rays]} for m in units]


def emitted_linear(fan):
    """The coefficient rows of the linear relations `to_json` emits for fan."""
    return [rel["coeffs"] for rel in json.loads(to_json(presentation(fan, monotone_support(fan))))["linear"]]


def test_linear_ideal_cp1():
    fan, _ = corpus.build("cp1")
    rels = emitted_linear(fan)
    assert len(rels) == 1
    assert sorted(rels[0]) == [-1, 1]


def test_linear_ideal_cp2_paper_order():
    fan = paper_order_fan([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
    rels = emitted_linear(fan)
    assert rels[0] == [1, 0, -1]  # z1 - z3
    assert rels[1] == [0, 1, -1]  # z2 - z3
    assert "linear relations:\n  z1 - z3 = 0\n  z2 - z3 = 0\n" in render_text(presentation(fan, monotone_support(fan)))


def test_linear_ideal_bl1_cp2_paper_order():
    fan = paper_order_fan(
        [(1, 0), (0, 1), (0, -1), (-1, -1)],
        [(0, 1), (1, 3), (2, 3), (0, 2)],
    )
    rels = emitted_linear(fan)
    assert rels[0] == [1, 0, 0, -1]  # z1 - z4
    assert rels[1] == [0, 1, -1, -1]  # z2 - z3 - z4


def test_linear_relation_count_is_dimension():
    for e in corpus.catalog():
        fan, _ = corpus.build(e.name)
        assert len(emitted_linear(fan)) == e.dim


def test_quantum_cp2():
    fan, F = corpus.build("cp2")
    rels = quantum_sr_generators(fan)
    assert len(rels) == 1
    rel = rels[0]
    assert rel.collection == (0, 1, 2)
    assert rel.a == ()
    (emitted,) = json.loads(to_json(presentation(fan, F)))["quantum"]
    assert emitted["sigmaC"] == [] and emitted["sF"] == ["-1"] * 3


def test_quantum_bl1_cp2():
    fan, F = corpus.build("bl1_cp2")
    rels = quantum_sr_generators(fan)
    by_rays = {
        tuple(fan.rays[i] for i in r.collection): tuple(fan.rays[i] for i, _ in r.a)
        for r in rels
    }
    assert by_rays[((-1, -1), (1, 0))] == ((0, -1),)
    assert by_rays[((0, -1), (0, 1))] == ()
    target = next(r for r in rels if tuple(fan.rays[i] for i in r.collection) == ((-1, -1), (1, 0)))
    assert [m for _, m in target.a] == [1]


def test_quantum_cp1xcp1():
    fan, F = corpus.build("cp1xcp1")
    rels = quantum_sr_generators(fan)
    assert len(rels) == 2
    assert all(r.a == () for r in rels)


def test_quantum_exactness_and_disjointness_catalog():
    for e in corpus.catalog():
        fan, F = corpus.build(e.name)
        for rel in quantum_sr_generators(fan):
            left = tuple(
                sum(fan.rays[i][k] for i in rel.collection) for k in range(fan.dim)
            )
            right = tuple(
                sum(m * fan.rays[i][k] for i, m in rel.a) for k in range(fan.dim)
            )
            assert left == right, e.name
            assert not set(rel.collection) & set(dict(rel.a)), e.name


def _psi_image(fan, sF, rel):
    """Image of one side of a quantum relation under z -> q s^{F} x^{n}:
    the q and s weights cancel factor by factor, leaving (q_exp, s_exp, x)."""
    left = (
        -len(rel.collection) + len(rel.collection),
        sum(((-sF[i] + sF[i]) for i in rel.collection), Fraction(0)),
        tuple(sum(fan.rays[i][k] for i in rel.collection) for k in range(fan.dim)),
    )
    right = (
        sum(m - m for _, m in rel.a),
        sum(((-sF[i] + sF[i]) * m for i, m in rel.a), Fraction(0)),
        tuple(sum(m * fan.rays[i][k] for i, m in rel.a) for k in range(fan.dim)),
    )
    return left, right


def test_substitution_identity_catalog():
    """Mapping z_rho -> q s^{F} x^{n_rho} kills every quantum relation and
    sends each linear relation to q times the matching log-derivative of W."""
    for e in corpus.catalog():
        fan, F = corpus.build(e.name)
        pres = presentation(fan, F)
        for rel in pres.quantum:
            left, right = _psi_image(fan, pres.support_values, rel)
            assert left == right, e.name  # psi(relation) = x^v - x^v = 0
        W = build_potential(fan, F)
        terms = {t.exponent: (t.coefficient, t.s_exponent) for t in W.terms}
        for rel in json.loads(to_json(pres))["linear"]:
            for i, coeff in enumerate(rel["coeffs"]):
                ray = fan.rays[i]
                # psi(z_i) contributes coeff * q s^{F} x^{ray}; the matching
                # log-derivative term of W is <m, ray> * b * x^{ray}
                b, s_exp = terms[ray]
                pairing = sum(m * r for m, r in zip(rel["m"], ray))
                assert coeff == pairing
                assert s_exp == F.values[i]


def test_emit_text_cp2():
    fan, F = corpus.build("cp2")
    text = render_text(presentation(fan, F))
    assert "q^-3 s^3 z1 z2 z3 - 1" in text


def test_emit_text_all_have_quantum():
    for e in corpus.catalog():
        fan, F = corpus.build(e.name)
        pres = presentation(fan, F)
        assert len(pres.quantum) >= 1
        assert "quantum relations:" in render_text(pres)


def test_json_round_trip_monotone():
    for name in ("cp2", "cp1xcp1", "bl2_cp2", "u8"):
        fan, F = corpus.build(name)
        pres = presentation(fan, F)
        assert presentation_from_json(to_json(pres)) == pres


def test_json_round_trip_general_support():
    fan = corpus.build("bl1_cp2")[0]
    table = {(1, 0): 0, (0, 1): 0, (0, -1): Fraction(-1), (-1, -1): Fraction(-2)}
    F = SupportFunction(fan, tuple(Fraction(table[r]) for r in fan.rays))
    pres = presentation(fan, F)
    assert presentation_from_json(to_json(pres)) == pres

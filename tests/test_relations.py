"""The kernel of the map onto n slots: explicit relations and coverage."""

import pytest

from conftest import degrees_upto
from multisym import linalg
from multisym.coeffring import QQ, ZZ, Zmod
from multisym.msf import INF, alpha_weight, alphas_of_multidegree, e_alpha
from multisym.polyring import NPoly
from multisym.reference import (char_zero_ideal_gens, coverage_rank, ek_of_f,
                                genpoly_to_e1, relation_items, relation_polys)
from multisym.relations import (genpoly_expand, kernel_basis, multidegrees_upto,
                                relations_of, verify_relation)
from multisym.rewrite import GenPoly, evaluate, rewrite

F2 = Zmod(2)


def test_multidegrees_upto():
    assert multidegrees_upto((2, 1)) == \
        [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]
    assert multidegrees_upto((2,)) == [(0,), (1,), (2,)]


@pytest.mark.parametrize("a", [(-1, 2), (True, 2), (1.0, 2)])
def test_kernel_and_relations_refuse_bad_components(a):
    # the CLI's degree parser refuses these first; library callers meet this check
    assert relations_of(2, 2, (1, 2), ZZ)
    with pytest.raises(ValueError):
        kernel_basis(2, 2, a)
    with pytest.raises(ValueError):
        relations_of(2, 2, a, ZZ)


@pytest.mark.parametrize("n", [-1, 0, True, 1.5, "2"])
def test_kernel_and_relations_refuse_bad_slot_counts(n):
    # unchecked, -1 keeps every index of the multidegree and True means one slot
    assert kernel_basis(1, 2, (1, 1)) == [(((0, 1), 1), ((1, 0), 1))]
    with pytest.raises(ValueError):
        kernel_basis(n, 2, (1, 1))
    with pytest.raises(ValueError):
        relations_of(n, 2, (1, 1), ZZ)


def test_kernel_basis_examples():
    assert kernel_basis(1, 1, (2,)) == [(((1,), 2),)]
    assert kernel_basis(1, 2, (1, 1)) == [(((0, 1), 1), ((1, 0), 1))]
    assert kernel_basis(3, 1, (3,)) == []
    # indices of weight above n, nothing else
    for al in kernel_basis(2, 2, (2, 2)):
        assert alpha_weight(al) > 2
    assert len(kernel_basis(2, 2, (2, 2))) == \
        len(alphas_of_multidegree(2, (2, 2))) - \
        len(alphas_of_multidegree(2, (2, 2), 2))


def test_relation_polys_golden():
    got = relation_polys(1, 2, (1, 1), ZZ)
    assert [g.text() for g in got] == ["E[1;(0,1)]*E[1;(1,0)] - E[1;(1,1)]"]
    got = relation_polys(2, 1, (3,), ZZ)
    assert [g.text() for g in got] == ["E[3;(1)]"]
    assert relation_polys(3, 1, (3,), ZZ) == []


def test_relation_items_are_ordered_and_complete():
    items = relation_items(2, 2, (2, 2), ZZ)
    degs = [a for a, _, _ in items]
    assert degs == sorted(degs, key=lambda a: (sum(a), a))
    by_deg = {}
    for a, al, g in items:
        by_deg.setdefault(a, []).append((al, g))
        assert not g.is_zero
    for a in multidegrees_upto((2, 2)):
        assert len(by_deg.get(a, [])) == len(kernel_basis(2, 2, a))


def test_relations_change_base():
    """The relations over Z/p are the Z relations reduced mod p, and those
    over Q the Z relations themselves, index for index."""
    count = 0
    for n, m, box in [(2, 2, (3, 3)), (3, 2, (4, 4)), (2, 1, (10,)), (1, 3, (2, 2, 2))]:
        for a in multidegrees_upto(box):
            over_z = relations_of(n, m, a, ZZ)
            for ring in (QQ, F2, Zmod(3), Zmod(7)):
                got = relations_of(n, m, a, ring)
                assert [al for al, _ in got] == [al for al, _ in over_z]
                for (_, g), (_, gz) in zip(got, over_z):
                    if ring == QQ:
                        assert g.terms == gz.terms
                    else:
                        assert not g.is_zero
                        assert g.terms == {s: c % ring.p for s, c in gz.terms.items()
                                           if c % ring.p}
            count += len(over_z)
    assert count == 560


def test_relations_vanish_small():
    for ring in (ZZ, QQ, F2):
        for n, m in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            box = tuple([4 // m] * m) if m > 1 else (4,)
            for a, al, g in relation_items(n, m, box, ring):
                assert verify_relation(g, n)
                assert evaluate(g, n).is_zero
                assert genpoly_expand(g, n).is_zero
                # and the relation is not the zero polynomial upstairs
                assert not evaluate(g, INF).is_zero


def test_relations_vanish_full_corpus():
    # every kernel element rewrites to a nonzero generator polynomial that
    # dies at ambient n, over all three coefficient rings
    count = 0
    for ring in (ZZ, QQ, F2):
        for n in (1, 2, 3):
            for m in (1, 2, 3):
                for a in degrees_upto(m, 6):
                    for al in kernel_basis(n, m, a):
                        g = rewrite(e_alpha(al, INF, m, ring))
                        assert not g.is_zero
                        assert verify_relation(g, n)
                        count += 1
    assert count == 3 * 3233


def test_verify_relation_rejects_non_relations():
    g = GenPoly.symbol(1, (1, 0), 2, ZZ)
    assert not verify_relation(g, 2)


def test_rewrite_of_kernel_element_reproduces_relation():
    # e.g. e_{(1,1)}(y1, y2) itself: its two-slot expansion identity
    al = (((0, 1), 1), ((1, 0), 1))
    g = rewrite(e_alpha(al, INF, 2, ZZ))
    assert g.text() == "E[1;(0,1)]*E[1;(1,0)] - E[1;(1,1)]"
    assert evaluate(g, 1).is_zero


def test_coverage_rank_examples():
    assert coverage_rank(1, 1, (2,)) == (1, 1)
    assert coverage_rank(1, 1, (4,)) == (4, 4)
    assert coverage_rank(2, 2, (1, 1)) == (0, 0)
    for n, m in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        for a in degrees_upto(m, 4):
            if not any(a):
                continue
            got, dim = coverage_rank(n, m, a)
            assert got == dim
            assert dim == len(kernel_basis(n, m, a))


def test_char_zero_generators_golden():
    gens = char_zero_ideal_gens(1, 1, 2)
    assert [g.text() for g in gens] == ["1/2*E[1;(1)]^2 - 1/2*E[1;(2)]"]
    assert char_zero_ideal_gens(2, 1, 2) == []


def test_char_zero_generators_vanish():
    for n, m, bound in [(1, 1, 3), (1, 2, 3), (2, 1, 4), (2, 2, 3)]:
        gens = char_zero_ideal_gens(n, m, bound)
        assert gens
        for g in gens:
            assert g.ring == QQ
            assert all(i == 1 for i, nu in g.symbols())
            assert evaluate(g, n).is_zero
            assert genpoly_expand(g, n).is_zero


def test_char_zero_generators_cover_low_degrees():
    # in one variable at n=1 the single generator family e_2(f) spans the
    # kernel in each degree it reaches; spot-check degree 2
    gens = char_zero_ideal_gens(1, 1, 2)
    comp = gens[0].multidegree_component((2,))
    assert not comp.is_zero


def test_genpoly_to_e1():
    g = genpoly_to_e1(GenPoly.symbol(2, (1,), 1, QQ))
    assert g.text() == "1/2*E[1;(1)]^2 - 1/2*E[1;(2)]"
    with pytest.raises(ValueError):
        genpoly_to_e1(GenPoly.symbol(2, (1,), 1, ZZ))
    # the conversion preserves the value in every ambient
    h = rewrite(e_alpha([((1, 1), 1), ((1, 0), 1)], INF, 2, QQ))
    h1 = genpoly_to_e1(h)
    for n in (1, 2, 3):
        assert genpoly_expand(h1, n) == genpoly_expand(h, n)
        assert evaluate(h1, n) == evaluate(h, n)


def test_genpoly_to_e1_over_zmod():
    # the e_1 image keeps the value; Z/p with p <= i cannot divide by i!
    F13 = Zmod(13)
    for i in range(1, 6):
        g = GenPoly.symbol(i, (1, 0), 2, F13)
        h = genpoly_to_e1(g)
        assert all(j == 1 for j, nu in h.symbols())
        assert evaluate(h, INF) == evaluate(g, INF)
    with pytest.raises(ZeroDivisionError):
        genpoly_to_e1(GenPoly.symbol(3, (1,), 1, Zmod(3)))


def test_ek_of_f_relations_route():
    # e_{n+1}(f) is a relation at ambient n for any constant-free f
    f = NPoly.variable(1, 1, 1, 2, QQ) + NPoly.variable(2, 1, 1, 2, QQ)
    x = ek_of_f(f, 2, INF)
    g = rewrite(x)
    assert evaluate(g, 1).is_zero
    assert not evaluate(g, 2).is_zero


def test_coverage_rank_falls_back_to_q(monkeypatch):
    """A block whose rank comes out short modulo the prime is ranked over Q."""
    fields = []
    real = linalg.rank_of

    def short_mod_p(rows, ncols, field):
        fields.append(field)
        return real(rows, ncols, field) if field == QQ else 0

    monkeypatch.setattr(linalg, "rank_of", short_mod_p)
    assert coverage_rank(1, 1, (4,)) == (4, 4)
    assert fields and fields == [linalg.CERT_FIELD, QQ] * (len(fields) // 2)

from trigasket.isomorphism import decide_iso, degree_two_census
from trigasket.word import Permutation, WordSpec, apply_permutation, orbit


def test_constant_words_are_isomorphic():
    verdict = decide_iso("(l)", "(u)")
    assert verdict.isomorphic
    assert Permutation(("u", "r", "l")) in verdict.witnesses
    assert decide_iso("(l)", "(r)").isomorphic
    assert decide_iso("(u)", "(r)").isomorphic


def test_rotated_cycles_are_isomorphic():
    verdict = decide_iso("(lr)", "(rl)")
    assert verdict.isomorphic
    assert verdict.witnesses == (Permutation(("r", "l", "u")),)


def test_constant_vs_alternating_is_not_isomorphic():
    verdict = decide_iso("(l)", "(ul)")
    assert not verdict.isomorphic
    assert verdict.census == (1, 0)
    assert len(verdict.exhausted) == 6
    assert all(index >= 1 for _, index in verdict.exhausted)


def test_decide_iso_is_reflexive_and_symmetric():
    words = ("(l)", "(ul)", "rru(l)", "(lru)", "ul(ur)")
    for v in words:
        assert decide_iso(v, v).isomorphic
        for w in words:
            assert decide_iso(v, w).isomorphic == decide_iso(w, v).isomorphic


def test_orbit_members_are_pairwise_isomorphic():
    for w in ("(l)", "(ul)", "(lru)"):
        members = sorted(orbit(w), key=str)
        for a in members:
            for b in members:
                assert decide_iso(a, b).isomorphic


def test_cofinal_shift_is_isomorphic():
    assert decide_iso("(l)", "rru(l)").isomorphic
    assert decide_iso("(ul)", "u(lu)").isomorphic


def test_census_examples():
    count, vertex = degree_two_census("(l)")
    assert (count, str(vertex)) == (1, "(l)")
    assert degree_two_census("(ul)") == (0, None)
    count, vertex = degree_two_census("rru(l)")
    assert (count, str(vertex)) == (1, "(l)")
    count, vertex = degree_two_census("lr(u)")
    assert (count, str(vertex)) == (1, "(u)")


def test_census_is_an_isomorphism_invariant():
    words = ("(l)", "(u)", "(ul)", "rru(l)", "(lru)")
    for v in words:
        for w in words:
            if decide_iso(v, w).isomorphic:
                assert degree_two_census(v)[0] == degree_two_census(w)[0]


def test_relabelled_words_give_isomorphic_graphs():
    base = WordSpec.parse("ul(ur)")
    for sigma in (Permutation(("r", "l", "u")), Permutation(("u", "r", "l"))):
        assert decide_iso(base, apply_permutation(sigma, base)).isomorphic

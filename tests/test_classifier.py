import hashlib
import json
from pathlib import Path

import pytest

import conjlab as cj
from conjlab import classifier, families, specio, verify
from conjlab.classifier import Verdict, classify, check_corollary1, find_frobenius_structure
from conjlab.groups import FiniteGroup


def test_find_frobenius_agl15():
    fs = find_frobenius_structure(cj.agl1(5))
    assert fs is not None
    assert len(fs.kernel) == 5
    assert fs.complement_order == 4
    assert fs.complement is not None and len(fs.complement) == 4
    assert fs.kernel.members & fs.complement.members == {cj.agl1(5).identity}


def test_find_frobenius_type3_quotient():
    g = cj.type3_frobenius(7, 3)
    q = g.quotient(g.center())
    fs = find_frobenius_structure(q)
    assert fs is not None
    assert len(fs.kernel) == 49
    assert fs.complement_order == 3


def test_find_frobenius_s4_none():
    assert find_frobenius_structure(cj.symmetric_group(4)) is None


def test_find_frobenius_rejects_abelian():
    with pytest.raises(ValueError):
        find_frobenius_structure(cj.cyclic_group(6))


def test_classify_type_i():
    g = cj.direct_product(cj.cyclic_group(5), cj.to_permutation(cj.heisenberg(3)))
    c = classify(g)
    assert c.verdict is Verdict.TYPE_I
    assert c.evidence["p"] == 3
    assert c.evidence["abelian_factor_order"] == 5
    assert c.evidence["sylow_order"] == 27


def test_classify_type_ii():
    g = cj.direct_product(cj.agl1(8), cj.cyclic_group(3))
    c = classify(g)
    assert c.verdict is Verdict.TYPE_II
    assert c.evidence["kernel_preimage_order"] == 24


def test_classify_type_iii():
    c = classify(cj.type3_frobenius(7, 3))
    assert c.verdict is Verdict.TYPE_III
    assert c.evidence["p"] == 7
    assert c.evidence["center_order"] == 7  # Z(P) = Z cap P has order 7


def test_classify_type_iv():
    c = classify(cj.sl2(7))
    assert c.verdict is Verdict.TYPE_IV
    assert c.evidence["q"] == 7
    assert c.evidence["derived_order"] == 336
    assert "fingerprint" in c.evidence["method"]


@pytest.fixture
def no_matrix_references(monkeypatch):
    """families.sl2 and families.gl2 fail if the classifier calls them."""
    def refuse(*args, **kwargs):
        raise AssertionError("SL2(q) or GL2(q) built for a reference")

    monkeypatch.setattr(families, "sl2", refuse)
    monkeypatch.setattr(families, "gl2", refuse)


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13, 16, 17])
def test_expected_N_linear_sl2_matches_enumeration(q):
    """The closed form the Type IV check trusts, against the enumerated
    N(SL2(q)) for every prime power 4 <= q <= 17."""
    assert classifier.expected_N_linear("sl2", q).values == set(cj.n_set(cj.sl2(q)))


def test_linear_reference_builds_no_gl2(no_matrix_references):
    """The Type IV references come from the projective line and N(SL2(q))
    from its closed form: with families.sl2 and families.gl2 unusable,
    sl2(16) and gl2(9) keep their verdict and evidence."""
    groups = [cj.sl2(16), cj.gl2(9)]
    expected = [(16, [240, 255, 272], 4080), (9, [40, 72, 90], 720)]
    for g, (q, derived_n, derived_order) in zip(groups, expected):
        c = classify(g)
        assert c.verdict is Verdict.TYPE_IV
        assert c.all_matching == ("TypeIV",)
        assert c.evidence == {
            "q": q, "quotient_kind": "pgl", "derived_order": derived_order,
            "derived_N": derived_n, "method": classifier.FINGERPRINT_NOTE}


def test_try_linear_compares_derived_n_set(monkeypatch):
    """Type IV needs N(G') to match N(SL2(q)): with a wrong closed form,
    sl2(13) is no longer Type IV."""
    assert classify(cj.sl2(13)).verdict is Verdict.TYPE_IV
    monkeypatch.setattr(classifier, "expected_N_linear", lambda kind, q:
                        classifier.FormulaExpectation(frozenset({1, 2, 3}), "formula"))
    assert classify(cj.sl2(13)).verdict is not Verdict.TYPE_IV


@pytest.mark.parametrize("build", [lambda: cj.agl1(9), lambda: cj.dihedral_group(5)])
def test_trivial_center_classifies_without_quotient(build, monkeypatch):
    """With Z(G) = 1, G itself is G/Z: Type II keeps its verdict and
    evidence, and corollary 1 its answer, with FiniteGroup.quotient broken."""
    expected = classify(build())
    assert expected.verdict is Verdict.TYPE_II
    assert check_corollary1(build())

    def refuse(self, normal):
        raise AssertionError("quotient by the trivial center")

    monkeypatch.setattr(FiniteGroup, "quotient", refuse)
    g = build()
    assert len(g.center()) == 1
    assert classify(g) == expected
    assert check_corollary1(g)


def test_classify_not_sp_witness():
    c = classify(cj.gl2(3))
    assert c.verdict is Verdict.NOT_SP
    assert c.witness == (6, 12)


def test_classify_abelian():
    assert classify(cj.cyclic_group(12)).verdict is Verdict.ABELIAN
    assert classify(cj.elementary_abelian_group(3, 2)).verdict is Verdict.ABELIAN


def test_classify_sl23_is_type_iii():
    # q = 3 is excluded from clause IV (needs q > 3); the group lands in III
    c = classify(cj.sl2(3))
    assert c.verdict is Verdict.TYPE_III
    assert c.evidence["sylow_order"] == 8  # the quaternion Sylow 2-subgroup


def test_classify_sl25_times_c3_type_iv():
    g = cj.direct_product(cj.to_permutation(cj.sl2(5)), cj.cyclic_group(3))
    c = classify(g)
    assert c.verdict is Verdict.TYPE_IV
    assert c.evidence["q"] == 5
    assert c.evidence["derived_order"] == 120


def test_classify_verdict_iff_sp():
    for g in (cj.symmetric_group(4), cj.remark_group(3), cj.gl2(3)):
        c = classify(g)
        assert c.verdict is Verdict.NOT_SP
        a, b = c.witness
        assert b % a == 0 and a != b
        nset = set(cj.n_set(g))
        assert {a, b} <= nset


def test_all_matching_lists_every_passing_type():
    c = classify(cj.heisenberg(3))
    assert c.verdict is Verdict.TYPE_I
    assert "TypeI" in c.all_matching


def test_type_i_reads_n_of_a_whole_sylow_off_g(closures):
    """A p-group is its own Sylow subgroup, so Type I reads N(P) off G:
    G is the only group enumerated."""
    g = cj.heisenberg(5)
    c = classify(g)
    assert closures == [g]
    assert c.verdict is Verdict.TYPE_I
    assert c.evidence == {"p": 5, "sylow_order": 125, "abelian_factor_order": 1}


def test_classify_type_v_on_bundled_cover(no_matrix_references):
    """The cover is the only Type V input; the golden digests leave it out."""
    from conjlab import verify
    from conjlab.specio import load_group_spec

    path = verify.default_schur_cover_path()
    if path is None:
        pytest.skip("bundled cover file not present")
    g = load_group_spec(path)
    c = classify(g)
    assert c.verdict is Verdict.TYPE_V
    assert c.all_matching == ("TypeV",)
    assert c.evidence == {
        "quotient_kind": "psl", "derived_order": 2160,
        "derived_N": [72, 90, 120], "method": classifier.FINGERPRINT_NOTE}


def test_check_corollary1():
    assert check_corollary1(cj.agl1(8))
    assert check_corollary1(cj.type3_frobenius(5, 2))
    assert check_corollary1(cj.direct_product(cj.agl1(5), cj.cyclic_group(7)))


def test_check_corollary1_precondition():
    with pytest.raises(ValueError):
        check_corollary1(cj.sl2(5))  # rank 3
    with pytest.raises(ValueError):
        check_corollary1(cj.symmetric_group(4))  # not SP


def test_classification_builds_no_normal_subgroup_lattice(corpus, group_of, monkeypatch):
    """classify, check_corollary1 and Lemma 9's Frobenius structure find
    every normal subgroup they need by normal_hall: with
    FiniteGroup.normal_subgroups refused, every corpus group's stable
    analysis (verdict and evidence included) still hashes to its pinned
    digest, Corollary 1 holds on every rank-2 SP group, and Lemma 9 passes
    on every entry tagged for it."""
    def refuse(self):
        raise AssertionError("normal-subgroup lattice built")

    monkeypatch.setattr(FiniteGroup, "normal_subgroups", refuse)
    expected = json.loads((Path(__file__).parent / "data" / "analysis_digests.json").read_text())
    lemma9 = corollary1 = 0
    for entry in corpus:
        g = group_of(entry.name)
        report = specio.analysis_report(g)
        digest = hashlib.sha256(specio.stable_report_json(report)).hexdigest()
        assert digest == expected[entry.name], entry.name
        if report["predicates"]["sp"] and report["rank"] == 2:
            assert check_corollary1(g), entry.name
            corollary1 += 1
        if entry.tags & {"frobenius_kernel", "frobenius_kernel_quotient"}:
            h = g.quotient(g.center()) if "frobenius_kernel_quotient" in entry.tags else g
            frob = find_frobenius_structure(h)
            assert verify._check_lemma9(h, frob.kernel, frob.complement) is None, entry.name
            lemma9 += 1
    assert corollary1 > 0 and lemma9 >= 9

import gc
import hashlib
import io
import json
import pickle
import re
import time
import weakref
from collections import Counter
from math import gcd
from pathlib import Path

import pytest

import conjlab as cj
from conjlab import classifier, predicates, verify
from conjlab.cli import run_command
from conjlab.groups import FiniteGroup, Subgroup
from conjlab.specio import write_group_spec
from oracles import (image_set_centralizer_image, naive_centralizer, naive_element_order,
                     naive_subgroup_class_sizes)

REPORT_DIGEST = Path(__file__).parent / "data" / "verify_report.sha256"


def test_expected_N_linear_formula_values():
    assert verify.expected_N_linear("sl2", 9).values == {40, 72, 90}
    assert verify.expected_N_linear("sl2", 9).provenance == "formula"
    assert verify.expected_N_linear("gl2", 4).values == {12, 15, 20}
    assert verify.expected_N_linear("sl2", 5).values == {12, 20, 30}
    assert verify.expected_N_linear("sl2", 13).values == {84, 156, 182}


def test_expected_N_linear_even_q_is_flagged_derived():
    exp = verify.expected_N_linear("sl2", 4)
    assert exp.values == {15, 12, 20}
    assert exp.provenance == "derived-even-q"


def test_expected_N_linear_domain_errors():
    with pytest.raises(ValueError):
        verify.expected_N_linear("gl2", 3)
    with pytest.raises(ValueError):
        verify.expected_N_linear("sl2", 3)
    with pytest.raises(ValueError):
        verify.expected_N_linear("sl2", 2)
    with pytest.raises(ValueError):
        verify.expected_N_linear("psl2", 5)


def test_default_corpus_is_desk_scale(corpus, group_of):
    assert len(corpus) >= 40
    names = {e.name for e in corpus}
    assert {"remark_3", "gl2_3", "sl2_9", "type3_7_3", "agl1_8"} <= names
    for entry in corpus:
        assert group_of(entry.name).order() <= 10_000


def test_theorem1_suite_green(verify_reports):
    report = verify_reports["theorem1"]
    assert report.ok, [c.detail for c in report.failures]
    names = {c.name for c in report.checks}
    assert "strictness_remark_3" in names


def test_theorem2_suite_green(verify_reports):
    report = verify_reports["theorem2"]
    assert report.ok, [f"{c.name}: {c.detail}" for c in report.failures]


def test_corollary_suite_green(verify_reports):
    report = verify_reports["corollaries"]
    assert report.ok, [f"{c.name}: {c.detail}" for c in report.failures]


def test_lemma_suite_green(verify_reports):
    report = verify_reports["lemmas"]
    assert report.ok, [f"{c.name}: {c.detail}" for c in report.failures]


def test_lemma2_iii_pairs_are_every_eligible_pair():
    """The (iii) pair source lists what an independent scan finds: x a
    noncentral class representative, y in C(x) \\ Z(G) in element order,
    gcd(|x|, |y|) = 1.  Of these groups only sym 5 has such pairs."""
    total = 0
    for g in (cj.symmetric_group(4), cj.agl1(5), cj.type3_frobenius(7, 3),
              cj.symmetric_group(5)):
        mul = g.rep.mul
        center = {z for z in g.elements() if all(mul(z, s) == mul(s, z) for s in g.generators)}
        orders = {y: naive_element_order(g, y) for y in g.elements()}
        expected = [(x, y) for x in (c.representative for c in g.conjugacy_classes())
                    if x not in center for y in naive_centralizer(g, x) if y not in center
                    and gcd(orders[x], orders[y]) == 1]
        assert verify._lemma2_iii_pairs(g) == expected
        total += len(expected)
    assert total == 3


def test_lemma2_iii_pairs_of_an_abelian_group_draw_nothing():
    assert verify._lemma2_iii_pairs(cj.cyclic_group(6)) == []


def test_lemma2_tuple_counts_match_an_independent_count(corpus, group_of, verify_reports):
    """Each entry's reported Lemma-2 count equals one built from the oracles:
    per normal K, K's classes, and per class representative x of G 2 tuples,
    3 when gcd(|x|, |K|) = 1; then every (iii) pair; an entry with none reads
    the reason it was skipped.  On every corpus entry of order <= 500 and on
    sym_6 (order 720, one normal subgroup)."""
    reported = {c.name.split("/")[1]: c.detail for c in verify_reports["lemmas"].checks
                if c.name.startswith("lemma2_exhaustive/")}
    counted = 0
    for entry in corpus:
        g = group_of(entry.name)
        if g.order() > 500 and entry.name != "sym_6":
            continue
        mul = g.rep.mul
        def central(z):
            return all(mul(z, s) == mul(s, z) for s in g.generators)
        reps = [c.representative for c in g.conjugacy_classes()]
        orders = {x: naive_element_order(g, x) for x in reps}
        tuples = 0
        for k in g.normal_subgroups():
            if 1 < len(k) < g.order():
                sizes = Counter(naive_subgroup_class_sizes(g, k).values())
                tuples += sum(n // size for size, n in sizes.items())
                tuples += sum(3 if gcd(orders[x], len(k)) == 1 else 2 for x in reps)
        pairs = sum(1 for x in reps if not central(x) for y in naive_centralizer(g, x)
                    if not central(y) and gcd(orders[x], naive_element_order(g, y)) == 1)
        assert reported[entry.name] == (
            f"{tuples + pairs} tuples, {pairs} (iii) pairs" if tuples + pairs
            else "no normal subgroup other than 1 and G and no (iii) pair")
        counted += 1
    assert counted == 45


def _case_on(entry, g):
    """A verify._Case of the corpus entry on its group g, built already."""
    case = verify._Case(entry)
    case.group = g
    return case


def test_centralizer_image_matches_image_set_oracle(corpus, group_of, monkeypatch):
    """Lemma 2 (v) and (iv), read off G's cosets of K and C_G(x)'s generators
    and orders, give the verdicts of the image of C_G(x) in G/K built member
    by member, for every normal K (1 and G too) and class representative x
    of each corpus group of order <= 500: the image lies in C_{G/K}(xbar),
    and (v) passes; with (iv) checked at x alone, as if (|x|, |K|) = 1 and
    (|y|, |K|) = |K| for every other y, it fails at x exactly when the image
    is not all of C_{G/K}(xbar); with (iv) checked at every x, it fails at
    the first such x, and only then."""
    parts = Counter()
    for entry in corpus:
        g = group_of(entry.name)
        if g.order() > 500:
            continue
        case = _case_on(entry, g)
        assert verify._check_lemma2_v(case) is None, entry.name
        case.normals = g.normal_subgroups()
        for idx, k in enumerate(case.normals):
            quot, short = g.quotient(k), []
            for cls in g.conjugacy_classes():
                x = cls.representative
                inside, equal = image_set_centralizer_image(g, quot, x)
                assert inside, (entry.name, len(k), x)
                orders = {y: 1 if y == x else len(k) for y in g.elements()}
                with monkeypatch.context() as m:
                    m.setattr(g, "element_orders", lambda: orders)
                    fail = verify._check_lemma2_for_normal(case, idx)[1]
                assert fail == (None if equal else
                                f"(iv) centralizer image != C(xbar) for x={x}"), \
                    (entry.name, len(k), x)
                parts[fail is None] += 1
                if fail:
                    short.append(x)
            with monkeypatch.context() as m:
                m.setattr(g, "element_orders", lambda: dict.fromkeys(g.elements(), 1))
                assert verify._check_lemma2_for_normal(case, idx)[1] == (
                    f"(iv) centralizer image != C(xbar) for x={short[0]}" if short else None), \
                    (entry.name, len(k))
    assert parts[True] > 1000 and parts[False] > 100


def test_coset_counts_match_the_quotient_group(corpus, group_of):
    """The number of cosets of K that x^G meets, as Lemma 2 reads |xbar^{G/K}|
    off G's coset numbers, is the class size of xbar in G/K built as a group
    of its own, and |G/K| over it is the order of C_{G/K}(xbar): every normal
    K and class of each corpus group of order <= 500."""
    checked = 0
    for entry in corpus:
        g = group_of(entry.name)
        if g.order() > 500:
            continue
        for k in g.normal_subgroups():
            quot, cosets = g.quotient(k), g.cosets(k)
            for cls in g.conjugacy_classes():
                x = cls.representative
                count = len(set(map(cosets.__getitem__, cls.positions)))
                xbar = quot.rep.coset_rep[x]
                assert count == quot.class_size(xbar), (entry.name, len(k), x)
                assert divmod(quot.order(), count) == (len(quot.centralizer(xbar)), 0), \
                    (entry.name, len(k), x)
                checked += 1
    assert checked > 1000


def _with_generator(cg, c):
    """C_G(x) as verify reads it, given one more generator c."""
    return Subgroup(cg.rep, cg.elements, cg.positions, cg.gens + (c,))


def test_lemma2_v_and_iv_catch_a_wrong_quotient_centralizer(monkeypatch):
    """S4 over V4: a generator c of C_G(x) that does not commute with x fails
    (v), and a count of the cosets that the 3-cycles meet that is too large
    fails (iv) at the 3-cycle, whose order is prime to |V4|."""
    case = verify._Case(verify.CorpusEntry(
        "sym_4", {"family": "sym", "params": [4], "regular": False}))
    g = case.group
    idx = next(i for i, k in enumerate(case.normals) if len(k) == 4)
    classes = g.conjugacy_classes()
    i = next(i for i, c in enumerate(classes) if naive_element_order(g, c.representative) == 3)
    three_cycle = classes[i].representative
    assert verify._check_lemma2_v(case) is None
    assert verify._check_lemma2_for_normal(case, idx)[1] is None
    # a transposition as a generator of C(3-cycle): their commutator is a 3-cycle
    transposition = next(x for x in g.elements() if sum(a != b for a, b in enumerate(x)) == 2)
    records = list(case.centralizers)
    records[i] = _with_generator(records[i], transposition)
    monkeypatch.setattr(case, "centralizers", records)
    assert verify._check_lemma2_v(case) == \
        f"(v) centralizer image escapes C(xbar) for x={three_cycle}"
    monkeypatch.undo()
    # two more 3-cycles in cosets of their own: 4 cosets, and 4 still divides 8
    cosets, home = g.cosets(case.normals[idx]), g.elements().index(three_cycle)
    wrong = list(cosets)
    for n, p in enumerate(p for p in classes[i].positions if p != home):
        if n < 2:
            wrong[p] = max(cosets) + 1 + n
    monkeypatch.setattr(g, "cosets", lambda k: wrong)
    assert verify._check_lemma2_for_normal(case, idx)[1] == \
        f"(iv) centralizer image != C(xbar) for x={three_cycle}"


def test_lemma1_fails_naming_p_when_g_does_not_split(tmp_path, monkeypatch):
    """AGL1(5) x C3 meets Lemma 1's hypothesis at p = 3 only (its class
    sizes are 1, 4 and 5), so with sylow_split refusing every split,
    lemma1 fails there with one message that names p."""
    factors = [{"family": "agl1", "params": [5], "regular": False},
               {"family": "cyclic", "params": [3], "regular": False}]
    entry = verify.CorpusEntry("agl15_x_c3", {"product": factors}, tags=frozenset({"product"}))

    def lemma1():
        lemmas = verify.run_all([entry], schur_path=tmp_path / "none.json")[3]
        return next((c.status, c.detail) for c in lemmas.checks if c.name == "lemma1/agl15_x_c3")

    assert lemma1() == ("pass", "")
    monkeypatch.setattr(FiniteGroup, "sylow_split", lambda self, p: None)
    assert lemma1() == ("fail", "p=3: hypothesis holds but G is not P x T")


def test_verify_cyclic_500_corpus_within_seconds(tmp_path):
    """A one-entry corpus of the cyclic group of order 500 passes within a
    few seconds of CPU: Lemma 2's (v) and (iv) build no image of C_G(x) in
    G/K, which for this group took about 20 s."""
    (tmp_path / "expectations.json").write_text(json.dumps({"cyclic_500": {
        "group": {"family": "cyclic", "params": [500]}, "order": 500, "N": [],
        "verdict": "Abelian", "provenance": "derived"}}))
    entries = verify.load_corpus_dir(tmp_path)
    start = time.process_time()
    reports = verify.run_all(entries, schur_path=None)
    assert all(r.ok for r in reports)
    assert time.process_time() - start < 8


def _outcomes(report):
    return [(c.name, c.status, c.detail) for c in report.checks]


def test_suite_reports_deterministic(corpus, verify_reports):
    # a second run, through the lemma suite alone, checks the same tuples
    again = verify.run_lemma_invariants(corpus)
    assert _outcomes(again) == _outcomes(verify_reports["lemmas"])


def test_schur_cover_skip_when_absent(tmp_path):
    report = verify.run_schur_cover_check(tmp_path / "nope.json")
    assert report.checks[0].status == "skip"
    assert report.ok  # skips do not fail the suite


def test_schur_cover_bundled_file_passes():
    path = verify.default_schur_cover_path()
    assert path is not None, "bundled cover file missing"
    report = verify.run_schur_cover_check(path)
    assert report.ok
    assert report.checks[0].status == "pass"
    assert "2160" in report.checks[0].detail


def test_schur_cover_wrong_group_fails(tmp_path):
    wrong = tmp_path / "sl2_9.json"
    write_group_spec(cj.sl2(9), wrong)
    report = verify.run_schur_cover_check(wrong)
    assert not report.ok
    assert "720" in report.failures[0].detail  # order mismatch reported


def test_corpus_dir_interface(tmp_path):
    # materialize a miniature corpus as spec files plus expectations.json
    groups = {
        "mini_s4": (cj.symmetric_group(4), {"order": 24, "N": [3, 6, 8],
                                            "verdict": "NotSP", "provenance": "derived"}),
        "mini_q8": (cj.quaternion_group(), {"order": 8, "N": [2],
                                            "verdict": "TypeI", "provenance": "derived",
                                            "tags": ["p_group"]}),
        "mini_agl15": (cj.agl1(5), {"order": 20, "N": [4, 5],
                                    "verdict": "TypeII", "provenance": "derived"}),
    }
    for name, (group, _) in groups.items():
        group.name = name
        write_group_spec(group, tmp_path / f"{name}.json")
    expectations = {name: exp for name, (_, exp) in groups.items()}
    (tmp_path / "expectations.json").write_text(json.dumps(expectations))

    entries = verify.load_corpus_dir(tmp_path)
    assert [e.name for e in entries] == sorted(groups)
    assert verify.run_theorem1_suite(entries).ok
    assert verify.run_theorem2_suite(entries).ok
    assert verify.run_corollary_suite(entries).ok


def test_corpus_dir_recipes_without_spec_files(tmp_path):
    # the interface test again, with the groups given as recipes
    d5 = {"order": 10, "N": [2, 5], "verdict": "TypeII", "provenance": "derived"}
    (tmp_path / "expectations.json").write_text(json.dumps({
        "mini_d5": dict(d5, group={"family": "dihedral", "params": [5]}),
        "mini_d5_spec": dict(d5, group={"spec": "groups/d5.json"}),
        "mini_agl15_x_c3": {"group": {"product": [{"family": "agl1", "params": [5]},
                                                  {"family": "cyclic", "params": [3]}]},
                            "order": 60, "N": [4, 5], "verdict": "TypeII",
                            "provenance": "derived", "tags": ["product"]},
    }))
    (tmp_path / "groups").mkdir()
    write_group_spec(cj.dihedral_group(5), tmp_path / "groups" / "d5.json")

    entries = verify.load_corpus_dir(tmp_path)
    assert [e.name for e in entries] == ["mini_agl15_x_c3", "mini_d5", "mini_d5_spec"]
    assert entries[1].recipe == {"family": "dihedral", "params": [5], "regular": False}
    suites = [verify.run_theorem1_suite(entries), verify.run_theorem2_suite(entries),
              verify.run_corollary_suite(entries),
              verify.run_lemma_invariants(entries)]
    assert all(report.ok for report in suites)
    # run_all checks entry by entry and reports what the suites report alone
    together = verify.run_all(entries, schur_path=tmp_path / "none.json")
    assert list(map(_outcomes, together[:4])) == list(map(_outcomes, suites))


HOSTILE_EXPECTATIONS = {
    "array": '["a"]',
    "N_not_array": '{"x": {"N": 5}}',
    "entry_not_object": '{"x": 5}',
    "unknown_family": '{"x": {"group": {"family": "galaxy", "params": [3]}}}',
    "unhashable_family": '{"x": {"group": {"family": ["sym"], "params": [3]}}}',
    "wrong_arity": '{"x": {"group": {"family": "sym", "params": [3, 4]}}}',
    "boolean_param": '{"x": {"group": {"family": "sym", "params": [true]}}}',
    "nested_product": '{"x": {"group": {"product": [{"product": ['
                      '{"family": "cyclic", "params": [2]}, {"family": "cyclic", "params": [3]}]}, '
                      '{"family": "cyclic", "params": [5]}]}}}',
    "three_factors": '{"x": {"group": {"product": [{"family": "quaternion"}, '
                     '{"family": "quaternion"}, {"family": "quaternion"}]}}}',
    "two_recipes": '{"x": {"group": {"family": "sym", "params": [3], "spec": "x.json"}}}',
    "spec_not_string": '{"x": {"group": {"spec": 5}}}',
    "unknown_key": '{"x": {"verdit": "TypeII"}}',
    "bad_verdict": '{"x": {"verdict": ["TypeII"]}}',
    "allow_unrecognized": '{"x": {"allow_unrecognized": true}}',
    "deep_nesting": "[" * 200_000,
}


@pytest.mark.parametrize("text", list(HOSTILE_EXPECTATIONS.values()),
                         ids=list(HOSTILE_EXPECTATIONS))
def test_corpus_dir_rejects_hostile_expectations(tmp_path, text):
    write_group_spec(cj.symmetric_group(3), tmp_path / "x.json")
    (tmp_path / "expectations.json").write_text(text)
    with pytest.raises(cj.SpecFileError):
        verify.load_corpus_dir(tmp_path)
    err = io.StringIO()
    code = run_command(["verify", "--corpus", str(tmp_path)], out=io.StringIO(), err=err)
    assert code == 1 and err.getvalue().startswith("error:")


def test_default_corpus_is_plain_data():
    corpus = verify.default_corpus()
    assert len(corpus) == 54
    pickle.dumps(corpus)
    for entry in corpus:
        for name in type(entry).__slots__:
            assert not callable(getattr(entry, name)), (entry.name, name)
    assert [e.name for e in pickle.loads(pickle.dumps(corpus))] == [e.name for e in corpus]


def test_corpus_loader_is_linear_and_rejects_duplicates(tmp_path):
    """Names are checked against a set: 20,000 entries load in under 1 s
    CPU, and an array corpus that repeats a name is still rejected."""
    raw = [{"name": f"c{i}", "group": {"family": "cyclic", "params": [1]}}
           for i in range(20_000)]
    start = time.process_time()
    entries = verify._load_entries(raw, tmp_path)
    assert time.process_time() - start < 1.0
    assert [e.name for e in entries] == [item["name"] for item in raw]
    with pytest.raises(cj.SpecFileError, match="corpus entry 2 needs an object with a new"):
        verify._load_entries(raw[:2] + raw[:1], tmp_path)


def test_corpus_dir_detects_wrong_expectation(tmp_path):
    g = cj.symmetric_group(3)
    g.name = "bad_s3"
    write_group_spec(g, tmp_path / "bad_s3.json")
    (tmp_path / "expectations.json").write_text(json.dumps(
        {"bad_s3": {"order": 6, "N": [2, 3], "verdict": "TypeI",
                    "provenance": "derived"}}))
    entries = verify.load_corpus_dir(tmp_path)
    report = verify.run_theorem2_suite(entries)
    assert not report.ok


def test_corpus_dir_missing_files(tmp_path):
    with pytest.raises(cj.SpecFileError):
        verify.load_corpus_dir(tmp_path)  # no expectations.json
    (tmp_path / "expectations.json").write_text(json.dumps({"ghost": {"order": 1}}))
    with pytest.raises(cj.SpecFileError):
        verify.load_corpus_dir(tmp_path)  # ghost.json absent


def test_cli_verify_exit_codes(tmp_path):
    # a miniature green corpus: exit 0
    for name, group in (("mini_d5", cj.dihedral_group(5)),
                        ("mini_heis3", cj.heisenberg(3))):
        group.name = name
        write_group_spec(group, tmp_path / f"{name}.json")
    (tmp_path / "expectations.json").write_text(json.dumps({
        "mini_d5": {"order": 10, "N": [2, 5], "verdict": "TypeII",
                    "provenance": "derived"},
        "mini_heis3": {"order": 27, "N": [3], "verdict": "TypeI",
                       "provenance": "derived", "tags": ["p_group"]},
    }))
    # --seed still parses and changes nothing: perfbench/run.py passes it
    out = io.StringIO()
    code = run_command(["verify", "--seed", "7", "--corpus", str(tmp_path)],
                       out=out, err=io.StringIO())
    assert code == 0, out.getvalue()
    assert "total: OK" in out.getvalue()

    # break an expectation: exit 2
    (tmp_path / "expectations.json").write_text(json.dumps({
        "mini_d5": {"order": 10, "N": [2, 5], "verdict": "TypeIV",
                    "provenance": "derived"},
        "mini_heis3": {"order": 27, "N": [3], "verdict": "TypeI",
                       "provenance": "derived"},
    }))
    out = io.StringIO()
    code = run_command(["verify", "--corpus", str(tmp_path)], out=out, err=io.StringIO())
    assert code == 2
    assert "FAIL" in out.getvalue()


def test_run_all_default_corpus(verify_reports):
    reports = list(verify_reports.values())
    assert all(r.ok for r in reports), [
        (r.name, [c.detail for c in r.failures]) for r in reports]
    lines = [line for r in reports for line in r.lines()]
    assert any("schur" in line for line in lines)
    # the report line for line, timings stripped
    text = "\n".join(re.sub(r" \(\d+ ms\)$", "", line) for line in lines)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGEST.read_text().strip()


def _verify_dir(tmp_path, expectations: dict) -> tuple[int, str]:
    (tmp_path / "expectations.json").write_text(json.dumps(expectations))
    out = io.StringIO()
    code = run_command(["verify", "--corpus", str(tmp_path),
                        "--schur-cover", str(tmp_path / "none.json")],
                       out=out, err=io.StringIO())
    return code, out.getvalue()


D5 = {"group": {"family": "dihedral", "params": [5]}, "order": 10, "N": [2, 5],
      "verdict": "TypeII", "provenance": "derived"}


def test_unbuildable_entry_fails_its_checks_only(tmp_path):
    code, out = _verify_dir(tmp_path, {"big": {"group": {"family": "sym", "params": [9]}},
                                       "d5": D5})
    assert code == 2 and "total: " in out
    big = [line for line in out.splitlines() if re.search(r"/big\b", line)]
    d5 = [line for line in out.splitlines() if re.search(r"/d5\b", line)]
    assert {line.split("/")[0] for line in big} == \
        {"[FAIL] theorem1", "[FAIL] theorem2", "[FAIL] corollaries", "[FAIL] lemmas"}
    assert all("CapExceeded" in line for line in big)
    assert len(d5) == len(big) and all(line.startswith("[PASS]") for line in d5)


def test_lemma2_skips_an_entry_over_the_bound(tmp_path):
    code, out = _verify_dir(tmp_path, {
        "d5": D5, "zz_big": {"group": {"family": "elem_abelian", "params": [2, 12]},
                             "order": 4096, "verdict": "Abelian"}})
    assert code == 0, out
    assert re.search(r"^\[SKIP\] lemmas/lemma2_exhaustive/zz_big -- order 4096 > 2500 ",
                     out, re.M)
    assert re.search(r"^\[PASS\] lemmas/lemma2_exhaustive/d5 -- ", out, re.M)


def test_lemma2_catches_a_wrong_quotient_centralizer_at_one_class(tmp_path, monkeypatch):
    """type3_7_3 (order 1,029; normal subgroups of orders 7, 49, 49 and 343):
    C_G(x), for the first noncentral class representative x, given one more
    generator c that does not commute with x, and right elsewhere, fails
    Lemma 2 (v) at that x, and nothing else fails."""
    entry = next(e for e in verify.default_corpus() if e.name == "type3_7_3")
    centralizers, wrong = verify._Case.centralizers.func, []

    def wrong_centralizers(case):
        records, g = centralizers(case), case.group
        i, x = next((i, c.representative) for i, c in enumerate(g.conjugacy_classes())
                    if c.size > 1)
        c = next(c for c in g.generators if not g.commute((x,), (c,)))
        records[i] = _with_generator(records[i], c)
        wrong.append(x)
        return records
    monkeypatch.setattr(verify._Case, "centralizers", property(wrong_centralizers))
    lemmas = verify.run_all([entry], schur_path=tmp_path / "none.json")[3]
    assert [(c.name, c.status, c.detail) for c in lemmas.failures] == [
        ("lemma2_exhaustive/type3_7_3", "fail",
         f"(v) centralizer image escapes C(xbar) for x={wrong[0]}")]


def test_lemma2_v_catches_a_commutator_in_every_normal_subgroup(tmp_path, monkeypatch):
    """In Q8 every normal subgroup other than 1 holds -1, and [x, c] = -1 for
    each noncentral x and each c that does not commute with x: 12 pairs.  With
    c added to the generators of C_G(x), the commutator lies in every K, so no
    test of K's cosets sees it; Lemma 2 (v) fails at x for each pair."""
    entry = next(e for e in verify.default_corpus() if e.name == "quaternion")
    q8 = entry.build()
    minus_one, = (y for y in q8.elements() if y != q8.identity and q8.mul(y, y) == q8.identity)
    assert all(len(k) == 1 or minus_one in k.members for k in q8.normal_subgroups())
    pairs = [(cls.representative, c) for cls in q8.conjugacy_classes() if cls.size > 1
             for c in q8.elements() if not q8.commute((cls.representative,), (c,))]
    assert len(pairs) == 12
    build = verify.CorpusEntry.build
    for x, c in pairs:
        def wrong_build(entry, x=x, c=c):
            g = build(entry)
            right = g.centralizer
            g.centralizer = lambda y: _with_generator(right(y), c) if y == x else right(y)
            return g
        monkeypatch.setattr(verify.CorpusEntry, "build", wrong_build)
        lemmas = verify.run_all([entry], schur_path=tmp_path / "none.json")[3]
        assert next((r.status, r.detail) for r in lemmas.checks
                    if r.name == "lemma2_exhaustive/quaternion") == \
            ("fail", f"(v) centralizer image escapes C(xbar) for x={x}"), (x, c)


def test_run_all_leaves_no_group_alive(monkeypatch):
    built = []
    init = FiniteGroup.__init__

    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(weakref.ref(self))
    monkeypatch.setattr(FiniteGroup, "__init__", tracked_init)
    # lemma 3 and 9 quotients, lemma 1 on a product, Lemma-2 quotients and
    # subgroups, and the Schur cover
    names = {"heisenberg_3", "agl1_5", "type3_3_2", "prod_agl14_c3", "sl2_5"}
    corpus = [entry for entry in verify.default_corpus() if entry.name in names]
    # no object points back up the group hierarchy, so reference counting
    # alone frees every group: the cycle collector stays off
    enabled = gc.isenabled()
    gc.disable()
    try:
        reports = verify.run_all(corpus)
        assert all(r.ok for r in reports)
        assert len(built) > len(corpus)
        assert [ref() for ref in built if ref() is not None] == []
    finally:
        if enabled:
            gc.enable()


def test_run_all_builds_one_central_quotient_per_group(monkeypatch):
    """classify, Corollary 1 and Lemmas 3 and 9 all read one Analysis per
    entry: no group has its G/Z built, or the Frobenius structure of a group
    found, more than once.  Lemma 2 builds no quotient at all: every
    quotient built is the G/Z of an entry with a nontrivial centre, and none
    is built while Lemma 2 is checked against a normal subgroup."""
    # keyed by the groups themselves: holding them keeps their ids from reuse
    central, frobenius, calls, checking = Counter(), Counter(), [], []
    quotient, find = FiniteGroup.quotient, classifier.find_frobenius_structure
    check_normal = verify._check_lemma2_for_normal

    def counted_quotient(self, normal):
        calls.append((self, bool(checking)))
        if normal.members == self.center().members:
            central[self] += 1
        return quotient(self, normal)

    def counted_check(case, idx):
        checking.append(idx)
        try:
            return check_normal(case, idx)
        finally:
            checking.pop()

    def counted_find(q):
        frobenius[q] += 1
        return find(q)
    monkeypatch.setattr(FiniteGroup, "quotient", counted_quotient)
    monkeypatch.setattr(verify, "_check_lemma2_for_normal", counted_check)
    monkeypatch.setattr(classifier, "find_frobenius_structure", counted_find)
    names = {"type3_3_2", "heisenberg_3", "agl1_5", "dihedral_4", "sl2_5"}
    corpus = [entry for entry in verify.default_corpus() if entry.name in names]
    nontrivial = sum(len(entry.build().center()) > 1 for entry in corpus)
    reports = verify.run_all(corpus)
    assert all(r.ok for r in reports)
    assert len(central) == nontrivial == 4 and max(central.values()) == 1
    assert len(calls) == sum(central.values()) and not any(s for _, s in calls)
    assert len(frobenius) == 3 and max(frobenius.values()) == 1


def test_verify_reports_f_none_over_the_f_scan_cap(tmp_path, monkeypatch):
    """Above F_SCAN_CAP the predicates report F as None, as analyze does:
    the SP and CH checks still run and the chain check fails on F alone."""
    monkeypatch.setattr(predicates, "F_SCAN_CAP", 10)
    code, out = _verify_dir(tmp_path, {"a5": {"group": {"family": "agl1", "params": [5]}}})
    assert code == 2
    assert re.search(r"^\[PASS\] theorem1/sp_implies_ch/a5 ", out, re.M)
    assert re.search(r"^\[FAIL\] theorem1/chain_ca_ch_f/a5 -- a5: ch holds but f is None ",
                     out, re.M)
    assert "CapExceeded" not in out


def test_lemma9_on_an_abelian_entry_fails_only_that_check(tmp_path):
    """An abelian group has no Frobenius structure: its Lemma-9 check fails
    and every other check, and entry, still runs."""
    code, out = _verify_dir(tmp_path, {"d5": D5, "c6": {
        "group": {"family": "cyclic", "params": [6]}, "tags": ["frobenius_kernel"]}})
    assert code == 2
    failures = [re.sub(r" \(\d+ ms\)$", "", line) for line in out.splitlines()
                if line.startswith("[FAIL]")]
    assert failures == ["[FAIL] lemmas/lemma9/c6 -- no Frobenius structure with "
                        "recoverable complement"]


def test_failed_enumeration_is_not_retried(tmp_path, monkeypatch):
    """A spec entry over the order cap enumerates up to the cap once; its
    other checks fail at once with the same CapExceeded."""
    spec = {"name": "s9", "kind": "permutation", "degree": 9,
            "generators": [[1, 0, 2, 3, 4, 5, 6, 7, 8], [1, 2, 3, 4, 5, 6, 7, 8, 0]]}
    (tmp_path / "s9.json").write_text(json.dumps(spec))
    closed = []
    closure = FiniteGroup._closure

    def counted(self, *args, **kwargs):
        closed.append(self.name)
        return closure(self, *args, **kwargs)
    monkeypatch.setattr(FiniteGroup, "_closure", counted)
    code, out = _verify_dir(tmp_path, {"s9": {}})
    s9 = [line for line in out.splitlines() if re.search(r"/s9\b", line)]
    assert code == 2 and len(s9) == 8
    assert all(line.startswith("[FAIL]") and "CapExceeded" in line for line in s9)
    assert closed == ["s9"]


def test_heap_release_runs_once_after_the_cover(monkeypatch):
    """run_all hands the freed heap back once, right after the cover check;
    without malloc_trim in the C library the release does nothing."""
    import ctypes

    calls = []
    monkeypatch.setattr(verify, "run_schur_cover_check",
                        lambda path: calls.append("cover") or verify._SchurCover().finish())
    release = verify._release_freed_heap
    monkeypatch.setattr(verify, "_release_freed_heap", lambda: calls.append("release") or release())
    verify.run_all(corpus=[], schur_path=None)
    assert calls == ["cover", "release"]
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    assert release() is None


def test_verify_enumerates_only_the_entries_references_and_cover(corpus_by_name, closures):
    """Lemma-2 splits (of orders 24 to 1,029), Type III's N(P) and Z(P) and
    Type IV's N(G') are all read inside each entry's group: verify enumerates
    the entries' groups, the PSL2(5) reference and the cover, each once, and
    no subgroup."""
    names = ["type3_5_2", "sym_4", "sl2_5", "type3_7_3"]
    reports = verify.run_all(corpus=[corpus_by_name[n] for n in names], schur_path=None)
    assert all(r.ok for r in reports)
    lines = [re.sub(r" \(\d+ ms\)$", "", line) for r in reports for line in r.lines()]
    assert [line for line in lines if "classify/" in line] == \
        [f"[PASS] theorem2/classify/{n}" for n in names]  # type3 entries are Type III
    assert any(line.startswith("[PASS] lemmas/lemma2_exhaustive/type3_5_2") for line in lines)
    assert any(line.startswith("[PASS] lemmas/lemma2_exhaustive/type3_7_3") for line in lines)
    assert sorted(g.name for g in closures) == sorted(names + ["psl2_5", "psl29_schur_cover"])


def test_dihedral_1000_closes_each_distinct_centralizer_once(monkeypatch):
    """dihedral 1000's 499 noncentral rotation classes share one abelian
    centralizer: its Analysis closes at most 3 Schreier centralizers."""
    closed, schreier = [], FiniteGroup._schreier_centralizer
    monkeypatch.setattr(FiniteGroup, "_schreier_centralizer",
                        lambda self, i: closed.append(i) or schreier(self, i))
    a = classifier.Analysis(cj.dihedral_group(1000))
    assert a.predicates.ch and a.classification.witness == (2, 500)
    assert len(closed) <= 3

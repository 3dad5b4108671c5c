"""Acceptance suite: one test per criterion, printing one PASS/FAIL line
per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  The
whole suite is exact-integer arithmetic; there are no tolerances.
"""

import functools
import random
import time

import conjlab as cj
from conjlab import verify
from conjlab.classifier import TYPE_VERDICTS

from oracles import naive_primitive_by_sieve, naive_transitive_reduction


def criterion(num, desc):
    """Print the per-criterion verdict line around a test body.

    The body returns its PASS detail string; any exception prints a FAIL
    line and propagates to pytest.
    """
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                print(f"[ACCEPTANCE] criterion {num}: FAIL -- {desc} ({exc})")
                raise
            print(f"[ACCEPTANCE] criterion {num}: PASS -- {detail or desc}")
        return wrapper
    return decorate


@criterion(1, "N(SL2(q)) formula for q in {5,7,9,11,13}")
def test_criterion_01_sl2_formula(group_of):
    t0 = time.time()
    for q in (5, 7, 9, 11, 13):
        tq = time.time()
        enumerated = frozenset(cj.n_set(group_of(f"sl2_{q}")))
        expected = verify.expected_N_linear("sl2", q)
        assert expected.provenance == "formula"
        assert enumerated == expected.values, (q, sorted(enumerated))
        assert time.time() - tq < 10, f"sl2({q}) exceeded 10 s"
    return (f"N(SL2(q)) = ((q^2-1)/2, q(q-1), q(q+1)) exactly for "
            f"q in 5..13 ({time.time() - t0:.1f}s)")


@criterion(2, "N(GL2(q)) formula for q in {4,5,7,8,9}")
def test_criterion_02_gl2_formula(group_of):
    t0 = time.time()
    for q in (4, 5, 7, 8, 9):
        tq = time.time()
        enumerated = frozenset(cj.n_set(group_of(f"gl2_{q}")))
        expected = verify.expected_N_linear("gl2", q)
        assert enumerated == expected.values, (q, sorted(enumerated))
        if q == 9:
            assert group_of("gl2_9").order() == 5760
            assert time.time() - tq < 30, "GL2(9) exceeded 30 s"
    return (f"N(GL2(q)) = (q(q-1), q^2-1, q(q+1)) exactly for q in 4..9 "
            f"({time.time() - t0:.1f}s)")


@criterion(3, "GL2(3) negative witness")
def test_criterion_03_gl23_negative_witness(group_of, predicates_of):
    nset = set(cj.n_set(group_of("gl2_3")))
    assert 6 in nset and 12 in nset
    rep = predicates_of("gl2_3")
    assert rep.ch is True
    assert rep.sp is False
    assert rep.sp_witness == (6, 12)
    return "GL2(3): 6, 12 in N; CH holds; SP fails with witness (6, 12)"


@criterion(4, "order-81 CA-not-SP witness")
def test_criterion_04_remark_witness(group_of, predicates_of):
    g = group_of("remark_3")
    assert g.order() == 81
    assert cj.n_set(g) == (3, 9)
    rep = predicates_of("remark_3")
    assert rep.ca is True and rep.sp is False
    assert rep.ch is True  # CA inside CH: so SP is strictly inside CH
    return "order-81 witness: N = {3, 9}, CA holds, SP fails"


@criterion(5, "SP => CH and CA => CH => F over the corpus")
def test_criterion_05_theorem1_corpus(corpus, predicates_of):
    assert len(corpus) >= 40
    for entry in corpus:
        rep = predicates_of(entry.name)
        assert not (rep.sp and not rep.ch), entry.name
        assert not (rep.ca and not rep.ch), entry.name
        assert not (rep.ch and rep.f is not True), entry.name
    return f"zero exceptions on all {len(corpus)} corpus groups"


@criterion(6, "classification round-trip on constructed type instances")
def test_criterion_06_theorem2_roundtrip(corpus, predicates_of, classification_of):
    constructed = 0
    for entry in corpus:
        cls = classification_of(entry.name)
        rep = predicates_of(entry.name)
        if entry.expected_verdict in {"TypeI", "TypeII", "TypeIII", "TypeIV"}:
            assert rep.sp, entry.name
            assert cls.verdict.value == entry.expected_verdict, \
                (entry.name, cls.verdict.value)
            constructed += 1
        if cls.verdict in TYPE_VERDICTS:
            assert rep.sp, entry.name
    # the named instances of each clause are all present
    names = {e.name for e in corpus}
    assert "prod_c5_heis3" in names                                       # I
    assert {f"agl1_{q}" for q in (4, 5, 7, 8, 9)} <= names                # II
    assert {f"prod_agl1{q}_c3" for q in (4, 5, 7, 8, 9)} <= names         # II
    assert {"type3_3_2", "type3_5_2", "type3_7_3", "type3_13_4"} <= names  # III
    assert {f"sl2_{q}" for q in (5, 7, 9, 11, 13)} <= names               # IV
    assert {f"gl2_{q}" for q in (5, 7, 9)} <= names                       # IV
    assert "prod_sl25_c3" in names                                        # IV
    return (f"{constructed} constructed instances classify to their intended "
            f"types; every TypeI-V verdict is SP")


@criterion(7, "corollaries 1 and 2 over the corpus")
def test_criterion_07_corollaries(corpus, group_of, predicates_of):
    rank2 = 0
    for entry in corpus:
        rep = predicates_of(entry.name)
        if rep.sp and rep.rank == 2:
            assert cj.check_corollary1(group_of(entry.name)), entry.name
            rank2 += 1
        if rep.sp:
            assert rep.rank <= 3, entry.name
    assert rank2 >= 5
    return (f"corollary 1 on {rank2} rank-2 SP groups; corollary 2 "
            f"(|N| <= 3) on every SP group")


@criterion(8, "Gamma oracle equivalence on 1000 seeded sets")
def test_criterion_08_gamma_oracle_equivalence():
    rng = random.Random(20240810)
    for _ in range(1000):
        size = rng.randint(1, 8)
        theta = {rng.randint(2, 10_000) for _ in range(size)}
        gamma_edges = set(cj.build_gamma(theta).edges)
        assert gamma_edges == naive_transitive_reduction(theta)
        # is_primitive internally cross-checks two implementations; the
        # sieve oracle is the third
        assert cj.is_primitive(theta) == naive_primitive_by_sieve(theta)
    return ("1000 seeded random sets: gamma = brute-force transitive "
            "reduction; primitivity triple agreement")


@criterion(9, "lemma-level invariants")
def test_criterion_09_lemma_invariants(corpus):
    report = verify.run_lemma_invariants(corpus)
    assert report.ok, [f"{c.name}: {c.detail}" for c in report.failures]
    lemma2 = {c.name.split("/")[1]: c.status for c in report.checks
              if c.name.startswith("lemma2_exhaustive/")}
    small = {e.name for e in corpus if e.expected_order <= verify.LEMMA2_ORDER_BOUND}
    # no normal subgroup other than 1 and G and no (iii) pair: nothing to check
    empty = {"alt_5", "cyclic_2", "sl2_4", "sl2_8"}
    assert lemma2 == {e.name: "pass" if e.name in small - empty else "skip" for e in corpus}
    assert len(small) == 51
    assert {c.detail for c in report.checks if c.name.split("/")[-1] in empty} == \
        {"no normal subgroup other than 1 and G and no (iii) pair"}
    lemma3 = [c for c in report.checks if c.name.startswith("lemma3")]
    assert len(lemma3) >= 5
    lemma9 = [c for c in report.checks if c.name.startswith("lemma9")]
    assert len(lemma9) >= 9  # all AGL kernels and type3 quotient kernels
    return (f"lemma 2 on every tuple of {len(small - empty)} groups, "
            f"{len(lemma2) - len(small - empty)} skipped; lemma 3 on {len(lemma3)} p-groups; lemma 9 on "
            f"{len(lemma9)} kernels")


@criterion(10, "order-2160 cover check with explicit skip path")
def test_criterion_10_schur_cover():
    bundled = verify.default_schur_cover_path()
    assert bundled is not None
    report = verify.run_schur_cover_check(bundled)
    assert report.ok and report.checks[0].status == "pass", report.checks[0].detail

    # without the file: SKIPPED, suite still green
    skipped = verify.run_schur_cover_check("/definitely/not/there.json")
    assert skipped.checks[0].status == "skip"
    assert skipped.ok
    return ("cover file gives order 2160, N = {72, 90, 120}, SP; absent "
            "file reports SKIPPED and the suite stays green")

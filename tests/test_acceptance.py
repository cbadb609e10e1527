"""Acceptance checks, one per numbered criterion, one pass/fail line each."""
from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction

import sympy

from hurwitz_components import cli
from hurwitz_components.abelian import (
    AbelianProfile,
    admits_unmixed_abelian,
    brute_force_admits,
    n_count,
    quadruple_classes,
    quadruple_count,
    sandwich_bounds,
    theta,
    theta_is_integral,
)
from hurwitz_components.groups import AbelianGroup, construct_group
from hurwitz_components.orbits import (
    EquivalenceConfig,
    count_components,
    count_components_one_stage,
    scan_invariants,
    verify_inn_lemma,
)
from hurwitz_components.ramification import SignatureType
from test_moves import run_move_property_suite


def _count_square(p: int):
    G = AbelianGroup([p, p])
    tau = SignatureType(0, (p, p, p))
    return count_components(G, tau, tau)


def test_criterion_01_rigid_prime_five_under_one_second():
    t0 = time.monotonic()
    rep = _count_square(5)
    elapsed = time.monotonic() - t0
    assert rep.h == 1
    assert theta(5) == 1 and rep.h == theta(5)
    assert elapsed < 1.0
    print(f"criterion 1 PASS: h(5) = 1 = closed form, {elapsed:.2f}s")


def test_criterion_02_prime_seven_in_sandwich_under_five_seconds():
    t0 = time.monotonic()
    rep = _count_square(7)
    elapsed = time.monotonic() - t0
    lo, hi = sandwich_bounds(7)
    assert rep.h == 7
    assert lo == 5 and hi == 60
    assert lo <= rep.h <= hi
    assert elapsed < 5.0
    print(f"criterion 2 PASS: h(7) = 7 in [5, 60], {elapsed:.2f}s")


def test_criterion_03_sandwich_all_four_primes_under_two_minutes():
    t0 = time.monotonic()
    ratios = {}
    for p in (5, 7, 11, 13):
        rep = _count_square(p)
        lo, hi = sandwich_bounds(p)
        assert lo <= rep.h <= hi, (p, rep.h, lo, hi)
        ratios[p] = Fraction(rep.h, n_count(p))
        assert Fraction(1, 72) <= ratios[p] <= Fraction(1, 6)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    shown = ", ".join(f"p={p}: {r}" for p, r in ratios.items())
    print(f"criterion 3 PASS: normalized counts in [1/72, 1/6] ({shown}), {elapsed:.1f}s")


def test_criterion_04_integrality_flags_and_enumeration_ground_truth():
    assert theta_is_integral(5) and theta(5) == _count_square(5).h
    assert theta_is_integral(7) and theta(7) == _count_square(7).h
    flagged = []
    for p, h_true in ((11, 79), (13, 178)):
        assert not theta_is_integral(p), f"closed form unexpectedly integral at {p}"
        rep = _count_square(p)
        assert rep.h == h_true
        classes, _ = quadruple_classes(p)
        assert classes == h_true
        flagged.append(f"n={p}: {theta(p)} flagged, enumeration h={h_true}")
    print("criterion 4 PASS: integral at 5, 7; " + "; ".join(flagged))


def test_two_stage_matches_quadruple_classes_at_seventeen_and_nineteen():
    t0 = time.monotonic()
    shown = []
    for n, want in ((17, 634), (19, 1054)):
        rep = _count_square(n)
        classes, _ = quadruple_classes(n)
        assert rep.h == classes == want, (n, rep.h, classes)
        shown.append(f"n={n}: h={rep.h}, theta integral: {theta_is_integral(n)}")
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print("closed-form classes PASS: " + "; ".join(shown) + f", {elapsed:.1f}s")


def _all_abelian_moduli_up_to(limit: int):
    out = []
    for n in range(2, limit + 1):
        per_prime = []
        for p, a in sympy.factorint(n).items():
            opts = []
            for part in sympy.utilities.iterables.partitions(a):
                expanded = []
                for k, mult in part.items():
                    expanded += [p**k] * mult
                opts.append(tuple(sorted(expanded)))
            per_prime.append(opts)
        for combo in itertools.product(*per_prime):
            out.append(tuple(m for opt in combo for m in opt))
    return out


def test_criterion_05_existence_criterion_vs_search_all_orders_to_100():
    t0 = time.monotonic()
    checked = 0
    for moduli in _all_abelian_moduli_up_to(100):
        profile = AbelianProfile.from_group(AbelianGroup(moduli))
        for r1 in (3, 4, 5):
            for r2 in (3, 4, 5):
                want = brute_force_admits(moduli, r1, r2)
                got = admits_unmixed_abelian(profile, r1, r2).admits
                assert want == got, (moduli, r1, r2, want, got)
                checked += 1
    elapsed = time.monotonic() - t0
    assert checked == 184 * 9
    assert elapsed < 60.0
    print(f"criterion 5 PASS: {checked} criterion-vs-search checks agree, {elapsed:.1f}s")


def test_criterion_06_quadruple_enumeration_matches_closed_form_under_a_minute():
    t0 = time.monotonic()
    for p in (5, 7, 11, 13):
        assert quadruple_count(p) == n_count(p), p
    assert quadruple_count(25) == n_count(25) == 15000
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"criterion 6 PASS: quadruple counts match at 5, 7, 11, 13, 25, {elapsed:.1f}s")


def test_criterion_07_icosahedral_triangle_types_admit_no_disjoint_pairs():
    t0 = time.monotonic()
    G = construct_group("Alt:5")
    triangle_types = []
    for per in itertools.combinations_with_replacement((2, 3, 5), 3):
        if sum(Fraction(1, m) for m in per) < 1:
            triangle_types.append(SignatureType(0, per))
    assert [str(t) for t in triangle_types] == ["0|2,5,5", "0|3,3,5", "0|3,5,5", "0|5,5,5"]
    pairs_checked = 0
    for t1, t2 in itertools.combinations_with_replacement(triangle_types, 2):
        rep = count_components(G, t1, t2)
        assert rep.h == 0 and rep.total_pairs == 0, (str(t1), str(t2))
        pairs_checked += 1
    elapsed = time.monotonic() - t0
    assert pairs_checked == 10
    assert elapsed < 60.0
    print(f"criterion 7 PASS: all {pairs_checked} triangle-type pairs give h = 0, {elapsed:.1f}s")


def test_criterion_08_census_fragments_and_catalog_scan(tmp_path, capsys):
    result = scan_invariants([construct_group("Zn:1")], chi=1, q=4)
    assert [(r.group, r.type1, r.type2, r.h) for r in result.rows] == [("Zn:1", "2|", "2|", 1)]
    assert result.total_h == 1
    result = scan_invariants([construct_group("Zn:2")], chi=1, q=3)
    assert [(r.group, r.type1, r.type2, r.h) for r in result.rows] == [("Zn:2", "1|2,2", "2|", 1)]
    assert result.total_h == 1
    catalog = tmp_path / "catalog.txt"
    catalog.write_text("Zn:1\nZn:2\n")
    code = cli.main(["scan", "--catalog", str(catalog), "--chi", "1", "--q", "4"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["total_h"] == 1
    print("criterion 8 PASS: census fragments reproduced; user catalog accepted")


def test_criterion_09_move_property_suite_thousand_systems(q8):
    t0 = time.monotonic()
    rng = random.Random(20260819)
    systems, applications, violations = run_move_property_suite(q8, rng, per_shape=150)
    elapsed = time.monotonic() - t0
    assert violations == []
    assert systems >= 1000
    assert elapsed < 300.0
    print(
        f"criterion 9 PASS: {systems} systems, {applications} move applications, "
        f"zero violations, {elapsed:.1f}s"
    )


def test_criterion_10_inner_automorphism_audit_exhaustive():
    t0 = time.monotonic()
    for spec, type_text in (("Sym:3", "0|2,2,3"), ("Sym:4", "0|2,3,4")):
        rep = verify_inn_lemma(construct_group(spec), SignatureType.parse(type_text))
        assert rep.passed, (spec, rep.counterexample)
        assert rep.systems_checked > 0 and rep.inner_count > 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"criterion 10 PASS: inner maps preserve all orbits in both audits, {elapsed:.1f}s")


def test_criterion_11_one_stage_and_two_stage_agree_everywhere_both_run():
    cases = [
        ("Zn:5,5", "0|5,5,5", "0|5,5,5"),
        ("Zn:7,7", "0|7,7,7", "0|7,7,7"),
        ("Zn:2", "1|2,2", "2|"),
        ("Zn:1", "2|", "2|"),
        ("Sym:3", "0|2,2,3", "0|2,2,3"),
        ("Sym:4", "0|2,3,4", "0|2,3,4"),
        ("Alt:5", "0|2,5,5", "0|3,3,3,3"),
    ]
    cfg = EquivalenceConfig(representatives=True)
    agreed = 0
    t0 = time.monotonic()
    for spec, t1_text, t2_text in cases:
        G = construct_group(spec)
        t1, t2 = SignatureType.parse(t1_text), SignatureType.parse(t2_text)
        a = count_components(G, t1, t2, cfg)
        b = count_components_one_stage(G, t1, t2, cfg)
        assert (a.h, a.orbit_sizes, a.total_pairs) == (b.h, b.orbit_sizes, b.total_pairs), spec
        assert a.representatives == b.representatives, spec
        agreed += 1
    assert time.monotonic() - t0 < 10.0
    print(f"criterion 11 PASS: both routes identical on {agreed} instances")


def test_criterion_12_byte_identical_output_across_thread_counts(capsys):
    # scan is the one subcommand that still accepts --threads, a no-op; it
    # writes no cache
    outputs = []
    for threads in ("1", "4", "8"):
        code = cli.main(
            ["scan", "--group", "Sym:3", "--group", "Zn:2,2", "--chi", "1", "--q", "1", "--threads", threads]
        )
        captured = capsys.readouterr()
        assert code == 0
        outputs.append(captured.out)
    assert outputs[0] == outputs[1] == outputs[2]
    print("criterion 12 PASS: identical scan bytes for --threads 1, 4, 8")

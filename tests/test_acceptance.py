"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single CRITERION line with its elapsed time so the
whole gate can be read off a verbose run.  All tolerances are zero; the
time limits are the single-core targets.
"""

import time
from itertools import combinations, combinations_with_replacement
from math import comb

from gitgr import (cohomology, quotient, reps, semistability, weyl)
from gitgr.errors import UnsupportedCaseError
from gitgr.params import GrassParams

from oracles import (is_reduced, minimal_semistable_scan, minor_poly, monomial_poly, monomials,
                     poly_mul, rank_of_polys)


def _criterion(number, label, limit_seconds, fn):
    start = time.perf_counter()
    try:
        fn()
    except AssertionError:
        print(f"CRITERION {number}: FAIL - {label}")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < limit_seconds else "FAIL (too slow)"
    print(f"CRITERION {number}: {status} - {label} [{elapsed:.2f}s < {limit_seconds}s]")
    assert elapsed < limit_seconds, f"criterion {number} exceeded {limit_seconds}s"


def all_triples(max_n, min_n=2):
    for n in range(min_n, max_n + 1):
        for r in range(1, n):
            for s in range(1, n):
                yield GrassParams(n, r, s)


def induction_triples(max_n, min_n=2):
    return (p for p in all_triples(max_n, min_n)
            if quotient.detect_induction_case(p))


def test_criterion_1_golden_3_2_2():
    def body():
        params = GrassParams(3, 2, 2)
        assert reps.invariant_hilbert(params, 3) == 3
        assert reps.invariant_hilbert(params, 6) == 5
        assert reps.invariant_hilbert(params, 9) == 7
        for m in range(10):
            if m % 3 != 0:
                assert reps.invariant_hilbert(params, m) == 0
        # matches sections of the degree-2 bundle on the line
        for d in range(4):
            assert reps.invariant_hilbert(params, 3 * d) == 2 * d + 1
    _criterion(1, "golden case (3,2,2) = (P^1, O(2))", 1.0, body)


def test_criterion_2_golden_4_2_2():
    def body():
        params = GrassParams(4, 2, 2)
        for m in range(9):
            assert reps.invariant_hilbert(params, m) == comb(m + 3, 3)
        # the single quadric among degree-2 weight-zero monomials is the
        # Plücker relation p12 p34 = x1 x4 - x2 x3
        monos = monomials(params, reps._weight_zero_vectors(params, 2))
        assert len(monos) == 11
        polys = [monomial_poly(mono, 2, 4) for mono in monos]
        assert len(monos) - rank_of_polys(polys) == 1
        lhs = poly_mul(dict(minor_poly((1, 2), 2, 4)),
                       dict(minor_poly((3, 4), 2, 4)))
        rhs = poly_mul(dict(minor_poly((1, 3), 2, 4)),
                       dict(minor_poly((2, 4), 2, 4)))
        for mono, c in poly_mul(dict(minor_poly((1, 4), 2, 4)),
                                dict(minor_poly((2, 3), 2, 4))).items():
            rhs[mono] = rhs.get(mono, 0) - c
            if not rhs[mono]:
                del rhs[mono]
        assert lhs == rhs
    _criterion(2, "golden case (4,2,2) = (P^3, O(1)) with its quadric", 5.0, body)


def test_criterion_3_minimal_words():
    def body():
        for params in all_triples(9):
            word = weyl.build_w_sr(params)
            assert is_reduced(word, params.n)
            subset = weyl.coset_subset(weyl.evaluate_word(word, params.n), params.r)
            assert subset == minimal_semistable_scan(params.n, params.r, params.s)
            p, r, s = params.p, params.r, params.s
            assert subset == tuple(range(1, p + 1)) + tuple(range(s + 1, s + r - p + 1))
    _criterion(3, "minimal semistable word correct for all n <= 9", 10.0, body)


def test_criterion_4_extension_equivalence():
    def body():
        for params in all_triples(9):
            n, r, s, p = params.n, params.r, params.s, params.p
            w_tilde = weyl.factor_w_tilde(params)
            absent = not weyl.contains_reflection(w_tilde, s, n)
            assert absent == ((p == 0) or (p == r + s - n and r + s >= n)), params
    _criterion(4, "complement-word reflection criterion for all n <= 9", 30.0, body)


def test_criterion_5_semistability_equivalence():
    def body():
        for params in all_triples(8):
            floor = semistability.minimal_semistable_subset(params)
            subsets = list(combinations(range(1, params.n + 1), params.r))
            for I in subsets:
                bruhat_ss = weyl.bruhat_leq(floor, I)
                weight_ss = semistability.plucker_weight(I, params) <= 0
                assert bruhat_ss == weight_ss, (params, I)
            by_weight = list(semistability.enumerate_A(params))
            by_bruhat = sorted(
                (v, phi) for v in subsets for phi in subsets
                if not weyl.bruhat_leq(floor, v) and weyl.bruhat_leq(floor, phi)
                and weyl.bruhat_leq(v, phi))
            assert by_weight == by_bruhat, params
    _criterion(5, "Bruhat and weight semistability agree for all n <= 8", 60.0, body)


def test_criterion_6_orbits_picard_dimension():
    def body():
        for params in induction_triples(12):
            u, v = params.fiber_shape
            strata = quotient.orbit_stratification(params)
            assert len(strata) == min(u, v), params
            # X is a P^{uv-1} bundle over the base: each factor of positive
            # dimension contributes one generator of the Picard group
            base = quotient.fibration(params)[1]
            base_dim = 0 if base is None else base.dim
            fiber_dim = params.r * (params.n - params.r) - 1 - base_dim
            expected_rank = (base_dim > 0) + (fiber_dim > 0)
            assert quotient.picard_rank(params) == expected_rank, params
            assert base_dim + u * v - 1 == params.r * (params.n - params.r) - 1, params
    _criterion(6, "orbit count, Picard rank and dimension identity, n <= 12", 1.0, body)


def test_criterion_7_duality():
    def body():
        for params in all_triples(7):
            dual = params.dual()
            rep = quotient.report(params)
            rep_dual = quotient.report(dual)
            assert rep["dim_X"] == rep_dual["dim_X"]
            assert rep["orbit_count"] == rep_dual["orbit_count"]
            assert rep["picard_rank"] == rep_dual["picard_rank"]
            assert rep["wonderful"] == rep_dual["wonderful"]
            assert rep["ss_eq_stable"] == rep_dual["ss_eq_stable"]
            for m in range(5):
                assert reps.invariant_hilbert(params, m) == \
                    reps.invariant_hilbert(dual, m), (params, m)
    _criterion(7, "reports and Hilbert values are duality invariant, n <= 7", 120.0, body)


def test_criterion_8_cohomology():
    def body():
        for triple in ((5, 2, 2), (5, 3, 4)):
            params = GrassParams(*triple)
            base = quotient.fibration(params)[1]
            u, v = params.fiber_shape
            for a in range(4):
                for b in range(4):
                    table = cohomology.cohomology_on_X(params, a, b)
                    assert list(table) == [0], (triple, a, b)
                    coeffs = [0] * (base.factor_rank - 1)
                    coeffs[base.index - 1] = b
                    base_dim = cohomology.bott_line_bundle(base.factor_rank, coeffs)[1]
                    fiber_dim = comb(u * v - 1 + a, a)
                    assert table[0] == base_dim * fiber_dim, (triple, a, b)
        # outside the induction case there is no fibration to compute on
        for a in range(4):
            for b in range(4):
                try:
                    cohomology.cohomology_on_X(GrassParams(6, 2, 3), a, b)
                except UnsupportedCaseError:
                    continue
                raise AssertionError(f"(6,2,3) gave a table at (a, b) = ({a}, {b})")
        # Serre duality spot checks on the fiber factor
        for dim in (3, 4, 5):
            for a in (-dim - 1, -dim - 2, -dim - 4):
                top = cohomology.proj_space_cohomology(dim, a)
                dual = cohomology.proj_space_cohomology(dim, -a - dim - 1)
                assert top == (dim, dual[1])
    _criterion(8, "nef cohomology in degree 0 with product dims; Serre checks", 5.0, body)


def test_criterion_9_decomposition_calibration():
    def body():
        for params in induction_triples(7):
            cal = reps.calibrate_descent(params)
            pairs = reps.decompose_sections(params, cal.a, cal.b)
            assert sum(p.dim for p in pairs) == \
                reps.invariant_hilbert(params, cal.d_min), params
            labels = [(p.left, p.right) for p in pairs]
            assert len(labels) == len(set(labels)), params
    _criterion(9, "descent calibration and multiplicity-freeness, n <= 7", 120.0, body)


def test_criterion_10_projective_normality():
    def body():
        assert reps.generation_in_degree_one(GrassParams(3, 2, 2), 3)
        assert reps.generation_in_degree_one(GrassParams(4, 2, 2), 3)
    _criterion(10, "degree-one generation for (3,2,2) and (4,2,2), D = 3", 10.0, body)

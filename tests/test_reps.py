import time
from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from gitgr import plucker, quotient, reps
from gitgr.errors import (EnumerationCapError, InvariantViolationError,
                          NotCertifiedError, UnsupportedCaseError)
from gitgr.params import GrassParams

from oracles import (chain_hilbert, chains_split, count_vectors_split, distinct_products,
                     hook_content_count, kernel_vector, levi_complement, minor_poly,
                     monomial_poly, invariant_monomials_scan, node_complement,
                     padded_dual_weight, poly_mul, poly_product, rank_of_polys,
                     ssyt_count, weight_zero_chains)


def induction_params(max_n, min_n=2):
    for n in range(min_n, max_n + 1):
        for r in range(1, n):
            for s in range(1, n):
                params = GrassParams(n, r, s)
                if quotient.detect_induction_case(params):
                    yield params


def weight_zero_monomials(params, degree):
    return reps._monomials(params, reps._weight_zero_vectors(params, degree))


def reachable(params, max_degree):
    """{m: M_m} for m = 1..max_degree."""
    return {m: reached for m, reached, _ in reps._reachable_vectors(params, max_degree)}


def certified(params, max_degree):
    """The degrees m = 1..max_degree that ``generation_in_degree_one`` passes
    without linear algebra, each checked to have M_m equal to S(m d_min)."""
    passed = set()
    for m, reached, full in reps._reachable_vectors(params, max_degree):
        assert full == (reached == set(reps._weight_zero_vectors(params, m * params.d_min))), \
            (params, m)
        if full:
            passed.add(m)
    return passed


def partitions_up_to(total, max_parts):
    for size in range(total + 1):
        yield from reps.partitions_of(size, max_parts)


class TestWeylDim:
    def test_small_irreps(self):
        assert reps.weyl_dim(2, (1,)) == 2
        assert reps.weyl_dim(3, (1, 1)) == 3
        assert reps.weyl_dim(4, (2, 1)) == 20

    def test_against_enumeration_and_hook_content(self):
        for m in range(2, 7):
            for lam in partitions_up_to(8, m):
                expected = ssyt_count(lam, m)
                assert reps.weyl_dim(m, lam) == expected, (m, lam)
                assert hook_content_count(lam, m) == expected, (m, lam)
        # every weight in the m x 6 box, where runs of equal parts are long
        for m in range(2, 9):
            for total in range(6 * m + 1):
                for lam in reps.partitions_of(total, m, max_part=6):
                    assert reps.weyl_dim(m, lam) == hook_content_count(lam, m), (m, lam)

    def test_full_column_is_trivial(self):
        assert reps.weyl_dim(3, (2, 2, 2)) == 1
        assert reps.weyl_dim(2, (5, 5)) == 1

    def test_too_many_parts(self):
        with pytest.raises(ValueError):
            reps.weyl_dim(2, (1, 1, 1))

    def test_non_partition(self):
        with pytest.raises(ValueError):
            reps.weyl_dim(3, (1, 2))


class TestInvariantHilbert:
    def test_golden_3_2_2(self):
        params = GrassParams(3, 2, 2)
        assert reps.invariant_hilbert(params, 3) == 3
        assert reps.invariant_hilbert(params, 6) == 5
        for d in range(1, 6):
            assert reps.invariant_hilbert(params, 3 * d) == 2 * d + 1
        for m in range(10):
            if m % 3:
                assert reps.invariant_hilbert(params, m) == 0

    def test_golden_4_2_2(self):
        params = GrassParams(4, 2, 2)
        assert reps.invariant_hilbert(params, 1) == 4
        assert reps.invariant_hilbert(params, 2) == 10
        for m in range(9):
            assert reps.invariant_hilbert(params, m) == comb(m + 3, 3)

    def test_smallest_case(self):
        params = GrassParams(2, 1, 1)
        assert [reps.invariant_hilbert(params, m) for m in range(3)] == [1, 0, 1]

    def test_degree_zero_and_negative(self):
        assert reps.invariant_hilbert(GrassParams(5, 2, 2), 0) == 1
        with pytest.raises(ValueError):
            reps.invariant_hilbert(GrassParams(5, 2, 2), -1)

    def test_dp_matches_direct_enumeration(self):
        for n in range(2, 6):
            for r in range(1, n):
                for s in range(1, n):
                    params = GrassParams(n, r, s)
                    for m in range(4):
                        small = r * s * m
                        expected = 0 if small % n else ssyt_count(
                            (m,) * r, n, max_small=s, exact_small=small // n)
                        assert reps.invariant_hilbert(params, m) == expected

    def test_duality(self):
        for n in range(2, 8):
            for r in range(1, n):
                for s in range(1, n):
                    params = GrassParams(n, r, s)
                    for m in range(5):
                        assert reps.invariant_hilbert(params, m) == \
                            reps.invariant_hilbert(params.dual(), m), (n, r, s, m)

    def test_matches_chain_oracle(self):
        for n in range(2, 9):
            for r in range(1, n):
                for s in range(1, n):
                    for m in range(7):
                        assert reps.invariant_hilbert(GrassParams(n, r, s), m) == \
                            chain_hilbert(n, r, s, m), (n, r, s, m)

    def test_duality_beyond_the_chain_oracle(self):
        params = GrassParams(30, 12, 10)
        for m in range(4):
            assert reps.invariant_hilbert(params, m) == \
                reps.invariant_hilbert(params.dual(), m), m

    def test_budget(self, monkeypatch):
        # the sum visits the 338 partitions of 30 in the 6 x 10 box; the
        # value below is chain_hilbert(12, 6, 6, 10)
        monkeypatch.setenv("GITGR_MAX_ENUM", "10")
        with pytest.raises(EnumerationCapError) as info:
            reps.invariant_hilbert(GrassParams(12, 6, 6), 10)
        assert "Levi branching" in str(info.value)
        assert "6 x 10 box" in str(info.value)
        monkeypatch.setenv("GITGR_MAX_ENUM", "337")
        with pytest.raises(EnumerationCapError):
            reps.invariant_hilbert(GrassParams(12, 6, 6), 10)
        monkeypatch.setenv("GITGR_MAX_ENUM", "338")
        assert reps.invariant_hilbert(GrassParams(12, 6, 6), 10) == 7040376690539088

    def test_budget_error_names_stage_and_size(self, monkeypatch):
        monkeypatch.setenv("GITGR_MAX_ENUM", "10")
        with pytest.raises(EnumerationCapError) as info:
            reps.invariant_hilbert(GrassParams(12, 6, 6), 10)
        assert (info.value.stage, info.value.requested, info.value.cap) == \
            ("Levi branching", 338, 10)
        assert "stage: Levi branching, requested: 338, cap: 10" in str(info.value)


class TestCauchySections:
    def test_point(self):
        out = reps.cauchy_sections(1, 1, 3)
        assert len(out) == 1 and out[0].dim == 1

    def test_two_by_two_degree_two(self):
        out = reps.cauchy_sections(2, 2, 2)
        assert [pair.left for pair in out] == [(2,), (1, 1)]
        assert sum(pair.dim for pair in out) == 9 + 1 == comb(5, 2)

    def test_matrix_space_itself(self):
        out = reps.cauchy_sections(2, 3, 1)
        assert len(out) == 1 and out[0].dim == 6

    def test_total_dimension(self):
        for u in range(1, 5):
            for v in range(1, 5):
                for a in range(7):
                    total = sum(p.dim for p in reps.cauchy_sections(u, v, a))
                    assert total == comb(u * v + a - 1, a), (u, v, a)


class TestDecomposeSections:
    def test_boundary_reduces_to_cauchy(self):
        for n in (3, 4, 5, 6):
            params = GrassParams(n, 1, n - 1)
            for a in range(4):
                pairs = reps.decompose_sections(params, a, 0)
                cauchy = reps.cauchy_sections(n - 1, 1, a)
                assert [p.dim for p in pairs] == [p.dim for p in cauchy]

    def test_calibrated_total_5_2_2(self):
        params = GrassParams(5, 2, 2)
        cal = reps.calibrate_descent(params)
        total = sum(p.dim for p in reps.decompose_sections(params, cal.a, cal.b))
        assert total == reps.invariant_hilbert(params, cal.d_min) == 266

    def test_multiplicity_free_everywhere(self):
        for params in induction_params(6):
            for a in range(5):
                for b in ([0] if params.boundary else range(5)):
                    pairs = reps.decompose_sections(params, a, b)
                    labels = [(p.left, p.right) for p in pairs]
                    assert len(labels) == len(set(labels)), (params, a, b)

    def test_golden_4_2_2_matrix_model(self):
        params = GrassParams(4, 2, 2)
        pairs = reps.decompose_sections(params, 1, 0)
        assert len(pairs) == 1 and pairs[0].dim == 4
        assert sum(p.dim for p in reps.decompose_sections(params, 2, 0)) == 10

    def test_no_base_left_label_is_dual(self):
        # with no base the left factor is labelled by the dual weight, as on
        # the matrix space: (2,) is self-dual in SL(2) but (2, 2, 2) in SL(4)
        labels = {triple: [(p.left, p.right, p.dim)
                           for p in reps.decompose_sections(GrassParams(*triple), 2, 0)]
                  for triple in ((4, 2, 2), (5, 1, 4))}
        assert labels == {(4, 2, 2): [((2,), (2,), 9), ((), (1, 1), 1)],
                          (5, 1, 4): [((2, 2, 2), (2,), 10)]}

    def test_dims_are_products_of_weyl_dims(self):
        params = GrassParams(5, 2, 2)
        for pair in reps.decompose_sections(params, 4, 5):
            assert pair.dim == reps.weyl_dim(2, pair.left) * reps.weyl_dim(3, pair.right)

    def test_non_induction_raises(self):
        with pytest.raises(UnsupportedCaseError):
            reps.decompose_sections(GrassParams(6, 2, 3), 1, 1)


class TestCalibrateDescent:
    def test_golden_cases(self):
        cal = reps.calibrate_descent(GrassParams(4, 2, 2))
        assert (cal.d_min, cal.dimension) == (1, 4)
        cal = reps.calibrate_descent(GrassParams(3, 2, 2))
        assert (cal.d_min, cal.dimension) == (3, 3)

    def test_5_2_2_first_admissible_degree(self):
        cal = reps.calibrate_descent(GrassParams(5, 2, 2))
        assert cal.d_min == 5 and cal.dimension == 266

    def test_pairs_are_the_decomposition_at_a_b(self):
        for params in [*induction_params(6), GrassParams(4, 2, 2)]:
            cal = reps.calibrate_descent(params)
            assert list(cal.pairs) == reps.decompose_sections(params, cal.a, cal.b)
            assert sum(p.dim for p in cal.pairs) == cal.dimension

    def test_identity_for_all_induction_cases_up_to_7(self):
        for params in induction_params(7):
            cal = reps.calibrate_descent(params)
            pairs = reps.decompose_sections(params, cal.a, cal.b)
            assert sum(p.dim for p in pairs) == cal.dimension
            assert cal.dimension == reps.invariant_hilbert(params, cal.d_min)

    def test_calibrated_pairs_respect_duality(self):
        for params in induction_params(6):
            cal = reps.calibrate_descent(params)
            dual = reps.calibrate_descent(params.dual())
            assert (cal.d_min, cal.dimension) == (dual.d_min, dual.dimension)
            assert (cal.a, cal.b) == (dual.a, dual.b)

    def test_non_induction_refused_before_hilbert(self, monkeypatch):
        def no_hilbert(params, m):
            raise AssertionError(f"h({m}) computed for {params}")
        monkeypatch.setattr(reps, "invariant_hilbert", no_hilbert)
        for triple in ((6, 3, 3), (6, 2, 3), (40, 17, 13)):
            with pytest.raises(UnsupportedCaseError):
                reps.calibrate_descent(GrassParams(*triple))

    def test_identity_in_the_first_three_degrees(self):
        # the closed form must match the whole Hilbert function, not one value
        for params in [*induction_params(8), GrassParams(4, 2, 2)]:
            cal = reps.calibrate_descent(params)
            for m in range(1, 4):
                pairs = reps.decompose_sections(params, m * cal.a, m * cal.b)
                assert sum(p.dim for p in pairs) == \
                    reps.invariant_hilbert(params, m * cal.d_min), (params, m)

    def test_4_1_2_second_degree(self):
        # X = P^1 x P^1: (0, 3) also has h(2) = 4 sections, but (0, 6) has 7,
        # not h(4) = 9, so one degree cannot pin the bundle
        params = GrassParams(4, 1, 2)
        cal = reps.calibrate_descent(params)
        assert (cal.a, cal.b) == (1, 2)
        pairs = reps.decompose_sections(params, 2 * cal.a, 2 * cal.b)
        assert sum(p.dim for p in pairs) == reps.invariant_hilbert(params, 4) == 9

    def test_n_9_calibrated(self):
        # past a 0..8 grid of twists
        cal = reps.calibrate_descent(GrassParams(9, 2, 4))
        assert (cal.d_min, cal.a, cal.b, cal.dimension) == (9, 8, 9, 4127940)

    def test_mismatch_raises_invariant_violation(self, monkeypatch):
        hilbert = reps.invariant_hilbert
        monkeypatch.setattr(reps, "invariant_hilbert",
                            lambda params, m: hilbert(params, m) + 1)
        with pytest.raises(InvariantViolationError, match="h\\(5\\) = 267"):
            reps.calibrate_descent(GrassParams(5, 2, 2))

    def test_indivisible_fiber_raises_invariant_violation(self, monkeypatch):
        # gcd(4, 4) = 4 cannot divide a 1 x 1 fiber
        monkeypatch.setattr(reps, "fibration", lambda params: ((1, 1), None))
        with pytest.raises(InvariantViolationError, match="does not divide"):
            reps.calibrate_descent(GrassParams(4, 2, 2))


class TestGeneration:
    def test_trivial_degrees(self):
        assert reps.generation_in_degree_one(GrassParams(5, 2, 2), 0)
        assert reps.generation_in_degree_one(GrassParams(5, 2, 2), 1)

    def test_golden_3_2_2(self):
        assert reps.generation_in_degree_one(GrassParams(3, 2, 2), 3)

    def test_golden_4_2_2(self):
        assert reps.generation_in_degree_one(GrassParams(4, 2, 2), 3)

    def test_veronese_relation_count(self):
        # the three degree-3 invariants for (3,2,2) satisfy one quadric
        params = GrassParams(3, 2, 2)
        gens = weight_zero_monomials(params, 3)
        assert len(gens) == 3
        polys = [monomial_poly(g, 2, 3) for g in gens]
        products = [poly_product(pair)
                    for pair in combinations_with_replacement(polys, 2)]
        assert rank_of_polys(products) == 5  # 6 products, h(6) = 5
        assert reps.invariant_hilbert(params, 6) == 5

    def test_plucker_relation_reproduced(self):
        # p12 p34 = x1 x4 - x2 x3 on the degree-2 invariants of (4,2,2)
        x = [(1, 3), (1, 4), (2, 3), (2, 4)]
        x_polys = {i: minor_poly(tuple(sub), 2, 4) for i, sub in enumerate(x, 1)}
        lhs = poly_mul(dict(minor_poly((1, 2), 2, 4)),
                       dict(minor_poly((3, 4), 2, 4)))
        rhs = poly_mul(dict(x_polys[1]), dict(x_polys[4]))
        for mono, c in poly_mul(dict(x_polys[2]), dict(x_polys[3])).items():
            rhs[mono] = rhs.get(mono, 0) - c
            if not rhs[mono]:
                del rhs[mono]
        assert lhs == rhs

    def test_degree_two_dependency_count(self):
        params = GrassParams(4, 2, 2)
        monos = weight_zero_monomials(params, 2)
        assert len(monos) == 11  # ten x_i x_j products plus p12 p34
        polys = [monomial_poly(m, 2, 4) for m in monos]
        assert rank_of_polys(polys) == 10
        kernel = kernel_vector(polys)
        assert kernel is not None
        residual = {}
        for coeff, poly in zip(kernel, polys):
            for mono, c in poly.items():
                residual[mono] = residual.get(mono, 0) + coeff * c
        assert all(v == 0 for v in residual.values())

    def test_large_n_refusal_names_stage(self):
        # (6, 2, 2) at D = 2 is certified by count vectors, so no echelon is
        # sized; (4, 2, 2) is not, and its first degree past the cap is
        # m = 7: the C(10, 3) = 120 degree-7 monomials in its 4 linear
        # invariants, h(7) = 120
        assert reps.generation_in_degree_one(GrassParams(6, 2, 2), 2)
        with pytest.raises(EnumerationCapError) as info:
            reps.generation_in_degree_one(GrassParams(4, 2, 2), 17)
        assert (info.value.stage, info.value.requested, info.value.cap) == \
            ("generation check", 120 ** 3, 10**6)

    def test_refused_before_any_work(self):
        assert reps.generation_in_degree_one(GrassParams(5, 2, 2), 2)
        # (6, 3, 3) at m = 2: 2107 distinct products of its 82 degree-one
        # invariants, each reduced against up to h(4) = 994 pivot rows of
        # 994 values
        start = time.perf_counter()
        with pytest.raises(EnumerationCapError) as info:
            reps.generation_in_degree_one(GrassParams(6, 3, 3), 2)
        assert time.perf_counter() - start < 1.0
        assert (info.value.stage, info.value.requested, info.value.cap) == \
            ("generation check", 2107 * 994 ** 2, 10**6)

    def test_work_budget_counts_row_width(self):
        # (9, 3, 3) at m = 2: 1035 products, each reduced against up to
        # h(2) = 945 rows by a multiply-add over 945 values
        start = time.perf_counter()
        with pytest.raises(EnumerationCapError) as info:
            reps.generation_in_degree_one(GrassParams(9, 3, 3), 2)
        assert time.perf_counter() - start < 1.0
        assert (info.value.stage, info.value.requested) == \
            ("generation check", 1035 * 945 ** 2)
        assert reps.generation_in_degree_one(GrassParams(4, 2, 2), 5)  # 56^3

    def test_past_the_old_size_guard(self):
        # n = 6 was refused outright before the budget measured the work
        assert reps.generation_in_degree_one(GrassParams(6, 2, 3), 2)

    @pytest.mark.parametrize("triple,max_degree", [
        ((n, r, s), 2) for n in range(2, 5) for r in range(1, n) for s in range(1, n)
        if (n, r, s) not in ((4, 3, 1), (4, 3, 3))  # about 80 s each in the oracle
    ] + [((3, 2, 2), 3), ((4, 2, 2), 3)], ids=lambda value: str(value).replace(" ", ""))
    def test_rank_mod_p_matches_rational_oracle(self, triple, max_degree):
        params = GrassParams(*triple)
        gens = weight_zero_monomials(params, params.d_min)
        gen_polys = [monomial_poly(g, params.r, params.n) for g in gens]
        for m, reached in reachable(params, max_degree).items():
            target = reps.invariant_hilbert(params, m * params.d_min)
            products = [poly_product(combo)
                        for combo in combinations_with_replacement(gen_polys, m)]
            rows = reps._monomials(params, reached)
            assert reps._evaluation_rank(params, rows, m, target, 0) == \
                rank_of_polys(products), (triple, m)

    def test_repeated_calls_agree(self):
        params = GrassParams(5, 1, 2)
        rows = reps._monomials(params, reachable(params, 2)[2])
        ranks = {reps._evaluation_rank(params, rows, 2, 140, attempt)  # h(10) = 140
                 for attempt in (0, 0, 1)}
        assert ranks == {140}
        assert [reps.generation_in_degree_one(params, 2) for _ in range(2)] == [True, True]

    def test_shortfall_is_not_certified(self, monkeypatch):
        hilbert = reps.invariant_hilbert
        monkeypatch.setattr(reps, "invariant_hilbert",
                            lambda params, m: hilbert(params, m) + 1)
        with pytest.raises(NotCertifiedError) as info:
            reps.generation_in_degree_one(GrassParams(4, 2, 2), 3)
        # degree 1 is certified by count vectors; the ten quadratic products
        # of the four linear invariants span h(2) = 10 dimensions, not 11
        assert (info.value.degree, info.value.rank, info.value.target) == (2, 10, 11)

    def test_monomial_budget(self, monkeypatch):
        # the listing has no gate of its own: (4, 2, 2) has C(7, 2) = 21
        # quadratic monomials, and the 11 of weight zero are listed under a
        # cap of 20
        monkeypatch.setenv("GITGR_MAX_ENUM", "20")
        assert len(weight_zero_monomials(GrassParams(4, 2, 2), 2)) == 11

        # the generation check sizes the echelon from the closed-form count
        # before anything is listed: the C(5, 2) = 10 monomials of M_2, each
        # reduced against up to h(2) = 10 rows of 10 values
        def no_listing(params, vectors):
            raise AssertionError("monomials listed")
        monkeypatch.setattr(reps, "_monomials", no_listing)
        with pytest.raises(EnumerationCapError) as info:
            reps.generation_in_degree_one(GrassParams(4, 2, 2), 3)
        assert (info.value.stage, info.value.requested) == ("generation check", 1000)

    def test_listing_matches_the_scan(self):
        # same monomials in the same order, and the closed-form count
        cases = 0
        for n in range(2, 8):
            for r in range(1, n):
                for s in range(1, n):
                    params = GrassParams(n, r, s)
                    for degree in range(1, 4):
                        vectors = reps._weight_zero_vectors(params, degree)
                        listed = reps._monomials(params, vectors)
                        assert listed == invariant_monomials_scan(params, degree), \
                            (n, r, s, degree)
                        assert reps._monomial_count(params, vectors) == \
                            len(listed), (n, r, s, degree)
                        cases += 1
        assert cases == 273

    @pytest.mark.parametrize("triple", [(8, 3, 2), (8, 5, 6)])
    def test_refused_before_listing(self, triple):
        # degree 2 is left to the echelon: the 805,433,475 distinct products
        # of the 137,000 degree-one invariants against h(8) = 9,980,971 rows
        start = time.perf_counter()
        with pytest.raises(EnumerationCapError) as info:
            reps.generation_in_degree_one(GrassParams(*triple), 2)
        assert time.perf_counter() - start < 0.1
        assert (info.value.stage, info.value.requested) == \
            ("generation check", 805_433_475 * 9_980_971 ** 2)

    def test_refused_early_at_large_degree(self):
        # each degree's budget is checked as the loop reaches it, so the
        # refusal at m = 7 (see test_large_n_refusal_names_stage) comes
        # before any work on the degrees above it
        start = time.perf_counter()
        with pytest.raises(EnumerationCapError) as info:
            reps.generation_in_degree_one(GrassParams(4, 2, 2), 2000)
        assert time.perf_counter() - start < 0.1
        assert (info.value.stage, info.value.requested) == \
            ("generation check", 120 ** 3)

    def test_products_are_the_monomials_of_reachable_vectors(self):
        # the monomials of M_m against every combination of m degree-one
        # invariants, merged and deduplicated
        cases = 0
        for n in range(2, 8):
            for r in range(1, n):
                for s in range(1, n):
                    params = GrassParams(n, r, s)
                    vectors = reachable(params, 3)
                    g = reps._monomial_count(params, vectors[1])
                    for m, reached in vectors.items():
                        if comb(g + m - 1, m) <= 200_000:
                            listed = reps._monomials(params, reached)
                            assert listed == distinct_products(params, m), (n, r, s, m)
                            assert reps._monomial_count(params, reached) == \
                                len(listed), (n, r, s, m)
                            cases += 1
        assert cases == 177

    def test_large_n_refused(self):
        assert reps.generation_in_degree_one(GrassParams(6, 2, 2), 2)
        with pytest.raises(EnumerationCapError):
            reps.generation_in_degree_one(GrassParams(6, 3, 3), 2)

    def test_chains_count_the_invariants(self):
        # standard monomial theory: weight-zero Bruhat multichains are a basis
        assert len(weight_zero_chains(4, 2, 2, 2)) == 10  # 9 chains of x's, p12 p34
        for n in range(2, 7):
            for r in range(1, n):
                for s in range(1, n):
                    for degree in range(1, 4):
                        assert len(weight_zero_chains(n, r, s, degree)) == \
                            reps.invariant_hilbert(GrassParams(n, r, s), degree), \
                            (n, r, s, degree)

    def test_certificate_matches_chain_splitting(self):
        for n in range(2, 6):
            for r in range(1, n):
                for s in range(1, n):
                    params = GrassParams(n, r, s)
                    passed = certified(params, 3)
                    for m in range(1, 4):
                        if m * params.d_min <= 10:
                            assert (m in passed) == \
                                chains_split(n, r, s, params.d_min, m), (n, r, s, m)

    def test_certificate_matches_count_vector_oracle(self):
        # vectors over Plücker weights, listed from multisets, summed as tuples;
        # sizes up to 30 subsets, past where the chain oracle can go
        for n in range(2, 8):
            for r in range(1, n):
                for s in range(1, n):
                    params = GrassParams(n, r, s)
                    top = 6 if 6 * params.d_min <= 30 else 2
                    passed = certified(params, top)
                    for m in range(1, top + 1):
                        assert (m in passed) == \
                            count_vectors_split(n, r, s, params.d_min, m), (n, r, s, m)

    def test_certified_degrees_reach_full_rank(self):
        # degree 1 spans h(d_min) by definition, so m >= 2 is what a wrong
        # certificate would get wrong; degrees past the work cap are left out
        checked = 0
        for n in range(2, 6):
            for r in range(1, n):
                for s in range(1, n):
                    params = GrassParams(n, r, s)
                    vectors = reachable(params, 3)
                    g = reps._monomial_count(params, vectors[1])
                    for m in certified(params, 3) - {1}:
                        h = reps.invariant_hilbert(params, m * params.d_min)
                        if comb(g + m - 1, m) * h <= 10**6:
                            rows = reps._monomials(params, vectors[m])
                            assert reps._evaluation_rank(params, rows, m, h, 0) == h, \
                                (n, r, s, m)
                            checked += 1
        assert checked == 34

    def test_certified_without_elimination(self, monkeypatch):
        def no_echelon(rows, target):
            raise AssertionError("echelon reached")
        monkeypatch.setattr(plucker, "echelon_rank", no_echelon)
        assert reps.generation_in_degree_one(GrassParams(5, 2, 2), 3)
        assert reps.generation_in_degree_one(GrassParams(7, 2, 3), 2)
        with pytest.raises(AssertionError):
            reps.generation_in_degree_one(GrassParams(4, 2, 2), 2)

    @pytest.mark.parametrize("triple,max_degree", [
        ((5, 2, 2), 2), ((5, 2, 2), 3), ((6, 2, 2), 2), ((7, 2, 3), 2)])
    def test_formerly_refused_now_fast(self, triple, max_degree):
        start = time.perf_counter()
        assert reps.generation_in_degree_one(GrassParams(*triple), max_degree)
        assert time.perf_counter() - start < 0.01

    def test_certificate_budget(self, monkeypatch):
        # (5, 2, 2): S(5) has 3 vectors, M_2 = 5 of them; 3 + 3*3 + 5*3 = 27
        monkeypatch.setenv("GITGR_MAX_ENUM", "26")
        with pytest.raises(EnumerationCapError) as info:
            reps.generation_in_degree_one(GrassParams(5, 2, 2), 3)
        assert (info.value.stage, info.value.requested) == ("generation check", 27)
        monkeypatch.setenv("GITGR_MAX_ENUM", "27")
        assert reps.generation_in_degree_one(GrassParams(5, 2, 2), 3)


class TestPartitionsAndDuals:
    def test_partitions_of(self):
        assert list(reps.partitions_of(3, 2)) == [(3,), (2, 1)]
        assert list(reps.partitions_of(0, 2)) == [()]
        assert list(reps.partitions_of(4, 1)) == [(4,)]

    @given(st.integers(0, 8), st.integers(1, 4))
    @settings(max_examples=40)
    def test_partitions_valid(self, total, max_parts):
        for mu in reps.partitions_of(total, max_parts):
            assert sum(mu) == total and len(mu) <= max_parts
            assert all(a >= b for a, b in zip(mu, mu[1:]))

    def test_dual_weight(self):
        assert reps.dual_weight((2, 1), 3) == (2, 1)
        assert reps.dual_weight((3,), 2) == (3,)
        assert reps.dual_weight((2, 2), 2) == ()
        # duals have equal dimension
        for m in range(2, 5):
            for lam in partitions_up_to(5, m):
                assert reps.weyl_dim(m, lam) == reps.weyl_dim(m, reps.dual_weight(lam, m))

    def test_box_complement_matches_the_three_inline_routes(self):
        # every partition in every box up to 6 x 5, the empty box included
        for rows in range(7):
            for cols in range(6):
                for total in range(rows * cols + 1):
                    for mu in reps.partitions_of(total, rows, max_part=cols):
                        got = reps._box_complement(mu, rows, cols)
                        assert got == node_complement(mu, rows, cols), (mu, rows, cols)
                        if cols:  # the Levi sum has m >= 1
                            assert got == levi_complement(mu, rows, cols), (mu, rows, cols)
                        if rows:
                            assert reps.dual_weight(mu, rows) == padded_dual_weight(mu, rows)
        assert reps._box_complement((), 3, 0) == () == reps.dual_weight((), 3)

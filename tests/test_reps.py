import time
from itertools import combinations_with_replacement
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from gitgr import plucker, quotient, reps
from gitgr.errors import (EnumerationCapError, InvariantViolationError,
                          NotCertifiedError, UnsupportedCaseError)
from gitgr.params import GrassParams

from oracles import (chain_hilbert, chains_split, count_vectors_split, distinct_products,
                     hook_content_count, kernel_vector, levi_branching_sum, levi_complement,
                     levi_summands, minor_poly,
                     monomial_poly, invariant_monomials_scan, node_complement,
                     padded_dual_weight, poly_mul, poly_product, rank_of_polys,
                     rectangle_contents, ssyt_count, weight_zero_atoms,
                     weight_zero_chains, whole_degree_rank)


def induction_params(max_n, min_n=2):
    for n in range(min_n, max_n + 1):
        for r in range(1, n):
            for s in range(1, n):
                params = GrassParams(n, r, s)
                if quotient.detect_induction_case(params):
                    yield params


def weight_zero_monomials(params, degree):
    return reps._monomials(params, reps._weight_zero_vectors(params, degree))


def free(amount, what):
    """A charge that spends nothing: the certificate without a budget."""


def reachable(params, max_degree):
    """{m: M_m} for m = 1..max_degree."""
    return {m: reached for m, reached, _ in reps._reachable_vectors(params, max_degree, free)}


def certified(params, max_degree):
    """The degrees m = 1..max_degree that ``generation_in_degree_one`` passes
    without linear algebra, each checked to have M_m equal to S(m d_min)."""
    passed = set()
    for m, reached, full in reps._reachable_vectors(params, max_degree, free):
        assert full == (reached == set(reps._weight_zero_vectors(params, m * params.d_min))), \
            (params, m)
        if full:
            passed.add(m)
    return passed


def content(monomial, n):
    flat = [i for subset in monomial for i in subset]
    return tuple(flat.count(i) for i in range(1, n + 1))


def kostka(counts, rows, cols):
    """K_{(cols^rows), counts}, read as the library reads it: sorted, with
    the zeros dropped."""
    return reps._kostka(tuple(sorted(filter(None, counts))), rows, cols)


def no_points(rng, r, n):
    raise AssertionError("a point was drawn")


def counting_points(monkeypatch):
    """Count the points ``plucker.random_minors`` draws from here on."""
    drawn, random_minors = [], plucker.random_minors

    def counted(rng, r, n):
        drawn.append((r, n))
        return random_minors(rng, r, n)
    monkeypatch.setattr(plucker, "random_minors", counted)
    return drawn


def quartic_steps(m):
    """(4, 2, 2) at degree m >= 2, whose d_min is 1: the one Minkowski pair
    of M_m, its C(m + 3, 3) monomials in the four linear invariants, and
    K-hat = K_{(m, m), (a, b, a, b)} = b + 1 points of 4 + 2 * 6 = 16
    Laplace products, with a + b = m and b = m // 2."""
    return 1 + comb(m + 3, 3) + 16 * (m // 2 + 1)


def quartic_blocks(m):
    """The echelon work of (4, 2, 2) at degree m >= 2.  A monomial
    x1^a x2^b x3^c x4^d in p13, p14, p23, p24 has content
    (a + b, c + d, a + c, b + d), a 2 x 2 table with those margins, so a
    block of margins (R, m - R, C, m - C) has min(R, m - R, C, m - C) + 1
    rows.  The C(m + 3, 3) monomials are independent, since h(m) is
    C(m + 3, 3), so each block's K is its row count: the block adds K^3."""
    return sum((min(a, m - a, c, m - c) + 1) ** 3
               for a in range(m + 1) for c in range(m + 1))


def old_budget_admits(params, max_degree):
    """Whether the whole-degree echelon's budget, products x h^2 for each
    degree the count vectors leave open, admits ``max_degree``."""
    try:
        for m, reached, passed in reps._reachable_vectors(params, max_degree, free):
            if passed:
                continue
            h = reps.invariant_hilbert(params, m * params.d_min)
            if reps._monomial_count(params, reached) * h * h > 10**6:
                return False
    except EnumerationCapError:
        return False
    return True


def whole_degree_verdict(params, max_degree):
    """True, or the first open degree's (m, best rank, h) over three
    whole-degree echelons."""
    for m, reached, passed in reps._reachable_vectors(params, max_degree, free):
        if passed:
            continue
        h = reps.invariant_hilbert(params, m * params.d_min)
        monomials = reps._monomials(params, reached)
        rank = max(whole_degree_rank(params, monomials, m, h, attempt)
                   for attempt in range(reps._ATTEMPTS))
        if rank < h:
            return m, rank, h
    return True


def oracle_block_work(params, m):
    """sum over contents of N_mu K_mu^2 at degree m, from the combination
    oracle and the tableau enumeration, checked to sum the K_mu to h."""
    degree = m * params.d_min
    sizes = {}
    for monomial in distinct_products(params, m):
        key = content(monomial, params.n)
        sizes[key] = sizes.get(key, 0) + 1
    tableaux = rectangle_contents(params.r, degree, params.n)
    assert sum(tableaux[key] for key in sizes) == reps.invariant_hilbert(params, degree)
    return sum(size * tableaux[key] ** 2 for key, size in sizes.items())


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

    def test_matches_levi_branching_oracle(self):
        for n in range(2, 11):
            for r in range(1, n):
                for s in range(1, n):
                    params = GrassParams(n, r, s)
                    for m in range(9):
                        assert reps.invariant_hilbert(params, m) == \
                            levi_branching_sum(params, m), (n, r, s, m)
        # the inputs of the hilbert benchmark workload, up to their degrees
        for n, r, s, degrees in ((10, 5, 5, 12), (9, 3, 3, 24), (11, 4, 3, 22),
                                 (8, 4, 2, 32), (10, 4, 5, 16)):
            params = GrassParams(n, r, s)
            for m in range(degrees + 1):
                assert reps.invariant_hilbert(params, m) == \
                    levi_branching_sum(params, m), (n, r, s, m)
        params = GrassParams(30, 12, 10)
        for m in range(7):
            assert reps.invariant_hilbert(params, m) == levi_branching_sum(params, m), m

    @given(st.integers(2, 14).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(1, n - 1), st.integers(1, n - 1))), st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_symmetries(self, triple, m):
        # the three sides sum over boxes of different heights, with different
        # rectangles of fixed rows, so each checks the others' constant
        n, r, s = triple
        h = reps.invariant_hilbert(GrassParams(n, r, s), m)
        assert h == reps.invariant_hilbert(GrassParams(n, r, n - s), m) == \
            reps.invariant_hilbert(GrassParams(n, n - r, n - s), m)

    def test_summands_are_the_count_vectors(self, monkeypatch):
        # one box, two readers: the summands of degree m, counted by the
        # budget and by the oracle's filter, are as many as the vectors of S(m)
        charged = []

        def record(requested, stage, what):
            charged.append(requested)
        monkeypatch.setattr(reps, "check_budget", record)
        for n in range(2, 10):
            for r in range(1, n):
                for s in range(1, n):
                    params = GrassParams(n, r, s)
                    for m in range(8):
                        charged.clear()
                        reps.invariant_hilbert(params, m)
                        vectors = len(reps._weight_zero_vectors(params, m))
                        # a degree with no summand returns 0 before the budget
                        assert charged == ([vectors] if vectors else []), (n, r, s, m)
                        assert len(levi_summands(params, m)) == vectors, (n, r, s, m)

    def test_budget_counts_the_surviving_box(self, monkeypatch):
        # (8, 4, 2) keeps mu with at most 2 parts: the 17 partitions of 32 in
        # the 2 x 32 box, where the 4 x 32 box holds 351
        params = GrassParams(8, 4, 2)
        assert len(levi_summands(params, 32)) == 17
        assert sum(1 for _ in reps.partitions_of(32, 4, max_part=32)) == 351
        monkeypatch.setenv("GITGR_MAX_ENUM", "17")
        assert reps.invariant_hilbert(params, 32) == levi_branching_sum(params, 32)
        monkeypatch.setenv("GITGR_MAX_ENUM", "16")
        with pytest.raises(EnumerationCapError) as info:
            reps.invariant_hilbert(params, 32)
        assert (info.value.stage, info.value.requested, info.value.cap) == \
            ("Levi branching", 17, 16)
        assert "2 x 32 box" in str(info.value)

    def test_inexact_sum_is_a_violation(self, monkeypatch):
        # every factor of Delta one too large: at (6, 3, 3), m = 2, the sum
        # over the denominator is 2169/4
        pairs = reps.combinations
        monkeypatch.setattr(reps, "combinations",
                            lambda items, size: ((x + 1, y) for x, y in pairs(items, size)))
        with pytest.raises(InvariantViolationError, match="Levi branching gave 2169/4"):
            reps.invariant_hilbert(GrassParams(6, 3, 3), 2)

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

    def test_large_n_refusal_names_stage(self, monkeypatch):
        # (6, 2, 2) at D = 2 is certified by count vectors alone; (8, 4, 4)
        # is not.  Its d_min is 1, its top is 4 and its 36 degree-one
        # invariants are the subsets of class 2, so S(1) and each M_m are one
        # vector: the certificate charges 1, then degrees m = 2 and 3 each
        # add one Minkowski pair, their C(m + 35, m) monomials (666 and
        # 8,436) and K-hat points of sum_{k<=4} k C(8, k) = 512 Laplace
        # products: K_{(2^4), (1^8)} = 14 and K_{(3^4), (2^4, 1^4)} = 23.
        # Then the listed blocks, sum_mu N_mu K_mu^2 (8,604 at m = 2 and
        # 1,008,828 at m = 3, test_block_work_of_8_4_4), pass the
        # cap at 1,045,481 at degree 3 <= top, before any point is drawn
        params = GrassParams(8, 4, 4)
        assert reps.generation_in_degree_one(GrassParams(6, 2, 2), 2)
        assert len(params.classes) - 1 == 4
        assert sum(k * comb(8, k) for k in range(1, 5)) == 512
        assert [reps._kostka(reps._balanced_content(params, m), 4, m) for m in (2, 3)] == \
            [14, 23]
        unlisted = 1 + (1 + comb(37, 2) + 14 * 512) + (1 + comb(38, 3) + 23 * 512)
        assert unlisted == 28_049
        total = unlisted + 8604 + 1_008_828
        assert total == 1_045_481 and total - 1_008_828 <= 10**6
        monkeypatch.setattr(plucker, "random_minors", no_points)
        with pytest.raises(EnumerationCapError) as info:
            reps.generation_in_degree_one(params, 3)
        assert (info.value.stage, info.value.requested, info.value.cap) == \
            ("generation check", total, 10**6)
        assert "stage: generation check, requested: 1045481, cap: 1000000" in \
            str(info.value)

    def test_refused_before_any_work(self, monkeypatch):
        assert reps.generation_in_degree_one(GrassParams(5, 2, 2), 2)
        # (6, 3, 3) at m = 2: the 2 count vectors of S(2) and their 2 * 2
        # Minkowski pairs, the 2107 distinct products of its 82 degree-one
        # invariants and K-hat points of 6 + 2 * 15 + 3 * 20 = 96 Laplace
        # products each, then sum_mu N_mu K_mu^2 = 102,154 over the content
        # blocks (test_block_work_matches_the_oracles): 105,803.  At D = 4
        # the balanced content puts 3 * 3 * 4 / 6 = 6 entries evenly on
        # [1, 3] and 12 - 6 on [4, 6], so K-hat = K_{(4, 4, 4), (2^6)} = 16
        assert reps._balanced_content(GrassParams(6, 3, 3), 4) == (2,) * 6
        assert reps._kostka((2,) * 6, 3, 4) == 16
        total = 2 + 2 * 2 + 2107 + 16 * 96 + 102_154
        assert total == 105_803
        monkeypatch.setattr(plucker, "random_minors", no_points)
        monkeypatch.setenv("GITGR_MAX_ENUM", str(total - 1))
        start = time.perf_counter()
        with pytest.raises(EnumerationCapError) as info:
            reps.generation_in_degree_one(GrassParams(6, 3, 3), 2)
        assert time.perf_counter() - start < 1.0
        assert (info.value.stage, info.value.requested, info.value.cap) == \
            ("generation check", total, total - 1)

    def test_work_budget_counts_row_width(self, monkeypatch):
        # (9, 3, 3) at m = 2: the one count vector of S(1) and its one
        # Minkowski pair, 1035 products and K-hat points of
        # 9 + 2 * 36 + 3 * 84 = 333 Laplace products each, then each
        # product reduced against up to K_mu rows by a multiply-add over
        # K_mu values, 9,000 in all (test_block_work_matches_the_oracles):
        # 11,702.  At D = 2 the balanced content spreads 3 * 3 * 2 / 9 = 2
        # entries on [1, 3] and 6 - 2 on [4, 9], six 1s, so K-hat is
        # K_{(2, 2, 2), (1^6)} = 5, the standard tableaux of shape (2, 2, 2)
        assert reps._balanced_content(GrassParams(9, 3, 3), 2) == (1,) * 6
        assert reps._kostka((1,) * 6, 3, 2) == 5
        total = 1 + 1 + 1035 + 5 * 333 + 9000
        assert total == 11_702
        monkeypatch.setattr(plucker, "random_minors", no_points)
        monkeypatch.setenv("GITGR_MAX_ENUM", str(total - 1))
        start = time.perf_counter()
        with pytest.raises(EnumerationCapError) as info:
            reps.generation_in_degree_one(GrassParams(9, 3, 3), 2)
        assert time.perf_counter() - start < 1.0
        assert (info.value.stage, info.value.requested) == ("generation check", total)
        monkeypatch.undo()
        assert reps.generation_in_degree_one(GrassParams(4, 2, 2), 5)

    def test_past_the_old_size_guard(self):
        # n = 6 was refused outright before the budget measured the work
        assert reps.generation_in_degree_one(GrassParams(6, 2, 3), 2)

    @pytest.mark.parametrize("triple,max_degree", [
        ((n, r, s), 2) for n in range(2, 5) for r in range(1, n) for s in range(1, n)
        if (n, r, s) not in ((4, 3, 1), (4, 3, 3))  # about 80 s each in the oracle
    ] + [((3, 2, 2), 3), ((4, 2, 2), 3)], ids=lambda value: str(value).replace(" ", ""))
    def test_rank_mod_p_matches_rational_oracle(self, triple, max_degree):
        # each content block's rank over F_p against the rational rank of the
        # products of that content, every combination of m degree-one
        # invariants expanded; the blocks' ranks add up to the whole rank.
        # As in the library, one set of K-hat points serves the whole degree
        params = GrassParams(*triple)
        n, r, s = triple
        gens = weight_zero_monomials(params, params.d_min)
        for m, reached in reachable(params, max_degree).items():
            degree = m * params.d_min
            by_content = {}
            for combo in combinations_with_replacement(gens, m):
                merged = tuple(sorted(subset for gen in combo for subset in gen))
                by_content.setdefault(content(merged, n), []).append(
                    poly_product([monomial_poly(g, r, n) for g in combo]))
            blocks = reps._content_blocks(params, reps._monomials(params, reached), degree)
            assert blocks.keys() == by_content.keys(), (triple, m)
            bound = reps._kostka(reps._balanced_content(params, degree), r, degree)
            columns = reps._point_columns(params, bound, f"{n},{r},{s},{m},0")
            total = 0
            for key, rows in blocks.items():
                target = kostka(key, r, degree)
                rank = reps._block_rank(rows, target, columns)
                assert rank == rank_of_polys(by_content[key]), (triple, m, key)
                total += rank
            assert total == rank_of_polys([poly for polys in by_content.values()
                                           for poly in polys]), (triple, m)

    def test_repeated_calls_agree(self):
        params = GrassParams(5, 1, 2)
        monomials = reps._monomials(params, reachable(params, 2)[2])
        blocks = reps._content_blocks(params, monomials, 10)
        targets = {key: kostka(key, 1, 10) for key in blocks}
        assert sum(targets.values()) == reps.invariant_hilbert(params, 10) == 140
        bound = reps._kostka(reps._balanced_content(params, 10), 1, 10)
        assert bound == max(targets.values())
        point_sets = [reps._point_columns(params, bound, f"5,1,2,2,{attempt}")
                      for attempt in (0, 0, 1)]
        assert point_sets[0] == point_sets[1] != point_sets[2]
        for key, rows in blocks.items():
            ranks = {reps._block_rank(rows, targets[key], columns) for columns in point_sets}
            assert ranks == {targets[key]}, key
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

        # the generation check charges each open degree's closed-form count
        # and its points before anything is listed: after the one vector of
        # S(1) and the one Minkowski pair of M_2, the C(5, 2) = 10 monomials
        # of M_2, then K-hat = K_{(2, 2), (1, 1, 1, 1)} = 2 points of 16
        # Laplace products (quartic_steps)
        def no_listing(params, vectors):
            raise AssertionError("monomials listed")
        monkeypatch.setattr(reps, "_monomials", no_listing)
        with pytest.raises(EnumerationCapError) as info:
            reps.generation_in_degree_one(GrassParams(4, 2, 2), 3)
        assert (info.value.stage, info.value.requested) == \
            ("generation check", 1 + 1 + 10 + 2 * 16)

    def test_running_total_before_any_point(self, monkeypatch):
        # (4, 2, 2) at D = 3, each step of the one total in the order it is
        # charged.  Its top is 2, so only m <= 2 is charged, as at D = 2.
        # Before anything is listed: the one count vector of S(1), then at
        # m = 2 one Minkowski pair, the 10 monomials of M_2 and
        # K-hat = K_{(2, 2), (1, 1, 1, 1)} = 2 points of 4 + 2 * 6 = 16
        # Laplace products.  Then the blocks: at m = 2, eight of one row
        # with K = 1 and one, x1 x4 and x2 x3, of two rows with K = 2,
        # 8 + 2 * 2^2 = 16.
        # (8, 4, 4) at D = 3 <= top = 4 charges two open degrees, each's
        # pair, products and points before either is listed, then each
        # degree's blocks (test_large_n_refusal_names_stage)
        cases = [
            ((4, 2, 2), (3, 2, 2000), [1, 1, 10, 2 * 16, 16]),
            ((8, 4, 4), (3,), [1, 1, 666, 14 * 512, 1, 8436, 23 * 512, 8604, 1_008_828]),
        ]
        steps = cases[0][2]
        assert sum(steps[1:4]) == quartic_steps(2) and steps[4] == quartic_blocks(2)
        random_minors = plucker.random_minors
        for triple, degrees, steps in cases:
            totals = [sum(steps[:i + 1]) for i in range(len(steps))]
            monkeypatch.setattr(plucker, "random_minors", no_points)
            for requested in totals[1:]:  # a cap is at least 1, so 1 is never refused
                monkeypatch.setenv("GITGR_MAX_ENUM", str(requested - 1))
                for degree in degrees:
                    with pytest.raises(EnumerationCapError) as info:
                        reps.generation_in_degree_one(GrassParams(*triple), degree)
                    assert (info.value.stage, info.value.requested, info.value.cap) == \
                        ("generation check", requested, requested - 1)
            monkeypatch.setattr(plucker, "random_minors", random_minors)
            monkeypatch.setenv("GITGR_MAX_ENUM", str(totals[-1]))
            for degree in degrees:
                assert reps.generation_in_degree_one(GrassParams(*triple), degree)
        assert totals[-1] == 1_045_481

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
    def test_refused_before_listing(self, triple, monkeypatch):
        # degree 2 is left open, and its 805,433,475 distinct products of the
        # 137,000 degree-one invariants are refused before they are listed,
        # after the 2 count vectors of S(4) and their 2 * 2 Minkowski pairs
        def no_listing(params, vectors):
            raise AssertionError("monomials listed")
        monkeypatch.setattr(reps, "_monomials", no_listing)
        start = time.perf_counter()
        with pytest.raises(EnumerationCapError) as info:
            reps.generation_in_degree_one(GrassParams(*triple), 2)
        assert time.perf_counter() - start < 0.1
        assert (info.value.stage, info.value.requested) == \
            ("generation check", 2 + 2 * 2 + 805_433_475)

    def test_large_degree_stops_at_top(self, monkeypatch):
        # (4, 2, 2) has top = 2, so D = 2000 checks degrees 1 and 2 only:
        # nothing is listed, drawn, grouped or ranked above m = 2, and the
        # running total is that of D = 2, ending at
        # 1 + quartic_steps(2) + quartic_blocks(2) = 60, where the check used
        # to run on to a refusal at m = 68
        params = GrassParams(4, 2, 2)
        assert len(params.classes) - 1 == 2
        listed, seeds, grouped, requested = [], [], [], []
        monomials, point_columns = reps._monomials, reps._point_columns
        content_blocks, check_budget = reps._content_blocks, reps.check_budget

        def list_(params, vectors):
            listed.append({sum(vector) for vector in vectors})
            return monomials(params, vectors)

        def columns(params, count, seed):
            seeds.append(seed)
            return point_columns(params, count, seed)

        def blocks(params, rows, degree):
            grouped.append(degree)
            return content_blocks(params, rows, degree)

        def budget(amount, stage, what):
            requested.append((stage, amount))
            return check_budget(amount, stage=stage, what=what)
        monkeypatch.setattr(reps, "_monomials", list_)
        monkeypatch.setattr(reps, "_point_columns", columns)
        monkeypatch.setattr(reps, "_content_blocks", blocks)
        monkeypatch.setattr(reps, "check_budget", budget)
        drawn = counting_points(monkeypatch)
        start = time.perf_counter()
        assert reps.generation_in_degree_one(params, 2000)
        assert time.perf_counter() - start < 0.1
        assert (listed, seeds, grouped, len(drawn)) == ([{2}], ["4,2,2,2,0"], [2], 2)
        totals = [amount for stage, amount in requested if stage == "generation check"]
        assert totals == [1, 2, 12, 44, 60]
        assert totals[-1] == 1 + quartic_steps(2) + quartic_blocks(2)

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
        # (6, 3, 3) passes at D = 2 (test_pinned_true_under_the_default_cap)
        # but not at D = 3, whose echelon blocks bring the total past the cap
        assert reps.generation_in_degree_one(GrassParams(6, 2, 2), 2)
        with pytest.raises(EnumerationCapError) as info:
            reps.generation_in_degree_one(GrassParams(6, 3, 3), 3)
        assert info.value.stage == "generation check"

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
                            assert whole_degree_rank(params, rows, m, h, 0) == h, \
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

    def test_blocked_verdicts_match_whole_degree_oracle(self):
        # every input with n <= 8 and D in {2, 3} that the whole-degree
        # echelon's budget, products x h^2, admitted
        cases = 0
        for n in range(2, 9):
            for r in range(1, n):
                for s in range(1, n):
                    for max_degree in (2, 3):
                        params = GrassParams(n, r, s)
                        if not old_budget_admits(params, max_degree):
                            continue
                        try:
                            verdict = reps.generation_in_degree_one(params, max_degree)
                        except NotCertifiedError as error:
                            verdict = (error.degree, error.rank, error.target)
                        assert verdict == whole_degree_verdict(params, max_degree), \
                            (n, r, s, max_degree)
                        cases += 1
        assert cases == 216

    @pytest.mark.parametrize("triple", [(6, 3, 3), (9, 3, 3), (8, 4, 2), (8, 4, 4), (8, 6, 6)])
    def test_pinned_true_under_the_default_cap(self, triple):
        # refused at D = 2 while one echelon ranked a whole degree, and
        # (8, 6, 6) while every block drew its own points
        assert reps.generation_in_degree_one(GrassParams(*triple), 2)

    def test_dual_of_8_2_2_work(self, monkeypatch):
        # 2r > n, so (8, 6, 6) is checked as its dual (8, 2, 2), whose
        # reversed complements have the same weights: at m = 2 the one
        # vector of S(2) and its one Minkowski pair, 9,360 products,
        # K-hat = K_{(4, 4), (1^8)} = 14 points of sum_{k<=2} k C(8, k) = 64
        # Laplace products each, where points of (8, 6, 6) cost 960, and the
        # blocks of (8, 2, 2) (test_block_work_matches_the_oracles)
        params = GrassParams(8, 6, 6)
        assert params.dual() == GrassParams(8, 2, 2)
        assert reps._kostka(reps._balanced_content(params.dual(), 4), 2, 4) == \
            reps._kostka(reps._balanced_content(params, 4), 6, 4) == 14
        assert sum(k * comb(8, k) for k in range(1, 3)) == 64
        assert sum(k * comb(8, k) for k in range(1, 7)) == 960
        total = 1 + 1 + 9360 + 14 * 64 + 281_040
        assert total == 291_298
        monkeypatch.setattr(plucker, "random_minors", no_points)
        for triple in ((8, 6, 6), (8, 2, 2)):
            monkeypatch.setenv("GITGR_MAX_ENUM", str(total - 1))
            with pytest.raises(EnumerationCapError) as info:
                reps.generation_in_degree_one(GrassParams(*triple), 2)
            assert (info.value.stage, info.value.requested) == ("generation check", total)
        monkeypatch.undo()
        drawn = counting_points(monkeypatch)
        assert reps.generation_in_degree_one(params, 2)
        assert drawn == [(2, 8)] * 14

    @pytest.mark.parametrize("triple,work", [
        ((6, 3, 3), 102_154), ((9, 3, 3), 9000), ((8, 2, 2), 281_040)])
    def test_block_work_matches_the_oracles(self, triple, work):
        assert oracle_block_work(GrassParams(*triple), 2) == work

    @pytest.mark.parametrize("m,work", [(2, 8604), (3, 1_008_828)])
    def test_block_work_of_8_4_4(self, m, work):
        # the two open degrees that test_large_n_refusal_names_stage charges
        assert oracle_block_work(GrassParams(8, 4, 4), m) == work

    def test_block_shortfall_is_not_certified(self, monkeypatch):
        # every block gets _ATTEMPTS sets of points, the degree's sets of
        # K-hat = 2, each drawn once; the first block of (4, 2, 2) at m = 2
        # is p13^2, content (2, 0, 2, 0), K = 1
        drawn = counting_points(monkeypatch)
        calls = []

        def short(rows, target):
            calls.append(target)
            return target - 1
        monkeypatch.setattr(plucker, "echelon_rank", short)
        with pytest.raises(NotCertifiedError) as info:
            reps.generation_in_degree_one(GrassParams(4, 2, 2), 2)
        assert (info.value.degree, info.value.rank, info.value.target) == (2, 0, 1)
        assert "(2, 0, 2, 0)" in str(info.value)
        assert calls == [1] * reps._ATTEMPTS
        assert len(drawn) == 2 * reps._ATTEMPTS

    def test_balanced_bound_is_the_largest_block(self):
        # every open degree with n <= 8 and m <= 3, and n = 9 and m = 2,
        # that lists at most 200,000 monomials: no block's K_mu is above
        # K-hat, and one block reaches it
        cases = at_two = 0
        for n in range(2, 10):
            for r in range(1, n):
                for s in range(1, n):
                    params = GrassParams(n, r, s)
                    for m, reached, passed in reps._reachable_vectors(
                            params, 2 if n == 9 else 3, free):
                        if passed or reps._monomial_count(params, reached) > 200_000:
                            continue
                        degree = m * params.d_min
                        bound = reps._kostka(reps._balanced_content(params, degree),
                                             r, degree)
                        blocks = reps._content_blocks(
                            params, reps._monomials(params, reached), degree)
                        assert max(kostka(key, r, degree) for key in blocks) == bound, \
                            (n, r, s, m)
                        cases += 1
                        at_two += m == 2
        assert (cases, at_two) == (32, 21)

    def test_weight_zero_contents_dominate_the_balanced_one(self):
        # every content with rsD/n entries on [1, s] and the rest on
        # [s + 1, n], each at most D, sorted, has partial sums at least the
        # balanced content's: it dominates the balanced content, so its
        # Kostka number is at most K-hat
        def partial_sums(parts):
            parts = sorted(parts, reverse=True)
            return [sum(parts[:k]) for k in range(1, len(parts) + 1)]

        cases = 0
        for n in range(2, 8):
            for r in range(1, n):
                for s in range(1, n):
                    params = GrassParams(n, r, s)
                    for degree in (params.d_min, 2 * params.d_min):
                        balanced = reps._balanced_content(params, degree)
                        low = partial_sums(balanced)
                        small = r * s * degree // n
                        for a in reps.partitions_of(small, s, max_part=degree):
                            for b in reps.partitions_of(r * degree - small, n - s,
                                                        max_part=degree):
                                sums = partial_sums(a + b)
                                assert sums[-1] == low[-1] and all(
                                    x >= y for x, y in zip(sums, low)), \
                                    (n, r, s, degree, a, b)
                                cases += 1
        assert cases == 45_020

    def test_block_above_the_bound_is_a_violation(self, monkeypatch):
        # (4, 2, 2) at m = 2: K-hat = K_{(2, 2), (1, 1, 1, 1)} = 2, and a
        # _kostka that gives 3 to the first block, p13^2 of content
        # (2, 0, 2, 0), breaks the bound before any point is drawn
        kostka_ = reps._kostka
        monkeypatch.setattr(reps, "_kostka", lambda content, rows, cols:
                            3 if content == (2, 2) else kostka_(content, rows, cols))
        monkeypatch.setattr(plucker, "random_minors", no_points)
        with pytest.raises(InvariantViolationError,
                           match=r"K = 3 for content \(2, 0, 2, 0\) .* above 2,"):
            reps.generation_in_degree_one(GrassParams(4, 2, 2), 2)

    def test_one_set_of_points_per_degree(self, monkeypatch):
        # K-hat points a degree, shared by its blocks: (4, 2, 2) at D = 5
        # checks only m <= top = 2 and draws m // 2 + 1 = 2 points, as at
        # D = 2; (8, 4, 4) at D = 3, under a cap that admits its 1,045,481
        # (test_large_n_refusal_names_stage), draws K_{(2^4), (1^8)} = 14
        # at m = 2 and K_{(3^4), (2^4, 1^4)} = 23 at m = 3; and (8, 2, 2) at
        # m = 2 draws K_{(4, 4), (1^8)} = 14, whose h(4) is 3,892
        drawn = counting_points(monkeypatch)
        for max_degree in (5, 2):
            drawn.clear()
            assert reps.generation_in_degree_one(GrassParams(4, 2, 2), max_degree)
            assert len(drawn) == 2
        drawn.clear()
        monkeypatch.setenv("GITGR_MAX_ENUM", "1045481")
        assert reps.generation_in_degree_one(GrassParams(8, 4, 4), 3)
        assert len(drawn) == 14 + 23
        monkeypatch.delenv("GITGR_MAX_ENUM")
        drawn.clear()
        assert reps.generation_in_degree_one(GrassParams(8, 2, 2), 2)
        assert len(drawn) == 14

    def test_atoms_lie_within_lambert_bound(self):
        # Lambert's bound, as generation_in_degree_one uses it: no atom of
        # the weight-zero count vectors has more than top * d_min subsets.
        # The brute-force search reads the weights of the subsets and looks
        # one size past the bound, on every triple with n <= 10; the bound
        # is met on 190 of the 285
        cases = met = 0
        for n in range(2, 11):
            for r in range(1, n):
                for s in range(1, n):
                    params = GrassParams(n, r, s)
                    top = len(params.classes) - 1
                    atoms = weight_zero_atoms(n, r, s, (top + 1) * params.d_min)
                    largest = max(size for size, _ in atoms)
                    assert largest <= top * params.d_min, (n, r, s, atoms)
                    cases += 1
                    met += largest == top * params.d_min
        assert (cases, met) == (285, 190)

    def test_degrees_above_top_repeat_top(self, monkeypatch):
        # on every triple with n <= 8, D = top + 1 and D = top + 7 give the
        # verdict of D = top, with the same running totals and points
        check_budget, random_minors = reps.check_budget, plucker.random_minors

        def outcome(params, max_degree):
            totals, drawn = [], []

            def budget(amount, stage, what):
                if stage == "generation check":
                    totals.append(amount)
                return check_budget(amount, stage=stage, what=what)

            def point(rng, r, n):
                drawn.append((r, n))
                return random_minors(rng, r, n)
            monkeypatch.setattr(reps, "check_budget", budget)
            monkeypatch.setattr(plucker, "random_minors", point)
            try:
                verdict = reps.generation_in_degree_one(params, max_degree)
            except EnumerationCapError as error:
                verdict = error.requested
            except NotCertifiedError as error:
                verdict = (error.degree, error.rank, error.target)
            return verdict, totals, drawn

        verdicts = []
        for n in range(2, 9):
            for r in range(1, n):
                for s in range(1, n):
                    params = GrassParams(n, r, s)
                    top = len(params.classes) - 1
                    at_top = outcome(params, top)
                    for max_degree in (top + 1, top + 7):
                        assert outcome(params, max_degree) == at_top, (n, r, s, max_degree)
                    verdicts.append(at_top[0])
        assert (len(verdicts), sum(verdict is True for verdict in verdicts)) == (140, 118)

    def test_kostka_sum_above_h_is_a_violation(self, monkeypatch):
        hilbert = reps.invariant_hilbert
        monkeypatch.setattr(reps, "invariant_hilbert",
                            lambda params, m: hilbert(params, m) - 1)
        with pytest.raises(InvariantViolationError, match="10 > h\\(2\\) = 9"):
            reps.generation_in_degree_one(GrassParams(4, 2, 2), 2)

    def test_certificate_budget(self, monkeypatch):
        # (5, 2, 2): S(5) has 3 vectors and top is 2, so D = 3 charges as
        # D = 2 does: the 3 vectors, then 3 * 3 Minkowski pairs for M_2 (5
        # vectors, all of S(10)), 12 in all; M_3 is never formed
        for max_degree in (2, 3):
            monkeypatch.setenv("GITGR_MAX_ENUM", "11")
            with pytest.raises(EnumerationCapError) as info:
                reps.generation_in_degree_one(GrassParams(5, 2, 2), max_degree)
            assert (info.value.stage, info.value.requested) == ("generation check", 12)
            monkeypatch.setenv("GITGR_MAX_ENUM", "12")
            assert reps.generation_in_degree_one(GrassParams(5, 2, 2), max_degree)
        monkeypatch.setenv("GITGR_MAX_ENUM", "2")
        with pytest.raises(EnumerationCapError) as info:
            reps.generation_in_degree_one(GrassParams(5, 2, 2), 3)
        assert info.value.requested == 3


class TestKostka:
    def test_matches_tableau_enumeration(self):
        # every content with parts up to cols + 1, zeros included, so the
        # contents no tableau has are checked to give 0
        for rows in range(1, 4):
            for cols in range(1, 5):
                for n in range(1, 7):
                    found = rectangle_contents(rows, cols, n)
                    for parts in reps.partitions_of(rows * cols, n, max_part=cols + 1):
                        padded = parts + (0,) * (n - len(parts))
                        for key in {padded, padded[::-1], padded[1:] + padded[:1]}:
                            assert reps._kostka(key, rows, cols) == found.get(key, 0), \
                                (rows, cols, key)

    def test_weight_zero_contents_sum_to_h(self):
        # the contents with sum_{i <= s} mu_i = rsD/n, sorted within [1, s]
        # and within [s + 1, n] and counted with their arrangements: a
        # second route to h(D)
        def arrangements(parts, length):
            counts = [parts.count(x) for x in set(parts)] + [length - len(parts)]
            return factorial(length) // prod(map(factorial, counts))

        for n in range(2, 10):
            for r in range(1, n):
                for s in range(1, n):
                    params = GrassParams(n, r, s)
                    for degree in range(1, 7):
                        small, rest = divmod(r * s * degree, n)
                        total = 0 if rest else sum(
                            arrangements(a, s) * arrangements(b, n - s)
                            * kostka(a + b, r, degree)
                            for a in reps.partitions_of(small, s, max_part=degree)
                            for b in reps.partitions_of(r * degree - small, n - s,
                                                        max_part=degree))
                        assert total == reps.invariant_hilbert(params, degree), \
                            (n, r, s, degree)


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

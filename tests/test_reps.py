import time
from itertools import combinations, combinations_with_replacement, product
from functools import lru_cache
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from gitgr import errors, quotient, reps
from gitgr.errors import EnumerationCapError, InvariantViolationError, UnsupportedCaseError
from gitgr.params import GrassParams

from oracles import (ATTEMPTS, blocked_generation, block_rank, chain_hilbert, chains_split,
                     content_blocks, count_vectors_split, balanced_content,
                     distinct_products, hook_content_count, kernel_vector,
                     levi_branching_sum, levi_complement, levi_summands, minor_poly,
                     monomial_count, monomial_poly, monomials, invariant_monomials_scan,
                     node_complement, padded_dual_weight, point_columns, poly_mul,
                     poly_product, rank_of_polys, rectangle_contents, ssyt_count,
                     weight_zero_atoms, weight_zero_chains, whole_degree_rank)


def induction_params(max_n, min_n=2):
    for n in range(min_n, max_n + 1):
        for r in range(1, n):
            for s in range(1, n):
                params = GrassParams(n, r, s)
                if quotient.detect_induction_case(params):
                    yield params


def weight_zero_monomials(params, degree):
    return monomials(params, reps._weight_zero_vectors(params, degree))


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


def unreached(params, max_degree):
    """(m, M_m, vector, c, K) for each vector of S(m d_min) outside M_m,
    m = 1..max_degree, with its highest-weight content c and K_{(D^r), c}."""
    found = []
    for m, reached in reachable(params, max_degree).items():
        degree = m * params.d_min
        for vector in reps._weight_zero_vectors(params, degree):
            if vector not in reached:
                weight = reps._summand_content(params, vector, degree)
                found.append((m, reached, vector, weight,
                              reps._kostka(weight, params.r, degree)))
    return found


def listing(params, weight, reached):
    """The library's products of content ``weight`` in M_m, and the choices
    their listing charges."""
    spent = []
    rows = reps._content_products(params, weight, reached, spent.append)
    return rows, sum(spent)


def checked_triples(max_n):
    """Every (n, r, s) with n <= max_n that the check runs on itself, 2r <= n."""
    return [GrassParams(n, r, s) for n in range(2, max_n + 1)
            for r in range(1, n // 2 + 1) for s in range(1, n)]


def content(monomial, n):
    flat = [i for subset in monomial for i in subset]
    return tuple(flat.count(i) for i in range(1, n + 1))


def kostka(counts, rows, cols):
    """K_{(cols^rows), counts}, read as the library reads it: sorted, with
    the zeros dropped."""
    return reps._kostka(tuple(sorted(filter(None, counts))), rows, cols)


def no_points(rng, r, n):
    raise AssertionError("a point was drawn")


def no_listing(params, weight, reached, step):
    raise AssertionError("products listed")


def no_straightening(monomial):
    raise AssertionError("a product straightened")


def exact_rank(rows, target):
    """The library's rank over Q of straightened rows, with no budget."""
    return reps._exact_rank(rows, target, lambda amount: None)


def straightened(monomials):
    """The library's rows of ``monomials``, each straightened once."""
    memo = {}
    return [reps._straighten(monomial, memo, lambda amount: None) for monomial in monomials]


def polynomial(row, expand):
    """A straightened row as a polynomial in the entries of a generic
    matrix, each standard monomial expanded by ``expand``."""
    total = {}
    for standard, coefficient in row.items():
        for term, value in expand(standard).items():
            total[term] = total.get(term, 0) + coefficient * value
    return {term: value for term, value in total.items() if value}


def recorded_totals(monkeypatch):
    """Record every running total the generation check charges from here on.
    The budget reports no room left, so each charge asks it again."""
    totals, check_budget = [], errors.check_budget

    def budget(amount, stage, what):
        if stage == "generation check":
            totals.append(amount)
        check_budget(amount, stage=stage, what=what)
        return 0
    monkeypatch.setattr(errors, "check_budget", budget)
    return totals


def old_budget_admits(params, max_degree):
    """Whether the whole-degree echelon's budget, products x h^2 for each
    degree the count vectors leave open, admits ``max_degree``."""
    try:
        for m, reached, passed in reps._reachable_vectors(params, max_degree, free):
            if passed:
                continue
            h = reps.invariant_hilbert(params, m * params.d_min)
            if monomial_count(params, reached) * h * h > 10**6:
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
        rows = monomials(params, reached)
        rank = max(whole_degree_rank(params, rows, m, h, attempt)
                   for attempt in range(ATTEMPTS))
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


def highest_monomial(params, vector):
    """The product, one subset per subset of class j that ``vector`` counts,
    of [1, j] + [s + 1, s + r - j]: a highest-weight vector of its summand."""
    s, r = params.s, params.r
    return [tuple(range(1, j + 1)) + tuple(range(s + 1, s + r - j + 1))
            for j, count in zip(params.classes, vector) for _ in range(count)]


def weight_zero_counts(params, size):
    """S(size) by brute force: the counts per class, summing to ``size``,
    whose class weights n j - r s sum to zero."""
    n, r, s = params.n, params.r, params.s
    return {vector for vector in product(range(size + 1), repeat=len(params.classes))
            if sum(vector) == size
            and sum(c * (n * j - r * s) for c, j in zip(vector, params.classes)) == 0}


def check_contents(triples):
    """For every unreached summand nu of the checked degrees: c(nu) is the
    content of ``highest_monomial``, and the branching of its weight space,
    sum over nu' in S(D) of K_{mu', c|[1, s]} K_{mu'^c, c|[s + 1, n]}, is
    K_{(D^r), c} with nu's own term 1.  The number of summands checked."""
    checked = 0
    for params in triples:
        n, r, s = params.n, params.r, params.s
        low = params.classes[0]
        for m, _, vector, weight, k in unreached(params, len(params.classes) - 1):
            degree = m * params.d_min
            assert content(highest_monomial(params, vector), n) == weight, (params, vector)
            terms = {}
            for other in reps._weight_zero_vectors(params, degree):
                mu = [degree] * low + [sum(other[t:]) for t in range(1, len(other))]
                rest = [degree - part for part in reversed(mu + [0] * (r - len(mu)))]
                terms[other] = (ssyt_count([x for x in mu if x], s, content=weight[:s])
                                * ssyt_count([x for x in rest if x], n - s, content=weight[s:]))
            assert terms[vector] == 1 and sum(terms.values()) == k, (params, vector, terms)
            checked += 1
    return checked


def check_listings(triples, max_degree=3):
    """For every unreached summand of degree m <= ``max_degree`` whose
    C(g + m - 1, m) combinations of the g degree-one invariants number at
    most 200,000: the library's listing of content c(nu) is the set of
    merged combinations (``distinct_products``) of that content, with no
    repeats.  The number of blocks checked."""
    checked = 0
    for params in triples:
        g = monomial_count(params, reps._weight_zero_vectors(params, params.d_min))
        products = {}
        for m, reached, vector, weight, _ in unreached(params, max_degree):
            if comb(g + m - 1, m) > 200_000:
                continue
            if m not in products:
                products[m] = distinct_products(params, m)
            rows, _ = listing(params, weight, reached)
            assert len(set(rows)) == len(rows), (params, vector)
            assert set(rows) == {monomial for monomial in products[m]
                                 if content(monomial, params.n) == weight}, (params, vector)
            checked += 1
    return checked


def check_every_summand_decides(monkeypatch, params, max_degree):
    """Each unreached summand, its vector found by brute force, given a K
    one above its own alone, makes the check return False: its block is
    ranked, and its rank, K, falls short of K + 1."""
    kostka_ = reps._kostka
    for m, reached in reachable(params, max_degree).items():
        for vector in sorted(weight_zero_counts(params, m * params.d_min) - reached):
            weight = content(highest_monomial(params, vector), params.n)
            with monkeypatch.context() as patch:
                patch.setattr(reps, "_kostka", lambda found, rows, cols, weight=weight:
                              kostka_(found, rows, cols) + (found == weight))
                if reps.generation_in_degree_one(params, max_degree) is not False:
                    raise AssertionError(f"the summand {vector} of {params} decided nothing")


def lower_the_content(monkeypatch):
    """Mutant: a weight of W_nu below the highest, one unit moved down on
    [1, s] wherever two neighbours there differ by 2 or more."""
    summand_content = reps._summand_content

    def lowered(params, vector, degree):
        weight = list(summand_content(params, vector, degree))
        for i in range(params.s - 1):
            if weight[i] - weight[i + 1] >= 2:
                weight[i] -= 1
                weight[i + 1] += 1
                break
        return tuple(weight)
    monkeypatch.setattr(reps, "_summand_content", lowered)


def drop_the_filter(monkeypatch):
    """Mutant: every weight-zero product of the content, not only M_m's."""
    products = reps._content_products

    def unfiltered(params, weight, reached, step):
        degree = sum(weight) // params.r
        return products(params, weight, set(reps._weight_zero_vectors(params, degree)), step)
    monkeypatch.setattr(reps, "_content_products", unfiltered)


def skip_a_summand(monkeypatch):
    """Mutant: S(m d_min), m >= 2, loses its last vector outside M_m."""
    vectors = reps._weight_zero_vectors

    def fewer(params, size):
        found = vectors(params, size)
        if size > params.d_min:
            reached = reachable(params, size // params.d_min)[size // params.d_min]
            missed = [vector for vector in found if vector not in reached]
            found = [vector for vector in found if vector not in missed[-1:]]
        return found
    monkeypatch.setattr(reps, "_weight_zero_vectors", fewer)


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

    def test_large_k_pinned(self):
        # boxes of 20 x 6 and 30 x 6 rows (4,605 and 24,652 summands), where
        # the partial sums of long row prefixes are large integers; the
        # values are those of the summand-by-summand sum that the row walk
        # replaced
        assert reps.invariant_hilbert(GrassParams(60, 25, 20), 6) == int(
            "366053587741589905978177717655478131026612700417372704302928107441"
            "04156613981026565952")
        assert reps.invariant_hilbert(GrassParams(100, 40, 30), 6) == int(
            "111706616430761548526402884491999245015275723041319284932548174069649512480665296537"
            "83119436497240754149636748545483583509871920075775326243200087040000")

    def test_degree_one_closed_form(self):
        # degree one is spanned by the Plücker coordinates of weight zero,
        # the r-subsets with j = rs/n of their elements in [1, s]
        for n in range(2, 31):
            for r in range(1, n):
                for s in range(1, n):
                    j, rest = divmod(r * s, n)
                    expected = 0 if rest else comb(s, j) * comb(n - s, r - j)
                    assert reps.invariant_hilbert(GrassParams(n, r, s), 1) == expected, \
                        (n, r, s)
        # one summand in a 200 x 1 box: 100 rows of 1 and 100 zero rows, each
        # run a table entry of 100 factors
        assert reps.invariant_hilbert(GrassParams(400, 200, 200), 1) == comb(200, 100) ** 2

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
        monkeypatch.setattr(errors, "check_budget", record)
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
        # every row weight g[l] of the walk one too large: at (6, 2, 3),
        # m = 2, the sum over the denominator is 274/4 (at (6, 3, 3) every
        # g[l] is 1, and doubling them all keeps the sum exact)
        weights = reps._row_weights
        monkeypatch.setattr(reps, "_row_weights",
                            lambda *args: [w + 1 for w in weights(*args)])
        with pytest.raises(InvariantViolationError, match="Levi branching gave 274/4"):
            reps.invariant_hilbert(GrassParams(6, 2, 3), 2)

    def test_inexact_sum_with_binomial_weights_is_a_violation(self, monkeypatch):
        # at (8, 2, 4), m = 1, e = d = 2 and k = 2: the row weights are
        # binomials, e! d! = 4 times smaller than the falling factorials, and
        # the denominator is prod_{a<2} (2 + a)_a^2 = 9, not
        # prod_{a<2} (2 + a)!^2 = 144.  Every g[l] one too large leaves 196/9
        assert reps.invariant_hilbert(GrassParams(8, 2, 4), 1) == 16
        weights = reps._row_weights
        monkeypatch.setattr(reps, "_row_weights",
                            lambda *args: [w + 1 for w in weights(*args)])
        with pytest.raises(InvariantViolationError,
                           match=r"Levi branching gave 196/9 for \(n=8, r=2, s=4\), m=1$"):
            reps.invariant_hilbert(GrassParams(8, 2, 4), 1)

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
        # (6, 2, 2) at D = 2 is certified by count vectors alone; (10, 3, 3)
        # at D = 3 is not.  Its d_min is 10 and its top 3.  The certificate
        # charges the 12 vectors of S(10), 12 * 12 Minkowski pairs for M_2
        # (36 vectors) and 36 * 12 for M_3.  One summand is unreached at
        # m = 2 and two at m = 3.  Each block charges the choices of its
        # listing, the terms its straightening merges and the pivot entries
        # its reductions use: 629 + 330 at m = 2, and 44,939 + 1,392
        # choices, 12,980 terms and 4,004 entries at m = 3, 64,862 in all,
        # where the points and the rows x K^2 of the blocks came to
        # 8,354,204.  Under a cap one below the total the last charge is
        # refused, and the error names the stage, the total and the cap
        params = GrassParams(10, 3, 3)
        assert reps.generation_in_degree_one(GrassParams(6, 2, 2), 2)
        assert (len(params.classes) - 1, params.d_min) == (3, 10)
        assert [len(reachable(params, 2)[m]) for m in (1, 2)] == [12, 36]
        blocks = [(m, *listing(params, weight, reached), k)
                  for m, reached, _, weight, k in unreached(params, 3)]
        assert [(m, len(rows), steps, k) for m, rows, steps, k in blocks] == \
            [(2, 54, 629, 10), (3, 1898, 44_939, 66), (3, 104, 1392, 14)]
        total = 12 + 144 + 432 + 629 + 330 + 44_939 + 1392 + 12_980 + 4004
        assert total == 64_862
        charged = recorded_totals(monkeypatch)
        assert reps.generation_in_degree_one(params, 3)
        assert charged[-1] == total
        monkeypatch.undo()
        monkeypatch.setenv("GITGR_MAX_ENUM", str(total - 1))
        with pytest.raises(EnumerationCapError) as info:
            reps.generation_in_degree_one(params, 3)
        assert (info.value.stage, info.value.requested, info.value.cap) == \
            ("generation check", total, total - 1)
        assert "stage: generation check, requested: 64862, cap: 64861" in \
            str(info.value)

    def test_refused_before_any_work(self, monkeypatch):
        assert reps.generation_in_degree_one(GrassParams(5, 2, 2), 2)
        # (6, 3, 3) at D = 3: the 2 count vectors of S(2), 2 * 2 Minkowski
        # pairs for M_2 (3 vectors) and 3 * 2 for M_3.  Two summands are
        # unreached at m = 2 and four at m = 3.  Their listings take 18
        # and 19 choices at m = 2, and 251, 241, 18 and 20 at m = 3; their
        # straightenings merge 4 terms at m = 2 and 415 at m = 3, and the
        # reductions use 204 pivot entries, all at m = 3.  Under a cap one
        # below the total, the last charge is refused, in well under 1 s
        params = GrassParams(6, 3, 3)
        blocks = [(m, *listing(params, weight, reached), k)
                  for m, reached, _, weight, k in unreached(params, 3)]
        assert [(m, len(rows), steps, k) for m, rows, steps, k in blocks] == \
            [(2, 2, 18, 2), (2, 2, 19, 2), (3, 36, 251, 11), (3, 36, 241, 11),
             (3, 2, 18, 2), (3, 2, 20, 2)]
        total = 2 + 2 * 2 + 18 + 19 + 4 + 3 * 2 + 251 + 241 + 18 + 20 + 415 + 204
        assert total == 1202
        monkeypatch.setenv("GITGR_MAX_ENUM", str(total - 1))
        start = time.perf_counter()
        with pytest.raises(EnumerationCapError) as info:
            reps.generation_in_degree_one(params, 3)
        assert time.perf_counter() - start < 1.0
        assert (info.value.stage, info.value.requested, info.value.cap) == \
            ("generation check", total, total - 1)
        monkeypatch.setenv("GITGR_MAX_ENUM", str(total))
        assert reps.generation_in_degree_one(params, 3)

    def test_work_budget_counts_row_width(self, monkeypatch):
        # (9, 3, 3) at m = 2: the one count vector of S(1) and its one
        # Minkowski pair; the one unreached summand, (1, 0, 1, 0), of content
        # (1, 1, 0, 2, 1, 1, 0, 0, 0), K = 2; its listing of 17 choices; and
        # its 2 products, one standard and one that a Garnir relation writes
        # as two standard monomials, each term charged at the width of its
        # expansion, 1: 21.  The two rows share no column, so no reduction
        # runs
        params = GrassParams(9, 3, 3)
        [(_, reached, vector, weight, k)] = unreached(params, 2)
        assert (vector, weight, k) == ((1, 0, 1, 0), (1, 1, 0, 2, 1, 1, 0, 0, 0), 2)
        rows, steps = listing(params, weight, reached)
        assert (len(rows), steps) == (2, 17)
        assert sorted(map(len, straightened(rows))) == [1, 2]
        total = 1 + 1 + 17 + 2 * 1
        assert total == 21
        monkeypatch.setenv("GITGR_MAX_ENUM", str(total - 1))
        start = time.perf_counter()
        with pytest.raises(EnumerationCapError) as info:
            reps.generation_in_degree_one(params, 2)
        assert time.perf_counter() - start < 1.0
        assert (info.value.stage, info.value.requested) == ("generation check", total)
        assert "straightening the degree-2 products" in str(info.value)
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
        # each content block's rank, from the library's straightened rows
        # over Q and from the point oracle's echelon over F_p, against the
        # rational rank of the products of that content, every combination
        # of m degree-one invariants expanded; the blocks' ranks add up to
        # the whole rank.  The blocks are the blocked oracle's, and one set
        # of K-hat points serves the degree
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
            blocks = content_blocks(params, monomials(params, reached), degree)
            assert blocks.keys() == by_content.keys(), (triple, m)
            bound = reps._kostka(balanced_content(params, degree), r, degree)
            columns = point_columns(params, bound, f"{n},{r},{s},{m},0")
            total = 0
            for key, rows in blocks.items():
                target = kostka(key, r, degree)
                rank = rank_of_polys(by_content[key])
                assert exact_rank(straightened(rows), target) == rank, (triple, m, key)
                assert block_rank(rows, target, columns) == rank, (triple, m, key)
                total += rank
            assert total == rank_of_polys([poly for polys in by_content.values()
                                           for poly in polys]), (triple, m)

    def test_repeated_calls_agree(self):
        # every block of (5, 1, 2) at m = 2 straightens to the same rows in
        # two separate straightenings and reaches its K exactly; the check
        # keeps no state between calls
        params = GrassParams(5, 1, 2)
        blocks = content_blocks(params, monomials(params, reachable(params, 2)[2]), 10)
        targets = {key: kostka(key, 1, 10) for key in blocks}
        assert sum(targets.values()) == reps.invariant_hilbert(params, 10) == 140
        for key, rows in blocks.items():
            first = straightened(rows)
            assert straightened(rows) == first, key
            assert exact_rank(first, targets[key]) == targets[key], key
        assert [reps.generation_in_degree_one(params, 2) for _ in range(2)] == [True, True]
        assert [reps.generation_in_degree_one(GrassParams(8, 4, 4), 3)
                for _ in range(2)] == [True, True]

    def test_shortfall_is_not_certified(self, monkeypatch):
        # degree 1 is certified by count vectors.  At m = 2 the one
        # unreached summand of (4, 2, 2) is (1, 0, 1), p12 p34, whose content
        # (1, 1, 1, 1) has K = 2; a K of 3 leaves its 2 products short, and
        # the exact rank makes the shortfall a verdict: False
        kostka_ = reps._kostka
        monkeypatch.setattr(reps, "_kostka",
                            lambda weight, rows, cols: kostka_(weight, rows, cols) + 1)
        assert reps.generation_in_degree_one(GrassParams(4, 2, 2), 3) is False
        monkeypatch.undo()
        assert reps.generation_in_degree_one(GrassParams(4, 2, 2), 3) is True

    def test_monomial_budget(self, monkeypatch):
        # the listing has no gate of its own, and the check charges it as
        # it runs.  (4, 2, 2) at D = 3 charges 1 + 1 for the certificate,
        # then its one listing, 11 choices in nine steps (the most choices
        # a step makes is 2), then the 2 terms that straighten p14 p23, 15
        # in all.  A cap of 1 is refused at the certificate, before
        # anything is listed; every cap from 2 to 12 stops the listing
        # within 2 of the cap; 13 and 14 stop the straightening
        params = GrassParams(4, 2, 2)
        [(_, reached, _, weight, _)] = unreached(params, 2)
        spent = []
        reps._content_products(params, weight, reached, spent.append)
        assert spent == [1, 2, 1, 2, 1, 1, 1, 1, 1]
        total = 1 + 1 + sum(spent) + 2
        assert total == 15
        monkeypatch.setenv("GITGR_MAX_ENUM", "1")
        with monkeypatch.context() as patch:
            patch.setattr(reps, "_content_products", no_listing)
            with pytest.raises(EnumerationCapError) as info:
                reps.generation_in_degree_one(params, 3)
        assert info.value.requested == 2 and "Minkowski pairs of M_2" in str(info.value)
        for cap in range(2, 2 + sum(spent)):
            monkeypatch.setenv("GITGR_MAX_ENUM", str(cap))
            with pytest.raises(EnumerationCapError) as info:
                reps.generation_in_degree_one(params, 3)
            assert info.value.stage == "generation check"
            assert cap < info.value.requested <= cap + 2, cap
            assert "listing the degree-2 products of content (1, 1, 1, 1)" in \
                str(info.value)
        for cap in (13, 14):
            monkeypatch.setenv("GITGR_MAX_ENUM", str(cap))
            with pytest.raises(EnumerationCapError) as info:
                reps.generation_in_degree_one(params, 3)
            assert info.value.requested == cap + 1
            assert "straightening the degree-2 products of content (1, 1, 1, 1)" in \
                str(info.value)
        monkeypatch.setenv("GITGR_MAX_ENUM", str(total))
        assert reps.generation_in_degree_one(params, 3)

    def test_running_total_step_by_step(self, monkeypatch):
        # (4, 2, 2) at D = 3, each step of the one total in the order it is
        # charged: the one count vector of S(1), the one Minkowski pair of
        # M_2, the listing's steps (test_monomial_budget) and the two terms
        # that straighten p14 p23.  Its top is 2, so D = 2 and 2000 charge
        # the same.  A cap one below any step's total refuses exactly there.
        # (8, 4, 4) at D = 3 <= top = 4: the one vector of S(1) and one
        # pair for each of M_2 and M_3; two unreached summands at m = 2
        # and four at m = 3, whose listings take 113 + 18 and
        # 239 + 62 + 60 + 19 choices; the straightenings merge 235 terms at
        # m = 2 and 1,070 at m = 3, and the reductions use 202 and 646
        # pivot entries, where the points and rows x K^2 came to 43,536
        steps = [1, 1, 1, 2, 1, 2, 1, 1, 1, 1, 1, 1, 1]
        totals = [sum(steps[:i + 1]) for i in range(len(steps))]
        for requested in totals[1:]:  # a cap is at least 1, so 1 is never refused
            monkeypatch.setenv("GITGR_MAX_ENUM", str(requested - 1))
            for degree in (3, 2, 2000):
                with pytest.raises(EnumerationCapError) as info:
                    reps.generation_in_degree_one(GrassParams(4, 2, 2), degree)
                assert (info.value.stage, info.value.requested, info.value.cap) == \
                    ("generation check", requested, requested - 1)
        monkeypatch.undo()
        charged = recorded_totals(monkeypatch)
        for degree in (3, 2, 2000):
            charged.clear()
            assert reps.generation_in_degree_one(GrassParams(4, 2, 2), degree)
            assert charged == totals

        params = GrassParams(8, 4, 4)
        blocks = [(m, *listing(params, weight, reached), k)
                  for m, reached, _, weight, k in unreached(params, 3)]
        assert [(m, len(rows), steps, k) for m, rows, steps, k in blocks] == \
            [(2, 18, 113, 14), (2, 2, 18, 2), (3, 38, 239, 23), (3, 6, 62, 6),
             (3, 6, 60, 6), (3, 2, 19, 2)]
        total = (1 + 1 + 1 + 113 + 18 + 235 + 202 + 239 + 62 + 60 + 19 + 1070 + 646)
        assert total == 2667
        charged.clear()
        assert reps.generation_in_degree_one(params, 3)
        assert charged[-1] == total

    def test_listing_matches_the_scan(self):
        # the blocked oracle's listing of M_m's monomials: same monomials in
        # the same order as the scan, and its closed-form count
        cases = 0
        for n in range(2, 8):
            for r in range(1, n):
                for s in range(1, n):
                    params = GrassParams(n, r, s)
                    for degree in range(1, 4):
                        vectors = reps._weight_zero_vectors(params, degree)
                        listed = monomials(params, vectors)
                        assert listed == invariant_monomials_scan(params, degree), \
                            (n, r, s, degree)
                        assert monomial_count(params, vectors) == len(listed), \
                            (n, r, s, degree)
                        cases += 1
        assert cases == 273

    @pytest.mark.parametrize("triple", [(9, 4, 4), (9, 5, 5)])
    def test_refused_before_listing(self, triple, monkeypatch):
        # (9, 4, 4) at m = 2, checked as (9, 5, 5) is: the 41 vectors of
        # S(9) and their 41^2 Minkowski pairs, then four unreached
        # summands, whose largest K is 1,806 at content
        # (17, 5, 5, 5, 13, 13, 13, 1, 0), listed first.  No listing goes
        # past the cap: under a cap 10^5 above the certificate, the room
        # the listing had after the points it no longer charges, that
        # content's listing is refused as it runs, within one step of the
        # cap (a step of 18 rows makes at most 19 choices), before any
        # product is straightened
        params = GrassParams(*triple)
        checked = params.dual() if 2 * params.r > params.n else params
        assert [k for *_, k in unreached(checked, 2)] == [1806, 175, 715, 8]
        assert len(reachable(checked, 1)[1]) == 41
        certificate = 41 + 41**2
        cap = certificate + 10**5
        monkeypatch.setenv("GITGR_MAX_ENUM", str(cap))
        monkeypatch.setattr(reps, "_garnir", no_straightening)
        start = time.perf_counter()
        with pytest.raises(EnumerationCapError) as info:
            reps.generation_in_degree_one(params, 2)
        assert time.perf_counter() - start < 2.0
        assert cap < info.value.requested <= cap + 19
        assert "listing the degree-2 products of content " \
            "(17, 5, 5, 5, 13, 13, 13, 1, 0)" in str(info.value)

    def test_large_degree_stops_at_top(self, monkeypatch):
        # (4, 2, 2) has top = 2, so D = 2000 checks degrees 1 and 2 only:
        # nothing is listed or straightened above m = 2, and the running
        # total is that of D = 2, ending at 15 (test_monomial_budget), where
        # the check used to run on to a refusal at m = 68
        params = GrassParams(4, 2, 2)
        assert len(params.classes) - 1 == 2
        listed, products = [], reps._content_products

        def list_(params, weight, reached, step):
            listed.append(weight)
            return products(params, weight, reached, step)
        monkeypatch.setattr(reps, "_content_products", list_)
        charged = recorded_totals(monkeypatch)
        start = time.perf_counter()
        assert reps.generation_in_degree_one(params, 2000)
        assert time.perf_counter() - start < 0.1
        assert listed == [(1, 1, 1, 1)]
        assert charged[-1] == 15

    def test_products_are_the_monomials_of_reachable_vectors(self):
        # the monomials of M_m, as the blocked oracle lists and counts them,
        # against every combination of m degree-one invariants, merged and
        # deduplicated: M_m, which picks the summands the check skips and
        # filters each listing, is exactly the products' count vectors
        cases = 0
        for n in range(2, 8):
            for r in range(1, n):
                for s in range(1, n):
                    params = GrassParams(n, r, s)
                    vectors = reachable(params, 3)
                    g = monomial_count(params, vectors[1])
                    for m, reached in vectors.items():
                        if comb(g + m - 1, m) <= 200_000:
                            listed = monomials(params, reached)
                            assert listed == distinct_products(params, m), (n, r, s, m)
                            assert monomial_count(params, reached) == len(listed), \
                                (n, r, s, m)
                            cases += 1
        assert cases == 177

    def test_listing_matches_brute_force(self):
        # the products of m degree-one invariants of each unreached content,
        # as the library lists them, against every combination of m
        # degree-one invariants, merged and filtered by content, for n <= 7
        # and m <= 3.  The 8 open degrees of (7, 3, 3) and its three
        # mirrors have about 10^13 or more combinations and are left out
        assert check_listings([GrassParams(n, r, s) for n in range(2, 8)
                               for r in range(1, n) for s in range(1, n)]) == 16

    def test_content_map(self):
        # c(nu) is the highest weight of W_nu, and the weight space of
        # content c(nu) branches over the summands as the Levi factors'
        # Kostka numbers say (oracles.ssyt_count), on every triple with
        # n <= 8 that the check runs on itself
        assert check_contents(checked_triples(8)) == 68

    def test_straightened_rows_are_the_products(self):
        # every block the check ranks with D * r <= 12, on every triple with
        # n <= 8 that it runs on itself: each product, straightened, is the
        # same polynomial in the entries of a generic r x n matrix, every
        # term of its row is a standard monomial of the block's content, and
        # no block meets more than its K of them or falls short of K
        checked = rows_checked = 0
        for params in checked_triples(8):
            r, n = params.r, params.n
            for m, reached, _, weight, k in unreached(params, len(params.classes) - 1):
                if m * params.d_min * r > 12:
                    continue
                products, _ = listing(params, weight, reached)
                rows = straightened(products)
                basis = set().union(*rows)
                assert len(basis) <= k and exact_rank(rows, k) == k, (params, weight)
                for standard in basis:
                    assert reps._garnir(standard) is None and \
                        content(standard, n) == weight, (params, standard)
                expand = lru_cache(maxsize=None)(lambda monomial: monomial_poly(monomial, r, n))
                for product_, row in zip(products, rows):
                    assert polynomial(row, expand) == expand(product_), (params, product_, row)
                checked += 1
                rows_checked += len(rows)
        assert (checked, rows_checked) == (19, 98)

    def test_garnir_terms_are_smaller(self):
        # each Garnir term of a monomial that is not standard is the same
        # content, sorted lexicographically below it, which ends the
        # straightening: every monomial of 3 subsets of {1..6} of size 2 or 3
        cases = 0
        for r in (2, 3):
            for monomial in combinations_with_replacement(combinations(range(1, 7), r), 3):
                terms = reps._garnir(monomial)
                if terms is None:
                    assert all(a <= b for left, right in zip(monomial, monomial[1:])
                               for a, b in zip(left, right)), monomial
                    continue
                for term, coefficient in terms.items():
                    assert term < monomial and coefficient, (monomial, term)
                    assert content(term, 6) == content(monomial, 6), (monomial, term)
                    assert list(term) == sorted(term), term
                cases += 1
        assert cases == 750

    def test_block_above_its_kostka_number_is_a_violation(self, monkeypatch):
        # the standard monomials of a content are a basis of its weight
        # space: (4, 2, 2) at m = 2 has the one block of content
        # (1, 1, 1, 1), whose first product p14 p23 straightens to
        # p13 p24 - p12 p34, so a K of 1 is met by 2 standard monomials
        kostka_ = reps._kostka
        monkeypatch.setattr(reps, "_kostka",
                            lambda weight, rows, cols: kostka_(weight, rows, cols) - 1)
        with pytest.raises(InvariantViolationError, match="meet 2 > K = 1"):
            reps.generation_in_degree_one(GrassParams(4, 2, 2), 2)

    def test_every_unreached_summand_decides(self, monkeypatch):
        for triple, max_degree in (((4, 2, 2), 2), ((6, 3, 3), 3), ((8, 4, 4), 3)):
            check_every_summand_decides(monkeypatch, GrassParams(*triple), max_degree)

    @pytest.mark.parametrize("mutant", [lower_the_content, drop_the_filter, skip_a_summand])
    def test_mutants_fail_a_check(self, mutant, monkeypatch):
        # a content below the highest weight, the M_m filter dropped, and
        # one unreached summand skipped: each fails one of the checks above
        triples = [GrassParams(4, 2, 2), GrassParams(6, 3, 3)]
        checks = [lambda: check_contents(triples), lambda: check_listings(triples),
                  lambda: check_every_summand_decides(monkeypatch, GrassParams(6, 3, 3), 3)]
        for check in checks:
            check()
        mutant(monkeypatch)
        failed = 0
        for check in checks:
            try:
                check()
            except AssertionError:
                failed += 1
        assert failed, mutant.__name__

    def test_large_n_refused(self, monkeypatch):
        # (6, 3, 3) passes at D = 3 (test_refused_before_any_work), and so
        # now does (7, 3, 3), whose m = 3 summand of K = 41 and 723 products
        # was refused at 723 * 41^2 by the rows x K^2 charge.  It needs
        # 17,254 in all; under a cap of 9,000 its degree-3 listing is
        # refused as it runs
        assert reps.generation_in_degree_one(GrassParams(6, 3, 3), 3)
        charged = recorded_totals(monkeypatch)
        assert reps.generation_in_degree_one(GrassParams(7, 3, 3), 3)
        assert charged[-1] == 17_254
        monkeypatch.undo()
        monkeypatch.setenv("GITGR_MAX_ENUM", "9000")
        with pytest.raises(EnumerationCapError) as info:
            reps.generation_in_degree_one(GrassParams(7, 3, 3), 3)
        assert info.value.stage == "generation check"
        assert "listing the degree-3 products" in str(info.value)

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
                    g = monomial_count(params, vectors[1])
                    for m in certified(params, 3) - {1}:
                        h = reps.invariant_hilbert(params, m * params.d_min)
                        if comb(g + m - 1, m) * h <= 10**6:
                            rows = monomials(params, vectors[m])
                            assert whole_degree_rank(params, rows, m, h, 0) == h, \
                                (n, r, s, m)
                            checked += 1
        assert checked == 34

    def test_certified_without_elimination(self, monkeypatch):
        def no_elimination(rows, target, step):
            raise AssertionError("elimination reached")
        monkeypatch.setattr(reps, "_exact_rank", no_elimination)
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
                        verdict = reps.generation_in_degree_one(params, max_degree)
                        assert verdict == (whole_degree_verdict(params, max_degree) is True), \
                            (n, r, s, max_degree)
                        cases += 1
        assert cases == 216

    def test_highest_weights_match_the_blocked_oracle(self):
        # every input with n <= 8 and D = 4 that the blocked oracle decides
        # gets its verdict.  All 118 are True; the 22 it refuses are True
        # here too, under the default cap
        verdicts = {}
        for n in range(2, 9):
            for r in range(1, n):
                for s in range(1, n):
                    params = GrassParams(n, r, s)
                    outcome = []
                    for check in (blocked_generation, reps.generation_in_degree_one):
                        try:
                            outcome.append(check(params, 4))
                        except EnumerationCapError:
                            outcome.append(None)
                    if outcome[0] is not None:
                        assert outcome[1] == outcome[0], (n, r, s, outcome)
                    verdicts[tuple(outcome)] = verdicts.get(tuple(outcome), 0) + 1
        assert verdicts == {(True, True): 118, (None, True): 22}

    def test_open_induction_triples_certified(self):
        # the 26 induction triples with n <= 12 whose count vectors leave a
        # degree open are all True under the default cap.  The four with
        # top 3, (10, 3, 3), (10, 7, 7), (11, 3, 3) and (11, 8, 8), were
        # refused at their m = 3 block of 1,898 * 66^2 past 8.3 million;
        # each now takes under 2 s
        open_triples = []
        for params in induction_params(12):
            checked = params.dual() if 2 * params.r > params.n else params
            if certified(checked, len(checked.classes) - 1) != \
                    set(range(1, len(checked.classes))):
                open_triples.append(params)
                start = time.perf_counter()
                assert reps.generation_in_degree_one(params, 100) is True, params
                if len(checked.classes) - 1 == 3 and params.n < 12:
                    assert time.perf_counter() - start < 2.0, params
        assert len(open_triples) == 26

    @pytest.mark.parametrize("triple", [(6, 3, 3), (9, 3, 3), (8, 4, 2), (8, 4, 4), (8, 6, 6)])
    def test_pinned_true_under_the_default_cap(self, triple):
        # refused at D = 2 while one echelon ranked a whole degree, and
        # (8, 6, 6) while every block drew its own points
        assert reps.generation_in_degree_one(GrassParams(*triple), 2)

    def test_dual_of_8_2_2_work(self, monkeypatch):
        # 2r > n, so (8, 6, 6) is checked as its dual (8, 2, 2), whose
        # reversed complements have the same weights: at m = 2 the one
        # vector of S(2) and its one Minkowski pair, the one unreached
        # summand (3, 0, 1) of content (1, 1, 3, 3, 0, 0, 0, 0), K = 2, its
        # listing of 17 choices, and the 2 terms that straighten one of its
        # 2 products, whose columns have height 2, not 6
        params = GrassParams(8, 6, 6)
        assert params.dual() == GrassParams(8, 2, 2)
        [(_, reached, vector, weight, k)] = unreached(params.dual(), 2)
        assert (vector, weight, k) == ((3, 0, 1), (1, 1, 3, 3, 0, 0, 0, 0), 2)
        rows, steps = listing(params.dual(), weight, reached)
        assert (len(rows), steps) == (2, 17)
        total = 1 + 1 + 17 + 2
        assert total == 21
        for triple in ((8, 6, 6), (8, 2, 2)):
            monkeypatch.setenv("GITGR_MAX_ENUM", str(total - 1))
            with pytest.raises(EnumerationCapError) as info:
                reps.generation_in_degree_one(GrassParams(*triple), 2)
            assert (info.value.stage, info.value.requested) == ("generation check", total)
        monkeypatch.undo()
        heights, garnir = set(), reps._garnir

        def recorded(monomial):
            heights.update(map(len, monomial))
            return garnir(monomial)
        monkeypatch.setattr(reps, "_garnir", recorded)
        assert reps.generation_in_degree_one(params, 2)
        assert heights == {2}

    @pytest.mark.parametrize("triple,work", [
        ((6, 3, 3), 102_154), ((9, 3, 3), 9000), ((8, 2, 2), 281_040)])
    def test_block_work_matches_the_oracles(self, triple, work):
        # the echelon work the blocked oracle charges at m = 2, every
        # content block's rows times K_mu^2, from the combination oracle
        # and the tableau enumeration
        assert oracle_block_work(GrassParams(*triple), 2) == work

    @pytest.mark.parametrize("m,work", [(2, 8604), (3, 1_008_828)])
    def test_block_work_of_8_4_4(self, m, work):
        # the blocked oracle's echelon work on the two open degrees of
        # (8, 4, 4) at D = 3, whose 1,045,481 in all passed the cap; the
        # highest weights need 2,667 (test_running_total_step_by_step)
        assert oracle_block_work(GrassParams(8, 4, 4), m) == work

    def test_block_shortfall_is_not_certified(self, monkeypatch):
        # a block short of its K decides the degree at once, with no second
        # try: the one block of (4, 2, 2) at m = 2, the summand (1, 0, 1) of
        # content (1, 1, 1, 1), K = 2, is ranked once, and one less than K
        # makes the check return False
        calls = []

        def short(rows, target, step):
            calls.append(target)
            return target - 1
        monkeypatch.setattr(reps, "_exact_rank", short)
        assert reps.generation_in_degree_one(GrassParams(4, 2, 2), 2) is False
        assert calls == [2]

    def test_balanced_bound_is_the_largest_block(self):
        # the blocked oracle's K-hat: every open degree with n <= 8 and
        # m <= 3, and n = 9 and m = 2, that lists at most 200,000 monomials:
        # no block's K_mu is above K-hat, and one block reaches it
        cases = at_two = 0
        for n in range(2, 10):
            for r in range(1, n):
                for s in range(1, n):
                    params = GrassParams(n, r, s)
                    for m, reached, passed in reps._reachable_vectors(
                            params, 2 if n == 9 else 3, free):
                        if passed or monomial_count(params, reached) > 200_000:
                            continue
                        degree = m * params.d_min
                        bound = reps._kostka(balanced_content(params, degree), r, degree)
                        blocks = content_blocks(params, monomials(params, reached), degree)
                        assert max(kostka(key, r, degree) for key in blocks) == bound, \
                            (n, r, s, m)
                        cases += 1
                        at_two += m == 2
        assert (cases, at_two) == (32, 21)

    def test_weight_zero_contents_dominate_the_balanced_one(self):
        # every content with rsD/n entries on [1, s] and the rest on
        # [s + 1, n], each at most D, sorted, has partial sums at least the
        # blocked oracle's balanced content's: it dominates the balanced
        # content, so its Kostka number is at most K-hat
        def partial_sums(parts):
            parts = sorted(parts, reverse=True)
            return [sum(parts[:k]) for k in range(1, len(parts) + 1)]

        cases = 0
        for n in range(2, 8):
            for r in range(1, n):
                for s in range(1, n):
                    params = GrassParams(n, r, s)
                    for degree in (params.d_min, 2 * params.d_min):
                        balanced = balanced_content(params, degree)
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
        # the blocked oracle's self-check: (4, 2, 2) at m = 2 has
        # K-hat = K_{(2, 2), (1, 1, 1, 1)} = 2, and a _kostka that gives 3
        # to the first block, p13^2 of content (2, 0, 2, 0), breaks the
        # bound before any point is drawn
        kostka_ = reps._kostka
        monkeypatch.setattr(reps, "_kostka", lambda weight, rows, cols:
                            3 if weight == (2, 2) else kostka_(weight, rows, cols))
        monkeypatch.setattr(oracles, "random_minors", no_points)
        with pytest.raises(InvariantViolationError,
                           match=r"K = 3 for content \(2, 0, 2, 0\) .* above 2"):
            blocked_generation(GrassParams(4, 2, 2), 2)

    def test_each_monomial_straightened_once(self, monkeypatch):
        # one memo per block: (8, 4, 4) at D = 3 applies a Garnir relation
        # to each monomial it meets at most once, and a second call does
        # the same work again, keeping nothing between calls
        expanded, garnir = [], reps._garnir

        def recorded(monomial):
            expanded.append(monomial)
            return garnir(monomial)
        monkeypatch.setattr(reps, "_garnir", recorded)
        assert reps.generation_in_degree_one(GrassParams(8, 4, 4), 3)
        first = list(expanded)
        assert len(set(first)) == len(first) > 0
        expanded.clear()
        assert reps.generation_in_degree_one(GrassParams(8, 4, 4), 3)
        assert expanded == first

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
        # verdict of D = top, with the same running totals
        check_budget = errors.check_budget

        def outcome(params, max_degree):
            totals = []

            def budget(amount, stage, what):
                if stage == "generation check":
                    totals.append(amount)
                check_budget(amount, stage=stage, what=what)
                return 0  # no room left, so every charge asks again
            monkeypatch.setattr(errors, "check_budget", budget)
            try:
                verdict = reps.generation_in_degree_one(params, max_degree)
            except EnumerationCapError as error:
                verdict = error.requested
            return verdict, totals

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
        assert (len(verdicts), sum(verdict is True for verdict in verdicts)) == (140, 140)

    def test_kostka_sum_above_h_is_a_violation(self, monkeypatch):
        # the blocked oracle's self-check on the sum of its K_mu
        hilbert = reps.invariant_hilbert
        monkeypatch.setattr(reps, "invariant_hilbert",
                            lambda params, m: hilbert(params, m) - 1)
        with pytest.raises(InvariantViolationError, match="10 > h\\(2\\) = 9"):
            blocked_generation(GrassParams(4, 2, 2), 2)

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

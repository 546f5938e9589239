import random
from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

from gitgr import weyl
from gitgr.errors import InvariantViolationError
from gitgr.params import GrassParams

from oracles import (bruhat_leq_perms, is_reduced, min_coset_rep,
                     minimal_semistable_scan, reduced_word)


def all_params(max_n, min_n=2):
    for n in range(min_n, max_n + 1):
        for r in range(1, n):
            for s in range(1, n):
                yield GrassParams(n, r, s)


class TestEvaluateWord:
    def test_single_transposition(self):
        assert weyl.evaluate_word((1,), 2) == (2, 1)

    def test_empty_word_is_identity(self):
        assert weyl.evaluate_word((), 4) == (1, 2, 3, 4)

    def test_convention_pinned_by_minimal_subset_oracle(self):
        # the word of the minimal semistable element for (5,2,2)
        perm = weyl.evaluate_word((2, 1, 3, 2), 5)
        assert set(perm[:2]) == set(minimal_semistable_scan(5, 2, 2)) == {3, 4}

    def test_letter_out_of_range(self):
        with pytest.raises(ValueError):
            weyl.evaluate_word((4,), 4)
        with pytest.raises(ValueError):
            weyl.evaluate_word((0,), 4)

    @given(st.lists(st.integers(1, 4), max_size=8))
    def test_inversions_never_exceed_length(self, letters):
        perm = weyl.evaluate_word(tuple(letters), 5)
        assert weyl.inversion_count(perm) <= len(letters)
        assert (weyl.inversion_count(perm) - len(letters)) % 2 == 0


class TestReducedWord:
    @given(st.permutations(list(range(1, 7))))
    def test_roundtrip_and_reducedness(self, images):
        perm = tuple(images)
        word = reduced_word(perm)
        assert weyl.evaluate_word(word, 6) == perm
        assert len(word) == weyl.inversion_count(perm)


class TestCosetSubset:
    def test_identity(self):
        assert weyl.coset_subset((1, 2, 3, 4), 2) == (1, 2)

    def test_longest_element(self):
        assert weyl.coset_subset((4, 3, 2, 1), 2) == (3, 4)

    def test_w_sr_5_2_2(self):
        perm = weyl.evaluate_word(weyl.build_w_sr(GrassParams(5, 2, 2)), 5)
        assert weyl.coset_subset(perm, 2) == (3, 4)

    def test_roundtrip_with_min_rep(self):
        for n in range(2, 7):
            for r in range(1, n):
                for subset in combinations(range(1, n + 1), r):
                    rep = min_coset_rep(subset, n)
                    assert weyl.coset_subset(rep, r) == subset
                    # minimal representative length is sum (I_t - t)
                    assert weyl.inversion_count(rep) == sum(
                        i - t for t, i in enumerate(subset, start=1))


class TestBruhatLeq:
    def test_examples(self):
        assert weyl.bruhat_leq((1, 2), (3, 4))
        assert not weyl.bruhat_leq((1, 4), (2, 3))
        assert not weyl.bruhat_leq((2, 3), (1, 4))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            weyl.bruhat_leq((1, 2), (1, 2, 3))

    def test_matches_subword_criterion_on_coset_reps(self):
        for n in range(2, 7):
            for r in range(1, n):
                subsets = list(combinations(range(1, n + 1), r))
                for I, J in product(subsets, repeat=2):
                    expected = bruhat_leq_perms(min_coset_rep(I, n),
                                                min_coset_rep(J, n))
                    assert weyl.bruhat_leq(I, J) == expected, (n, I, J)


class TestBuildWsr:
    def test_small_case_words(self):
        assert weyl.build_w_sr(GrassParams(5, 2, 2)) == (2, 1, 3, 2)
        assert weyl.build_w_sr(GrassParams(3, 2, 2)) == (2,)

    def test_subset_matches_scan_oracle_up_to_9(self):
        for params in all_params(9):
            word = weyl.build_w_sr(params)
            assert is_reduced(word, params.n), params
            perm = weyl.evaluate_word(word, params.n)
            subset = weyl.coset_subset(perm, params.r)
            p, r, s = params.p, params.r, params.s
            closed = tuple(range(1, p + 1)) + tuple(range(s + 1, s + r - p + 1))
            assert subset == closed, params
            assert subset == minimal_semistable_scan(params.n, r, s), params


class TestBuildW0Coset:
    def test_top_cell_of_g24(self):
        params = GrassParams(4, 2, 1)
        word = weyl.build_w0_coset(params)
        assert word == (2, 1, 3, 2)
        perm = weyl.evaluate_word(word, 4)
        assert weyl.coset_subset(perm, 2) == (3, 4)
        assert len(word) == 4

    def test_length_and_shape_up_to_9(self):
        for n in range(2, 10):
            for r in range(1, n):
                params = GrassParams(n, r, 1)
                word = weyl.build_w0_coset(params)
                assert len(word) == r * (n - r)
                assert is_reduced(word, n)
                perm = weyl.evaluate_word(word, n)
                # sends i to n - r + i for i <= r, and fills in increasing order
                assert perm[:r] == tuple(range(n - r + 1, n + 1))
                assert weyl.coset_subset(perm, r) == tuple(range(n - r + 1, n + 1))


class TestFactorWTilde:
    def test_5_2_2_length_bookkeeping(self):
        params = GrassParams(5, 2, 2)
        w_tilde = weyl.factor_w_tilde(params)
        assert len(w_tilde) == 6 - 4 == 2

    def test_boundary_induction_cases_give_identity(self):
        # r + s = n with p = 0 forces w_sr to be the top coset element
        for n in range(3, 10):
            for r, s in ((1, n - 1), (n - 1, 1)):
                params = GrassParams(n, r, s)
                assert params.p == 0
                assert weyl.factor_w_tilde(params) == ()

    def test_each_word_evaluated_once(self, monkeypatch):
        # w~ serves both its length and the product
        params = GrassParams(5, 2, 2)
        expected = {weyl.factor_w_tilde(params): 1, weyl.build_w_sr(params): 1,
                    weyl.build_w0_coset(params): 1}
        words, evaluate = [], weyl.evaluate_word

        def counted(word, n):
            words.append(tuple(word))
            return evaluate(word, n)
        monkeypatch.setattr(weyl, "evaluate_word", counted)
        weyl.factor_w_tilde(params)
        assert {word: words.count(word) for word in words} == expected
        assert len(words) == 3

    def test_factorization_invariant_up_to_9(self):
        for params in all_params(9):
            n = params.n
            w_tilde = weyl.factor_w_tilde(params)
            w_sr = weyl.build_w_sr(params)
            w0 = weyl.build_w0_coset(params)
            assert is_reduced(w_tilde, n)
            assert len(w_tilde) + len(w_sr) == len(w0)
            assert weyl.compose(weyl.evaluate_word(w_tilde, n),
                                weyl.evaluate_word(w_sr, n)) \
                == weyl.evaluate_word(w0, n)

    def test_extension_predicate_up_to_9(self):
        for params in all_params(9):
            n, r, s, p = params.n, params.r, params.s, params.p
            w_tilde = weyl.factor_w_tilde(params)
            absent = not weyl.contains_reflection(w_tilde, s, n)
            assert absent == (p == 0 or (r + s >= n and p == r + s - n)), params

    def test_wrong_closed_form_raises(self, monkeypatch):
        # (5,2,2) has w~ = (3, 4); (4, 3) has the right length but the
        # wrong product, and must not be replaced by a re-derived word
        monkeypatch.setattr(weyl, "_w_tilde_parsed", lambda params: (4, 3))
        with pytest.raises(InvariantViolationError):
            weyl.factor_w_tilde(GrassParams(5, 2, 2))


class TestContainsReflection:
    def test_examples(self):
        assert weyl.contains_reflection((2, 1, 3, 2), 1)
        assert not weyl.contains_reflection((2, 1, 3, 2), 4)

    def test_reduced_word_equals_letter_membership(self):
        for params in all_params(9):
            word = weyl.factor_w_tilde(params)
            for i in range(1, params.n):
                assert weyl.contains_reflection(word, i, params.n) == (i in word)

    def test_matches_subword_oracle_on_arbitrary_words(self):
        rng = random.Random(7)
        n = 6
        words = [w for length in range(5)
                 for w in product(range(1, n), repeat=length)]
        words += [tuple(rng.choice(range(1, n)) for _ in range(length))
                  for length in (5, 6) for _ in range(200)]
        for word in words:
            perm = weyl.evaluate_word(word, n)
            # w fixes everything above n, so s_i with i >= n is never below it
            for i in range(1, n + 3):
                below = i < n and bruhat_leq_perms(weyl.evaluate_word((i,), n), perm)
                assert weyl.contains_reflection(word, i, n) == below, (word, i)

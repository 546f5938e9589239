import random
import time
from itertools import combinations
from math import comb

import pytest

from gitgr import semistability as ss
from gitgr import weyl
from gitgr.errors import EnumerationCapError
from gitgr.params import GrassParams

from oracles import (_key_leq, _prefix_keys, brute_pairs, classify_fixed_points,
                     dual_subset, minimal_semistable_scan, mu, pair_count_walk,
                     pairs_by_packed_keys, weight_of)


def all_params(max_n, min_n=2):
    for n in range(min_n, max_n + 1):
        for r in range(1, n):
            for s in range(1, n):
                yield GrassParams(n, r, s)


class TestWeights:
    def test_known_weights_n3(self):
        params = GrassParams(3, 2, 2)
        assert ss.plucker_weight((1, 2), params) == 2
        assert ss.plucker_weight((1, 3), params) == -1
        assert ss.plucker_weight((2, 3), params) == -1

    def test_known_weights_n4(self):
        params = GrassParams(4, 2, 2)
        assert ss.plucker_weight((1, 2), params) == 4
        assert ss.plucker_weight((3, 4), params) == -4
        for I in ((1, 3), (1, 4), (2, 3), (2, 4)):
            assert ss.plucker_weight(I, params) == 0

    def test_lambda_weights_sum_to_zero(self):
        for params in all_params(8):
            weights = ss.lambda_weights(params)
            assert sum(weights) == 0
            assert weights[:params.s] == (params.n - params.s,) * params.s

    def test_formula_matches_diagonal_sum(self):
        for params in all_params(7):
            for I in combinations(range(1, params.n + 1), params.r):
                assert ss.plucker_weight(I, params) == weight_of(
                    I, params.n, params.r, params.s)

    def test_monotone_along_bruhat_order(self):
        for params in all_params(7):
            subsets = list(combinations(range(1, params.n + 1), params.r))
            for I in subsets:
                for J in subsets:
                    if weyl.bruhat_leq(I, J):
                        assert ss.plucker_weight(I, params) >= ss.plucker_weight(J, params)

    def test_invalid_subsets_rejected(self):
        params = GrassParams(4, 2, 2)
        with pytest.raises(ValueError):
            ss.plucker_weight((1, 2, 3), params)
        with pytest.raises(ValueError):
            ss.plucker_weight((2, 2), params)
        with pytest.raises(ValueError):
            ss.plucker_weight((0, 2), params)

    def test_entries_that_are_not_integers_rejected(self):
        # a float entry is refused by name before the listing compares it
        params = GrassParams(5, 2, 2)
        with pytest.raises(ValueError, match=r"integers: \(4\.0, 5\)"):
            list(ss.enumerate_A(params, w=(4.0, 5)))
        with pytest.raises(ValueError, match="integers"):
            ss.plucker_weight((1, 2.0), params)
        with pytest.raises(ValueError, match="integers"):
            ss.plucker_weight(("1", 2), params)


class TestMu:
    def test_known_values(self):
        assert mu((1, 2), 1, GrassParams(3, 2, 2)) == -2
        assert mu((3, 4), 1, GrassParams(4, 2, 2)) == 4

    def test_zero_weight_gives_zero_both_signs(self):
        params = GrassParams(4, 2, 2)
        assert mu((1, 3), 1, params) == 0 == mu((1, 3), -1, params)

    def test_bad_sign(self):
        with pytest.raises(ValueError):
            mu((1, 2), 2, GrassParams(3, 2, 2))


class TestMinimalSubset:
    def test_examples(self):
        assert ss.minimal_semistable_subset(GrassParams(5, 2, 2)) == (3, 4)
        assert ss.minimal_semistable_subset(GrassParams(3, 2, 2)) == (1, 3)

    def test_matches_exhaustive_scan_up_to_9(self):
        for params in all_params(9):
            assert ss.minimal_semistable_subset(params) == minimal_semistable_scan(
                params.n, params.r, params.s), params

    def test_characterization_equivalence_up_to_9(self):
        # I >= I_w componentwise iff weight(I) <= 0
        for params in all_params(9):
            floor = ss.minimal_semistable_subset(params)
            for I in combinations(range(1, params.n + 1), params.r):
                assert weyl.bruhat_leq(floor, I) == (ss.plucker_weight(I, params) <= 0)


class TestClassifyFixedPoints:
    def test_n4_table(self):
        classes = classify_fixed_points(GrassParams(4, 2, 2))
        assert classes.positive == ((1, 2),)
        assert classes.negative == ((3, 4),)
        assert classes.zero == ((1, 3), (1, 4), (2, 3), (2, 4))

    def test_n3_zero_class_empty(self):
        assert classify_fixed_points(GrassParams(3, 2, 2)).zero == ()

    def test_smallest_case(self):
        classes = classify_fixed_points(GrassParams(2, 1, 1))
        assert classes.positive == ((1,),) and classes.negative == ((2,),)

    def test_zero_class_count_formula(self):
        for params in all_params(8):
            n, r, s = params.n, params.r, params.s
            zero = len(classify_fixed_points(params).zero)
            if (r * s) % n == 0:
                assert zero == comb(s, r * s // n) * comb(n - s, r - r * s // n)
            else:
                assert zero == 0

    def test_budget_exceeded(self, monkeypatch):
        monkeypatch.setenv("GITGR_MAX_ENUM", "3")
        with pytest.raises(EnumerationCapError) as info:
            ss.all_subsets(GrassParams(5, 2, 2))
        assert "cap" in str(info.value)

    def test_budget_error_names_stage_and_size(self, monkeypatch):
        monkeypatch.setenv("GITGR_MAX_ENUM", "3")
        with pytest.raises(EnumerationCapError) as info:
            next(ss.enumerate_A(GrassParams(5, 2, 2)))
        assert (info.value.stage, info.value.requested, info.value.cap) == \
            ("subsets", 10, 3)
        assert "stage: subsets, requested: 10, cap: 3" in str(info.value)


class TestFixedPointCounts:
    def test_closed_form_matches_classes(self):
        for params in all_params(8):
            assert ss.fixed_point_counts(params) == \
                classify_fixed_points(params).counts, params


class TestEnumerateA:
    def test_smallest_case(self):
        assert list(ss.enumerate_A(GrassParams(2, 1, 1))) == [((1,), (2,))]

    def test_3_2_2(self):
        pairs = list(ss.enumerate_A(GrassParams(3, 2, 2)))
        assert pairs == [((1, 2), (1, 3)), ((1, 2), (2, 3))]

    def test_restricted_to_minimal_schubert(self):
        for params in all_params(6):
            floor = ss.minimal_semistable_subset(params)
            pairs = list(ss.enumerate_A(params, w=floor))
            assert all(phi == floor for _, phi in pairs)
            expected = [(v, floor) for v in combinations(range(1, params.n + 1), params.r)
                        if ss.plucker_weight(v, params) > 0 and weyl.bruhat_leq(v, floor)]
            assert pairs == sorted(expected)

    def test_bruhat_and_weight_definitions_agree(self):
        for params in all_params(6):
            floor = ss.minimal_semistable_subset(params)
            subsets = list(combinations(range(1, params.n + 1), params.r))
            bruhat_pairs = sorted(
                (v, phi) for v in subsets for phi in subsets
                if not weyl.bruhat_leq(floor, v) and weyl.bruhat_leq(floor, phi)
                and weyl.bruhat_leq(v, phi))
            assert list(ss.enumerate_A(params)) == bruhat_pairs

    def test_groups_flatten_to_the_pairs(self):
        for params in all_params(7):
            groups = list(ss.pairs_by_v(params))
            assert all(phis for _, phis in groups)
            assert [(v, phi) for v, phis in groups for phi in phis] == \
                brute_pairs(params), params

    @staticmethod
    def _check_one_list_per_join(params, w=None):
        floor = minimal_semistable_scan(params.n, params.r, params.s)
        groups = list(ss.pairs_by_v(params, w))
        # one list per join, and no list shared between two joins
        lists = {(tuple(map(max, v, floor)), id(phis)) for v, phis in groups}
        joins = {join for join, _ in lists}
        assert len({id(phis) for _, phis in groups}) == len(joins) == len(lists), \
            (params, w)
        assert [(v, phi) for v, phis in groups for phi in phis] == \
            brute_pairs(params, w=w), (params, w)

    def test_one_list_per_join_up_to_8(self):
        # the v that share a join v ∨ m0 are yielded one list object, so the
        # join's list is read once, not once per v
        for params in all_params(8):
            self._check_one_list_per_join(params)

    def test_one_list_per_join_for_every_w_up_to_6(self):
        for params in all_params(6):
            for w in combinations(range(1, params.n + 1), params.r):
                self._check_one_list_per_join(params, w)

    def test_near_cap_listing_counts(self):
        params = GrassParams(14, 6, 2)
        assert sum(len(phis) for _, phis in ss.pairs_by_v(params)) == \
            ss.count_pairs(params) == 962_676

    def test_matches_packed_keys_up_to_10(self):
        # the threshold masks give the same groups as the packed-key filter
        # they replaced, for w unset, at m0 and at the top subset
        for params in all_params(10):
            n, r = params.n, params.r
            for w in (None, ss.minimal_semistable_subset(params),
                      tuple(range(n - r + 1, n + 1))):
                assert list(ss.pairs_by_v(params, w)) == \
                    list(pairs_by_packed_keys(params, w)), (params, w)

    def test_sorted_deterministically(self):
        pairs = list(ss.enumerate_A(GrassParams(5, 2, 2)))
        assert pairs == sorted(pairs)

    def test_matches_brute_force_up_to_9(self):
        for params in all_params(9):
            assert list(ss.enumerate_A(params)) == brute_pairs(params), params

    def test_matches_brute_force_for_every_w_up_to_6(self):
        for params in all_params(6):
            for w in combinations(range(1, params.n + 1), params.r):
                assert list(ss.enumerate_A(params, w=w)) == \
                    brute_pairs(params, w=w), (params, w)

    def test_beyond_eight_bit_fields(self):
        # r = 130: prefix counts reach 130 and need 8 bits plus the guard
        for s in (1, 2, 65, 129, 130):
            params = GrassParams(131, 130, s)
            assert list(ss.enumerate_A(params)) == brute_pairs(params), params
        params = GrassParams(131, 130, 65)
        w = tuple(i for i in range(1, 132) if i != 30)
        assert list(ss.enumerate_A(params, w=w)) == brute_pairs(params, w=w)


class TestPackedComparison:
    @pytest.mark.parametrize("n, r", [(4, 2), (9, 4), (260, 130), (300, 150),
                                      (300, 255), (600, 256)])
    def test_matches_componentwise_order(self, n, r):
        key, guard = _prefix_keys(n, r)
        rng = random.Random(f"{n},{r}")
        for _ in range(300):
            v = sorted(rng.sample(range(1, n + 1), r))
            # phi: v with some entries moved up (v <= phi), then maybe one
            # entry moved down (usually incomparable)
            phi = list(v)
            for _ in range(rng.randint(0, 5)):
                t = rng.randrange(r)
                ceiling = phi[t + 1] if t + 1 < r else n + 1
                if phi[t] + 1 < ceiling:
                    phi[t] = rng.randrange(phi[t] + 1, ceiling)
            if rng.random() < 0.5:
                t = rng.randrange(r)
                floor = phi[t - 1] if t else 0
                if floor + 1 < phi[t]:
                    phi[t] = rng.randrange(floor + 1, phi[t])
            for lower, upper in ((v, phi), (phi, v)):
                assert _key_leq(key(lower), key(upper), guard) == \
                    weyl.bruhat_leq(lower, upper), (lower, upper)

    def test_keys_hold_the_prefix_counts(self):
        n, r = 300, 150
        key, _ = _prefix_keys(n, r)
        width = r.bit_length() + 1
        subset = tuple(range(101, 251))
        fields = [key(subset) >> width * i & (1 << width) - 1 for i in range(n)]
        assert fields == [sum(1 for e in subset if e <= i) for i in range(1, n + 1)]


class TestCountPairs:
    def test_matches_enumeration_up_to_9(self):
        for params in all_params(9):
            assert ss.count_pairs(params) == len(list(ss.enumerate_A(params))), params

    def test_restricted_to_minimal_schubert(self):
        # the walk that counted the pairs before the closed form, under phi <= w
        for params in all_params(6):
            floor = ss.minimal_semistable_subset(params)
            assert pair_count_walk(params, w=floor) == \
                len(list(ss.enumerate_A(params, w=floor))), params

    def test_closed_form_matches_walk(self):
        for params in [*all_params(12), GrassParams(120, 60, 2)]:
            assert ss.count_pairs(params) == pair_count_walk(params), params

    def test_large_input_is_fast(self):
        start = time.perf_counter()
        ss.count_pairs(GrassParams(2000, 1000, 2))
        assert time.perf_counter() - start < 1

    def test_pinned_values(self):
        assert ss.count_pairs(GrassParams(5, 2, 2)) == 19
        assert ss.count_pairs(GrassParams(14, 6, 5)) == 1_124_760
        assert ss.count_pairs(GrassParams(30, 12, 10)) == 556_946_539_903_600
        assert ss.count_pairs(GrassParams(30, 18, 20)) == 556_946_539_903_600

    def test_needs_no_budget(self, monkeypatch):
        monkeypatch.setenv("GITGR_MAX_ENUM", "1")
        assert ss.count_pairs(GrassParams(14, 6, 5)) == 1_124_760


class TestSsEqualsStable:
    def test_examples(self):
        assert ss.ss_equals_stable(GrassParams(3, 2, 2))
        assert not ss.ss_equals_stable(GrassParams(4, 2, 2))
        assert not ss.ss_equals_stable(GrassParams(6, 3, 2))


class TestDuality:
    def test_weights_preserved_under_full_duality(self):
        # complement-and-reverse together with s -> n-s preserves weights
        for params in all_params(7):
            dual = params.dual()
            for I in combinations(range(1, params.n + 1), params.r):
                I_dual = dual_subset(I, params.n)
                assert ss.plucker_weight(I, params) == ss.plucker_weight(I_dual, dual)

    def test_pair_count_invariant(self):
        for params in all_params(7):
            assert len(list(ss.enumerate_A(params))) == \
                len(list(ss.enumerate_A(params.dual())))

    def test_complement_alone_swaps_sign(self):
        # fixing s and passing to the plain complement negates weights
        for params in all_params(7):
            flipped = GrassParams(params.n, params.n - params.r, params.s)
            for I in combinations(range(1, params.n + 1), params.r):
                comp = tuple(i for i in range(1, params.n + 1) if i not in I)
                assert ss.plucker_weight(comp, flipped) == -ss.plucker_weight(I, params)

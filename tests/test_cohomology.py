from math import comb

import pytest
from hypothesis import given, strategies as st

from gitgr import cohomology as coh
from gitgr.reps import invariant_hilbert
from gitgr.errors import UnsupportedCaseError
from gitgr.params import GrassParams

from oracles import hook_content_count, ssyt_count


class TestBott:
    def test_p1_degree_two(self):
        assert coh.bott_line_bundle(2, (2,)) == (0, 3)

    def test_p1_minus_one_vanishes(self):
        assert coh.bott_line_bundle(2, (-1,)) is None

    def test_p1_serre_range(self):
        assert coh.bott_line_bundle(2, (-2,)) == (1, 1)
        assert coh.bott_line_bundle(2, (-5,)) == (1, 4)

    def test_grassmannian_weights_match_rectangle_counts(self):
        # global sections of O(b) on G(k, m) count k x b rectangles over m letters
        for m in range(2, 9):
            for k in range(1, m):
                for b in range(0, 7):
                    coeffs = [0] * (m - 1)
                    coeffs[k - 1] = b
                    degree, dim = coh.bott_line_bundle(m, coeffs)
                    assert degree == 0
                    assert dim == hook_content_count((b,) * k, m), (m, k, b)

    def test_small_rectangles_against_enumeration(self):
        for m in range(2, 6):
            for k in range(1, m):
                for b in range(0, 4):
                    coeffs = [0] * (m - 1)
                    coeffs[k - 1] = b
                    _, dim = coh.bott_line_bundle(m, coeffs)
                    assert dim == ssyt_count((b,) * k, m)

    @given(st.integers(2, 5), st.data())
    def test_at_most_one_degree_and_parity(self, m, data):
        coeffs = tuple(data.draw(st.integers(-6, 6)) for _ in range(m - 1))
        out = coh.bott_line_bundle(m, coeffs)
        if out is not None:
            degree, dim = out
            assert 0 <= degree <= m * (m - 1) // 2
            assert dim >= 1

    def test_canonical_bundle_of_g24(self):
        # O(-4) on G(2, 4) is the canonical bundle: one-dimensional H^4 only
        assert coh.bott_line_bundle(4, (0, -4, 0)) == (4, 1)

    def test_serre_duality_on_grassmannian(self):
        # O(-b-4) pairs with O(b) on G(2, 4)
        for b in range(4):
            deg, dim = coh.bott_line_bundle(4, (0, b, 0))
            assert deg == 0
            assert coh.bott_line_bundle(4, (0, -b - 4, 0)) == (4, dim)

    def test_malformed_weight(self):
        with pytest.raises(ValueError):
            coh.bott_line_bundle(3, (1,))


class TestProjSpace:
    def test_examples(self):
        assert coh.proj_space_cohomology(1, 2) == (0, 3)
        assert coh.proj_space_cohomology(3, -2) is None
        assert coh.proj_space_cohomology(3, -5) == (3, comb(4, 3))

    def test_serre_duality(self):
        for dim in range(1, 7):
            for a in range(-dim - 6, -dim):
                top = coh.proj_space_cohomology(dim, a)
                dual = coh.proj_space_cohomology(dim, -a - dim - 1)
                assert top is not None and dual is not None
                assert top == (dim, dual[1])

    def test_vanishing_window(self):
        for dim in range(1, 7):
            for a in range(-dim, 0):
                assert coh.proj_space_cohomology(dim, a) is None

    def test_point(self):
        assert coh.proj_space_cohomology(0, 5) == (0, 1)
        assert coh.proj_space_cohomology(0, -5) == (0, 1)


class TestCohomologyOnX:
    def test_nef_concentrated_in_degree_zero(self):
        # (5,2,2) has p = 0, (5,3,4) has p = 2 with base G(2, 4) in SL(s)
        for params in (GrassParams(5, 2, 2), GrassParams(5, 3, 4)):
            for a in range(4):
                for b in range(4):
                    table = coh.cohomology_on_X(params, a, b)
                    assert list(table) == [0]
        # (6,2,3) is outside the induction case (p = 1, r+s-n = -1)
        for a in range(4):
            for b in range(4):
                with pytest.raises(UnsupportedCaseError):
                    coh.cohomology_on_X(GrassParams(6, 2, 3), a, b)

    def test_5_2_2_product_value(self):
        # base factor dim V(omega_2) over SL(3) = 3, fiber factor Sym^1 of C^4
        assert coh.cohomology_on_X(GrassParams(5, 2, 2), 1, 1) == {0: 12}

    def test_fiber_vanishing_window_kills_table(self):
        params = GrassParams(5, 2, 2)  # fiber P^3
        for a in (-1, -2, -3):
            for b in range(0, 3):
                assert coh.cohomology_on_X(params, a, b) == {}

    def test_single_degree_from_both_twists(self):
        params = GrassParams(5, 2, 2)
        table = coh.cohomology_on_X(params, -6, 1)
        # fiber P^3 contributes degree 3, base degree 0
        assert list(table) == [3]
        assert table[3] == 3 * comb(5, 3)

    def test_boundary_case_is_fiber_only(self):
        params = GrassParams(4, 1, 3)
        assert coh.cohomology_on_X(params, 2, 0) == {0: comb(2 + 2, 2)}
        with pytest.raises(ValueError):
            coh.cohomology_on_X(params, 2, 1)

    def test_matrix_model_4_2_2_is_p3(self):
        params = GrassParams(4, 2, 2)
        for a in range(-6, 7):
            expected = coh.proj_space_cohomology(3, a)
            assert coh.cohomology_on_X(params, a, 0) == \
                (dict([expected]) if expected else {}), a
        for m in range(1, 5):
            assert coh.cohomology_on_X(params, m, 0)[0] == invariant_hilbert(params, m)
        for b in (1, -1):
            with pytest.raises(ValueError, match="b must be 0"):
                coh.cohomology_on_X(params, 1, b)

    def test_boundary_without_structure_raises(self):
        with pytest.raises(UnsupportedCaseError):
            coh.cohomology_on_X(GrassParams(6, 3, 3), 1, 1)

    def test_euler_characteristic(self):
        params = GrassParams(5, 2, 2)
        for a in range(3):
            for b in range(3):
                table = coh.cohomology_on_X(params, a, b)
                assert coh.alternating_sum(table) == table[0]

        def euler(a, b):
            return coh.alternating_sum(coh.cohomology_on_X(params, a, b))
        assert euler(-1, 2) == 0
        assert euler(-2, 5) == 0
        assert euler(-6, 1) == -3 * comb(5, 3)

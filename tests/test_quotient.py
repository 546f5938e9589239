import pytest

from gitgr import cohomology, quotient, reps, weyl
from gitgr.errors import UnsupportedCaseError
from gitgr.params import GrassParams


def all_params(max_n, min_n=2):
    for n in range(min_n, max_n + 1):
        for r in range(1, n):
            for s in range(1, n):
                yield GrassParams(n, r, s)


def induction_params(max_n, min_n=2):
    return (p for p in all_params(max_n, min_n) if quotient.detect_induction_case(p))


class TestDetectInductionCase:
    def test_examples(self):
        assert quotient.detect_induction_case(GrassParams(5, 2, 2))      # p = 0
        assert quotient.detect_induction_case(GrassParams(3, 2, 2))      # p = 1 = r+s-n
        assert not quotient.detect_induction_case(GrassParams(4, 2, 2))  # p = 1, r+s-n = 0
        assert not quotient.detect_induction_case(GrassParams(7, 3, 5))  # p = 2, r+s-n = 1
        assert not quotient.detect_induction_case(GrassParams(6, 2, 3))

    def test_matches_reflection_criterion_up_to_9(self):
        for params in all_params(9):
            w_tilde = weyl.factor_w_tilde(params)
            assert quotient.detect_induction_case(params) == (
                not weyl.contains_reflection(w_tilde, params.s, params.n)), params


class TestBaseFibration:
    def test_5_2_2(self):
        base = quotient.fibration(GrassParams(5, 2, 2))[1]
        assert base.dim == 2 * 3 - 4 == 2
        assert (base.index, base.factor_rank) == (2, 3)
        assert base.factor == "SL(n-s)"

    def test_boundary_is_point(self):
        for n in range(3, 9):
            params = GrassParams(n, 1, n - 1)
            assert quotient.fibration(params)[1] is None
            base = quotient.report(params)["base"]
            assert base["point"] and base["dim"] == 0

    def test_second_branch_sits_in_sl_s(self):
        base = quotient.fibration(GrassParams(6, 2, 5))[1]
        assert base.factor == "SL(s)"
        assert (base.index, base.factor_rank) == (1, 5)

    def test_dimension_identity_up_to_12(self):
        for params in induction_params(12):
            base = quotient.fibration(params)[1]
            base_dim = 0 if base is None else base.dim
            u, v = params.fiber_shape
            assert base_dim + u * v - 1 == params.r * (params.n - params.r) - 1, params

    def test_non_induction_raises(self):
        refused = [p for p in all_params(8) if not quotient.detect_induction_case(p)]
        assert GrassParams(6, 2, 3) in refused and GrassParams(6, 3, 3) in refused
        for params in refused:
            with pytest.raises(UnsupportedCaseError):
                quotient.orbit_stratification(params)
            if (params.n, params.r, params.s) == (4, 2, 2):
                continue  # the explicit matrix model keeps its P^3 structure
            with pytest.raises(UnsupportedCaseError):
                quotient.fibration(params)
            with pytest.raises(UnsupportedCaseError):
                cohomology.cohomology_on_X(params, 1, 1)
            with pytest.raises(UnsupportedCaseError):
                reps.decompose_sections(params, 1, 1)
        model = GrassParams(4, 2, 2)
        assert sum(p.dim for p in reps.decompose_sections(model, 1, 0)) == 4
        assert cohomology.cohomology_on_X(model, 1, 0) == {0: 4}


class TestFibration:
    def test_report_base_reads_fibration(self):
        for params in induction_params(9):
            shape, base = quotient.fibration(params)
            assert shape == params.fiber_shape, params
            assert (base is None) == params.boundary, params
            entry = quotient.report(params)["base"]
            assert entry["point"] == (base is None), params
            assert entry["ambient_index"] == params.k, params
            if base is not None:
                assert entry == {"point": False, "factor": base.factor,
                                 "grassmannian": [base.index, base.factor_rank],
                                 "dim": base.dim, "ambient_index": params.k}, params

    def test_matrix_model_has_no_base(self):
        assert quotient.fibration(GrassParams(4, 2, 2)) == ((2, 2), None)

    def test_other_non_induction_inputs_raise(self):
        for triple in ((6, 2, 3), (6, 3, 3)):
            with pytest.raises(UnsupportedCaseError):
                quotient.fibration(GrassParams(*triple))


class TestOrbitStratification:
    def test_5_2_2_two_orbits(self):
        strata = quotient.orbit_stratification(GrassParams(5, 2, 2))
        assert len(strata) == 2

    def test_wonderful_family_closed_orbit_is_divisor(self):
        for n in range(5, 11):
            params = GrassParams(n, 2, 2)
            strata = quotient.orbit_stratification(params)
            assert len(strata) == 2
            dim_x = params.r * (n - params.r) - 1
            assert strata[-1][1] == dim_x
            assert strata[0][1] == dim_x - 1  # divisor

    def test_top_orbit_is_dense(self):
        for params in induction_params(9):
            strata = quotient.orbit_stratification(params)
            assert strata[-1][1] == params.r * (params.n - params.r) - 1
            dims = [dim for _, dim, _ in strata]
            assert dims == sorted(set(dims))  # strictly increasing chain
            closure = [c for _, _, c in strata]
            assert closure == dims

    def test_orbit_count_formula(self):
        for params in induction_params(9):
            u, v = params.fiber_shape
            assert len(quotient.orbit_stratification(params)) == min(u, v)

    def test_non_induction_raises(self):
        with pytest.raises(UnsupportedCaseError):
            quotient.orbit_stratification(GrassParams(4, 2, 2))


class TestPicardRank:
    def test_case_split(self):
        assert quotient.picard_rank(GrassParams(5, 2, 2)) == 2
        assert quotient.picard_rank(GrassParams(6, 1, 5)) == 1  # r = n - s
        assert quotient.picard_rank(GrassParams(4, 2, 2)) == 1  # r = n - s branch

    def test_point_fiber_or_point_base(self):
        # (n,1,1) and (n,n-1,n-1) have a point fiber P(M_{1x1}): X = P^{n-2}
        for n in range(3, 9):
            assert quotient.picard_rank(GrassParams(n, 1, 1)) == 1, n
            assert quotient.picard_rank(GrassParams(n, n - 1, n - 1)) == 1, n
        assert quotient.picard_rank(GrassParams(2, 1, 1)) == 0  # X is a point
        assert quotient.report(GrassParams(3, 2, 2))["picard_rank"] == 1  # X = P^1

    def test_non_induction_without_model_raises(self):
        with pytest.raises(UnsupportedCaseError):
            quotient.picard_rank(GrassParams(6, 2, 3))


class TestReport:
    def test_golden_3_2_2(self):
        rep = quotient.report(GrassParams(3, 2, 2))
        assert rep["explicit_model"] == ["P^1", 2]
        assert rep["induction_case"]
        assert rep["dim_X"] == 1
        assert rep["fano"] is True
        assert rep["base"]["grassmannian"] == [1, 2]

    def test_golden_4_2_2(self):
        rep = quotient.report(GrassParams(4, 2, 2))
        assert rep["explicit_model"] == ["P^3", 1]
        assert rep["fiber_dims"] == [2, 2]  # the shape of fibration, not (s-p, r-p)
        assert not rep["induction_case"]
        assert rep["dim_X"] == 3
        assert rep["picard_rank"] == 1
        assert rep["fano"] is True
        assert rep["orbit_count"] is None

    def test_full_induction_report_5_2_2(self):
        rep = quotient.report(GrassParams(5, 2, 2))
        assert rep["induction_case"]
        assert rep["picard_rank"] == 2
        assert rep["fano"] is True
        assert rep["wonderful"] is True
        assert rep["aut0"] == "PSL(2) x PSL(3)"
        assert rep["orbit_count"] == 2
        assert rep["dim_X"] == 5

    def test_non_induction_partial(self):
        rep = quotient.report(GrassParams(6, 2, 3))
        assert not rep["induction_case"]
        assert rep["picard_rank"] is None and rep["fano"] is None and rep["aut0"] is None
        assert rep["dim_X"] == 2 * 4 - 1

    def test_ss_eq_stable_field(self):
        assert quotient.report(GrassParams(6, 2, 3))["ss_eq_stable"] is False
        assert quotient.report(GrassParams(5, 2, 2))["ss_eq_stable"] is True

    def test_wonderful_predicate(self):
        # the two-orbit divisor situation: fiber shape (2, 2)
        assert quotient.report(GrassParams(5, 2, 2))["wonderful"]
        assert quotient.report(GrassParams(7, 2, 2))["wonderful"]
        assert quotient.report(GrassParams(5, 3, 3))["wonderful"]  # dual picture
        assert not quotient.report(GrassParams(4, 2, 2))["wonderful"]
        assert not quotient.report(GrassParams(3, 2, 2))["wonderful"]
        assert not quotient.report(GrassParams(6, 2, 5))["wonderful"]

    def test_wonderful_implies_two_orbits_and_divisor(self):
        for params in induction_params(10):
            rep = quotient.report(params)
            if rep["wonderful"]:
                assert rep["orbit_count"] == 2
                assert rep["orbit_dims"][0] == rep["dim_X"] - 1

    def test_duality_agreement_up_to_7(self):
        for params in all_params(7):
            rep = quotient.report(params)
            dual = quotient.report(params.dual())
            for key in ("dim_X", "induction_case", "orbit_count", "orbit_dims",
                        "picard_rank", "wonderful", "ss_eq_stable"):
                assert rep[key] == dual[key], (params, key)

import pytest

from gitgr.params import GrassParams


@pytest.mark.parametrize("fields,name", [
    ((5.0, 2, 2), "n"), ((5, 2.0, 2), "r"), ((5, 2, "2"), "s"),
    ((5, True, 2), "r"), ((True, 1, 1), "n"), ((5, 2, None), "s"),
])
def test_non_int_fields_are_refused_by_name(fields, name):
    # a float n used to pass the range checks and fail later in d_min with a
    # TypeError; bool is an int subclass but not a dimension
    with pytest.raises(ValueError, match=f"^{name} must be an int"):
        GrassParams(*fields)


def test_int_fields_are_kept():
    params = GrassParams(5, 2, 2)
    assert (params.n, params.r, params.s, params.d_min) == (5, 2, 2, 5)

import doctest

import pytest

from gitgr import cohomology, params, plucker, quotient, reps, semistability, weyl


@pytest.mark.parametrize("module", [
    weyl, semistability, quotient, cohomology, reps, params, plucker,
])
def test_doctests(module):
    failures, _ = doctest.testmod(module, verbose=False)
    assert failures == 0

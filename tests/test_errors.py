import pytest

from gitgr import errors
from gitgr.errors import EnumerationCapError


def test_running_budget_reads_the_cap_when_its_room_runs_out(monkeypatch):
    # the first charge reads the cap of 5 and leaves room 3; the second
    # fits in that room; the third brings the total to 6, reads the cap
    # again and is refused.  ``what`` is built only when the cap is read
    reads, built, cap = [], [], errors.enumeration_cap
    monkeypatch.setenv(errors.ENUM_CAP_ENV, "5")
    monkeypatch.setattr(errors, "enumeration_cap", lambda: reads.append(1) or cap())
    charge = errors.running_budget("test stage")

    def what(name):
        return lambda: built.append(name) or name
    charge(2, what("first"))
    charge(2, what("second"))
    assert (len(reads), built) == (1, ["first"])
    with pytest.raises(EnumerationCapError) as info:
        charge(2, what("third"))
    assert (info.value.stage, info.value.requested, info.value.cap) == ("test stage", 6, 5)
    assert (len(reads), built) == (2, ["first", "third"])
    assert str(info.value) == ("test stage: charging third takes the running total past "
                               "the enumeration cap (stage: test stage, requested: 6, cap: 5)")

"""Error types and the global enumeration budget."""

import os

DEFAULT_ENUM_CAP = 10**6

#: Environment variable that overrides the enumeration cap.
ENUM_CAP_ENV = "GITGR_MAX_ENUM"


class EnumerationCapError(RuntimeError):
    """An enumeration would exceed the configured budget.

    ``stage`` names the step that asked, ``requested`` the number of objects
    it would have enumerated and ``cap`` the budget; the message names all
    three.
    """

    def __init__(self, message: str, cap: int, *, stage: str, requested: int):
        super().__init__(
            f"{message} (stage: {stage}, requested: {requested}, cap: {cap})")
        self.cap = cap
        self.stage = stage
        self.requested = requested


class UnsupportedCaseError(RuntimeError):
    """The requested structure is only defined in the induction case."""


class InvariantViolationError(RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""


def check_budget(requested: int, *, stage: str, what: str) -> int:
    """Raise EnumerationCapError when ``requested`` objects exceed the cap,
    and otherwise return the room left, the cap minus ``requested``.

    This is the one place that reads the cap.  ``stage`` names the step
    that asks and ``what`` is the message; the error appends the stage,
    the requested size and the cap.
    """
    cap = enumeration_cap()
    if requested > cap:
        raise EnumerationCapError(what, cap, stage=stage, requested=requested)
    return cap - requested


def running_budget(stage: str):
    """A ``charge(amount, what)`` that adds ``amount`` to one running total
    at ``stage``, refused by ``check_budget`` once it passes the cap.

    The cap is read again only when the room its last read left runs out,
    so a charge within that room costs a subtraction.  ``what`` is a
    callable that names the work just charged; it is called only when the
    cap is read, to build the message ``"<stage>: charging <what()> takes
    the running total past the enumeration cap"``.
    """
    total = room = 0

    def charge(amount: int, what) -> None:
        nonlocal total, room
        total += amount
        room -= amount
        if room < 0:
            room = check_budget(total, stage=stage, what=f"{stage}: charging {what()} "
                                "takes the running total past the enumeration cap")
    return charge


def enumeration_cap() -> int:
    """Current enumeration cap, read from GITGR_MAX_ENUM if set."""
    raw = os.environ.get(ENUM_CAP_ENV)
    if raw is None:
        return DEFAULT_ENUM_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{ENUM_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap <= 0:
        raise ValueError(f"{ENUM_CAP_ENV} must be positive, got {cap}")
    return cap

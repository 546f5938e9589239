import ast
import doctest
from pathlib import Path

import pytest

import gitgr
import oracles
from gitgr import cohomology, params, quotient, reps, semistability, weyl


@pytest.mark.parametrize("module", [
    weyl, semistability, quotient, cohomology, reps, params, oracles,
])
def test_doctests(module):
    failures, _ = doctest.testmod(module, verbose=False)
    assert failures == 0


def test_readme_session():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    failures, tried = doctest.testfile(str(readme), module_relative=False,
                                       optionflags=doctest.ELLIPSIS)
    assert failures == 0 and tried > 0


def test_no_assert_statements():
    # `python -O` strips assert statements, so internal invariants in the
    # library raise InvariantViolationError instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(gitgr.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def _name(node):
    if isinstance(node, ast.Call):
        node = node.func
    return getattr(node, "id", None) or getattr(node, "attr", None) or \
        getattr(node, "name", None)


def test_budget_checked_only_in_errors():
    # errors.check_budget is the one place that reads the cap and raises:
    # no other module constructs EnumerationCapError or names enumeration_cap
    found = [f"{path.name}:{getattr(node, 'lineno', 0)}"
             for path in sorted(Path(gitgr.__file__).parent.glob("*.py"))
             if path.name != "errors.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if (isinstance(node, ast.Call) and _name(node) == "EnumerationCapError")
             or (isinstance(node, (ast.Name, ast.Attribute, ast.alias))
                 and _name(node) == "enumeration_cap")]
    assert found == []


def test_model_of_x_built_only_in_quotient():
    # quotient.fibration is the one model of X: no other module reads the
    # shape, the boundary or the explicit models, or builds a base itself
    model_names = {"fiber_shape", "boundary", "EXPLICIT_MODELS"}
    found = [f"{path.name}:{getattr(node, 'lineno', 0)}"
             for path in sorted(Path(gitgr.__file__).parent.glob("*.py"))
             if path.name not in ("quotient.py", "params.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if (isinstance(node, ast.Call) and _name(node) == "BaseFibration")
             or (isinstance(node, (ast.Name, ast.Attribute, ast.alias))
                 and _name(node) in model_names)]
    assert found == []


def _own_nodes(function):
    """The nodes of ``function``'s body, outside the functions it defines."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def test_one_running_budget():
    # errors.running_budget is the one home of a running total against the
    # cap: its charge is the one function in src/gitgr that counts a room
    # down, and reps._hilbert_values makes the one call that opens the
    # "Levi branching" stage, which both commands and invariant_hilbert
    # reach, so no degree's summands are counted twice
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(gitgr.__file__).parent.glob("*.py"))}
    counters = [f"{name}:{function.name}" for name, tree in trees.items()
                for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
                if any(isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Sub)
                       and isinstance(node.target, ast.Name)
                       for node in _own_nodes(function))]
    assert counters == ["errors.py:charge"]
    levi = [f"{name}:{_name(node)}" for name, tree in trees.items()
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            and any(isinstance(arg, ast.Constant) and arg.value == "Levi branching"
                    for arg in [*node.args, *(keyword.value for keyword in node.keywords)])]
    assert levi == ["reps.py:running_budget"]


def test_no_sampling_in_the_library():
    # the normality check is exact: its point path over F_p, with its
    # seeds, retries and the error for a shortfall it could not decide, is
    # the oracle in tests/oracles.py, and no module of src/gitgr samples
    package = Path(gitgr.__file__).parent
    assert not (package / "plucker.py").exists()
    gone = {"plucker", "random", "_ATTEMPTS", "_point_columns", "_block_rank",
            "NotCertifiedError"}
    found = [f"{path.name}:{getattr(node, 'lineno', 0)}:{name}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             for name in (
                 [alias.name for alias in node.names] if isinstance(node, ast.Import)
                 else [node.module or "", *(alias.name for alias in node.names)]
                 if isinstance(node, ast.ImportFrom)
                 else [_name(node)] if isinstance(node, (ast.Name, ast.Attribute))
                 else [node.name] if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 else [])
             if name in gone]
    assert found == []

"""The package's public surface: one object per exported name."""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

import wpchow

SUBMODULES = ["blowup", "cli", "curves", "graded", "intlinalg", "poly", "report", "wps"]
MODULES = [importlib.import_module(f"wpchow.{name}") for name in SUBMODULES]

# Public names taken out of the package; none may come back into an __all__.
RETIRED_NAMES = [
    "ExceptionalSquare",
    "RestrictionHom",
    "WeightedGrading",
    "determinant",
    "invariant_factors",
    "pieces_equal",
    "restriction_hom",
]
# (class, member) pairs taken out with them.
RETIRED_MEMBERS = [
    (wpchow.BlowupData, "ambient_grading"),
    (wpchow.GradedPresentation, "generator_degree"),
    (wpchow.Poly, "coefficient"),
    (wpchow.WeightedProjectiveStack, "of"),
]


@pytest.mark.parametrize("name", [n for n in wpchow.__all__ if n != "__version__"])
def test_every_package_name_is_its_submodule_object(name):
    owners = [module for module in MODULES if name in module.__all__]
    assert len(owners) == 1, f"{name} is listed by {[m.__name__ for m in owners]}"
    assert getattr(wpchow, name) is getattr(owners[0], name)


def test_version_is_the_version_module_string():
    assert wpchow.__version__ is importlib.import_module("wpchow.version").__version__


def test_no_all_lists_a_retired_name():
    for module in [wpchow, *MODULES]:
        assert not set(RETIRED_NAMES) & set(module.__all__), module.__name__
        for name in RETIRED_NAMES:
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_readme_names_no_retired_name():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    spans = re.findall(r"`([^`\n]+)`", readme)
    assert not set(re.findall(r"\w+", " ".join(spans))) & set(RETIRED_NAMES)


@pytest.mark.parametrize(
    "cls, member", RETIRED_MEMBERS, ids=[f"{c.__name__}.{m}" for c, m in RETIRED_MEMBERS]
)
def test_retired_members_are_gone(cls, member):
    assert not hasattr(cls, member)


def _traced_entry_points():
    """The ``TRACED`` list of the benchmark's tracer, read without importing it."""
    source = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    for node in ast.parse(source.read_text(encoding="utf-8")).body:
        targets = [getattr(target, "id", None) for target in getattr(node, "targets", ())]
        if targets == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED list in {source}")


def test_every_traced_entry_point_resolves():
    # The benchmark wraps these names; one that no longer resolves would
    # stop every traced run.
    traced = _traced_entry_points()
    assert ("graded", "graded_piece") in traced and ("intlinalg", "cokernel") in traced
    for module_name, attribute in traced:
        module = importlib.import_module(f"wpchow.{module_name}")
        assert callable(getattr(module, attribute, None)), f"wpchow.{module_name}.{attribute}"
    assert "__mul__" in vars(wpchow.Poly)


def test_every_lru_cache_has_a_finite_maxsize():
    # A cache that grows with the traffic grows the process with it.
    package = Path(wpchow.__file__).resolve().parent
    sizes = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.alias):
                assert node.name != "cache", f"{path.name}: functools.cache is unbounded"
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name not in ("lru_cache", "cache"):
                continue
            where = f"{path.name}:{node.lineno}"
            assert name == "lru_cache" and id(node) in calls, f"{where}: {name} without maxsize"
            call = calls[id(node)]
            size = call.args[:1] + [kw.value for kw in call.keywords if kw.arg == "maxsize"]
            assert len(size) == 1 and isinstance(size[0], ast.Constant), where
            assert type(size[0].value) is int and size[0].value > 0, where
            sizes.append((path.name, size[0].value))
    assert sum(module == "graded.py" for module, _ in sizes) == 3


def _caught_names(handler: ast.ExceptHandler) -> set:
    caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {getattr(node, "id", None) or getattr(node, "attr", None) for node in caught}


def test_main_alone_maps_a_cli_failure_to_an_exit_code():
    # The commands only compute and print; a handler of their own would
    # fork the failure paths that main unifies.
    source = Path(wpchow.__file__).resolve().parent / "cli.py"
    tree = ast.parse(source.read_text(encoding="utf-8"))
    failures = {"AssemblyMismatchError", "SingularCurveError", "ValueError"}
    handlers = {
        function.name: [node for node in ast.walk(function) if isinstance(node, ast.ExceptHandler)]
        for function in tree.body
        if isinstance(function, ast.FunctionDef)
    }
    assert failures <= set().union(*map(_caught_names, handlers.pop("main")))
    for name, found in handlers.items():
        if name.startswith("_cmd_"):
            allowed = [{"OSError"}] if name == "_cmd_verify" else []
            assert [_caught_names(handler) for handler in found] == allowed, name
        for handler in found:
            # Only argparse's type functions catch a ValueError, to raise
            # its ArgumentTypeError instead; argparse picks the exit code.
            if _caught_names(handler) & failures:
                assert isinstance(handler.body[-1], ast.Raise), f"{name}:{handler.lineno}"

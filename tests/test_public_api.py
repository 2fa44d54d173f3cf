"""Public API surface: imports, __all__ hygiene, docstring presence."""

import importlib
import inspect

import pytest

import repro

SUBPACKAGES = [
    "repro.core",
    "repro.graph",
    "repro.akg",
    "repro.stream",
    "repro.text",
    "repro.datasets",
    "repro.baselines",
    "repro.eval",
    "repro.pipeline",
    "repro.api",
    "repro.extract",
]

MODULES = [
    "repro.config",
    "repro.errors",
    "repro.interning",
    "repro.cli",
    "repro.core.atoms",
    "repro.core.clusters",
    "repro.core.maintenance",
    "repro.core.ranking",
    "repro.core.events",
    "repro.core.changelog",
    "repro.core.incremental",
    "repro.core.postprocess",
    "repro.graph.dynamic_graph",
    "repro.graph.biconnected",
    "repro.akg.idsets",
    "repro.akg.burstiness",
    "repro.akg.minhash",
    "repro.akg.builder",
    "repro.akg.ckg_stats",
    "repro.pipeline.reports",
    "repro.pipeline.report_index",
    "repro.pipeline.stages",
    "repro.api.session",
    "repro.api.session_events",
    "repro.api.sinks",
    "repro.api.checkpoint",
    "repro.api.deltalog",
    "repro.stream.messages",
    "repro.stream.window",
    "repro.stream.sources",
    "repro.text.tokenize",
    "repro.text.stopwords",
    "repro.text.pos",
    "repro.text.synonyms",
    "repro.extract.base",
    "repro.extract.keyword",
    "repro.extract.structured",
    "repro.extract.edges",
    "repro.datasets.vocab",
    "repro.datasets.events",
    "repro.datasets.synthetic",
    "repro.datasets.traces",
    "repro.datasets.entity_streams",
    "repro.datasets.headlines",
    "repro.datasets.figure1",
    "repro.baselines.offline_bc",
    "repro.baselines.tracking",
    "repro.eval.matching",
    "repro.eval.metrics",
    "repro.eval.filtering",
    "repro.eval.quality",
    "repro.eval.runner",
    "repro.eval.comparison",
    "repro.eval.reporting",
    "repro.serve.client",
    "repro.serve.hub",
    "repro.serve.manager",
    "repro.serve.server",
    "repro.serve.wire",
]


@pytest.mark.parametrize("module_name", SUBPACKAGES + MODULES)
def test_module_imports_and_documented(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"


@pytest.mark.parametrize("module_name", SUBPACKAGES + MODULES)
def test_all_entries_exist(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"


def test_top_level_exports():
    for name in repro.__all__:
        assert hasattr(repro, name)
    assert repro.__version__


@pytest.mark.parametrize("module_name", MODULES)
def test_public_classes_and_functions_documented(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__doc__, f"{module_name}.{name} lacks a docstring"


def test_no_public_callable_has_an_oracle_parameter():
    """``src/`` holds what production runs: a from-scratch referee is a
    test-side subclass (``tests/oracles.py``), never a mode of a public
    class, method or function."""
    offenders = []
    for module_name in SUBPACKAGES + MODULES:
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if inspect.isclass(obj):
                callables = [(name, obj)] + [
                    (f"{name}.{attr}", member)
                    for attr, member in vars(obj).items()
                    if inspect.isfunction(member) and not attr.startswith("_")
                ]
            elif inspect.isfunction(obj):
                callables = [(name, obj)]
            else:
                continue
            for qualname, fn in callables:
                try:
                    params = inspect.signature(fn).parameters
                except (TypeError, ValueError):
                    continue
                if "oracle" in params:
                    offenders.append(f"{module_name}.{qualname}")
    assert not offenders, f"oracle parameters in src/: {offenders}"


def test_version_matches_pyproject():
    from pathlib import Path

    pyproject = Path(repro.__file__).resolve().parents[2] / "pyproject.toml"
    if pyproject.exists():
        assert f'version = "{repro.__version__}"' in pyproject.read_text()

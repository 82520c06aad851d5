"""The public surface: the exported names, the module layout, and the demos."""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import ecnn

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
SOURCES = sorted((ROOT / "src" / "ecnn").glob("*.py"))

PUBLIC_API = [
    "__version__",
    # domain
    "Dataset",
    "SplitAB",
    "PrevNeuron",
    "Feature",
    "InputSource",
    "NeuronSpec",
    "FeatureStats",
    "CascadeModel",
    "TrainConfig",
    "FitnessRecord",
    "require_valid_dataset",
    "require_finite_features",
    # errors
    "EcnnError",
    "DataError",
    "ModelFormatError",
    # fitting
    "SIGMOID_CLAMP",
    "FitResult",
    "sigmoid",
    "design_matrix",
    "init_weights",
    "fit_neuron",
    "fit_neuron_from_init",
    # cascade
    "forward_batch",
    "classify_batch",
    "used_features",
    "error_rate",
    # evolve
    "STOP_FEATURES_EXHAUSTED",
    "STOP_MAX_LAYERS",
    "AcceptedRecord",
    "RejectedRecord",
    "EvolveTrace",
    "RunSummary",
    "child_seed",
    "rng_for_run",
    "select_best",
    "multi_run",
    # data io
    "SynthTruth",
    "load_csv",
    "load_matrix_csv",
    "write_csv",
    "normalize",
    "split_odd_even",
    "split_train_test",
    "synth_dataset",
    # model io
    "FORMAT_VERSION",
    "save_model",
    "load_model",
    "dump_canonical_json",
    "model_to_payload",
    "payload_to_model",
]


class TestExports:
    def test_all_is_pinned(self):
        assert ecnn.__all__ == PUBLIC_API

    def test_each_export_is_the_object_of_the_one_module_that_lists_it(self):
        # The library modules: all but the command line and private modules.
        modules = [
            importlib.import_module(f"ecnn.{path.stem}") for path in SOURCES
            if not path.stem.startswith("_") and path.stem != "cli"
        ]
        listed = [(name, module) for module in modules for name in module.__all__]
        names = [name for name, _ in listed]
        assert len(names) == len(set(names))
        assert sorted(names) == sorted(set(ecnn.__all__) - {"__version__"})
        assert [
            name for name, module in listed
            if getattr(ecnn, name) is not getattr(module, name)
        ] == []

    def test_every_exported_name_resolves(self):
        assert [name for name in PUBLIC_API if not hasattr(ecnn, name)] == []

    def test_test_only_helpers_are_not_exported(self):
        removed = ["neuron_output", "error_vector", "forward", "classify",
                   "accuracy", "rank_features", "anchor_model", "build_candidate",
                   "validate_dataset", "validation_error", "projection_update",
                   "SingularInputError"]
        assert [name for name in removed if hasattr(ecnn, name)] == []

    def test_every_export_has_a_caller_outside_the_tests(self):
        used = set().union(
            *(referenced_names(path) for path in SOURCES if path.name != "__init__.py"),
            *(referenced_names(path) for path in DEMOS),
        )
        assert [name for name in ecnn.__all__ if name not in used] == []

    def test_scan_counts_names_attributes_and_imports(self, tmp_path):
        module = tmp_path / "module.py"
        module.write_text(
            "from pkg.sub import imported\n"
            "import pkg.deep.module_name\n"
            "def caller():\n"
            "    return loaded(pkg.attribute)\n",
            encoding="utf-8",
        )
        names = referenced_names(module)
        assert {"imported", "module_name", "loaded", "attribute"} <= names

    def test_scan_skips_strings_and_own_definitions(self, tmp_path):
        module = tmp_path / "module.py"
        module.write_text(
            '"""Mentions in_docstring."""\n'
            '__all__ = ["in_all"]\n'
            "def recursive():\n"
            "    return recursive()\n"
            "class Own:\n"
            "    def method(self):\n"
            "        return Own\n",
            encoding="utf-8",
        )
        names = referenced_names(module)
        assert names.isdisjoint({"in_docstring", "in_all", "recursive", "Own"})


def referenced_names(path):
    """Names a module reads: loaded names, attributes and imported names.

    A top-level function or class does not count as a reference to itself,
    and strings (docstrings, ``__all__``) are not references.
    """
    names = set()
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        found = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                found.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.discard(top.name)
        names |= found
    return names


def where_named(name):
    """Where the sources name ``name``: ``(module, owner)`` pairs, the owner
    being the top-level function or class it appears in, else the kind of
    top-level statement (``ImportFrom`` for a from-import)."""
    places = set()
    for path in SOURCES:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                named = (
                    getattr(node, "id", None), getattr(node, "attr", None),
                    getattr(node, "name", None), getattr(node, "asname", None),
                )
                if name in named:
                    places.add((path.stem, getattr(top, "name", type(top).__name__)))
    return places


class TestOneOwner:
    def test_expit_is_named_only_in_sigmoid_and_its_import(self):
        # The sigmoid's formula is written once, so replacing it edits one function.
        want = {("fitting", "ImportFrom"), ("fitting", "sigmoid")}
        assert where_named("expit") == want

    def test_the_sigmoid_clamp_has_no_second_owner(self):
        assert where_named("_clamp") == set()

    @pytest.mark.parametrize("name", ["_target_messages", "_cell_messages"])
    def test_the_data_contract_is_written_only_in_domain(self, name):
        places = where_named(name)
        assert places and {module for module, _ in places} == {"domain"}

    def test_no_second_target_check_remains(self):
        assert where_named("_require_binary_targets") == set()

    def test_line_ranges_finds_its_own_cuts(self):
        # The pass that counts the body's lines finds the cuts too.
        assert where_named("_line_start") == set()

    def test_forward_batch_takes_whole_rows_only(self):
        assert list(inspect.signature(ecnn.forward_batch).parameters) == [
            "model", "features"
        ]

    def test_the_width_rule_is_written_only_in_domain(self):
        # Everything else asks the model's require_width.
        places = where_named("required_features")
        assert places and {module for module, _ in places} == {"domain"}


class TestModuleNames:
    def test_ecnn_evolve_is_the_module(self):
        import ecnn.evolve as E

        assert isinstance(E, types.ModuleType)
        assert E is importlib.import_module("ecnn.evolve")
        assert callable(E.evolve)


class TestImportCost:
    def test_importing_the_cli_loads_no_process_pool(self):
        # The pool modules load only when a fork pool starts.  numpy.testing,
        # which scipy imports, already loads concurrent.futures' base.
        script = (
            "import sys, ecnn.cli\n"
            "print(sorted(name for name in ('multiprocessing', "
            "'concurrent.futures.process') if name in sys.modules))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, check=True, timeout=60,
        )
        assert result.stdout == "[]\n"


class TestTracedNames:
    def test_every_name_the_bench_tracer_wraps_is_callable(self, monkeypatch):
        # A rename or an inlined function would silently drop a traced span.
        monkeypatch.syspath_prepend(str(ROOT / "bench"))
        tracer = importlib.import_module("tracer")
        import ecnn.cli

        points = tracer.patch_points(ecnn.cli, sys.modules["ecnn.evolve"])
        assert points
        assert [
            (namespace.__name__, attribute)
            for namespace, attribute, *_ in points
            if not callable(getattr(namespace, attribute, None))
        ] == []


def declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    return {
        re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower().replace("-", "_")
        for spec in project["dependencies"]
    }


def absolute_imports(path):
    """The dotted name of everything ``path`` imports by absolute path: a
    module, or ``module.name`` for each name a from-import takes."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def third_party_imports():
    imported = set().union(*(absolute_imports(path) for path in SOURCES))
    local = set(sys.stdlib_module_names) | {"ecnn"}
    return {name for name in imported if name.split(".")[0] not in local}


class TestDependencies:
    def test_every_third_party_import_is_declared(self):
        third_party = {name.split(".")[0] for name in third_party_imports()}
        assert third_party  # the scan found the numeric stack
        assert sorted(third_party - declared_dependencies()) == []

    def test_no_private_third_party_module_is_imported(self):
        # A private module such as numpy._core moves between releases the
        # declared version ranges admit (numpy 1.24 has no numpy._core).
        private = [
            name for name in third_party_imports()
            if any(part.startswith("_") for part in name.split("."))
        ]
        assert private == []


def test_a_failing_hypothesis_test_reports_its_example(tmp_path):
    # Under the repo's warnings-as-errors filter, hypothesis's failure report
    # imports a module that warns; unfiltered, pytest stops with INTERNALERROR.
    pytest.importorskip("hypothesis")
    test = tmp_path / "test_fails.py"
    test.write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n",
        encoding="utf-8",
    )
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", str(test)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "Falsifying example" in result.stdout
    assert "INTERNALERROR" not in result.stdout + result.stderr


def run_with_warnings_as_errors(script, cwd):
    """Run ``python -W error`` on ``script`` (its arguments) with the
    sources on the path; the finished process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-W", "error", *script], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    result = run_with_warnings_as_errors([str(demo)], tmp_path)
    assert (result.returncode, result.stderr) == (0, "")


def test_readme_library_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = re.search(r"```python\n(.*?)```", readme, re.DOTALL).group(1)
    result = run_with_warnings_as_errors(["-c", example], tmp_path)
    assert (result.returncode, result.stderr) == (0, "")

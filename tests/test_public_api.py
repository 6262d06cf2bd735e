"""Meta-tests on the public API surface.

Every name a subpackage exports must be importable and carry a docstring —
the library's contract that "doc comments on every public item" actually
holds, enforced mechanically.
"""

import importlib
import importlib.util
import inspect
import os

import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.network",
    "repro.encoding",
    "repro.simulator",
    "repro.core",
    "repro.oracles",
    "repro.algorithms",
    "repro.lowerbounds",
    "repro.analysis",
    "repro.agent",
    "repro.cli",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
class TestPublicSurface:
    def test_module_has_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and module.__doc__.strip()

    def test_all_names_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"

    def test_public_callables_documented(self, module_name):
        module = importlib.import_module(module_name)
        undocumented = []
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                if not (inspect.getdoc(obj) or "").strip():
                    undocumented.append(name)
        assert not undocumented, f"{module_name}: missing docstrings on {undocumented}"


class TestPublicClasses:
    def test_public_methods_documented(self):
        """Every public method and property of every class a public module
        exports has a docstring, its own or the one it overrides."""
        missing = []
        for module_name in PUBLIC_MODULES:
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                obj = getattr(module, name)
                if not inspect.isclass(obj):
                    continue
                for attr_name, attr in vars(obj).items():
                    if attr_name.startswith("_") or not (
                        inspect.isfunction(attr)
                        or isinstance(attr, (property, classmethod, staticmethod))
                    ):
                        continue
                    if not (inspect.getdoc(getattr(obj, attr_name)) or "").strip():
                        missing.append(f"{module_name}.{name}.{attr_name}")
        assert not missing, f"undocumented public methods: {missing}"

    def test_version_string(self):
        import repro

        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)


def _gen_api_docs():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "gen_api_docs.py")
    spec = importlib.util.spec_from_file_location("gen_api_docs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _constants_without_their_own_line(gen):
    """Exported constants that docs/API.md describes by their type's
    docstring, or by nothing."""
    wrong = []
    for module_name in gen.MODULES:
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if gen.kind_of(obj) != "constant":
                continue
            line = gen.describe(name, obj)
            if line in (gen.first_line(type(obj)), gen.NO_COMMENT):
                wrong.append(f"{module_name}.{name}: {line}")
    return wrong


class TestApiDocs:
    def test_constants_are_described_by_their_comments(self):
        wrong = _constants_without_their_own_line(_gen_api_docs())
        assert not wrong, f"constants without a #: comment: {wrong}"

    def test_type_docstring_is_caught(self, monkeypatch):
        """A generator describing constants by docstring alone fails the check."""
        gen = _gen_api_docs()
        monkeypatch.setattr(gen, "describe", lambda name, obj: gen.first_line(obj))
        wrong = _constants_without_their_own_line(gen)
        assert "repro.FAMILY_BUILDERS: dict() -> new empty dictionary" in wrong

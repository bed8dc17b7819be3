"""The package's public names: the README's list, the README's references
into the package, and what the benchmark uses."""

import dataclasses
import importlib
import importlib.util
import re
from pathlib import Path

import polyperc

ROOT = Path(__file__).resolve().parents[1]


def readme_public_section():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split("### Public names\n", 1)[1].split("\n#", 1)[0]


def readme_public_names():
    """{module: [names]} from the README's "Public names" section."""
    listed = {}
    for line in readme_public_section().splitlines():
        match = re.match(r"- `(\w+)`: (.*)", line)
        if match:
            listed[match.group(1)] = re.findall(r"`(\w+)`", match.group(2))
    return listed


def test_all_matches_readme_list():
    listed = readme_public_names()
    names = [name for group in listed.values() for name in group]
    assert sorted(polyperc.__all__) == sorted(names)
    stated = re.search(r"exports exactly these (\d+) names", readme_public_section())
    assert stated and int(stated.group(1)) == len(polyperc.__all__)
    assert len(set(polyperc.__all__)) == len(polyperc.__all__)
    for module, group in listed.items():
        source = importlib.import_module(f"polyperc.{module}")
        for name in group:
            assert getattr(polyperc, name) is getattr(source, name), name


def test_each_module_all_is_its_readme_line():
    for module, group in readme_public_names().items():
        source = importlib.import_module(f"polyperc.{module}")
        assert source.__all__ == group, module
        assert len(set(group)) == len(group), module


def is_submodule(name):
    return importlib.util.find_spec(f"polyperc.{name}") is not None


def test_benchmark_uses_only_exported_names():
    sources = sorted((ROOT / "pipebench").glob("*.py"))
    assert sources
    used = set()
    imported = set()
    for path in sources:
        text = path.read_text(encoding="utf-8")
        used |= set(re.findall(r"(?<![\w.])(?:pp|polyperc)\.(\w+)", text))
        for module, names in re.findall(
            r"^\s*from polyperc(?:\.(\w+))? import ([\w, ]+)$", text, re.M
        ):
            imported |= {(module, n.strip()) for n in names.split(",")}
    assert used
    for name in sorted(used):
        if name.startswith("__") or is_submodule(name):
            continue
        assert name in polyperc.__all__, f"pipebench uses polyperc.{name}"
    for module, name in sorted(imported):
        source = importlib.import_module(
            f"polyperc.{module}" if module else "polyperc"
        )
        assert hasattr(source, name), f"pipebench imports {name} from {source.__name__}"


def test_readme_references_resolve():
    """Each backticked ``module.name`` naming a package module is an
    attribute of that module, and each ``Class.attr`` naming a public
    class is a class attribute or a dataclass field of it."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    kinds = set()
    for owner, name in re.findall(r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)`", text):
        if is_submodule(owner):
            source, kind = importlib.import_module(f"polyperc.{owner}"), "module"
        elif owner in polyperc.__all__ and isinstance(getattr(polyperc, owner), type):
            source, kind = getattr(polyperc, owner), "class"
        else:
            continue
        fields = {f.name for f in dataclasses.fields(source)} if dataclasses.is_dataclass(source) else set()
        assert hasattr(source, name) or name in fields, f"README names {owner}.{name}"
        kinds.add(kind)
    assert kinds == {"module", "class"}

"""The package's surface holds nothing only tests use and imports nothing
it does not use, `config.DEFAULTS` is the only place a default value is
written, `TrainConfig` and README's Configuration table follow its keys, and
no JSON writer emits NaN."""

import ast
import dataclasses
import fnmatch
import importlib
import inspect
import pathlib
import re

import pytest

import cobranch
from cobranch.config import DEFAULTS
from cobranch.train import TrainConfig

SRC = pathlib.Path(cobranch.__file__).parent
MODULES = sorted(path.stem for path in SRC.glob("*.py"))
ENTRY_POINTS = {("cli", "main")}  # called from outside the package


def _defined_names(node) -> list:
    """The names a module-level statement binds: a def's or class's name, or
    the names an assignment writes."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]


def test_every_public_definition_is_used_in_the_package():
    """Each public def, class and module-level assignment is read elsewhere in the package."""
    trees = {name: ast.parse((SRC / f"{name}.py").read_text()) for name in MODULES}
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            own = {id(n) for n in ast.walk(node)}
            for name in _defined_names(node):
                if name.startswith("_"):
                    continue
                used = any(
                    id(n) not in own
                    and (isinstance(n, ast.Name) and n.id == name or isinstance(n, ast.Attribute) and n.attr == name)
                    for other in trees.values()
                    for n in ast.walk(other)
                )
                if not used and (module, name) not in ENTRY_POINTS:
                    unused.append(f"{module}.{name}")
    assert unused == []


def test_every_import_is_used():
    """Each name a package or test module imports is read somewhere in that module."""
    unused = []
    for path in [*(SRC / f"{name}.py" for name in MODULES), *sorted(pathlib.Path(__file__).parent.glob("*.py"))]:
        tree = ast.parse(path.read_text())
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{path.name}:{node.lineno}: {name}")
    assert unused == []


def test_train_config_mirrors_the_train_block():
    """One flat field per `train` key but `checkpoint_every`, which the CLI
    reads, and the run seed."""
    fields = {f.name for f in dataclasses.fields(TrainConfig)}
    assert fields == set(DEFAULTS["train"]) - {"checkpoint_every"} | {"seed"}


# Fields and parameters that `config.to_train_objects`, `**cfg["model"]`,
# `**cfg["eval"]` or the train block fill in from the config.
CONFIG_BACKED = [
    ("config", "ModelConfig", None),
    ("config", "TrainConfig", None),
    ("nn", "ModelParams", ["scale"]),
    ("nn", "init_params", ["scale"]),
    ("nn", "SgdState", ["momentum"]),
    ("losses", "classification_objective", ["eta1", "eta2", "smoothing_p", "conf_gate"]),
    ("losses", "contrastive_objective", ["temperature", "gamma1", "gamma2"]),
    ("nn", "cosine_lr", ["base_lr", "total_epochs"]),
    ("transfer", "debias", ["k"]),
    ("transfer", "sampling_rates", ["alpha", "beta"]),
    ("estimate", "kmeans", ["max_iter", "n_init"]),
    ("estimate", "estimate_round", ["max_iter", "n_init"]),
    ("evaluation", "evaluate", ["kmeans_max_iter", "kmeans_n_init"]),
]


def _defaults(obj) -> dict:
    """Each field of a dataclass, or parameter of a function or of a class's
    constructor, that has a default, mapped to its default (or factory)."""
    if dataclasses.is_dataclass(obj):
        return {f.name: f.default_factory if f.default is dataclasses.MISSING else f.default
                for f in dataclasses.fields(obj)
                if f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING}
    return {name: p.default for name, p in inspect.signature(obj).parameters.items()
            if p.default is not inspect.Parameter.empty}


@pytest.mark.parametrize("module, name, names", CONFIG_BACKED, ids=[f"{m}.{n}" for m, n, _ in CONFIG_BACKED])
def test_config_backed_values_have_no_default(module, name, names):
    obj = getattr(importlib.import_module(f"cobranch.{module}"), name)
    if dataclasses.is_dataclass(obj):
        declared = [f.name for f in dataclasses.fields(obj)]
    else:
        declared = list(inspect.signature(obj).parameters)
    names = declared if names is None else names  # None: every field is config-backed
    assert set(names) <= set(declared)
    assert {key: value for key, value in _defaults(obj).items() if key in names} == {}


def test_no_default_restates_a_config_default():
    """No field or parameter in the package defaults to the value
    `config.DEFAULTS` gives the key of its name (`max_iter` standing for
    `kmeans_max_iter`, and so on)."""
    config_values = {}
    for block in DEFAULTS.values():
        for key, value in block.items():
            for name in {key, key.removeprefix("kmeans_")}:
                config_values.setdefault(name, set()).add(repr(value))
    restated = []
    for module_name in MODULES:
        module = importlib.import_module(f"cobranch.{module_name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = []
            if inspect.isfunction(obj) or dataclasses.is_dataclass(obj):
                members.append((name, obj))
            if inspect.isclass(obj):
                members += [(f"{name}.{attr}", fn) for attr, fn in vars(obj).items() if inspect.isfunction(fn)]
            for where, member in members:
                for key, value in _defaults(member).items():
                    if repr(value) in config_values.get(key, ()):
                        restated.append(f"{module_name}.{where}: {key}={value!r}")
    assert restated == []


def test_readme_configuration_table_names_every_key():
    """The backticked keys in the first column of README's Configuration
    table are the keys of `config.DEFAULTS`, so no row outlives its key. A
    name without a block (`num_known` in `dataset.num_classes` / `num_known`)
    is in the block named before it, `a/b` names two keys, and `kmeans_*`
    names every key it matches."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    documented = set()
    for line in table.splitlines():
        if not line.startswith("| `"):
            continue
        for token in re.findall(r"`([^`]+)`", line.split("|")[1]):
            head, _, names = token.rpartition(".")
            block = head or block
            for name in names.split("/"):
                matches = fnmatch.filter(DEFAULTS[block], name) if "*" in name else [name]
                documented |= {f"{block}.{key}" for key in matches}
    assert documented == {f"{block}.{key}" for block, keys in DEFAULTS.items() for key in keys}


def test_every_json_dumps_refuses_nan():
    """`json.dumps` writes a non-finite float as a bare NaN or Infinity, which
    is not JSON. Every call passes allow_nan=False, so one raises instead;
    `cli.dump_json` writes each non-finite value as null before its call."""
    calls, lax = 0, []
    for name in MODULES:
        for node in ast.walk(ast.parse((SRC / f"{name}.py").read_text())):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
                    and node.func.attr in ("dump", "dumps")):
                continue
            calls += 1
            if not any(kw.arg == "allow_nan" and isinstance(kw.value, ast.Constant) and kw.value.value is False
                       for kw in node.keywords):
                lax.append(f"{name}.py:{node.lineno}")
    assert calls and lax == []

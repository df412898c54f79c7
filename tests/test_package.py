"""The package namespace: every exported name resolves lazily to its owning
module's object, and the cold-start paths load only the modules they use."""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import proxinorm

#: The names ``proxinorm`` exports, by owning module.
EXPORTS = {
    "approxlin": [
        "LinearityReport", "build_report", "coherence_margin", "span_match_feasible",
        "verify_linearity_bound",
    ],
    "construction": ["ConstructionTable", "canonical_table"],
    "demo": ["run_demo", "sign_table"],
    "descent": [
        "DescentCertificate", "DescentChain", "Subspace", "certify_descent",
        "minimizing_sequence", "verify_chain",
    ],
    "errors": [
        "BudgetError", "DepthBudgetError", "EliminationBudgetError", "HypothesisError",
        "InputFormatError", "PrecisionBudgetError", "PreconditionError", "ProxinormError",
        "SearchBudgetError",
    ],
    "gateaux": [
        "derivative_from_json", "derivative_to_json", "dminus_norm", "dplus_norm", "dplus_sup",
    ],
    "linalg": ["feasible", "kernel_directions"],
    "norms": ["norm_enclosure"],
    "vectors": ["Enclosure", "SparseVec", "l1_norm", "pair", "sgn", "sup_norm"],
}
OWNED = [(module, name) for module, names in EXPORTS.items() for name in names]


def test_all_lists_the_thirty_eight_exports():
    assert len(OWNED) == 38
    assert sorted(proxinorm.__all__) == sorted(name for _, name in OWNED)
    assert proxinorm.__version__ == "0.1.0"


@pytest.mark.parametrize("module,name", OWNED, ids=[name for _, name in OWNED])
def test_from_import_returns_the_owning_modules_object(module, name):
    namespace = {}
    exec(f"from proxinorm import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"proxinorm.{module}"), name)
    assert getattr(proxinorm, name) is namespace[name]


ROOT = pathlib.Path(__file__).resolve().parent.parent


def referenced_names(path):
    """Names a module reads, imports or takes as an attribute, each counted
    only outside the body of a def or class of that name."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            name = None
        if name and name not in inside:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return found


def test_every_export_has_a_user():
    """An exported name that no module, script, bench file or acceptance
    criterion uses is dead API."""
    files = [p for p in (ROOT / "src" / "proxinorm").glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    files.append(ROOT / "tests" / "test_acceptance.py")
    used = set().union(*map(referenced_names, files))
    assert sorted(set(proxinorm.__all__) - used) == []


def defaulted_parameters(path):
    """(def name, parameter name, position or None) for every parameter with
    a default of a public function or of a public method of a public class;
    the position counts from the first argument a call writes (a method's
    ``self`` is skipped, a keyword-only parameter has none)."""
    found = []

    def scan(fn, method):
        args = fn.args
        positional = args.posonlyargs + args.args
        skip = int(method and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list))
        first = len(positional) - len(args.defaults)
        found.extend((fn.name, positional[i].arg, i - skip) for i in range(first, len(positional)))
        found.extend((fn.name, a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d)

    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            scan(node, method=False)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    scan(item, method=True)
    return found


def passes(call, parameter, position):
    """Whether the call may set the parameter: by keyword or ``**``, or by
    position or ``*``."""
    if any(k.arg in (parameter, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def defaults_and_their_calls():
    """(def name, parameter name, position, calls of a def of that name) for
    every defaulted parameter of a public def, the calls gathered from every
    module, script, bench file and acceptance criterion.  ``cli.main``'s
    ``argv`` is left out: it reads ``sys.argv``, and the CLI tests pass it."""
    files = [*(ROOT / "src" / "proxinorm").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    files += [*(ROOT / "bench").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    calls = {}
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return [
        (fn, parameter, position, calls.get(fn, []))
        for path in (ROOT / "src" / "proxinorm").glob("*.py")
        for fn, parameter, position in defaulted_parameters(path)
        if (fn, parameter) != ("main", "argv")
    ]


def test_every_default_is_passed():
    """A default that no caller ever overrides is a setting with one value in
    use: a constant."""
    unpassed = sorted(
        (fn, parameter) for fn, parameter, position, calls in defaults_and_their_calls()
        if not any(passes(call, parameter, position) for call in calls)
    )
    assert unpassed == []


def test_every_default_is_relied_on():
    """A default that every caller overrides is a required parameter."""
    always_passed = sorted(
        (fn, parameter) for fn, parameter, position, calls in defaults_and_their_calls()
        if all(passes(call, parameter, position) for call in calls)
    )
    assert always_passed == []


def test_submodules_are_attributes():
    """The package's modules, ``cli`` aside, are exactly the keys of
    ``_EXPORTS``, so a module added or deleted fails here until
    ``__init__`` lists it; each is a package attribute."""
    import proxinorm.descent as descent

    assert proxinorm.descent is descent
    source = pathlib.Path(proxinorm.__file__).parent
    modules = {path.stem for path in source.glob("*.py")} - {"__init__", "cli"}
    assert modules == set(proxinorm._EXPORTS)
    for module in modules:
        assert getattr(proxinorm, module) is importlib.import_module(f"proxinorm.{module}")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        proxinorm.no_such_name
    assert not hasattr(proxinorm, "DEFAULT_PRECISION_BITS")  # not exported
    with pytest.raises(ImportError):
        exec("from proxinorm import no_such_name", {})


def test_dir_lists_the_exports():
    listing = dir(proxinorm)
    assert set(proxinorm.__all__) <= set(listing)
    assert {"descent", "__version__"} <= set(listing)


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from proxinorm import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(proxinorm.__all__)


def loaded_modules(script, *args):
    """The modules a fresh interpreter has loaded after running ``script``,
    which ends by printing them (stdout's last line)."""
    probe = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", script + probe, *args],
        capture_output=True, text=True, env=dict(os.environ),
    )
    assert out.returncode == 0, out.stderr
    return set(json.loads(out.stdout.splitlines()[-1]))


FIRST_TABLE = "import proxinorm\nproxinorm.canonical_table().entry(1)"
CLI = "import sys\nimport proxinorm.cli\nif proxinorm.cli.main(sys.argv[1:]):\n    sys.exit(1)"


def test_first_table_loads_only_the_stream_modules():
    loaded = loaded_modules(FIRST_TABLE)
    assert {m for m in loaded if m.startswith("proxinorm")} == {
        "proxinorm", "proxinorm.construction", "proxinorm.vectors", "proxinorm.errors",
    }


def test_first_table_loads_neither_dataclasses_nor_inspect():
    assert sorted(loaded_modules(FIRST_TABLE) & {"dataclasses", "inspect"}) == []


@pytest.mark.parametrize("command", ["norm", "construct"])
def test_light_commands_load_neither_dataclasses_nor_inspect(tmp_path, command):
    vec = tmp_path / "x.json"
    vec.write_text(json.dumps({"1": "2/3", "4": "-1/5"}))
    args = {"norm": ["--vec", str(vec)], "construct": ["--k-max", "3"]}[command]
    assert sorted(loaded_modules(CLI, command, *args) & {"dataclasses", "inspect"}) == []


def test_norm_command_skips_the_producer_stack(tmp_path):
    vec = tmp_path / "x.json"
    vec.write_text(json.dumps({"1": "2/3", "4": "-1/5"}))
    loaded = loaded_modules(CLI, "norm", "--vec", str(vec), "--bits", "64")
    assert "proxinorm.norms" in loaded
    heavy = {"approxlin", "demo", "descent", "gateaux", "kernel", "trig"}
    assert not loaded & {f"proxinorm.{m}" for m in heavy}

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
    "config": ["Config", "load_config"],
    "construction": ["ConstructionTable", "canonical_table"],
    "demo": ["SignMatrix", "independence_check", "run_demo", "sign_table"],
    "descent": [
        "DescentCertificate", "DescentChain", "Subspace", "certify_descent",
        "find_descent_direction", "minimizing_sequence", "verify_certificate", "verify_chain",
    ],
    "errors": [
        "BudgetError", "DepthBudgetError", "EliminationBudgetError", "HypothesisError",
        "InputFormatError", "PrecisionBudgetError", "PreconditionError", "ProxinormError",
        "SearchBudgetError",
    ],
    "gateaux": [
        "derivative_from_json", "derivative_to_json", "dminus_norm", "dplus_norm", "dplus_sup",
    ],
    "linalg": ["LinearSystem", "feasible", "kernel_directions"],
    "norms": ["norm_enclosure"],
    "vectors": ["Enclosure", "SparseVec", "l1_norm", "pair", "sgn", "sup_norm"],
}
OWNED = [(module, name) for module, names in EXPORTS.items() for name in names]


def test_all_lists_the_forty_five_exports():
    assert len(OWNED) == 45
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


def test_every_default_is_passed():
    """A default that no module, script, bench file or acceptance criterion
    ever overrides is a setting with one value in use: a constant."""
    files = [*(ROOT / "src" / "proxinorm").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    files += [*(ROOT / "bench").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    calls = {}
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    # cli.main(argv=None) reads sys.argv; the CLI tests pass their argv here.
    exempt = {("main", "argv")}
    unpassed = sorted(
        (fn, parameter)
        for path in (ROOT / "src" / "proxinorm").glob("*.py")
        for fn, parameter, position in defaulted_parameters(path)
        if (fn, parameter) not in exempt
        and not any(passes(call, parameter, position) for call in calls.get(fn, []))
    )
    assert unpassed == []


def test_submodules_are_attributes():
    import proxinorm.descent as descent

    assert proxinorm.descent is descent
    for module in (*EXPORTS, "bits", "kernel", "trig"):
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
    """The ``proxinorm`` modules a fresh interpreter has loaded after
    running ``script``, which ends by printing them (stdout's last line)."""
    probe = "\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('proxinorm'))))"
    out = subprocess.run(
        [sys.executable, "-c", script + probe, *args],
        capture_output=True, text=True, env=dict(os.environ),
    )
    assert out.returncode == 0, out.stderr
    return set(json.loads(out.stdout.splitlines()[-1]))


def test_first_table_loads_only_the_stream_modules():
    loaded = loaded_modules("import proxinorm\nproxinorm.canonical_table().entry(1)")
    assert loaded == {
        "proxinorm", "proxinorm.construction", "proxinorm.vectors", "proxinorm.bits",
        "proxinorm.errors",
    }


def test_first_table_loads_neither_dataclasses_nor_inspect():
    script = (
        "import sys, proxinorm\nproxinorm.canonical_table().entry(1)\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=dict(os.environ))
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_norm_command_skips_the_producer_stack(tmp_path):
    vec = tmp_path / "x.json"
    vec.write_text(json.dumps({"1": "2/3", "4": "-1/5"}))
    script = "import sys\nimport proxinorm.cli\nif proxinorm.cli.main(sys.argv[1:]):\n    sys.exit(1)"
    loaded = loaded_modules(script, "norm", "--vec", str(vec), "--bits", "64")
    assert "proxinorm.norms" in loaded
    heavy = {"approxlin", "demo", "descent", "gateaux", "kernel", "trig"}
    assert not loaded & {f"proxinorm.{m}" for m in heavy}

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ncmotives"


def test_no_assert_in_the_package():
    """python -O drops assert statements, so every check in the package
    raises a package error instead."""
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 10
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _tracer():
    import importlib.util
    path = PACKAGE.parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_the_trace_names_resolve_in_the_package():
    """Every function that perfbench/tracer.py times or counts, and the
    guard it rebinds, exists under its dotted name, so a rename cannot
    break a traced benchmark run unnoticed."""
    import importlib
    tracer = _tracer()
    names = [pair for pairs in tracer.SPANS.values() for pair in pairs]
    names += list(tracer.CALLS.values())
    # the cyclic-data hit ratio reads these two in Trace.report
    names += [("hochschild", "cyclic_data"),
              ("hochschild", "CyclicData.__init__")]
    for module, dotted in names:
        assert module in tracer.MODULES
        obj = importlib.import_module("ncmotives." + module)
        for part in dotted.split("."):
            obj = getattr(obj, part)
        # the profile is read by code object, so a Python function
        assert obj.__code__ and obj.__module__.startswith("ncmotives."), \
            dotted
    # the chain-dimension counter rebinds hochschild._guard wherever a
    # package module holds it, so the builders' module must hold that one
    from ncmotives import algebras, hochschild
    assert hochschild._guard is algebras._guard


_LAYER_STATES = """
import json, sys, types
def state(m):
    mod = sys.modules.get("ncmotives." + m)
    return ("absent" if mod is None else
            "run" if type(mod) is types.ModuleType else "deferred")
print(json.dumps({m: state(m) for m in %r}))
"""


def _fresh(code):
    """Run code in a fresh interpreter, then read each layer that
    perfbench/tracer.py traces as absent from sys.modules, deferred (a
    lazy module whose body has not run) or run.  type() reads no attribute,
    so the reading runs no deferred layer."""
    script = code + _LAYER_STATES % (_tracer().MODULES,)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    r = subprocess.run([sys.executable, "-c", script], capture_output=True,
                       text=True, env=env)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout.splitlines()[-1])


def test_the_cli_defers_the_layers_no_algebra_command_runs():
    """import ncmotives.cli registers every traced layer in sys.modules
    (Trace.report reads them all there), but motives, categories, schur
    and supers stay lazy modules whose source is not yet compiled."""
    from ncmotives import DEFERRED
    modules = _tracer().MODULES
    assert set(DEFERRED) <= set(modules)
    assert _fresh("import ncmotives.cli") == {
        m: "deferred" if m in DEFERRED else "run" for m in modules}


def test_a_command_runs_the_deferred_layer_it_uses():
    states = _fresh("from ncmotives import cli\n"
                    "cli.main(['karoubi', '--input', %r])\n"
                    % str(PACKAGE.parent.parent / "demos" / "categories"
                          / "two_block.json"))
    assert states["categories"] == "run"
    assert states["motives"] == "deferred"


@pytest.mark.parametrize("code, module, name", [
    ("from ncmotives import categories as layer", "categories", "karoubi"),
    ("import ncmotives.motives as layer", "motives", "canonical_span"),
    ("import ncmotives.schur\nlayer = ncmotives.schur", "schur",
     "central_idempotent"),
])
def test_naming_a_deferred_layer_runs_it(code, module, name):
    """An explicit import has run the layer by the time it returns, so a
    caller pays the compile in its set-up, not in its first request.  The
    check reads type(layer) before any attribute of it."""
    states = _fresh("%s\nimport types\n"
                    "assert type(layer) is types.ModuleType\n"
                    "assert callable(layer.%s)\n" % (code, name))
    assert states[module] == "run"


def test_an_unknown_package_attribute_raises():
    """Reading a name the package lacks raises AttributeError and runs no
    deferred layer."""
    from ncmotives import DEFERRED
    states = _fresh("import ncmotives\n"
                    "try:\n    ncmotives.nothere\n"
                    "except AttributeError:\n    pass\n"
                    "else:\n    raise SystemExit('no AttributeError')\n")
    assert {states[m] for m in DEFERRED} == {"deferred"}


def _imports_at_load(module):
    """The package modules that running module's body imports: import
    statements outside function bodies, relative or absolute."""
    tree = ast.parse((PACKAGE / (module + ".py")).read_text())
    found, stack = set(), list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names
                      if a.name.startswith("ncmotives.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "ncmotives":
                    continue
                module = module[len("ncmotives."):]
            elif node.level > 1:
                continue
            # from .m import x imports m; from . import m, n imports m and n
            found |= {module.split(".")[0]} if module else \
                {a.name for a in node.names}
        stack.extend(ast.iter_child_nodes(node))
    return {m for m in found if (PACKAGE / (m + ".py")).is_file()}


def test_no_import_at_load_of_the_cli_reaches_a_deferred_layer():
    """Follows the import statements that run when ncmotives.cli loads,
    across modules: a top-level import of a deferred layer in cli, inputs
    or anything they import would compile it in every command."""
    from ncmotives import DEFERRED
    reached, todo = set(), ["__init__", "cli"]
    while todo:
        module = todo.pop()
        if module not in reached:
            reached.add(module)
            todo += sorted(_imports_at_load(module))
    assert {"inputs", "hochschild", "algebras", "exactlin"} <= reached
    assert reached & set(DEFERRED) == set()


def _unnamed_definitions(folders, private=False):
    """Every public function, class and method of the package, or with
    private every private one that is not a dunder method, named nowhere
    in the code of the .py files under folders other than its own def
    line, as "module.py:line name".  Names are NAME tokens, so a name
    that appears only in a string or a comment is not named."""
    import io
    import tokenize
    from collections import Counter
    root = PACKAGE.parent.parent
    times_named = Counter(
        tok.string for folder in folders
        for path in sorted((root / folder).rglob("*.py"))
        for tok in tokenize.generate_tokens(
            io.StringIO(path.read_text()).readline)
        if tok.type == tokenize.NAME)
    defs = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for sub in [node] + members:
                if isinstance(sub, (ast.FunctionDef, ast.ClassDef)) \
                        and sub.name.startswith("_") == private \
                        and not sub.name.endswith("__"):
                    defs.append((path.name, sub.lineno, sub.name))
    assert len(defs) > (80 if private else 100)
    # a name defined k times must be named more than k times
    times_defined = Counter(name for _, _, name in defs)
    return ["%s:%d %s" % d for d in defs
            if times_named[d[2]] <= times_defined[d[2]]]


def test_every_public_definition_is_used():
    """Every public function, class and method of the package is named
    somewhere in src, tests, demos, perfbench or tools other than its own
    def line, so no unreferenced public API accumulates."""
    assert _unnamed_definitions(
        ("src", "tests", "demos", "perfbench", "tools")) == []


# public definitions that only the tests call, each kept for its reason
TEST_ONLY_DEFINITIONS = {
    "tensor_algebra": "the tensor product of algebras, which ROADMAP item 6 "
                      "(the Kuenneth sum of global dimensions) gives a "
                      "caller",
    "is_nilpotent_by_traces": "acceptance criterion 7 compares it with "
                              "power vanishing",
    "opposite": "perfbench/tracer.py counts its calls, and "
                "test_the_trace_names_resolve_in_the_package needs the name "
                "to resolve; it leaves with a change to the benchmark",
}


def test_every_public_definition_has_a_caller_outside_the_tests():
    """The scan of test_every_public_definition_is_used with tests/ left
    out of the corpus: a public definition that only the tests name is
    either in TEST_ONLY_DEFINITIONS, with its reason, or leaves the
    package (into the tests, if a test needs it as an oracle)."""
    unnamed = _unnamed_definitions(("src", "demos", "perfbench", "tools"))
    assert sorted(entry.split()[1] for entry in unnamed) == \
        sorted(TEST_ONLY_DEFINITIONS), unnamed


def test_every_private_definition_has_a_caller_outside_the_tests():
    """The same scan over private functions, classes and methods, dunder
    methods left out: one that only the tests name moves into the tests,
    beside the oracles, so the package holds no code that nothing in it
    runs."""
    assert _unnamed_definitions(("src", "demos", "perfbench", "tools"),
                                private=True) == []


# optional parameters that only the tests set, each kept for its reason
TEST_ONLY_OPTIONS = {
    "derived_tensor.bound":
        "the tests' handle on Tor below the certified bound",
    "semisimplicity_check.basis": "the declared span of the library question",
    "hp_of_homomorphism.cap":
        "the chain memory guard every hochschild entry point takes, part of "
        "the cyclic_data memo key",
}


def _package_defs(trees):
    """{def node: (module, qualified name, name a call uses, leading
    parameters a call does not pass, is a method, is public)} for every
    module-level function and every method of a module-level class in
    trees, {package path: its parsed module}.  A constructor is called,
    and qualified, by its class name."""
    defs = {}
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs[node] = (path.stem, node.name, node.name, 0, False,
                              not node.name.startswith("_"))
            if not isinstance(node, ast.ClassDef):
                continue
            for sub in node.body:
                if not isinstance(sub, ast.FunctionDef):
                    continue
                init = sub.name == "__init__"
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in sub.decorator_list)
                qual = node.name if init else node.name + "." + sub.name
                defs[sub] = (path.stem, qual, node.name if init else sub.name,
                             0 if static else 1, not init,
                             not node.name.startswith("_")
                             and (init or not sub.name.startswith("_")))
    return defs


def _optional_parameters(fn, skip):
    """[(name, position a call passes it at, or None, default)] for the
    parameters of fn that have a default; skip leading ones are bound, not
    passed."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return [(arg.arg, i - skip, args.defaults[i - first])
            for i, arg in enumerate(positional) if i >= first] + \
        [(arg.arg, None, default)
         for arg, default in zip(args.kwonlyargs, args.kw_defaults)
         if default is not None]


def _import_names(tree, modules, in_package):
    """({name bound to a module: the package module, or None outside the
    package}, {name bound to a package function: its own name})."""
    mods, funcs = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                mods[alias.asname or parts[0]] = parts[-1] if (
                    alias.asname and parts[0] == "ncmotives"
                    and parts[-1] in modules) else None
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if not (source.split(".")[0] == "ncmotives"
                    or node.level and in_package):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name
                if alias.name in modules and source in ("ncmotives", ""):
                    mods[bound] = alias.name
                else:
                    funcs[bound] = alias.name
    return mods, funcs


def _callees(call, mods, funcs, defs, by_call):
    """The package defs a call may reach: a function or constructor by its
    name, a method by attribute name on anything but a module name."""
    f = call.func
    if isinstance(f, ast.Name):
        return by_call.get((funcs.get(f.id, f.id), False), [])
    if not isinstance(f, ast.Attribute):
        return []
    if isinstance(f.value, ast.Name) and f.value.id in mods:
        return [fn for fn in by_call.get((f.attr, False), [])
                if defs[fn][0] == mods[f.value.id]]
    return by_call.get((f.attr, True), [])


def _forwarded(value, default, node, parent, defs):
    """(def, parameter) when value names an optional parameter of the
    package def enclosing node with the same default as the parameter it
    is passed to, else None: the call sets a value of its own."""
    if not isinstance(value, ast.Name):
        return None
    while node in parent:
        node = parent[node]
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            a = node.args
            names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
            if value.id not in names:
                continue
            if node in defs and any(
                    name == value.id and ast.dump(own) == ast.dump(default)
                    for name, _, own in _optional_parameters(node,
                                                             defs[node][3])):
                return node, value.id
            return None
    return None


def test_every_option_is_set_outside_the_tests():
    """Every optional parameter of a public function, or of a public or
    __init__ method of a public class, is passed by keyword or by position
    in some call in src, demos, perfbench or tools, so no option survives
    that only its default ever sets.  A call that passes on an optional
    parameter of its enclosing function with the same default sets the
    value only if that parameter is set itself.  TEST_ONLY_OPTIONS lists
    the exceptions."""
    root = PACKAGE.parent.parent
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for folder in ("src", "demos", "perfbench", "tools")
             for path in sorted((root / folder).rglob("*.py"))}
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    defs = _package_defs({path: tree for path, tree in trees.items()
                          if path.parent == PACKAGE})
    by_call = {}
    for fn, (_, _, call, _, method, _) in defs.items():
        by_call.setdefault((call, method), []).append(fn)
    # (def, parameter) -> for each call passing it, the (def, parameter)
    # it passes on, or None for a value of the call's own
    sources = {}
    for path, tree in trees.items():
        mods, funcs = _import_names(tree, modules,
                                    PACKAGE in path.parents)
        parent = {child: node for node in ast.walk(tree)
                  for child in ast.iter_child_nodes(node)}
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            keywords = {k.arg: k.value for k in call.keywords}
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            for fn in _callees(call, mods, funcs, defs, by_call):
                for name, pos, default in _optional_parameters(fn,
                                                               defs[fn][3]):
                    if name in keywords:
                        value = keywords[name]
                    elif None in keywords or starred:
                        value = None
                    elif pos is not None and pos < len(call.args):
                        value = call.args[pos]
                    else:
                        continue
                    sources.setdefault((fn, name), set()).add(
                        _forwarded(value, default, call, parent, defs))
    set_ = {key for key, found in sources.items() if None in found}
    grown = True
    while grown:
        grown = False
        for key, found in sources.items():
            if key not in set_ and found & set_:
                set_.add(key)
                grown = True
    unset = sorted("%s.%s" % (defs[fn][1], name)
                   for fn in defs if defs[fn][5]
                   for name, _, _ in _optional_parameters(fn, defs[fn][3])
                   if not name.startswith("_") and (fn, name) not in set_)
    extra = [name for name in unset if name not in TEST_ONLY_OPTIONS]
    assert not extra, "options no caller sets: " + ", ".join(extra)
    assert unset == sorted(TEST_ONLY_OPTIONS)

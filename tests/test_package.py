import ast
from pathlib import Path

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

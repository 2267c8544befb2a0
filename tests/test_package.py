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


def test_every_public_definition_is_used():
    """Every public function, class and method of the package is named
    somewhere in src, tests, demos, perfbench or tools other than its own
    def line, so no unreferenced public API accumulates."""
    import re
    from collections import Counter
    root = PACKAGE.parent.parent
    corpus = "\n".join(
        path.read_text() for folder in ("src", "tests", "demos", "perfbench",
                                        "tools")
        for path in sorted((root / folder).rglob("*.py")))
    defs = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for sub in [node] + members:
                if isinstance(sub, (ast.FunctionDef, ast.ClassDef)) \
                        and not sub.name.startswith("_"):
                    defs.append((path.name, sub.lineno, sub.name))
    assert len(defs) > 100
    # a name defined k times must be named more than k times
    times_defined = Counter(name for _, _, name in defs)
    times_named = Counter(re.findall(r"\w+", corpus))
    unused = ["%s:%d %s" % d for d in defs
              if times_named[d[2]] <= times_defined[d[2]]]
    assert unused == []

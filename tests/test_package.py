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

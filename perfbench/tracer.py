"""Per-layer trace of one worker pass, taken from outside the package.

The layers are the package modules, keyed by source file; the standard
library's ``fractions`` is a layer of its own because exact arithmetic
spends most of its time there; everything else is ``other``.

* Self time comes from ``cProfile``, which runs from before the package is
  imported, so module bodies count too.  Time inside a C builtin is charged
  to the module of the function that called it, using the profile's
  per-caller breakdown.
* Call counts and inclusive times are read from the profile by the code
  object of the function, so they also catch names bound with
  ``from .exactlin import ...``.
* Data counters wrap ``Elimination.add_column`` on the class and rebind
  ``hochschild._guard`` wherever a package module holds a reference to it.

Nothing is written while the pass runs; ``report`` summarises at the end.
"""

import cProfile
import os
import pstats
import sys
from fractions import Fraction

MODULES = ("exactlin", "algebras", "homcore", "hochschild", "motives",
           "categories", "schur", "supers", "inputs", "cli")

# inclusive-time spans: metric -> [(module, dotted function)]
SPANS = {
    "hochschild.columns_s": [("hochschild", "hochschild_columns"),
                             ("hochschild", "connes_columns")],
    "hochschild.mixed_complex_s": [("hochschild",
                                    "TruncatedMixedComplex.__init__")],
    "homcore.homology_space.s": [("homcore", "ChainComplex.homology_space")],
    "algebras.derived_tensor.s": [("algebras", "derived_tensor")],
    "motives.compose.s": [("motives", "compose")],
    "categories.graded_space_category.s": [("categories",
                                            "graded_space_category")],
}
CALLS = {
    "exactlin.jacobson_radical.calls": ("exactlin", "jacobson_radical"),
    "algebras.opposite.calls": ("algebras", "opposite"),
    "algebras.global_dimension.calls": ("algebras", "global_dimension"),
    "algebras.derived_tensor.calls": ("algebras", "derived_tensor"),
    "motives.intersection_number.calls": ("motives", "intersection_number"),
    "categories.compose.calls": ("categories", "PresentedCategory.compose"),
    "schur.group_mul.calls": ("schur", "GroupAlgebraElement.__mul__"),
}


class Trace:
    def __init__(self, package_dir):
        self.package_dir = os.path.realpath(package_dir) + os.sep
        self.profile = cProfile.Profile()
        self.counts = {"columns": 0, "pivots": 0, "entries": 0,
                       "fraction_entries": 0, "chain_dim": 0}

    def start(self):
        self.profile.enable()

    def stop(self):
        self.profile.disable()

    def install_counters(self):
        """Call once the package is imported, before the first request."""
        from ncmotives import exactlin, hochschild
        counts = self.counts
        add_column = exactlin.Elimination.add_column

        def counted_add_column(elim, col, index=None):
            counts["columns"] += 1
            counts["entries"] += len(col)
            counts["fraction_entries"] += sum(
                1 for v in col.values() if isinstance(v, Fraction))
            grew = add_column(elim, col, index)
            counts["pivots"] += bool(grew)
            return grew

        exactlin.Elimination.add_column = counted_add_column
        guard = hochschild._guard

        def counted_guard(total, cap):
            guard(total, cap)
            counts["chain_dim"] += total

        for name, mod in list(sys.modules.items()):
            if name == "ncmotives" or name.startswith("ncmotives."):
                for attr, value in list(vars(mod).items()):
                    if value is guard:
                        setattr(mod, attr, counted_guard)

    def _layer(self, filename):
        path = os.path.realpath(filename) if filename != "~" else filename
        if path.startswith(self.package_dir):
            return os.path.splitext(os.path.basename(path))[0]
        if os.path.basename(path) == "fractions.py":
            return "fractions"
        return "other"

    def report(self):
        """(per-layer metrics, inclusive spans and the full self-time
        table) for this pass."""
        stats = pstats.Stats(self.profile).stats
        self_s = {}
        for (filename, _, _), (_, _, tt, _, callers) in stats.items():
            if filename == "~":
                # a builtin: charge each caller's share to the caller's layer
                for caller, (_, _, ctt, _) in callers.items():
                    layer = self._layer(caller[0])
                    self_s[layer] = self_s.get(layer, 0.0) + ctt
            else:
                layer = self._layer(filename)
                self_s[layer] = self_s.get(layer, 0.0) + tt
        mods = {m: sys.modules["ncmotives." + m] for m in MODULES}

        def entry(module, dotted):
            obj = mods[module]
            for part in dotted.split("."):
                obj = getattr(obj, part)
            code = obj.__code__
            key = (code.co_filename, code.co_firstlineno, code.co_name)
            cc, nc, tt, ct, _ = stats.get(key, (0, 0, 0.0, 0.0, {}))
            return nc, ct

        c = self.counts
        metrics = {"fractions.self_s": self_s.get("fractions", 0.0)}
        for m in MODULES:
            metrics[m + ".self_s"] = self_s.get(m, 0.0)
        metrics["exactlin.columns"] = c["columns"]
        metrics["exactlin.pivot_ratio"] = \
            c["pivots"] / c["columns"] if c["columns"] else 0.0
        metrics["exactlin.fraction_share"] = \
            c["fraction_entries"] / c["entries"] if c["entries"] else 0.0
        metrics["hochschild.chain_dim"] = c["chain_dim"]
        calls, _ = entry("hochschild", "cyclic_data")
        misses, _ = entry("hochschild", "CyclicData.__init__")
        metrics["hochschild.cyclic_data.hit_ratio"] = \
            (calls - misses) / calls if calls else 0.0
        for name, (module, dotted) in CALLS.items():
            metrics[name] = entry(module, dotted)[0]
        spans = {name: sum(entry(m, d)[1] for m, d in parts)
                 for name, parts in SPANS.items()}
        return metrics, spans, self_s

"""Karoubi envelopes, orbit categories, and the dagger twist on finitely
presented monoidal categories.

Run:  python demos/demo_categories.py
"""

from ncmotives.categories import (two_block_object_category, karoubi,
                                  graded_line_window, TensorInvertible,
                                  orbit, orbit_twist_identification,
                                  super_line_category, dagger_twist,
                                  n_ideal, quotient_by_ideal,
                                  extend_coefficients)

print("Karoubi envelope")
print("----------------")
tb = two_block_object_category()
print("Start: objects %s with End(X) = Q x Q." % tb.objects)
k = karoubi(tb)
print("After splitting:", k.objects)
print("End dimensions:", {o: k.hom[(o, o)] for o in k.objects})
print("The object X splits into its two idempotent lines.\n")

print("Orbit category")
print("--------------")
g = graded_line_window(11)
interest = ["L%d" % d for d in range(-3, 4)]
o = TensorInvertible(g, "L1", "L-1", bound=6, restrict_to=interest)
orb = orbit(g, o)
print("Graded lines L-3..L3, twisted by the degree-1 line with bound 6.")
print("Hom(L0, L2) was 0; in the orbit it is",
      orb.hom[("L0", "L2")], "- the lines become isomorphic:")
f = orb.orbit_encode("L2", "L0", 2, g.ident["L2"])
b = orb.orbit_encode("L0", "L2", -2, g.ident["L2"])
assert orb.compose("L2", "L0", "L2", b, f) == orb.ident["L2"]
assert orb.compose("L0", "L2", "L0", f, b) == orb.ident["L0"]
print("explicit mutually inverse morphisms found through O^2.")
fwd, bwd = orbit_twist_identification(orb, "L0")
print("The identification of L0 with its twist is realized by invertible")
print("orbit morphisms (verified).\n")

print("Coefficient extension")
print("---------------------")
small = graded_line_window(2)
ext = extend_coefficients(small, [-2, 0, 1])    # Q(sqrt 2)
print("Extending along t^2 - 2 doubles every hom dimension:",
      small.hom[("L0", "L0")], "->", ext.hom[("L0", "L0")])
print()

print("Trace ideal and quotient")
print("------------------------")
ide = n_ideal(small)
print("On the graded lines every trace pairing is nondegenerate, so the")
print("ideal vanishes and the quotient is the category itself:",
      all(s.dim == 0 for s in ide.values()))
print()

print("Dagger twist")
print("------------")
sl = super_line_category()
print("Super lines I, P with Koszul symmetry c_PP =",
      sl.symmetry[("P", "P")], "and tr(id_P) =", sl.trace("P", sl.ident["P"]))
dag = dagger_twist(sl, {"I": {0: 1}, "P": {}})
print("After the twist, c_PP =", dag.symmetry[("P", "P")],
      "and tr(id_P) =", dag.trace("P", dag.ident["P"]),
      "- the odd-odd sign flips with the trace;")
print("hom spaces and composition tables are untouched:",
      dag.hom == sl.hom and dag.comp == sl.comp)

"""The two instance checkers: the even projector in a declared span, and
the homological-vs-numerical kernel comparison on K0.

Run:  python demos/demo_checkers.py
"""

from ncmotives import zoo
from ncmotives.exactlin import compose_cols, identity_cols, inverse
from ncmotives.algebras import Bimodule
from ncmotives.hochschild import periodic_cyclic, hp_of_homomorphism
from ncmotives.motives import (unit_correspondence, Correspondence,
                               even_projector_in_span, kernel_comparison)

print("Even-projector search")
print("---------------------")
print("A separable algebra has no odd periodic part, so the unit")
print("correspondence already realizes the even projector:")
for name in ("Q", "QxQ", "M2(Q)"):
    a = zoo.get(name)
    hp = periodic_cyclic(a, n_max=5)
    de, do = hp.super_dims
    v = even_projector_in_span(a, [(unit_correspondence(a),
                       (identity_cols(de), identity_cols(do)))])
    print("  %-6s HP (%d|%d): %s, witness %s" %
          (name, de, do, v.status, v.witness))
print()

print("With the two projection correspondences of QxQ the witness is")
print("their sum.  Realizations come from the chain-level functoriality")
print("of the algebra projections:")
qq, q = zoo.get("QxQ"), zoo.get("Q")
# every map is the list of its columns: e_1 |-> 1, e_2 |-> 0 and back
p1, _ = hp_of_homomorphism([{0: 1}, {}], qq, q, n_max=5)
p2, _ = hp_of_homomorphism([{}, {0: 1}], qq, q, n_max=5)
# m = (p1; p2): HP_even(QxQ) -> Q^2, and the realization of the i-th
# projection is m^-1 E_ii m
m = [{r: p[c][0] for r, p in enumerate((p1, p2)) if p[c]} for c in (0, 1)]
minv = inverse(m)
reals = [compose_cols(minv, compose_cols(e, m))
         for e in ([{0: 1}, {}], [{}, {1: 1}])]


def proj_bimodule(idx):
    # each action is a list of columns: b_idx acts as 1, the other as 0
    acts = [[{0: 1} if i == idx else {}] for i in range(2)]
    return Bimodule(qq, qq, 1, acts, acts, name="proj%d" % idx)


gens = [(Correspondence(qq, qq, [(1, proj_bimodule(i))],
                        name="pi_%d" % (i + 1)),
         (reals[i], [])) for i in (0, 1)]
v = even_projector_in_span(qq, gens)
print("  verdict: %s, witness %s" % (v.status, v.witness))
print()

print("A span that cannot reach the even projector reports")
print("UNDECIDED-IN-SPAN rather than pretending to refute anything:")
bad = even_projector_in_span(q, [(unit_correspondence(q),
                     (identity_cols(1), identity_cols(1)))])
print("  verdict: %s (%s)" % (bad.status, bad.note))
print()

print("Kernel comparison on K0")
print("-----------------------")
print("The Chern character realizes K0 classes in the stable even part;")
print("its kernel is compared against the kernel of the numerical pairing:")
for name in ("Q", "QxQ", "A2", "A3"):
    verdict = kernel_comparison(zoo.get(name), n_max=6)
    print("  %-4s %s  (hom kernel %d, num kernel %d)" %
          (name, verdict.status, verdict.ker_hom.dim, verdict.ker_num.dim))

"""Graph operations and what they do to representability.

Adding an apex over a non-comparability graph destroys representability
(wheels over odd cycles); complements can go either way; products and
module substitutions preserve it.
"""

from wordrep import (
    add_apex,
    cartesian_product,
    complement,
    contains_induced,
    disjoint_union,
    is_isomorphic,
    is_permutationally_representable,
    is_semi_transitive,
    is_word_representable,
    orientation_from_coloring,
    representation_number,
    rooted_product,
    subdivide,
    substitute_module,
    three_color,
)
from wordrep import families

# the complement of a 5-cycle plus an isolated vertex is the 5-wheel
g = disjoint_union(families.cycle(5), families.empty(1))
print("complement(C5 + K1) is W5:", is_isomorphic(complement(g), families.wheel(5)))
print()

# apexing: representable iff the base is permutationally representable
for base in (families.cycle(5), families.cycle(6), families.complete(3)):
    wheelish = add_apex(base)
    print(
        f"apex over C-base on {base.n}: base permutationally representable ="
        f" {is_permutationally_representable(base)},"
        f" apexed graph representable = {is_word_representable(wheelish)}"
    )
print()

# products preserve representability
p = cartesian_product(families.path(2), families.path(2))
print("P2 box P2 is C4:", is_isomorphic(p, families.cycle(4)))
r = rooted_product(families.complete(2), families.path(2), 1)
print("K2 rooted with P2 at its end is P4:", is_isomorphic(r, families.path(4)))
print()

# replacing a prism vertex by a triangle keeps the representation number
swapped = substitute_module(families.prism(3), 1, families.complete(3))
print("Pr3 with a K3 module: n =", swapped.n, " R =", representation_number(swapped))
print()

# subdividing edges enough always lands in the 3-representable world; the
# decision procedure says so, and so does a 3-coloring oriented by color
# classes, with no orientation search
g = families.complete(4)
for u, v in families.complete(4).edges():
    g = subdivide(g, (u, v), 3)
coloring = three_color(g)
print("K4, every edge subdivided into 3 parts:", g.n, "vertices,",
      "representable:", is_word_representable(g),
      "3-coloring certificate:", is_semi_transitive(orientation_from_coloring(g, coloring.witness)),
      f"({coloring.nodes_expanded} coloring nodes)")
print()

# induced-subgraph containment drives hereditary arguments
print("W5 contains an induced C5:", contains_induced(families.wheel(5), families.cycle(5)))
print("K4 contains an induced C4:", contains_induced(families.complete(4), families.cycle(4)))

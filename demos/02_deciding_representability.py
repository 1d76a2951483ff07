"""Deciding word-representability via semi-transitive orientations.

A graph is word-representable exactly when it has an acyclic orientation in
which no arc shortcuts a longer directed path non-transitively.
`find_semi_transitive` either produces such an orientation or refutes one,
and names the route that settled it: a transitive orientation, a
neighborhood that is not a comparability graph, or the exhaustive search.
"""

from wordrep import (
    find_semi_transitive,
    is_semi_transitive,
    is_word_representable,
    line_graph,
    orientation_from_coloring,
    three_color,
    word_to_orientation,
)
from wordrep import families

# every word yields a semi-transitive orientation by first occurrences
o = word_to_orientation((2, 4, 2, 1, 3, 4, 1))
print("orientation of the word 2421341:", o.arcs())
print("semi-transitive:", is_semi_transitive(o))
print()

# the 5-wheel is the smallest graph with no such orientation
w5 = families.wheel(5)
out = find_semi_transitive(w5)
print(f"W5: {out.status} by the {out.detail['route']} route")
print("failing neighborhood vertex (hub sees an odd cycle):", out.detail["vertex"])
print()

pet = families.petersen()
out = find_semi_transitive(pet)
print(f"Petersen: {out.status} by the {out.detail['route']} route "
      f"in {out.nodes_expanded} nodes; witness arcs: {out.witness.arcs()[:6]} ...")
print()

# 3-colorable graphs are always representable: color classes orient the edges
coloring = three_color(pet).witness
o = orientation_from_coloring(pet, coloring)
print("coloring route gives a semi-transitive orientation:", is_semi_transitive(o))
print()

# line graphs of wheels and large cliques are not representable
for name, g in [("L(W4)", line_graph(families.wheel(4))),
                ("L(W5)", line_graph(families.wheel(5))),
                ("L(K5)", line_graph(families.complete(5)))]:
    print(name, "representable:", is_word_representable(g))

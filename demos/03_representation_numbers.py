"""Representation numbers: the least k such that some k-uniform word works.

Complete graphs need one copy of each letter, edgeless graphs and trees and
cycles two, prisms three.  Refutations below are exhaustive searches over
all k-uniform words, pruned by alternation bookkeeping.
"""

from wordrep import families, find_k_uniform_word, representation_number
from wordrep.words import word_to_graph

for name, g in [
    ("K5", families.complete(5)),
    ("E4", families.empty(4)),
    ("P6 (path)", families.path(6)),
    ("C7", families.cycle(7)),
    ("Pr3 (triangular prism)", families.prism(3)),
    ("crown H_{3,3}", families.crown(3)),
    ("W5 (wheel)", families.wheel(5)),
]:
    k = representation_number(g)
    print(f"R({name}) = {k}")
print()

# watch the prism refuse a 2-uniform word, then accept a 3-uniform one; the
# prism is vertex-transitive, so its automorphisms already start every word
# with letter 1 and the cyclic-shift rule saves no node here
two = find_k_uniform_word(families.prism(3), 2)
print("Pr3 with k=2:", two.status, f"({two.nodes_expanded} nodes, exhaustive)")
three = find_k_uniform_word(families.prism(3), 3)
print("Pr3 with k=3:", three.status, "witness:", "".join(map(str, three.witness)))
print("witness verifies:", word_to_graph(three.witness) == families.prism(3))
print()

# closed constructions for trees: an edge is 1212, a leaf splices in as xyx
tree_word = families.tree_two_representant(families.star(4))
print("2-uniform word for the 4-star:", "".join(map(str, tree_word)))
print("cycle construction for C6:", "".join(map(str, families.cycle_two_representant(6))))
print()

# graphs needing three and four permutations: the crowns on 3+3 and 4+4
# vertices, whose orders have dimension 3 and 4.  The word is a realizer of
# the crown's order, one linear extension per permutation, found by a
# deterministic search, so every run prints the same word
from wordrep import permutational_representation_number

for k in (3, 4):
    out = permutational_representation_number(families.crown(k))
    print(f"crown {k}+{k} permutational number:", out.detail["permutations"],
          "witness:", "".join(map(str, out.witness)))

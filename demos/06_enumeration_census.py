"""Census of non-word-representable graphs at small orders.

Canonical augmentation produces every connected graph on up to 9 vertices
once; the decision procedure then counts the non-representable ones: exactly
1 on six vertices (the 5-wheel), 25 on seven, 929 on eight.  The n=8 run takes
around half a minute with four workers and checkpoints as it goes.
"""

import tempfile
import time

from wordrep import families, is_isomorphic
from wordrep.enumeration import (
    count_non_representable,
    generate,
    minimal_non_representable,
    non_representable_members,
)
from wordrep.io import to_graph6

for n in (1, 2, 3, 4, 5, 6, 7):
    corpus = generate(n, connected=True)
    print(f"connected graphs on {n} vertices: {len(corpus)}")
print()

members = non_representable_members(generate(6))
print("non-representable on 6 vertices:", len(members))
print("  it is the 5-wheel:", is_isomorphic(members[0], families.wheel(5)))
print()

corpus7 = generate(7)
t0 = time.time()
count7 = count_non_representable(corpus7, jobs=4)
minimal7 = minimal_non_representable(corpus7, jobs=4)
print(f"non-representable on 7 vertices: {count7} ({time.time()-t0:.1f}s)")
print(f"  minimal ones (no deletable vertex keeps them non-representable): {len(minimal7)}")
print("  as graph6:", " ".join(to_graph6(g) for g in minimal7))
print()

ckpt = tempfile.mktemp(suffix=".ckpt")
t0 = time.time()
corpus8 = generate(8)
print(f"connected graphs on 8 vertices: {len(corpus8)} ({time.time()-t0:.1f}s to generate)")
t0 = time.time()
count8 = count_non_representable(corpus8, jobs=4, checkpoint=ckpt)
print(f"non-representable on 8 vertices: {count8} ({time.time()-t0:.1f}s, checkpoint at {ckpt})")

"""Word-representable graphs: alternation words, semi-transitive
orientations, representation numbers, pattern-avoiding representants, graph
operations, and exhaustive censuses of non-representable graphs."""

from .graphs import (
    CeilingExceeded,
    Graph,
    add_apex,
    automorphisms,
    canonical_form,
    cartesian_product,
    complement,
    connect_by_edge,
    contains_induced,
    contract_edge,
    delete_vertex,
    disjoint_union,
    glue_at_vertex,
    induced_subgraph,
    is_connected,
    is_isomorphic,
    line_graph,
    max_clique_size,
    rooted_product,
    subdivide,
    substitute_module,
)
from .orientation import (
    Orientation,
    find_semi_transitive,
    find_transitive,
    is_acyclic,
    is_permutationally_representable,
    is_semi_transitive,
    is_transitive,
    is_word_representable,
    neighborhood_filter,
    orientation_from_coloring,
    three_color,
    word_to_orientation,
)
from .outcome import BudgetExhausted, SearchOutcome
from .repnum import (
    count_pattern_avoiding_representants,
    find_k_uniform_word,
    find_pattern_avoiding_word,
    multiplicity_caps,
    permutational_representation_number,
    representation_number,
)
from .words import (
    alternates,
    avoids_pattern,
    contains_pattern,
    cyclic_shift,
    delete_letter,
    extend_to_uniform,
    initial_permutation,
    is_uniform,
    word_to_graph,
)

__version__ = "0.1.0"

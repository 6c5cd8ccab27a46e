"""Exact combinatorics of min-plus tropical hyperplane arrangements:
types of points, satisfiability, max-plus permanents, the face complex,
and the braid-arrangement face monoid acting on all of it."""

from .boolmat import (BoolMatrix, PartialBijection,
                      contained_partial_bijections, is_partial_bijection)
from .complex import (CapExceeded, TypeCell, act_on_type, cell_dimension,
                      cell_of, enumerate_types, face_relation, is_bounded,
                      is_type)
from .facemonoid import (OrderedSetPartition, act_matrix, act_subset,
                         is_chamber, partitions)
from .permanent import (PermanentStructure, is_permanent_attaining,
                        optimal_bijections, permanent_structure,
                        tropical_permanent)
from .tropical import (Arrangement, as_point, column_space_projection,
                       combine_satisfiers, dominates, is_realized_type,
                       is_satisfiable, project_to_plane, realize_type,
                       residuation, type_of_point, witness)

__all__ = [
    "Arrangement", "BoolMatrix", "CapExceeded", "OrderedSetPartition",
    "PartialBijection", "PermanentStructure", "TypeCell", "act_matrix",
    "act_on_type", "act_subset", "as_point", "cell_dimension", "cell_of",
    "column_space_projection", "combine_satisfiers",
    "contained_partial_bijections", "dominates", "enumerate_types",
    "face_relation", "is_bounded", "is_chamber", "is_partial_bijection",
    "is_permanent_attaining", "is_realized_type", "is_satisfiable",
    "is_type", "optimal_bijections", "partitions",
    "permanent_structure", "project_to_plane", "realize_type",
    "residuation", "tropical_permanent", "type_of_point", "witness",
]

"""Sofic shifts, left Krieger covers, diagonal-algebra models, and
Cuntz-Krieger K-theory by exact integer arithmetic."""

from importlib import import_module

from .automata import (language_equal_upto, make_right_resolving,
                       trim_essential)
from .diagonal import (ClopenSet, class_projection, conj_by_letter,
                       cylinder, evaluate_projection_formula,
                       express_class_projection, full_space, diagonal_generator,
                       post_image, shift_preimage, word_classes)
from .errors import (AmbiguousLabelError, CoverInvariantError,
                     EmptyShiftError, InputFormatError, ResourceLimitError,
                     SoficError)
from .isocheck import (CheckResult, Report, corrupt_cover,
                       verify_all, verify_ck_relations,
                       verify_edge_sum_hypotheses, verify_round_trips)
from .krieger import (EdgeMatrix, KriegerCover, build_cover, cover_to_dot,
                      edge_matrix, past_partition, realized_survivor_sets,
                      stabilization_level, survivor_set,
                      unique_labeled_path)
from .shiftcore import (Alphabet, Edge, LabeledGraph, Ray, SftSpec, Word,
                        is_admissible, parse_presentation, ray_admissible,
                        serialize_presentation, sft_to_graph,
                        words_of_length)

__version__ = "0.1.0"

# Read only by the ``ktheory`` and ``oracle`` commands and the tests,
# so imported on first use.
_LAZY = {name: module for module, names in (
    ("ktheory", ("AbelianGroup", "determinant", "k_groups",
                 "smith_normal_form")),
    ("semigroup", ("TransitionRelation", "TransitionSemigroup",
                   "realized_survivor_sets_bruteforce",
                   "transition_semigroup")),
) for name in names}


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

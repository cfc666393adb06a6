"""Edge colorings of lattice graphs decodable from walks.

Color every edge of a rectangular lattice so that any walk whose edges
span enough orientations can be located, exactly, from the sequence of
colors it crossed.  Includes the coloring schemes, the decoders, the
matching lower bound, and exhaustive verification tooling.  Its record
types (LatticeSpec, SchemeParams, DecodeReport and the rest) are
immutable values compared by class and fields; see lattice.Record.
"""

from .colorer import (
    SchemeParams,
    assign_color,
    color_walk,
    coloring_lines,
    make_scheme,
    palette_size,
    parse_header,
)
from .decoder import (
    AMBIGUOUS,
    INVALID,
    OK,
    DecodeReport,
    WalkObservation,
    decode,
    recover_signs,
)
from .gfpoly import FieldPrime, next_prime_above
from .lattice import Edge, LatticeSpec, Walk, rank, unrank, walk_dimension
from .oarray import OASpec, oa_row_from_projection, oa_validate
from .verifier import (
    ambiguity_scan,
    fault_inject,
    lb_walk_family,
    lower_bound_colors,
    random_walk,
    roundtrip_campaign,
)

__all__ = [
    "AMBIGUOUS",
    "INVALID",
    "OK",
    "DecodeReport",
    "Edge",
    "FieldPrime",
    "LatticeSpec",
    "OASpec",
    "SchemeParams",
    "Walk",
    "WalkObservation",
    "ambiguity_scan",
    "assign_color",
    "color_walk",
    "coloring_lines",
    "decode",
    "fault_inject",
    "lb_walk_family",
    "lower_bound_colors",
    "make_scheme",
    "next_prime_above",
    "oa_row_from_projection",
    "oa_validate",
    "palette_size",
    "parse_header",
    "random_walk",
    "rank",
    "recover_signs",
    "roundtrip_campaign",
    "unrank",
    "walk_dimension",
]

"""Register allocation: baselines, chunking, preferences, UCC-RA."""

from .base import (
    AllocationError,
    AllocationRecord,
    MoveInsertion,
    Piece,
    Placement,
    verify_allocation,
)
from .chunks import (
    Chunk,
    DEFAULT_K,
    IRMatch,
    build_chunks,
    changed_fraction,
    changed_indices,
    chunk_of,
    match_ir,
)
from .graph_coloring import allocate_graph_coloring
from .linear_scan import allocate_linear_scan
from .preferences import PreferenceMap, build_preferences, misleading_preferences
from .ucc_ra import UCCReport, allocate_ucc_greedy

__all__ = [
    "AllocationError",
    "AllocationRecord",
    "Chunk",
    "DEFAULT_K",
    "IRMatch",
    "MoveInsertion",
    "Piece",
    "Placement",
    "PreferenceMap",
    "UCCReport",
    "allocate_graph_coloring",
    "allocate_linear_scan",
    "allocate_ucc_greedy",
    "build_chunks",
    "build_preferences",
    "changed_fraction",
    "changed_indices",
    "chunk_of",
    "match_ir",
    "misleading_preferences",
    "verify_allocation",
]

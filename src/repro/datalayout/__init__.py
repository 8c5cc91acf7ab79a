"""Data layout: GCC-DA baseline and UCC-DA threshold algorithm."""

from .gcc_da import allocate_gcc_da, name_hash
from .layout import (
    DataLayout,
    Hole,
    LayoutObject,
    SRAMOverflowError,
    collect_layout_objects,
    spill_uid,
)
from .ucc_da import UCCDAReport, allocate_ucc_da

__all__ = [
    "DataLayout",
    "Hole",
    "LayoutObject",
    "SRAMOverflowError",
    "UCCDAReport",
    "allocate_gcc_da",
    "allocate_ucc_da",
    "collect_layout_objects",
    "name_hash",
    "spill_uid",
]

"""Code generation: instruction selection and data-image building."""

from .scratch import ScratchOverflow, ScratchPool
from .selector import (
    FunctionSelector,
    SelectionError,
    select_function,
)

__all__ = [
    "FunctionSelector",
    "ScratchOverflow",
    "ScratchPool",
    "SelectionError",
    "select_function",
]

from .placement import (
    FunctionSlot,
    PlacementPlan,
    apply_placement,
    baseline_placement,
    code_size_words,
    ucc_placement,
)

__all__ += [
    "FunctionSlot",
    "PlacementPlan",
    "apply_placement",
    "baseline_placement",
    "code_size_words",
    "ucc_placement",
]

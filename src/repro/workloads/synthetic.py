"""The synthetic workload of the ILP-complexity sweeps (Figures 13-15).

A straight-line function whose statement count sets the size of the
chunk-allocation ILP: :func:`synthetic_chunk_source` writes it and
:func:`ilp_spec` builds the spec UCC-RA would solve for it.  The
Figure 13-15 benches, the ILP fast-path tests and the pinned ILP
answers all sweep this one definition.
"""

from __future__ import annotations

from ..core import Compiler, compile_source
from ..energy import DEFAULT_ENERGY_MODEL
from ..ir import analyze, static_frequencies
from ..regalloc import allocate_ucc_greedy
from ..regalloc.chunks import changed_indices
from ..regalloc.ilp_ra import build_spec_for_chunk


#: u8 locals of the synthetic function, and candidate registers per
#: variable in its ILP spec.
N_VARS = 3
CANDIDATES = 3


def synthetic_chunk_source(n_stmts: int) -> str:
    """A straight-line function of ``n_stmts`` statements over
    :data:`N_VARS` u8 locals."""
    decls = "\n    ".join(f"u8 v{i} = {i + 1};" for i in range(N_VARS))
    ops = ["+", "^", "|", "&", "-"]
    lines = []
    for s in range(n_stmts):
        dst = s % N_VARS
        lhs = (s + 1) % N_VARS
        rhs = (s + 2) % N_VARS
        op = ops[s % len(ops)]
        lines.append(f"v{dst} = v{lhs} {op} v{rhs};")
    body = "\n    ".join(lines)
    uses = " ^ ".join(f"v{i}" for i in range(N_VARS))
    return f"""
void f() {{
    {decls}
    {body}
    led_set({uses});
}}
void main() {{ f(); halt(); }}
"""


def ilp_spec(n_stmts: int):
    """The chunk-allocation ILP spec of the whole synthetic function of
    ``n_stmts`` statements, recompiled against its own first compile."""
    source = synthetic_chunk_source(n_stmts)
    old = compile_source(source)
    module = Compiler().front_and_middle(source)
    fn = module.functions["f"]
    record, report = allocate_ucc_greedy(
        fn, old.module.functions["f"], old.records["f"]
    )
    changed = changed_indices(fn, report.match)
    return build_spec_for_chunk(
        fn, analyze(fn), record, report, 0, len(fn.instrs), changed,
        static_frequencies(fn), DEFAULT_ENERGY_MODEL, 1000.0, CANDIDATES,
    )

"""Draw the release chains of the ``release_train`` workload.

Each chain is a program from the fuzzer's generator followed by ten
successive semantic mutations (one or two edits each), drawn with the
default ``GenConfig``.  Chain ``i`` uses its own generator stream
``perfbench-chain:<GENERATOR_SEED>:<i>``, so the first N chains do not
depend on how many are drawn.  The sources are committed under
``perfbench/chains/`` so an edit to ``repro.fuzz`` cannot move the
benchmark's inputs; this script only documents how they were drawn.

    PYTHONPATH=src python3 perfbench/make_chains.py --chains 6
"""

from __future__ import annotations

import argparse
import random
from pathlib import Path

GENERATOR_SEED = 2007
RELEASES_PER_CHAIN = 10
CHAINS_DIR = Path(__file__).resolve().parent / "chains"


def draw_chain(index: int) -> list[str]:
    """Base source plus ``RELEASES_PER_CHAIN`` successive releases."""
    from repro.fuzz import generate_program, mutate

    rng = random.Random(f"perfbench-chain:{GENERATOR_SEED}:{index}")
    program = generate_program(rng)
    sources = [program.render()]
    for _ in range(RELEASES_PER_CHAIN):
        program, _edits = mutate(program, rng, rng.randrange(1, 3))
        sources.append(program.render())
    return sources


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--chains", type=int, required=True)
    parser.add_argument("--out", type=Path, default=CHAINS_DIR)
    args = parser.parse_args()
    for index in range(args.chains):
        directory = args.out / f"chain{index:02d}"
        directory.mkdir(parents=True, exist_ok=True)
        for version, source in enumerate(draw_chain(index)):
            (directory / f"v{version:02d}.c").write_text(source)


if __name__ == "__main__":
    main()

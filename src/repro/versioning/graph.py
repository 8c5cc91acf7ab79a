"""The content-addressed version graph and its diff-artifact edges.

Nodes are compiled images (addressed by the digest of their word
stream + data segment), edges are diff artifacts:

* ``"step"``   — the update-conscious diff between adjacent released
  versions, produced by :class:`repro.core.update.UpdatePlanner`
  exactly as the single-version pipeline would have;
* ``"merged"`` — one direct diff across a span of versions, a fresh
  :func:`repro.diff.differ.diff_images` of the endpoint images;
* ``"full"``   — the whole target image as a remove-all/insert-all
  script, the fallback every plan is benchmarked against.

The chain v0→v1→…→vN *defines* the canonical image of every version:
an update-conscious compile depends on the image it patches, so vN
"compiled from v3" would be a different binary.  Merged and full
edges therefore always target the canonical chain image — that is
what makes replay identity along every path possible at all.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..config import UpdateConfig
from ..core.compiler import CompiledProgram, compile_source
from ..core.errors import PlanStateError
from ..diff.data_diff import DataScript, apply_data, diff_data
from ..diff.differ import diff_images
from ..diff.edit_script import EditScript
from ..diff.patcher import PatchError, apply_script
from ..obs import metrics, trace

#: Wire framing of a plan blob: u16 step count, then per step a u32
#: code-script length and u32 data-script length, then the payloads.
_COUNT_BYTES = 2
_LEN_BYTES = 4


@dataclass
class VersionEdge:
    """One diff artifact: everything needed to move src → dst."""

    src: int
    dst: int
    kind: str  # "step" | "merged" | "full"
    code_script: EditScript
    data_script: DataScript

    @property
    def script_bytes(self) -> int:
        """Wire size of the artifact (code + data scripts)."""
        return self.code_script.size_bytes + self.data_script.size_bytes

    def step_bytes(self) -> bytes:
        code = self.code_script.to_bytes()
        data = self.data_script.to_bytes()
        return (
            len(code).to_bytes(_LEN_BYTES, "little")
            + len(data).to_bytes(_LEN_BYTES, "little")
            + code
            + data
        )


def encode_plan_blob(steps: Sequence[VersionEdge]) -> bytes:
    """Frame a plan's edges into one dissemination blob.

    The receiver applies the steps in order; the framing keeps each
    step's code and data scripts individually recoverable so a node
    can verify and commit stage by stage.
    """
    if not steps:
        raise PlanStateError("encode", "a plan blob needs at least one step")
    out = len(steps).to_bytes(_COUNT_BYTES, "little")
    for step in steps:
        out += step.step_bytes()
    return out


def decode_plan_blob(blob: bytes) -> List[Tuple[bytes, bytes]]:
    """Inverse of :func:`encode_plan_blob`: ``(code, data)`` byte pairs."""
    if len(blob) < _COUNT_BYTES:
        raise PlanStateError("decode", "plan blob shorter than its header")
    count = int.from_bytes(blob[:_COUNT_BYTES], "little")
    cursor = _COUNT_BYTES
    steps: List[Tuple[bytes, bytes]] = []
    for _ in range(count):
        if cursor + 2 * _LEN_BYTES > len(blob):
            raise PlanStateError("decode", "plan blob truncated in a header")
        code_len = int.from_bytes(blob[cursor : cursor + _LEN_BYTES], "little")
        cursor += _LEN_BYTES
        data_len = int.from_bytes(blob[cursor : cursor + _LEN_BYTES], "little")
        cursor += _LEN_BYTES
        if cursor + code_len + data_len > len(blob):
            raise PlanStateError("decode", "plan blob truncated in a payload")
        code = blob[cursor : cursor + code_len]
        cursor += code_len
        data = blob[cursor : cursor + data_len]
        cursor += data_len
        steps.append((code, data))
    if cursor != len(blob):
        raise PlanStateError(
            "decode", f"plan blob has {len(blob) - cursor} trailing bytes"
        )
    return steps


class VersionGraph:
    """Compiled images + diff artifacts over a release history.

    Construction compiles the chain (see :func:`build_version_graph`);
    merged and full edges are derived lazily and cached, so the graph
    only pays for the spans a planner actually asks about.
    """

    def __init__(
        self,
        programs: Dict[int, CompiledProgram],
        edges: Dict[Tuple[int, int], VersionEdge],
    ):
        self.programs = programs
        self._edges = edges
        self._full: Dict[Tuple[int, int], VersionEdge] = {}
        self._digests: Dict[int, str] = {}

    @property
    def versions(self) -> Tuple[int, ...]:
        return tuple(sorted(self.programs))

    @property
    def target(self) -> int:
        return self.versions[-1]

    def image_digest(self, version: int) -> str:
        """Content address of a version's image (words + data)."""
        cached = self._digests.get(version)
        if cached is not None:
            return cached
        program = self.programs[version]
        digest = hashlib.sha256(
            json.dumps(
                {
                    "words": program.image.words(),
                    "data": program.image.data.hex(),
                },
                sort_keys=True,
                separators=(",", ":"),
            ).encode("utf-8")
        ).hexdigest()
        self._digests[version] = digest
        return digest

    def edge(self, src: int, dst: int) -> Optional[VersionEdge]:
        return self._edges.get((src, dst))

    def step_path(self, src: int, dst: int) -> List[int]:
        """The chain of released versions src → dst (inclusive)."""
        if src not in self.programs or dst not in self.programs:
            missing = src if src not in self.programs else dst
            raise PlanStateError(
                "chain", f"version v{missing} is not in the graph"
            )
        if src >= dst:
            raise PlanStateError(
                "chain", f"cannot chain backwards v{src} -> v{dst}"
            )
        return [v for v in self.versions if src <= v <= dst]

    def step_edges(self, src: int, dst: int) -> List[VersionEdge]:
        path = self.step_path(src, dst)
        return [
            self._edges[(a, b)] for a, b in zip(path, path[1:])
        ]

    def merged_edge(self, src: int, dst: int) -> VersionEdge:
        """The single-hop diff src → dst: the step edge when the two
        are adjacent, else a fresh diff of the endpoint images (cached)."""
        key = (src, dst)
        existing = self._edges.get(key)
        if existing is not None:
            return existing
        old = self.programs[src].image
        new = self.programs[dst].image
        edge = VersionEdge(
            src=src,
            dst=dst,
            kind="merged",
            code_script=diff_images(old, new).script,
            data_script=diff_data(old.data, new.data),
        )
        self._edges[key] = edge
        metrics.counter("versioning.edges").inc()
        return edge

    def full_edge(self, src: int, dst: int) -> VersionEdge:
        """The full-image fallback: drop src's code, ship dst's whole
        image as literals (data segment patched directly)."""
        key = (src, dst)
        cached = self._full.get(key)
        if cached is not None:
            return cached
        old = self.programs[src].image
        new = self.programs[dst].image
        script = EditScript()
        script.remove(len(old.code))
        script.insert([tuple(enc.words) for enc in new.code])
        edge = VersionEdge(
            src=src,
            dst=dst,
            kind="full",
            code_script=script,
            data_script=diff_data(old.data, new.data),
        )
        self._full[key] = edge
        metrics.counter("versioning.edges").inc()
        return edge

    def replay(self, path: Sequence[int], edges: Sequence[VersionEdge]):
        """Re-apply a plan's edges image-by-image — the replay oracle.

        Models exactly what a node at ``path[0]`` does with the plan
        blob: each stage's code script is interpreted against the
        image the previous stage committed, the data script against
        its data segment.  Returns ``(words, data)`` of the final
        image; raises :class:`repro.diff.patcher.PatchError` if any
        stage diverges from the canonical image of its destination
        version.
        """
        if len(edges) != len(path) - 1:
            raise PlanStateError(
                "replay",
                f"path {tuple(path)} needs {len(path) - 1} edges, "
                f"got {len(edges)}",
            )
        words: List[int] = []
        data = b""
        for at, edge in enumerate(edges):
            src, dst = path[at], path[at + 1]
            if (edge.src, edge.dst) != (src, dst):
                raise PlanStateError(
                    "replay",
                    f"edge {edge.src}->{edge.dst} out of place at "
                    f"hop {src}->{dst}",
                )
            image = self.programs[src].image
            units = apply_script(image, edge.code_script)
            words = [word for unit in units for word in unit]
            expected = self.programs[dst].image.words()
            if words != expected:
                raise PatchError(
                    f"replay diverged on hop v{src}->v{dst} "
                    f"({edge.kind} edge)"
                )
            data = apply_data(image.data, edge.data_script)
            if data != self.programs[dst].image.data:
                raise PatchError(
                    f"data replay diverged on hop v{src}->v{dst} "
                    f"({edge.kind} edge)"
                )
        return words, data


def build_version_graph(
    releases: Mapping[int, str],
    *,
    update_config: Optional[UpdateConfig] = None,
    base: Optional[Mapping[int, CompiledProgram]] = None,
) -> VersionGraph:
    """Compile a release history into a :class:`VersionGraph`.

    ``releases`` maps version labels to program sources.  The lowest
    version is compiled from scratch; every later one is planned as an
    update-conscious step from its predecessor, which yields both the
    canonical image of each version and the graph's ``"step"`` edges in
    one pass.

    ``base`` maps version labels to already-compiled programs whose
    sources are unavailable (an :class:`repro.core.session
    .UpdateSession` constructed around a deployed binary, or its
    version history when the fleet straggles several releases behind).
    Base versions must precede every sourced release; adjacent
    precompiled versions are bridged by a direct image diff, and the
    first sourced release is planned as an update-conscious step from
    the newest base.
    """
    from ..core.update import UpdatePlanner

    sources = {int(version): source for version, source in releases.items()}
    programs: Dict[int, CompiledProgram] = dict(base or {})
    ordered = sorted(set(sources) | set(programs))
    if ordered and ordered[0] < 0:
        raise PlanStateError(
            "build", f"version labels must be >= 0, got v{ordered[0]}"
        )
    for version, source in sources.items():
        if not source.strip():
            raise PlanStateError(
                "build", f"release v{version} has an empty source program"
            )
    if programs and sources and max(programs) >= min(sources):
        raise PlanStateError(
            "build",
            f"base v{max(programs)} must precede every release "
            f"(earliest is v{min(sources)})",
        )
    if len(ordered) < 2:
        raise PlanStateError(
            "build",
            f"a version graph needs at least two releases, got {len(ordered)}",
        )

    with trace.span(
        "versioning.build", versions=len(ordered), target=ordered[-1]
    ):
        if ordered[0] not in programs:
            programs[ordered[0]] = compile_source(sources[ordered[0]])
        edges: Dict[Tuple[int, int], VersionEdge] = {}
        cfg = update_config if update_config is not None else UpdateConfig()
        for prev, curr in zip(ordered, ordered[1:]):
            if curr in programs:
                # Both endpoints are precompiled anchors — no source to
                # plan update-consciously from, so bridge them with a
                # direct diff of their canonical images.
                old, new = programs[prev].image, programs[curr].image
                edges[(prev, curr)] = VersionEdge(
                    src=prev,
                    dst=curr,
                    kind="step",
                    code_script=diff_images(old, new).script,
                    data_script=diff_data(old.data, new.data),
                )
                continue
            planner = UpdatePlanner(programs[prev], config=cfg)
            update = planner.plan(sources[curr])
            programs[curr] = update.new
            edges[(prev, curr)] = VersionEdge(
                src=prev,
                dst=curr,
                kind="step",
                code_script=update.diff.script,
                data_script=update.data_script,
            )
    metrics.counter("versioning.graphs").inc()
    metrics.counter("versioning.edges").inc(len(edges))
    return VersionGraph(programs, edges)


__all__ = [
    "VersionEdge",
    "VersionGraph",
    "build_version_graph",
    "decode_plan_blob",
    "encode_plan_blob",
]

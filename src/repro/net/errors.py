"""Structured network-layer errors.

The dissemination and campaign layers degrade gracefully: expected
failure modes come back as data, not bare string exceptions.  The two
errors here carry enough structure that a caller (the fleet service,
the CLI, a test) can report *which* nodes are affected and *how far*
the protocol got without parsing messages.
"""

from __future__ import annotations

from typing import Mapping, Sequence


class DisconnectedTopologyError(ValueError):
    """A dissemination was asked to cover nodes the sink cannot reach.

    Raised up front (before any rounds are spent) by
    :func:`repro.net.lossy.disseminate_lossy`; the campaign layer
    instead quarantines the unreachable nodes and proceeds.

    ``unreachable`` lists the node ids with no path to the sink.
    """

    def __init__(self, unreachable: Sequence[int]):
        self.unreachable = tuple(sorted(unreachable))
        shown = ", ".join(str(node) for node in self.unreachable[:8])
        if len(self.unreachable) > 8:
            shown += f", ... ({len(self.unreachable)} total)"
        super().__init__(
            f"topology is disconnected: node(s) {shown} unreachable from "
            f"the sink; dissemination would spin its whole round budget"
        )


class DisseminationIncomplete(RuntimeError):
    """A lossy dissemination hit its round budget with nodes still missing
    packets.

    Structured attributes:

    * ``missing`` — node id → count of packets that node still misses,
    * ``rounds``  — repair rounds spent before giving up,
    * ``packets`` — total packets in the script.

    Subclasses :class:`RuntimeError` so pre-existing ``except
    RuntimeError`` handlers keep working.
    """

    def __init__(self, missing: Mapping[int, int], rounds: int, packets: int):
        self.missing = dict(missing)
        self.rounds = rounds
        self.packets = packets
        worst = sorted(self.missing.items(), key=lambda kv: (-kv[1], kv[0]))
        shown = ", ".join(
            f"node {node}: {count}/{packets} missing" for node, count in worst[:4]
        )
        if len(worst) > 4:
            shown += f", ... ({len(worst)} nodes total)"
        super().__init__(
            f"dissemination incomplete after {rounds} rounds ({shown})"
        )


class NetConfigError(ValueError):
    """A network-layer parameter is out of its documented range.

    Carries the offending ``parameter`` name and ``value`` so callers
    (the CLI, the fleet service) can report the bad knob without
    parsing the message.  Subclasses :class:`ValueError` so existing
    ``except ValueError`` handlers and tests keep working.
    """

    def __init__(self, parameter: str, value: object, message: str):
        self.parameter = parameter
        self.value = value
        super().__init__(message)


class FaultPlanError(ValueError):
    """A fault-plan element (crash, partition, probability) is invalid.

    Raised by the ``__post_init__`` validators of
    :class:`repro.net.faults.NodeCrash`,
    :class:`~repro.net.faults.PartitionWindow`, and
    :class:`~repro.net.faults.FaultPlan`; ``field`` names the invalid
    attribute and ``value`` holds what was passed.
    """

    def __init__(self, field: str, value: object, message: str):
        self.field = field
        self.value = value
        super().__init__(message)


class TopologyError(ValueError):
    """A topology cannot be built as specified.

    Covers an unknown ``kind`` selector, a random-geometric radio range
    that is not positive or an area that is not finite, and a
    random-geometric sample that never produced a connected network;
    ``kind`` names the topology family involved.
    """

    def __init__(self, kind: str, message: str):
        self.kind = kind
        super().__init__(message)


__all__ = [
    "DisconnectedTopologyError",
    "DisseminationIncomplete",
    "FaultPlanError",
    "NetConfigError",
    "TopologyError",
]

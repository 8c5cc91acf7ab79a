"""Version-graph update planning over compiled images.

Real fleets are version-heterogeneous: nodes that slept through
campaigns sit at v3 while the sink ships v7.  The paper's pipeline
always diffs *adjacent* versions; this package generalises it to a
**version graph** — nodes are compiled images addressed by content
digest, edges are diff artifacts weighted by wire size — and a
**cohort planner** that picks, per group of same-version nodes, the
cheapest way to bring them to the target: the chain of step diffs,
one merged direct diff, or the full image (Difference Based Content
Networking, PAPERS.md).

Layers:

* :mod:`repro.versioning.graph`    — :func:`build_version_graph`,
  the content-addressed graph + on-demand merged/full-image edges;
* :mod:`repro.versioning.planner`  — :func:`plan_cohorts`, the
  energy cost model and per-cohort strategy choice;
* :mod:`repro.versioning.campaign` — :func:`run_versioned_campaign`,
  driving one dissemination campaign per cohort (optionally coded,
  see :mod:`repro.net.coding`) with a replay-identity check that
  every planned path rebuilds the byte-identical target image.
"""

from .campaign import VersionedCampaignReport, run_versioned_campaign
from .graph import VersionEdge, VersionGraph, build_version_graph
from .planner import plan_cohorts

__all__ = [
    "VersionEdge",
    "VersionGraph",
    "VersionedCampaignReport",
    "build_version_graph",
    "plan_cohorts",
    "run_versioned_campaign",
]

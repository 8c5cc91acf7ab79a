#!/usr/bin/env python3
"""Documentation gate for CI (the ``docs`` job).

Three checks, all against the working tree, no third-party deps:

1. **Intra-repo Markdown links.**  Every relative link target in the
   curated documentation set must exist on disk.  External URLs and
   pure-anchor links are skipped; ``#fragment`` suffixes are stripped
   before the existence check.

2. **Telemetry catalogue, both ways.**  Every literal span/metric name
   used in ``src/repro`` — a string passed to ``trace.span("...")``,
   ``metrics.counter("...")``, ``metrics.gauge("...")`` or
   ``metrics.histogram("...")`` — must appear (backticked) in
   ``docs/OBSERVABILITY.md``.  This is why instrumented code must pass
   names as literals: a name routed through a variable is invisible
   here and would silently escape the contract.  Conversely, every
   backticked dotted name in the first column of a catalogue table
   must be emitted by such a literal, so a deleted span or metric
   cannot keep its row.

3. **Lint rule catalogue coverage.**  Every ``rule_id = "..."``
   declared under ``src/repro/lint`` (plus the ``SUP001``
   suppression meta-rule) must appear (backticked) in
   ``docs/LINT.md`` — the registry is the source of truth and the
   catalogue cannot drift from it.

Exit status: 0 when every check passes, 1 otherwise (one line per
problem on stderr).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Documentation files whose links we guarantee.  PAPER.md / PAPERS.md /
#: SNIPPETS.md / ISSUE.md are excluded on purpose: they carry imported
#: text and code fragments with markdown-shaped content we do not own.
DOC_FILES = (
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "CHANGES.md",
    "docs/SIMULATOR.md",
    "docs/VERSIONING.md",
)

CATALOGUE = "docs/OBSERVABILITY.md"
LINT_CATALOGUE = "docs/LINT.md"

#: [text](target) — excluding images; target up to the first ')' that
#: is not preceded by an escape.
_LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")

_SPAN_RE = re.compile(r"\bspan\(\s*\"([a-z0-9_.]+)\"")
_METRIC_RE = re.compile(r"\b(?:counter|gauge|histogram)\(\s*\"([a-z0-9_.]+)\"")
#: A table row whose first cell is one backticked name.
_ROW_NAME_RE = re.compile(r"^\|\s*`([a-z0-9_.]+)`\s*\|", re.M)
_RULE_ID_RE = re.compile(r"^\s*(?:rule_id|SUP_RULE_ID)\s*=\s*\"([A-Z0-9-]+)\"", re.M)


def doc_files() -> list[Path]:
    files = [REPO / name for name in DOC_FILES]
    files.extend(sorted((REPO / "docs").glob("*.md")))
    seen: set[Path] = set()
    unique = []
    for f in files:
        if f.exists() and f not in seen:
            seen.add(f)
            unique.append(f)
    return unique


def check_links() -> list[str]:
    problems = []
    for doc in doc_files():
        text = doc.read_text(encoding="utf-8")
        for match in _LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = (doc.parent / path).resolve()
            if not resolved.exists():
                problems.append(
                    f"{doc.relative_to(REPO)}: broken link -> {target}"
                )
    return problems


def emitted_names() -> tuple[set[str], set[str]]:
    """(span names, metric names) used as literals under src/repro."""
    spans: set[str] = set()
    mets: set[str] = set()
    for source in sorted((REPO / "src" / "repro").rglob("*.py")):
        text = source.read_text(encoding="utf-8")
        spans.update(_SPAN_RE.findall(text))
        mets.update(_METRIC_RE.findall(text))
    return spans, mets


def catalogued_names(catalogue: str) -> set[str]:
    """Dotted names in the first column of the catalogue's tables."""
    return {name for name in _ROW_NAME_RE.findall(catalogue) if "." in name}


def check_catalogue(catalogue_path: Path = REPO / CATALOGUE) -> list[str]:
    if not catalogue_path.exists():
        return [f"{CATALOGUE} is missing"]
    catalogue = catalogue_path.read_text(encoding="utf-8")
    problems = []
    spans, mets = emitted_names()
    for name in sorted(spans):
        if f"`{name}`" not in catalogue:
            problems.append(
                f"span {name!r} is emitted in src/repro but not "
                f"catalogued in {CATALOGUE}"
            )
    for name in sorted(mets):
        if f"`{name}`" not in catalogue:
            problems.append(
                f"metric {name!r} is emitted in src/repro but not "
                f"catalogued in {CATALOGUE}"
            )
    for name in sorted(catalogued_names(catalogue) - spans - mets):
        problems.append(
            f"{name!r} is catalogued in {CATALOGUE} but no span or "
            f"metric literal in src/repro emits it"
        )
    return problems


def declared_rule_ids() -> set[str]:
    """``rule_id = "..."`` (and the SUP meta-rule) under src/repro/lint."""
    rules: set[str] = set()
    for source in sorted((REPO / "src" / "repro" / "lint").glob("*.py")):
        rules.update(_RULE_ID_RE.findall(source.read_text(encoding="utf-8")))
    return rules


def check_lint_catalogue() -> list[str]:
    catalogue_path = REPO / LINT_CATALOGUE
    if not catalogue_path.exists():
        return [f"{LINT_CATALOGUE} is missing"]
    catalogue = catalogue_path.read_text(encoding="utf-8")
    problems = []
    for rule_id in sorted(declared_rule_ids()):
        if f"`{rule_id}`" not in catalogue:
            problems.append(
                f"lint rule {rule_id!r} is declared in src/repro/lint but "
                f"not catalogued in {LINT_CATALOGUE}"
            )
    return problems


def main() -> int:
    problems = check_links() + check_catalogue() + check_lint_catalogue()
    for problem in problems:
        print(problem, file=sys.stderr)
    spans, mets = emitted_names()
    print(
        f"check_docs: {len(doc_files())} docs, {len(spans)} spans, "
        f"{len(mets)} metrics, {len(declared_rule_ids())} lint rules, "
        f"{len(problems)} problem(s)"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())

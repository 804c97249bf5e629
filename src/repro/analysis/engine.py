"""The lint driver: collect files, run every selected rule, apply the
baseline, render the report.

Stdlib-only and deliberately boring: one pass parses each file once,
hands the same :class:`~repro.analysis.base.ModuleUnderLint` to every
checker, then project-wide rules flush from ``finish()``.  The exit-code
contract of ``repro lint`` is::

    0  no fresh findings (baselined ones don't count)
    1  at least one fresh finding
    2  usage / internal error (raised as AnalysisError upstream)
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.analysis.base import (
    ModuleUnderLint,
    create_checkers,
    rule_selected,
)
from repro.analysis.baseline import Baseline
from repro.analysis.findings import Finding, Severity
from repro.errors import AnalysisError

#: Engine-emitted pseudo-rule: the file did not parse, nothing else ran.
PARSE_ERROR_CODE = "RPR001"

_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "build", "dist"})


def iter_python_files(paths: Sequence["str | Path"]) -> list[Path]:
    """Every ``*.py`` under ``paths`` (files pass through), sorted."""
    files: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise AnalysisError(f"lint path does not exist: {path}")
        if path.is_file():
            files.add(path)
            continue
        for candidate in path.rglob("*.py"):
            if not any(part in _SKIP_DIRS for part in candidate.parts):
                files.add(candidate)
    return sorted(files)


def _relpath(path: Path) -> str:
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


@dataclass
class LintReport:
    """Everything one lint run produced, pre-rendered-format."""

    findings: list[Finding]          # fresh (not matched by the baseline)
    baselined: int = 0               # findings absorbed by the baseline
    stale_baseline: list[str] = field(default_factory=list)
    files_scanned: int = 0
    rules: list[str] = field(default_factory=list)
    all_findings: list[Finding] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def to_dict(self) -> dict:
        return {
            "findings": [f.to_dict() for f in self.findings],
            "baselined": self.baselined,
            "stale_baseline": list(self.stale_baseline),
            "files_scanned": self.files_scanned,
            "rules": list(self.rules),
            "exit_code": self.exit_code,
        }


def run_lint(
    paths: Sequence["str | Path"],
    *,
    select: Sequence[str] = (),
    ignore: Sequence[str] = (),
    baseline: "str | Path | None" = None,
    docs_root: "str | Path | None" = None,
) -> LintReport:
    """Run every selected rule over ``paths`` (plus the docs pass when
    ``docs_root`` is given) and fold in the baseline."""
    select = tuple(select)
    ignore = tuple(ignore)
    checkers = create_checkers(select, ignore)
    findings: list[Finding] = []
    files = iter_python_files(paths)
    modules = [
        ModuleUnderLint.load(path, _relpath(path)) for path in files
    ]
    for module in modules:
        if module.tree is None:
            if rule_selected(PARSE_ERROR_CODE, select, ignore):
                findings.append(Finding(
                    file=module.relpath, line=1, code=PARSE_ERROR_CODE,
                    severity=Severity.ERROR,
                    message=f"file does not parse: {module.parse_error}",
                ))
            continue
        for checker in checkers:
            for finding in checker.check_module(module) or ():
                if not module.suppressed(finding.line, finding.code):
                    findings.append(finding)
    by_relpath = {m.relpath: m for m in modules}
    for checker in checkers:
        for finding in checker.finish() or ():
            module = by_relpath.get(finding.file)
            if module and module.suppressed(finding.line, finding.code):
                continue
            findings.append(finding)
    if docs_root is not None:
        from repro.analysis.docs import doc_findings

        findings.extend(
            f for f in doc_findings(docs_root)
            if rule_selected(f.code, select, ignore)
        )
    findings.sort(key=Finding.sort_key)

    report = LintReport(
        findings=findings,
        files_scanned=len(files),
        rules=[c.code for c in checkers],
        all_findings=list(findings),
    )
    if baseline is not None and Path(baseline).exists():
        fresh, matched, stale = Baseline.load(baseline).apply(findings)
        report.findings = fresh
        report.baselined = matched
        report.stale_baseline = stale
    return report


# -- output formats --------------------------------------------------------


def render_text(report: LintReport) -> str:
    lines = [f.text() for f in report.findings]
    summary = (
        f"{len(report.findings)} finding(s) in {report.files_scanned} "
        f"file(s), {len(report.rules)} rule(s) active"
    )
    if report.baselined:
        summary += f"; {report.baselined} baselined"
    if report.stale_baseline:
        summary += f"; {len(report.stale_baseline)} stale baseline entr(y/ies)"
        lines += [
            f"stale baseline entry (debt paid — prune it): {entry}"
            for entry in report.stale_baseline
        ]
    lines.append(summary)
    return "\n".join(lines)


def render_github(report: LintReport) -> str:
    """GitHub workflow annotations, one per finding, plus a notice line."""
    lines = [f.github() for f in report.findings]
    lines.append(
        f"::notice title=repro lint::{len(report.findings)} finding(s), "
        f"{report.baselined} baselined, {report.files_scanned} file(s) "
        "scanned"
    )
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    return json.dumps(report.to_dict(), indent=2)


RENDERERS = {
    "text": render_text,
    "github": render_github,
    "json": render_json,
}


def list_rules() -> str:
    """The ``--list-rules`` catalogue (code, severity, summary)."""
    from repro.analysis.base import available_rules

    rows = [
        f"{cls.code}  {cls.severity:7}  {cls.name}: {cls.summary}"
        for cls in available_rules()
    ]
    rows.append(
        f"{PARSE_ERROR_CODE}  error    parse-error: file does not parse "
        "(engine-emitted; nothing else runs on the file)"
    )
    return "\n".join(sorted(rows))

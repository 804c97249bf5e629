"""Convention rules (RPR3xx): observability naming, registry hygiene.

The telemetry layer (PR 6) and the pipeline registry both rely on names
being boring: metrics live in the canonical ``dotted.snake`` namespaces
documented in ``docs/observability.md``, counters only go up, a
``(kind, name)`` registers exactly once, and the CLI's hand-written
``choices=`` lists must not drift behind the registry they mirror.
"""

from __future__ import annotations

import ast
import configparser
import re
from pathlib import Path
from typing import Iterable, Optional

from repro.analysis.base import (
    Checker,
    ModuleUnderLint,
    call_name,
    dotted_name,
    find_upward,
    module_aliases,
    register_checker,
)
from repro.analysis.findings import Finding, Severity

_METRIC_FUNCS = frozenset({"inc", "counter", "gauge"})
_METRICS_MODULES = ("repro.obs.metrics", "repro.obs")
_NAME_SHAPE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")

#: Fallback namespaces when docs/observability.md is out of reach (lint
#: run on a file tree without the docs, e.g. test fixtures).
DEFAULT_METRIC_NAMESPACES = frozenset({
    "sat", "dip", "search", "synth_cache", "artifact_cache", "service",
    "stage", "lint",
})

_BACKTICKED_METRIC = re.compile(r"`([a-z][a-z0-9_]*)\.[a-z0-9_.*]+`")


def _documented_namespaces(start: Path) -> frozenset:
    """First segments of the metric names documented in observability.md."""
    doc = find_upward(start, "docs/observability.md")
    if doc is None:
        return DEFAULT_METRIC_NAMESPACES
    text = doc.read_text(encoding="utf-8", errors="replace")
    marker = text.find("## Metric names")
    if marker < 0:
        return DEFAULT_METRIC_NAMESPACES
    found = frozenset(_BACKTICKED_METRIC.findall(text[marker:]))
    return found | frozenset({"stage"}) if found else DEFAULT_METRIC_NAMESPACES


def _metric_aliases(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(module aliases of repro.obs.metrics, directly imported helpers)."""
    modules: set[str] = set()
    helpers: set[str] = set()
    for local, target in module_aliases(tree).items():
        if target in _METRICS_MODULES or target == "repro.obs.metrics":
            modules.add(local)
        if (
            target.startswith("repro.obs")
            and target.rsplit(".", 1)[-1] in _METRIC_FUNCS
        ):
            helpers.add(local)
        if target == "repro.obs.metrics":
            modules.add(local)
    return modules, helpers


def _metric_calls(tree: ast.Module):
    """(call node, helper name, literal-or-None metric name) triples."""
    modules, helpers = _metric_aliases(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr not in _METRIC_FUNCS:
                continue
            if dotted_name(func.value) not in modules:
                continue
            kind = func.attr
        elif isinstance(func, ast.Name) and func.id in helpers:
            kind = func.id
        else:
            continue
        name_arg = node.args[0] if node.args else None
        for keyword in node.keywords:
            if keyword.arg == "name":
                name_arg = keyword.value
        yield node, kind, name_arg


def _literal_prefix(name_arg: Optional[ast.expr]) -> tuple[str, bool]:
    """(text, is_complete) for a metric-name argument: a plain constant is
    complete; an f-string contributes only its leading literal part."""
    if isinstance(name_arg, ast.Constant) and isinstance(name_arg.value, str):
        return name_arg.value, True
    if isinstance(name_arg, ast.JoinedStr) and name_arg.values:
        first = name_arg.values[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            return first.value, False
    return "", False


@register_checker
class MetricNameConvention(Checker):
    code = "RPR301"
    name = "metric-name-convention"
    summary = (
        "metric name outside the canonical dotted.snake namespaces from "
        "docs/observability.md"
    )

    def check_module(self, module: ModuleUnderLint) -> Iterable[Finding]:
        if module.tree is None:
            return
        namespaces: Optional[frozenset] = None
        for node, kind, name_arg in _metric_calls(module.tree):
            text, complete = _literal_prefix(name_arg)
            if not text or (not complete and "." not in text):
                continue
            if namespaces is None:
                namespaces = _documented_namespaces(module.path)
            namespace = text.split(".")[0]
            if complete and not _NAME_SHAPE.match(text):
                yield self.finding(
                    module, node,
                    f"metric name {text!r} is not dotted.snake "
                    "(namespace.metric_name, lowercase)",
                )
            elif namespace not in namespaces:
                yield self.finding(
                    module, node,
                    f"metric namespace {namespace!r} (in {kind}({text!r}"
                    f"{'' if complete else '…'})) is not documented in "
                    f"docs/observability.md; known: {sorted(namespaces)}",
                )


def _negative_constant(node: Optional[ast.expr]) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
        return isinstance(node, ast.Constant) and isinstance(
            node.value, (int, float)
        )
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and node.value < 0
    )


@register_checker
class MonotonicMetricMisuse(Checker):
    code = "RPR302"
    name = "monotonic-metric-misuse"
    summary = (
        "counter decremented or gauge .inc()'d — counters are monotonic, "
        "gauges are last-write-wins (.set)"
    )

    def check_module(self, module: ModuleUnderLint) -> Iterable[Finding]:
        if module.tree is None:
            return
        for node, kind, _ in _metric_calls(module.tree):
            if kind == "inc":
                amount = node.args[1] if len(node.args) > 1 else None
                for keyword in node.keywords:
                    if keyword.arg == "amount":
                        amount = keyword.value
                if _negative_constant(amount):
                    yield self.finding(
                        module, node,
                        "counters are monotonic; inc() with a negative "
                        "amount hides work instead of counting it — use a "
                        "gauge for levels",
                    )
        # method calls on counter(...)/gauge(...) results
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or not isinstance(
                node.func, ast.Attribute
            ):
                continue
            receiver = node.func.value
            if not isinstance(receiver, ast.Call):
                continue
            maker = call_name(receiver)
            if maker == "counter" and node.func.attr in ("dec", "set"):
                yield self.finding(
                    module, node,
                    f"counter(...).{node.func.attr}() breaks monotonicity; "
                    "a value that goes down (or jumps) is a gauge",
                )
            elif maker == "counter" and node.func.attr == "inc" and (
                node.args and _negative_constant(node.args[0])
            ):
                yield self.finding(
                    module, node,
                    "counter(...).inc(negative) breaks monotonicity; use a "
                    "gauge for levels",
                )
            elif maker == "gauge" and node.func.attr in ("inc", "dec"):
                yield self.finding(
                    module, node,
                    f"gauge(...).{node.func.attr}() — gauges are "
                    "last-write-wins; compute the level and .set() it",
                )


def _literal_registrations(tree: ast.Module):
    """Literal ``register(kind, name)`` / ``register_<kind>(name)`` uses."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = call_name(node)
        kind = value = None
        if name == "register" and len(node.args) >= 2:
            if all(
                isinstance(a, ast.Constant) and isinstance(a.value, str)
                for a in node.args[:2]
            ):
                kind, value = node.args[0].value, node.args[1].value
        elif name.startswith("register_") and node.args:
            arg = node.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                kind, value = name[len("register_"):], arg.value
        if kind is not None:
            yield node, kind, value


@register_checker
class DuplicateRegistryName(Checker):
    code = "RPR303"
    name = "duplicate-registry-name"
    summary = (
        "the same (kind, name) registered twice across modules — the "
        "second import dies with PipelineError at runtime"
    )

    def __init__(self):
        self._seen: dict[tuple[str, str], tuple[str, int]] = {}
        self._duplicates: list[Finding] = []

    def check_module(self, module: ModuleUnderLint) -> Iterable[Finding]:
        if module.tree is None:
            return ()
        for node, kind, value in _literal_registrations(module.tree):
            key = (kind, value)
            if key in self._seen:
                first_file, first_line = self._seen[key]
                self._duplicates.append(self.finding(
                    module, node,
                    f"{kind} {value!r} is already registered at "
                    f"{first_file}:{first_line}; duplicate registration "
                    "raises PipelineError on import",
                ))
            else:
                self._seen[key] = (module.relpath, node.lineno)
        return ()

    def finish(self) -> Iterable[Finding]:
        return self._duplicates


@register_checker
class CliChoicesDrift(Checker):
    code = "RPR304"
    name = "cli-choices-drift"
    severity = Severity.WARNING
    summary = (
        "literal argparse choices= list missing names from the registry "
        "it mirrors — use available(kind) instead of a hand copy"
    )

    def __init__(self):
        self._registered: dict[str, set[str]] = {}
        self._choices: list[tuple[ModuleUnderLint, ast.Call, str, set]] = []

    def check_module(self, module: ModuleUnderLint) -> Iterable[Finding]:
        if module.tree is None:
            return ()
        for _, kind, value in _literal_registrations(module.tree):
            self._registered.setdefault(kind, set()).add(value)
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and call_name(node) == "add_argument"
            ):
                flag = ""
                if node.args and isinstance(node.args[0], ast.Constant):
                    flag = str(node.args[0].value)
                for keyword in node.keywords:
                    if keyword.arg != "choices":
                        continue
                    if isinstance(keyword.value, (ast.List, ast.Tuple)):
                        if any(
                            isinstance(e, ast.Starred)
                            for e in keyword.value.elts
                        ):
                            # ["", *available("defense")] is already
                            # registry-derived — nothing to drift.
                            continue
                        literals = {
                            e.value for e in keyword.value.elts
                            if isinstance(e, ast.Constant)
                            and isinstance(e.value, str)
                        }
                        if literals:
                            self._choices.append(
                                (module, node, flag, literals)
                            )
        return ()

    def finish(self) -> Iterable[Finding]:
        for module, node, flag, literals in self._choices:
            flag_text = flag.lstrip("-").replace("-", "_").lower()
            for kind, registered in sorted(self._registered.items()):
                named_after_kind = kind in flag_text or (
                    flag_text and flag_text.rstrip("s") in kind
                )
                overlap = literals & registered
                # Enough overlap (or an explicit name match) says this list
                # mirrors the registry; "none" alone matching two kinds
                # must not.
                if not named_after_kind and len(overlap) < max(
                    2, len(registered) // 2
                ):
                    continue
                missing = registered - literals
                if missing:
                    yield self.finding(
                        module, node,
                        f"choices for {flag or 'argument'} is missing "
                        f"registered {kind} name(s) {sorted(missing)}; "
                        f"derive it from available({kind!r}) so plugins "
                        "stay addressable",
                    )


_BUILTIN_MARKS = frozenset({
    "parametrize", "skip", "skipif", "xfail", "usefixtures",
    "filterwarnings",
})


def _registered_markers(start: Path) -> Optional[frozenset]:
    """Marker names from the nearest pytest.ini (None when there is none)."""
    ini = find_upward(start, "pytest.ini")
    if ini is None:
        return None
    parser = configparser.ConfigParser()
    try:
        parser.read(ini)
        raw = parser.get("pytest", "markers", fallback="")
    except configparser.Error:
        return None
    names = set()
    for line in raw.splitlines():
        line = line.strip()
        if line:
            names.add(line.split(":")[0].strip().split("(")[0])
    return frozenset(names)


@register_checker
class UnregisteredPytestMark(Checker):
    code = "RPR305"
    name = "unregistered-pytest-mark"
    summary = (
        "@pytest.mark.<name> not registered under `markers =` in "
        "pytest.ini — typo'd marks select nothing, silently"
    )

    def check_module(self, module: ModuleUnderLint) -> Iterable[Finding]:
        if module.tree is None:
            return
        marks = [
            (node, node.attr)
            for node in ast.walk(module.tree)
            if isinstance(node, ast.Attribute)
            and dotted_name(node.value) == "pytest.mark"
        ]
        if not marks:
            return
        registered = _registered_markers(module.path)
        for node, mark in marks:
            if mark in _BUILTIN_MARKS:
                continue
            if registered is None:
                yield self.finding(
                    module, node,
                    f"@pytest.mark.{mark} used but no pytest.ini with a "
                    "`markers =` section was found above this file",
                )
            elif mark not in registered:
                yield self.finding(
                    module, node,
                    f"@pytest.mark.{mark} is not registered in pytest.ini "
                    f"(markers = {sorted(registered)}); register it or fix "
                    "the typo — unknown marks deselect silently",
                )

#!/usr/bin/env python
"""Repo-specific AST lints, run in CI next to ruff.

Rules the generic linters cannot express:

1. **Config classification** — every ``ProcessorConfig`` dataclass
   field must be claimed either by
   ``ProcessorConfig.NON_TIMING_FIELDS`` (observational, excluded from
   the cache fingerprint) or by the ``TIMING_FIELD_SAMPLES`` table in
   ``tests/test_config_fingerprint.py`` (which proves the field moves
   the fingerprint).  A field in neither place means nobody decided
   whether it affects results — that silently poisons the persistent
   result cache, so it fails CI.  A field in both places is a
   contradiction and also fails.

2. **Stats mutation boundary** — no module under
   ``src/repro/pipeline/`` may write through a subscript into a
   ``stats`` object (``self.stats.cpi_buckets["x"] += 1`` and
   friends).  Pipeline stats are either plain ``CoreStats`` attribute
   increments or go through :class:`repro.obs.StatsRegistry`
   instruments; ad-hoc dict pokes bypass both the null-registry
   zero-overhead mode and the cache schema.

3. **Hot-loop allocation/attribute discipline** — the per-cycle
   methods of ``pipeline/core.py`` (everything ``_run``'s while-loop
   invokes through ``self``, plus ``_run`` itself) are governed by
   the DESIGN §4d invariants: container allocations and un-hoisted
   deep attribute chains (``self.a.b…``) in those bodies are paid
   every simulated cycle.  Each method carries a calibrated budget
   (:data:`HOT_LOOP_BUDGETS`); exceeding it fails CI, and dropping
   below it also fails with a request to ratchet the baseline down so
   the table stays honest.  A per-cycle method with no budget entry
   (i.e. a *new* stage) gets zero of both.

4. **No cross-module private imports** — no module under
   ``src/repro/`` may import a ``_private`` name from another
   ``repro`` module (``from repro.core.simulator import _helper``).
   A name another module needs is part of its owner's interface and
   is spelled without the underscore; otherwise the code using it
   belongs in the owning module.

Usage: ``python tools/lint_repro.py [--root DIR]``; exits non-zero on
any violation.  The rule implementations are importable pure functions
over source text so ``tests/test_lint_repro.py`` can exercise them.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from collections.abc import Sequence

CONFIG_PATH = "src/repro/config.py"
SAMPLES_PATH = "tests/test_config_fingerprint.py"
PIPELINE_DIR = "src/repro/pipeline"
SRC_DIR = "src/repro"


# -- rule 1: ProcessorConfig field classification ----------------------------

def config_fields(source: str) -> list[str]:
    """Dataclass field names of ``ProcessorConfig`` (annotated assigns)."""
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "ProcessorConfig":
            return [item.target.id for item in node.body
                    if isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)]
    raise ValueError("no ProcessorConfig class found")


def non_timing_fields(source: str) -> tuple[str, ...]:
    """The literal ``NON_TIMING_FIELDS`` tuple inside ProcessorConfig."""
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "ProcessorConfig":
            for item in node.body:
                if isinstance(item, ast.Assign) \
                        and any(isinstance(t, ast.Name)
                                and t.id == "NON_TIMING_FIELDS"
                                for t in item.targets):
                    return tuple(ast.literal_eval(item.value))
    raise ValueError("no NON_TIMING_FIELDS assignment found")


def timing_sample_fields(source: str) -> list[str]:
    """Keys of the ``TIMING_FIELD_SAMPLES`` dict in the fingerprint test."""
    tree = ast.parse(source)
    for node in tree.body:
        if isinstance(node, ast.Assign) \
                and any(isinstance(t, ast.Name)
                        and t.id == "TIMING_FIELD_SAMPLES"
                        for t in node.targets) \
                and isinstance(node.value, ast.Dict):
            keys = []
            for key in node.value.keys:
                if not (isinstance(key, ast.Constant)
                        and isinstance(key.value, str)):
                    raise ValueError(
                        "TIMING_FIELD_SAMPLES keys must be string literals")
                keys.append(key.value)
            return keys
    raise ValueError("no TIMING_FIELD_SAMPLES dict found")


def classification_errors(fields: Sequence[str],
                          timing: Sequence[str],
                          non_timing: Sequence[str]) -> list[str]:
    errors = []
    timing_set, non_timing_set = set(timing), set(non_timing)
    for name in fields:
        if name in timing_set and name in non_timing_set:
            errors.append(
                "field %r is claimed both timing (TIMING_FIELD_SAMPLES) "
                "and non-timing (NON_TIMING_FIELDS)" % name)
        elif name not in timing_set and name not in non_timing_set:
            errors.append(
                "field %r is unclassified: add it to TIMING_FIELD_SAMPLES "
                "in %s (it changes results) or to "
                "ProcessorConfig.NON_TIMING_FIELDS (it cannot)"
                % (name, SAMPLES_PATH))
    known = set(fields)
    for name in sorted((timing_set | non_timing_set) - known):
        errors.append("%r is classified but is not a ProcessorConfig "
                      "field" % name)
    return errors


# -- rule 2: pipeline stats-mutation boundary --------------------------------

def _chain_names(node: ast.AST) -> list[str]:
    """Dotted-name parts of an attribute chain (``a.b.c`` -> a, b, c)."""
    names: list[str] = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        names.append(node.id)
    return names


def _is_stats_subscript(target: ast.AST) -> bool:
    return (isinstance(target, ast.Subscript)
            and "stats" in _chain_names(target.value))


def stats_mutation_errors(source: str, path: str = "<source>") -> list[str]:
    """Subscript writes through a ``stats`` attribute chain."""
    errors = []
    for node in ast.walk(ast.parse(source)):
        targets: list[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        for target in targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                targets.extend(target.elts)
                continue
            if _is_stats_subscript(target):
                errors.append(
                    "%s:%d: direct stats-dict mutation; use a "
                    "repro.obs.StatsRegistry instrument or a plain "
                    "CoreStats attribute" % (path, node.lineno))
    return errors


# -- rule 3: hot-loop allocation/attribute discipline ------------------------

CORE_PATH = "src/repro/pipeline/core.py"

#: Calibrated per-method budgets for the per-cycle hot path:
#: ``name -> (allocations, deep_attribute_chains)``.  Allocations are
#: container displays/comprehensions and ``list``/``dict``/``set``/
#: ``deque`` calls; deep chains are outermost ``self.a.b…`` reads
#: (two or more attribute hops).  Calibrated against DESIGN §4d;
#: regenerate a row with
#: ``python -c "import tools.lint_repro as l; print(l.hot_loop_counts(
#: open('src/repro/pipeline/core.py').read()))"`` after deliberately
#: accepting a change.
HOT_LOOP_BUDGETS = {
    "_commit": (0, 4),
    "_decode": (2, 3),
    "_dispatch": (0, 8),
    "_drain_stores": (0, 1),
    "_fast_forward": (0, 1),
    "_fetch": (0, 5),
    "_idle_snapshot": (0, 2),
    "_issue": (2, 2),
    "_rename": (0, 3),
    "_run": (1, 5),
    "_sample_occupancy": (0, 2),
    "_stall_slot_bucket": (0, 0),
    "_train_uch": (0, 1),
}

_ALLOC_CALLS = ("list", "dict", "set", "deque", "defaultdict")
_ALLOC_NODES = (ast.List, ast.Dict, ast.Set, ast.ListComp,
                ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _core_methods(tree: ast.Module) -> dict:
    """``name -> FunctionDef`` for every method of ``PipelineCore``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "PipelineCore":
            return {item.name: item for item in node.body
                    if isinstance(item, ast.FunctionDef)}
    raise ValueError("no PipelineCore class found")


def hot_methods(source: str) -> list[str]:
    """Per-cycle methods: ``self._x(...)`` calls in ``_run``'s loop."""
    methods = _core_methods(ast.parse(source))
    run = methods.get("_run")
    if run is None:
        raise ValueError("PipelineCore has no _run method")
    names = {"_run"}
    loops = [node for node in ast.walk(run)
             if isinstance(node, (ast.While, ast.For))]
    for loop in loops:
        for node in ast.walk(loop):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id == "self" \
                    and node.func.attr in methods:
                names.add(node.func.attr)
    return sorted(names)


def _count_method(node: ast.FunctionDef) -> tuple[int, int]:
    """(allocations, outermost deep self-attribute chains) in a body."""
    allocations = 0
    chains = 0
    inner_values = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            inner_values.add(id(sub.value))
    for sub in ast.walk(node):
        if isinstance(sub, _ALLOC_NODES):
            allocations += 1
        elif isinstance(sub, ast.Call) \
                and isinstance(sub.func, ast.Name) \
                and sub.func.id in _ALLOC_CALLS:
            allocations += 1
        elif isinstance(sub, ast.Attribute) and id(sub) not in inner_values:
            depth = 0
            probe: ast.AST = sub
            while isinstance(probe, ast.Attribute):
                depth += 1
                probe = probe.value
            if depth >= 2 and isinstance(probe, ast.Name) \
                    and probe.id == "self":
                chains += 1
    return allocations, chains


def hot_loop_counts(source: str) -> dict:
    """``name -> (allocations, deep_chains)`` for per-cycle methods."""
    methods = _core_methods(ast.parse(source))
    return {name: _count_method(methods[name])
            for name in hot_methods(source)}


def hot_loop_errors(source: str, budgets: dict = None,
                    path: str = CORE_PATH) -> list[str]:
    """Per-cycle methods over (or silently under) their §4d budgets."""
    budgets = HOT_LOOP_BUDGETS if budgets is None else budgets
    errors = []
    counts = hot_loop_counts(source)
    for name, (allocations, chains) in sorted(counts.items()):
        budget_allocs, budget_chains = budgets.get(name, (0, 0))
        for label, have, allowed in (
                ("allocations", allocations, budget_allocs),
                ("deep attribute chains", chains, budget_chains)):
            if have > allowed:
                errors.append(
                    "%s: per-cycle method %s has %d %s (budget %d): "
                    "hoist or move the work off the hot path "
                    "(DESIGN 4d), or — only with a reviewed perf "
                    "justification — raise HOT_LOOP_BUDGETS"
                    % (path, name, have, label, allowed))
            elif have < allowed:
                errors.append(
                    "%s: per-cycle method %s now has %d %s but the "
                    "budget allows %d: ratchet HOT_LOOP_BUDGETS down "
                    "to lock in the improvement"
                    % (path, name, have, label, allowed))
    for name in sorted(set(budgets) - set(counts)):
        errors.append(
            "HOT_LOOP_BUDGETS entry %r is not a per-cycle method of "
            "PipelineCore any more; delete or rename the row" % name)
    return errors


# -- rule 4: no cross-module private imports ---------------------------------

def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_import_errors(source: str, path: str = "<source>") -> list[str]:
    """``from <repro module> import _name`` (absolute or relative)."""
    errors = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "repro":
            continue
        for alias in node.names:
            if _is_private(alias.name):
                errors.append(
                    "%s:%d: imports private name %r from %s%s; make it "
                    "public in its module or move the caller there"
                    % (path, node.lineno, alias.name, "." * node.level,
                       module))
    return errors


# -- driver ------------------------------------------------------------------

def run(root: Path) -> list[str]:
    errors: list[str] = []
    config_src = (root / CONFIG_PATH).read_text(encoding="utf-8")
    samples_src = (root / SAMPLES_PATH).read_text(encoding="utf-8")
    errors.extend(classification_errors(
        config_fields(config_src),
        timing_sample_fields(samples_src),
        non_timing_fields(config_src)))
    for path in sorted((root / PIPELINE_DIR).rglob("*.py")):
        errors.extend(stats_mutation_errors(
            path.read_text(encoding="utf-8"),
            str(path.relative_to(root))))
    errors.extend(hot_loop_errors(
        (root / CORE_PATH).read_text(encoding="utf-8")))
    for path in sorted((root / SRC_DIR).rglob("*.py")):
        errors.extend(private_import_errors(
            path.read_text(encoding="utf-8"),
            str(path.relative_to(root))))
    return errors


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repository root (default: this file's repo)")
    args = parser.parse_args(argv)
    errors = run(args.root)
    for error in errors:
        print("lint_repro: %s" % error, file=sys.stderr)
    if not errors:
        print("lint_repro: ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

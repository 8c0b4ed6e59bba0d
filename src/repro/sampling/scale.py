"""Iteration-scaled workload traces for multi-million-µop runs.

The catalog kernels terminate naturally at ~20–30k dynamic µ-ops —
far below the region sizes that make sampled simulation interesting.
This module rebuilds a catalog kernel with its ``iters`` parameter
multiplied until the captured trace reaches a target length (each
kernel builder takes ``iters``; dynamic length is roughly linear in
it, and the builder iterates on the observed ratio when it is not).

Scaled traces are persisted in the regular trace store under a
``name@target`` key salted by the *unscaled* kernel source plus the
target, so a 1M-µop scaled trace is interpreted once and replayed
thereafter, exactly like the catalog traces — and editing the kernel
or its catalog parameters invalidates the scaled capture too.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, Optional, Tuple

from repro.isa.assembler import assemble
from repro.isa.interp import run_program
from repro.isa.trace import Trace
from repro.workloads.catalog import CATALOG

#: In-process memo, keyed by ``(name, target_uops)``.
_SCALED_MEMO: Dict[Tuple[str, int], Trace] = {}


def clear_scaled_memo() -> None:
    _SCALED_MEMO.clear()


def _scaled_source(name: str, factor: int) -> str:
    spec = CATALOG[name]
    params = dict(spec.params)
    if "iters" not in params:
        raise ValueError(
            "workload %r has no iters parameter to scale" % name)
    params["iters"] = int(params["iters"]) * factor
    return spec.builder(**params)


def _scaled_salt(name: str, target_uops: int) -> str:
    # Mirrors workloads.trace_store.workload_salt, additionally keyed
    # by the scaling target (different target → different capture).
    from repro.isa.trace_io import TRACE_BINARY_VERSION
    from repro.workloads.trace_store import CAPTURE_VERSION
    payload = "%s\x00target=%d\x00binary=%d\x00capture=%d" % (
        _scaled_source(name, 1), target_uops,
        TRACE_BINARY_VERSION, CAPTURE_VERSION)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def build_scaled_workload(name: str, target_uops: int,
                          use_store: Optional[bool] = None) -> Trace:
    """A trace for catalog workload ``name`` of ~``target_uops`` length.

    The kernel's iteration count is multiplied so the functional trace
    reaches ``target_uops``; capture is capped there, so the result is
    *at most* ``target_uops`` long and usually exactly that (a kernel
    whose dynamic length stops scaling with ``iters`` yields whatever
    maximum it reaches).
    """
    if name not in CATALOG:
        raise ValueError("unknown workload %r" % name)
    if target_uops < 1:
        raise ValueError("target_uops must be positive")
    key = (name, target_uops)
    trace = _SCALED_MEMO.get(key)
    if trace is not None:
        return trace

    store_name = "%s@%d" % (name, target_uops)
    from repro.workloads import trace_store as _store_mod
    enabled = (_store_mod.trace_store_enabled_by_default()
               if use_store is None else use_store)
    store = _store_mod.TraceStore() if enabled else None
    salt = _scaled_salt(name, target_uops)
    if store is not None:
        trace = store.get(store_name, target_uops, salt)
        if trace is not None:
            _SCALED_MEMO[key] = trace
            return trace

    factor = 1
    trace = run_program(assemble(_scaled_source(name, 1), name=store_name),
                        max_uops=target_uops)
    for _attempt in range(4):
        if len(trace) >= target_uops:
            break
        # Undershot: rescale by the observed µ-ops-per-iteration ratio
        # with 10% headroom (kernels need not be exactly linear).
        factor = max(factor + 1,
                     math.ceil(factor * 1.1 * target_uops
                               / max(1, len(trace))))
        trace = run_program(
            assemble(_scaled_source(name, factor), name=store_name),
            max_uops=target_uops)
    if store is not None:
        store.put(store_name, target_uops, trace, salt)
    _SCALED_MEMO[key] = trace
    return trace

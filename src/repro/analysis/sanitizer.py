"""µ-architectural sanitizer: always-off invariant assertions.

Armed by ``ProcessorConfig.sanitize`` or ``REPRO_SANITIZE=1``, the
sanitizer walks the pipeline's live structures once per simulated
cycle and raises :class:`SanitizerError` on the first broken
invariant, with cycle- and µ-op-level provenance.  The invariants are
the structural half of Helios' correctness argument:

* **RAT ↔ ROB consistency** — every register-alias-table mapping
  points at a committed µ-op or a live in-flight one, never at a
  squashed uncommitted µ-op (flush recovery must unwind the writer
  log completely); physical-register free counters stay in range.
* **NCS nesting-counter balance** — ``Active NCS`` equals the pending
  NCSF heads in flight (modulo validated tail ghosts awaiting
  dispatch), and all nest state clears when the nest collapses.
* **Deadlock-tag acyclicity domain** — deadlock tags only carry bits
  for live nest levels; a stale bit could let a tail-on-head
  dependence escape the rename-time cycle check.
* **LSQ ordering** — LQ/SQ in program order, sub-accesses matching
  their nucleii, no squashed residents, completed fused entries
  within the access granularity.
* **ROB shape** — monotone sequence numbers, no squashed or
  already-committed residents, issue-queue census matching, and an
  LSQ side-table entry for exactly the in-flight memory µ-ops.

The per-cycle hooks cost one ``is not None`` test when disarmed.  The
<2 % budget for disarmed hooks, shared with the observability layer,
is currently unmeasured.
"""

from __future__ import annotations

import os

__all__ = [
    "SANITIZE_ENV",
    "Sanitizer",
    "SanitizerError",
    "sanitize_env_enabled",
]

#: Environment switch mirroring ``ProcessorConfig.sanitize``.
SANITIZE_ENV = "REPRO_SANITIZE"


def sanitize_env_enabled() -> bool:
    """True when ``REPRO_SANITIZE`` requests an armed sanitizer."""
    return os.environ.get(SANITIZE_ENV, "").strip().lower() in (
        "1", "true", "yes", "on")


class SanitizerError(AssertionError):
    """A µ-architectural invariant broke.

    ``cycle`` is the simulated cycle the check ran in; ``violations``
    the individual findings (each names the structure and the µ-op
    sequence numbers involved).
    """

    def __init__(self, cycle: int, violations: list[str]):
        self.cycle = cycle
        self.violations = list(violations)
        detail = "; ".join(self.violations[:8])
        if len(self.violations) > 8:
            detail += "; ... (%d total)" % len(self.violations)
        super(SanitizerError, self).__init__(
            "sanitizer: %d invariant violation(s) at cycle %d: %s"
            % (len(self.violations), cycle, detail))


class Sanitizer(object):
    """Drives the per-unit ``sanitize_violations`` hooks over a core.

    Duck-typed against :class:`repro.pipeline.core.PipelineCore` (this
    module deliberately imports nothing from ``repro.pipeline`` so the
    core can lazy-import it without a cycle).
    """

    def __init__(self, every: int = 1):
        #: Check every N cycles (1 = every cycle; raise to trade
        #: coverage for speed on very long traces).
        self.every = max(1, every)
        self.checks_run = 0
        self.cycles_seen = 0

    # -- per-cycle -----------------------------------------------------

    def check(self, core) -> None:
        """Run every invariant; raises :class:`SanitizerError`."""
        self.cycles_seen += 1
        if self.cycles_seen % self.every:
            return
        self.checks_run += 1
        violations = self._rob_violations(core)
        live = list(core.rename_latch) + list(core.rob)
        ghosts = [u for u in core.rename_latch if u.is_tail_ghost]
        violations.extend(
            core.rename_unit.sanitize_violations(live, ghosts))
        violations.extend(core.lsu.sanitize_violations(
            core.config.cache_access_granularity))
        if violations:
            raise SanitizerError(core.now, violations)

    def _rob_violations(self, core) -> list[str]:
        out: list[str] = []
        previous = -1
        in_iq = 0
        memory_seqs = set()
        for uop in core.rob:
            if uop.seq <= previous:
                out.append("ROB not in program order at seq %d (after %d)"
                           % (uop.seq, previous))
            previous = uop.seq
            if uop.squashed:
                out.append("ROB holds squashed seq %d" % uop.seq)
            if uop.committed:
                out.append("ROB holds committed seq %d" % uop.seq)
            if uop.in_iq:
                in_iq += 1
            if uop.is_memory:
                memory_seqs.add(uop.seq)
                if uop.seq not in core._lsq_entries:
                    out.append("in-flight memory seq %d has no LSQ entry"
                               % uop.seq)
            if uop.tail is not None and uop.tail.seq <= uop.seq:
                out.append("fused seq %d has non-younger tail %d"
                           % (uop.seq, uop.tail.seq))
        if core.iq_count != in_iq:
            out.append("iq_count=%d but %d ROB residents claim an IQ slot"
                       % (core.iq_count, in_iq))
        for seq in core._lsq_entries:
            if seq not in memory_seqs:
                out.append("LSQ side table tracks seq %d not in the ROB"
                           % seq)
        return out

    # -- end of run ----------------------------------------------------

    def final(self, core) -> None:
        """Leak checks once the whole trace has committed."""
        violations: list[str] = []
        for name, collection in (
                ("ROB", core.rob), ("AQ", core.aq),
                ("rename latch", core.rename_latch),
                ("LQ", core.lsu.lq), ("fetch buffer", core.fetch_buffer)):
            if len(collection):
                violations.append("%s not empty at end of trace (%d)"
                                  % (name, len(collection)))
        if core.iq_count:
            violations.append("IQ census %d at end of trace"
                              % core.iq_count)
        # Draining committed stores are the one legitimate resident.
        stuck = [e.uop.seq for e in core.lsu.sq if not e.uop.committed]
        if stuck:
            violations.append("SQ holds uncommitted stores %r" % stuck)
        unit = core.rename_unit
        cap_int = core.config.int_prf_size - 32
        cap_fp = core.config.fp_prf_size - 32
        if unit.free_int != cap_int or unit.free_fp != cap_fp:
            violations.append(
                "physical registers leaked: free_int=%d/%d free_fp=%d/%d"
                % (unit.free_int, cap_int, unit.free_fp, cap_fp))
        if unit.active_ncs:
            violations.append("Active NCS=%d at end of trace"
                              % unit.active_ncs)
        for reg in sorted(unit._writers):
            writer = unit._writers[reg]
            if not writer.committed:
                violations.append("RAT[%d] -> uncommitted seq %d at end "
                                  "of trace" % (reg, writer.seq))
        if violations:
            raise SanitizerError(core.now, violations)

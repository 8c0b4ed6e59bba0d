"""Memory-dominated kernels: streaming stores, struct walks, block
transforms.

These model the paper's store-pressure applications (657.xz, typeset,
602.gcc) and the struct/record processing loops where non-consecutive
load pairs arise naturally (600.perlbench, 623.xalancbmk).

Register conventions shared by every kernel (set up by
:func:`loop_kernel`):

* ``s10`` — primary buffer base, ``s11`` — secondary buffer base;
* ``s8`` / ``s9`` — primary/secondary footprint masks;
* ``a1`` — loop trip counter; ``s2``/``s3`` — accumulators.

Constants are hoisted into these registers so the loop bodies are not
flooded with ``lui+addi`` pairs, which would distort the Table I idiom
census (the paper's 'Others' average is just 1.1 % of dynamic µ-ops).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

BUFFER_BASE = 0x20_0000
SECOND_BASE = 0x40_0000


def _footprint_mask(footprint_kb: int) -> int:
    """AND-mask that wraps a byte offset within the footprint."""
    size = footprint_kb * 1024
    if size & (size - 1):
        raise ValueError("footprint must be a power of two (KiB)")
    return size - 1


def wrap_pointer(reg: str, mask_reg: str, base_reg: str) -> List[str]:
    """Wrap pointer ``reg`` into its buffer (mask then rebase)."""
    return [
        "and %s, %s, %s" % (reg, reg, mask_reg),
        "add %s, %s, %s" % (reg, reg, base_reg),
    ]


LOAD_OP = {1: "lbu", 2: "lhu", 4: "lwu", 8: "ld"}
_STORE_OP = {1: "sb", 2: "sh", 4: "sw", 8: "sd"}


def streaming_stores(iters: int = 2500, stores_per_iter: int = 6,
                     loads_per_iter: int = 1, footprint_kb: int = 32,
                     stride: int = 48, alu_ops: int = 2,
                     alu_between_stores: int = 0) -> str:
    """Bursts of stores to a small output buffer plus long-latency
    input loads: the 657.xz / typeset pattern whose dispatch stalls are
    dominated by a full store queue.

    Store pairs halve SQ occupancy and drain bandwidth, which is where
    the paper's largest uplifts come from.  With ``alu_between_stores``
    the stores are *non-consecutive* (ALU work between them), so only
    predictive NCSF — not the static decode window — can pair them:
    the paper's 657.xz_1 story (27.6 % additional NCSF pairs).
    """
    body = ["ld a3, 0(a2)"] * loads_per_iter
    for i in range(stores_per_iter):
        reg = "a3" if i % 2 == 0 else "s2"
        body.append("sd %s, %d(a0)" % (reg, 8 * i))
        if alu_between_stores and i + 1 < stores_per_iter:
            for k in range(alu_between_stores):
                body.append("xor t%d, a3, a1" % (k % 3))
    body.extend("add s2, s2, a3" for _ in range(alu_ops))
    body.append("addi a0, a0, %d" % stride)
    body += wrap_pointer("a0", "s8", "s10")
    body += [
        # Pseudo-random far input pointer (streams through a large region).
        "slli t2, a1, 6",
        "add a2, a2, t2",
    ]
    body += wrap_pointer("a2", "s9", "s11")
    return loop_kernel(body, iters, mask=_footprint_mask(footprint_kb),
                       second_mask=0xFFFFF)


def struct_walk(iters: int = 3000, fields: int = 4, field_gap: int = 8,
                alu_between: int = 2, footprint_kb: int = 16,
                store_result: bool = True, stride: int = None,
                field_sizes: Optional[Sequence[int]] = None) -> str:
    """Walk an array of records, loading several fields with ALU work
    interleaved: the canonical non-consecutive load-pair source (the
    paper's Figure 1 shape).

    ``alu_between`` controls the catalyst size (0 gives consecutive
    pairs); ``field_gap`` > the access size leaves same-line gaps;
    ``field_sizes`` mixes access widths for asymmetric pairs.
    """
    stride = stride if stride is not None else fields * field_gap
    sizes = list(field_sizes) if field_sizes else [8]
    body = []
    for f in range(fields):
        size = sizes[f % len(sizes)]
        body.append("%s a%d, %d(a0)" % (LOAD_OP[size], 2 + f,
                                        f * field_gap))
        for k in range(alu_between):
            body.append("add s%d, s%d, a%d" % (2 + k % 2, 2 + k % 2, 2 + f))
    if store_result:
        # Results go to a separate output array (a6): records are
        # read-only, as in tree/DOM walks.
        body.append("sd s2, 0(a6)")
        body.append("sd s3, 8(a6)")
    body.append("addi a0, a0, %d" % stride)
    body += wrap_pointer("a0", "s8", "s10")
    if store_result:
        body.append("addi a6, a6, 16")
        body += wrap_pointer("a6", "s9", "s11")
    prologue = ["li a6, %d" % SECOND_BASE] if store_result else None
    return loop_kernel(body, iters, mask=_footprint_mask(footprint_kb),
                       second_mask=32 * 1024 - 1, extra_prologue=prologue)


def two_stream_walk(iters: int = 3000, gap: int = 24,
                    alu_between: int = 3, footprint_kb: int = 16) -> str:
    """Walk two interleaved streams through *different base registers*
    that land in the same cache line: the DBR pair source that static
    fusion can never see (Section III-D).
    """
    body = [
        "ld a2, 0(a0)",
    ]
    body.extend("add s2, s2, a2" for _ in range(alu_between))
    body += [
        "ld a3, 0(a4)",            # a4 = a0 + gap: same line, different base
        "add s3, s3, a3",
        "addi a0, a0, 32",
    ]
    body += wrap_pointer("a0", "s8", "s10")
    body.append("addi a4, a0, %d" % gap)
    prologue = ["addi a4, a0, %d" % gap]
    return loop_kernel(body, iters, mask=_footprint_mask(footprint_kb),
                       extra_prologue=prologue)


def block_transform(iters: int = 1200, block_loads: int = 8,
                    block_stores: int = 4, footprint_kb: int = 8,
                    macs: int = 6, load_gap: int = 8) -> str:
    """Load a small block, multiply-accumulate, store a transformed
    block: the jpeg / gsm inner-loop shape.  Dense contiguous pairs for
    both loads and stores; a ``load_gap`` above 8 bytes produces
    same-line (non-contiguous) neighbours instead.
    """
    body = []
    for i in range(block_loads):
        body.append("ld a%d, %d(a0)" % (2 + i % 6, load_gap * i))
    for i in range(macs):
        body.append("mul t%d, a%d, a%d" % (i % 3, 2 + i % 6, 2 + (i + 1) % 6))
        body.append("add s2, s2, t%d" % (i % 3))
    for i in range(block_stores):
        body.append("sd s2, %d(a5)" % (8 * i))
    body.append("addi a0, a0, %d" % (load_gap * block_loads))
    body += wrap_pointer("a0", "s8", "s10")
    body.append("addi a5, a5, %d" % (8 * block_stores))
    body += wrap_pointer("a5", "s8", "s11")
    prologue = ["li a5, %d" % SECOND_BASE]
    return loop_kernel(body, iters, mask=_footprint_mask(footprint_kb),
                       extra_prologue=prologue)


def loop_kernel(body: Sequence[str], iters: int, mask: int,
                second_mask: Optional[int] = None,
                extra_prologue: Optional[Sequence[str]] = None,
                pre_lines: Optional[Sequence[str]] = None) -> str:
    """Wrap a loop body with the standard prologue and trip counter."""
    prologue = [
        "li a0, %d" % BUFFER_BASE,
        "li a2, %d" % SECOND_BASE,
        "li a1, %d" % iters,
        "li s2, 0",
        "li s3, 0",
        "li s8, %d" % mask,
        "li s9, %d" % (second_mask if second_mask is not None else mask),
        "li s10, %d" % BUFFER_BASE,
        "li s11, %d" % SECOND_BASE,
    ]
    lines = list(pre_lines or ())
    lines += prologue
    lines.extend(extra_prologue or ())
    lines.append("loop:")
    lines.extend("    %s" % inst for inst in body)
    lines += [
        "    addi a1, a1, -1",
        "    bnez a1, loop",
        "    ecall",
    ]
    return "\n".join(lines)

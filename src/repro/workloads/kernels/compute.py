"""Compute-dominated kernels: bit manipulation, FP butterflies, byte
scanning, partition sorting.

These model the paper's applications where non-memory Table I idioms
dominate (bitcount, susan, 657.xz_2) or where memory pairs are
asymmetric byte/word accesses (stringsearch, crc32, sha, adpcm).
"""

from __future__ import annotations

from repro.workloads.kernels.memory import (
    BUFFER_BASE,
    SECOND_BASE,
    LOAD_OP,
    loop_kernel,
    wrap_pointer,
)


def bit_ops(iters: int = 3000, idiom_groups: int = 3,
            memory_ops: int = 1) -> str:
    """Constant materialization, field extracts, wide multiplies and
    divides: saturated with 'Others' Table I idioms (lui+addi,
    slli+srli, mulh+mul, div+rem) and few memory pairs — the bitcount /
    susan profile (the paper's Figure 2 exceptions).

    Unlike the other kernels, the immediates here are intentionally
    *not* hoisted: materializing constants is the workload.
    """
    body = []
    for g in range(idiom_groups):
        body += [
            "lui t%d, %d" % (g % 3, 0x12340 + g),
            "addiw t%d, t%d, %d" % (g % 3, g % 3, 0x55 + g),
            "xor s2, s2, t%d" % (g % 3),
            "slli t3, s2, 32",
            "srli t3, t3, 32",
            "add s3, s3, t3",
            "mulh t4, s2, s3",
            "mul t5, s2, s3",
            "xor s2, s2, t4",
            "add s3, s3, t5",
        ]
    body += [
        "ori t0, s3, 1",
        "div t1, s2, t0",
        "rem t2, s2, t0",
        "add s3, s3, t1",
        "xor s2, s2, t2",
    ]
    for m in range(memory_ops):
        body.append("ld a2, %d(a0)" % (8 * m))
        body.append("add s2, s2, a2")
    body.append("addi a0, a0, 8")
    body += wrap_pointer("a0", "s8", "s10")
    return loop_kernel(body, iters, mask=8 * 1024 - 1)


def fp_butterfly(iters: int = 1800, footprint_kb: int = 16) -> str:
    """FFT-style butterflies: paired fld/fsd around FP multiply-adds
    (basicmath / fft stand-in).
    """
    body = [
        "fld f1, 0(a0)",
        "fld f2, 8(a0)",
        "fld f3, 64(a0)",
        "fld f4, 72(a0)",
        "fadd.d f5, f1, f3",
        "fsub.d f6, f1, f3",
        "fmul.d f7, f2, f4",
        "fadd.d f8, f5, f7",
        "fsd f8, 0(a5)",
        "fsd f6, 8(a5)",
        "addi a0, a0, 16",
    ]
    body += wrap_pointer("a0", "s8", "s10")
    body.append("addi a5, a5, 16")
    body += wrap_pointer("a5", "s8", "s11")
    prologue = ["li a5, %d" % SECOND_BASE]
    return loop_kernel(body, iters, mask=footprint_kb * 1024 - 1,
                       extra_prologue=prologue)


def byte_scan(iters: int = 3500, element_bytes: int = 1,
              elements_per_iter: int = 4, footprint_kb: int = 8,
              rotate_mix: bool = False, mixed_sizes: bool = False) -> str:
    """Sequential sub-word scanning (stringsearch / crc32 / sha):
    adjacent narrow loads form contiguous, often *asymmetric* pairs.
    ``mixed_sizes`` alternates widths so even the static window sees
    asymmetric contiguous pairs.
    """
    body = []
    offset = 0
    for e in range(elements_per_iter):
        size = element_bytes
        if mixed_sizes and e % 2 == 1:
            size = min(8, element_bytes * 2)
        body.append("%s a%d, %d(a0)" % (LOAD_OP[size], 2 + e % 4, offset))
        body.append("add s2, s2, a%d" % (2 + e % 4))
        offset += size
    if rotate_mix:
        body += [
            "slli t0, s2, 7",
            "srli t1, s2, 57",
            "or s2, t0, t1",
            "xor s3, s3, s2",
        ]
    body.append("addi a0, a0, %d" % offset)
    body += wrap_pointer("a0", "s8", "s10")
    return loop_kernel(body, iters, mask=footprint_kb * 1024 - 1)


def sort_partition(iters: int = 2200, footprint_kb: int = 16) -> str:
    """Partition step of quicksort: two loads, a data-dependent
    compare-branch (hard to predict), and conditional swap stores.
    """
    body = [
        "ld a2, 0(a0)",
        "ld a3, 8(a0)",
        "blt a2, a3, ordered",
        "sd a3, 0(a0)",
        "sd a2, 8(a0)",
        "ordered:",
        "add s2, s2, a2",
        "addi a0, a0, 16",
    ]
    body += wrap_pointer("a0", "s8", "s10")
    # Pre-fill the buffer with pseudo-random values so the branch is
    # genuinely data-dependent.
    fill = [
        "li t0, %d" % BUFFER_BASE,
        "li t1, %d" % (footprint_kb * 128),  # qwords
        "li s0, 777",
        "li t3, 1103515245",
        "fill:",
        "    mul s0, s0, t3",
        "    addi s0, s0, 12345",
        "    sd s0, 0(t0)",
        "    addi t0, t0, 8",
        "    addi t1, t1, -1",
        "    bnez t1, fill",
    ]
    return loop_kernel(body, iters, mask=footprint_kb * 1024 - 1,
                       pre_lines=fill)

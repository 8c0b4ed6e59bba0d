"""Pointer-dominated kernels: chasing, hash probing, event queues,
table lookups.

These model the paper's irregular applications — 605.mcf, 620.omnetpp,
641.leela, patricia, rijndael — whose fusion pairs use unpredictable
or different base registers, giving the fusion predictor lower
coverage and accuracy (Table III's tail).
"""

from __future__ import annotations

from repro.workloads.kernels.memory import (
    BUFFER_BASE,
    SECOND_BASE,
    loop_kernel,
    wrap_pointer,
)

#: LCG multiplier/increment used for in-register pseudo-randomness.
#: The constants are hoisted into s6/s7 by the prologues below.
_LCG_MUL = 1103515245
_LCG_ADD = 12345

_LCG_PROLOGUE = ["li s6, %d" % _LCG_MUL, "li s7, %d" % _LCG_ADD]

#: One LCG step using the hoisted constants: s0 = s0 * s6 + s7.
_LCG_STEP = ["mul s0, s0, s6", "add s0, s0, s7"]


def pointer_chase(iters: int = 2500, node_bytes: int = 64,
                  nodes: int = 512, payload_loads: int = 2,
                  alu_between: int = 1, wild_offset: bool = False) -> str:
    """Chase a linked structure, loading payload fields per node.

    The next-pointer load serializes iterations (the 605.mcf shape);
    payload field loads form same-base pairs with small catalysts.
    With ``wild_offset`` the second payload access goes through a
    *data-dependent* offset that usually stays inside the node's line
    but sometimes escapes it — the source of fusion mispredictions
    (case 5) that drags accuracy down for mcf/leela-like codes.
    """
    mask = nodes * node_bytes - 1
    body = [
        # next = *(node); the node table is pre-linked pseudo-randomly.
        "ld a0, 0(a0)",
        "ld a2, 8(a0)",
    ]
    for extra in range(max(0, payload_loads - 2)):
        body.append("ld a%d, %d(a0)" % (4 + extra % 3, 32 + 8 * extra))
        body.append("add s2, s2, a%d" % (4 + extra % 3))
    for _ in range(alu_between):
        body.append("add s2, s2, a2")
    if wild_offset:
        # offset = *(node+16) & 0x78: usually inside the node's line.
        body += [
            "ld t0, 16(a0)",
            "andi t0, t0, 0x78",
            "add t1, a0, t0",
            "ld a3, 24(t1)",
        ]
    else:
        body.append("ld a3, 24(a0)")
    body.append("add s3, s3, a3")

    # Build the ring of nodes once: node[i].next = base + lcg(i) masked.
    init = _LCG_PROLOGUE + [
        "li t0, %d" % BUFFER_BASE,     # cursor
        "li t1, %d" % nodes,           # counter
        "li s0, 12345",
        "li t5, %d" % mask,
        "li t4, %d" % ~(node_bytes - 1),
        "init:",
    ]
    init += ["    %s" % line for line in _LCG_STEP]
    init += [
        "    srli t2, s0, 8",
        "    and t2, t2, t5",
        "    and t2, t2, t4",
        "    li t3, %d" % BUFFER_BASE,
        "    add t2, t2, t3",
        "    sd t2, 0(t0)",             # next pointer
        "    sd s0, 8(t0)",             # payload key
        "    sd t1, 24(t0)",            # payload val
        "    sd t1, 16(t0)",            # wild offset seed
        "    sd t1, 32(t0)",            # extra payload words
        "    sd s0, 40(t0)",
        "    addi t0, t0, %d" % node_bytes,
        "    addi t1, t1, -1",
        "    bnez t1, init",
        "    li a0, %d" % BUFFER_BASE,
    ]
    return loop_kernel(body, iters, mask=mask, pre_lines=init)


def hash_probe(iters: int = 2500, buckets_kb: int = 32,
               stores_per_hit: int = 2, compare_fields: int = 2,
               hit_mask: int = 1) -> str:
    """Hash a key, probe a bucket, compare fields, store on a 'hit':
    the 600.perlbench / 602.gcc symbol-table shape.  Field loads pair
    within the bucket line; stores pair in the output record; the
    data-dependent hit branch adds realistic mispredictions.
    """
    body = list(_LCG_STEP)
    body += [
        "srli t0, s0, 8",
        "and t0, t0, s8",
        "andi t1, t0, 63",
        "sub t0, t0, t1",                 # align probe to a line
        "add t2, t0, s10",                # bucket address
    ]
    for f in range(compare_fields):
        body.append("ld a%d, %d(t2)" % (2 + f, 8 * f))
        body.append("xor s3, s3, a%d" % (2 + f))
    body += [
        "andi t3, s0, %d" % hit_mask,
        "beqz t3, miss",
    ]
    for s in range(stores_per_hit):
        body.append("sd s3, %d(a5)" % (8 * s))
    body.append("addi a5, a5, %d" % (8 * stores_per_hit))
    body += wrap_pointer("a5", "s9", "s11")
    body.append("miss:")
    prologue = _LCG_PROLOGUE + ["li a5, %d" % SECOND_BASE, "li s0, 98765"]
    return loop_kernel(body, iters, mask=buckets_kb * 1024 - 1,
                       second_mask=64 * 1024 - 1, extra_prologue=prologue)


def event_queue(iters: int = 2200, heap_kb: int = 16) -> str:
    """Binary-heap sift: parent and child loads through different base
    registers that often share a line near the heap top — the
    620.omnetpp event-scheduler shape.
    """
    body = list(_LCG_STEP)
    body += [
        "srli t0, s0, 10",
        "and t0, t0, s8",
        "andi t1, t0, 7",
        "sub t0, t0, t1",                 # 8-byte aligned index
        "add t2, t0, s10",                # parent pointer
        "addi t3, t2, 16",                # child pointer (separate base)
        "ld a2, 0(t2)",
        "add s2, s2, a2",
        "ld a3, 0(t3)",
        "add s3, s3, a3",
        "blt a2, a3, noswap",
        "sd a3, 0(t2)",
        "sd a2, 0(t3)",
        "noswap:",
    ]
    prologue = _LCG_PROLOGUE + ["li s0, 4242"]
    return loop_kernel(body, iters, mask=heap_kb * 1024 - 1,
                       extra_prologue=prologue)


def table_mix(iters: int = 2500, table_kb: int = 64, lookups: int = 4,
              stores_per_iter: int = 2) -> str:
    """S-box style lookups at data-dependent lines (rijndael/blowfish):
    lookup pairs rarely share a line, so coverage is low, while the
    output stores still pair contiguously.
    """
    body = list(_LCG_STEP)
    for k in range(lookups):
        body += [
            "srli t0, s0, %d" % (4 + 6 * k),
            "and t0, t0, s8",
            "andi t1, t0, 7",
            "sub t0, t0, t1",
            "add t2, t0, s10",
            "ld a%d, 0(t2)" % (2 + k % 4),
            "xor s3, s3, a%d" % (2 + k % 4),
        ]
    for s in range(stores_per_iter):
        body.append("sd s3, %d(a5)" % (8 * s))
    body.append("addi a5, a5, %d" % (8 * stores_per_iter))
    body += wrap_pointer("a5", "s9", "s11")
    prologue = _LCG_PROLOGUE + ["li a5, %d" % SECOND_BASE, "li s0, 31415"]
    return loop_kernel(body, iters, mask=table_kb * 1024 - 1,
                       second_mask=32 * 1024 - 1, extra_prologue=prologue)

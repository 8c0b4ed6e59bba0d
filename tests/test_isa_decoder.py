"""Tests for the RV64 binary decoder and trace import/export.

Ground truth for the encodings: assemble with our assembler, encode
the same instruction by hand, and check the decoder inverts it — plus
a set of well-known fixed encodings.
"""

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FusionMode, ProcessorConfig, simulate
from repro.isa import assemble, run_program
from repro.isa.decoder import DecodeError, decode
from repro.isa.trace_io import (
    TraceFormatError,
    from_spike_log,
    load_trace,
    save_trace,
)


# Known-good encodings (cross-checked against the RISC-V spec examples).
KNOWN = [
    (0x00B50533, "add", dict(rd=10, rs1=10, rs2=11)),
    (0x40B50533, "sub", dict(rd=10, rs1=10, rs2=11)),
    (0x00A28293, "addi", dict(rd=5, rs1=5, imm=10)),
    (0xFFF28293, "addi", dict(rd=5, rs1=5, imm=-1)),
    (0x0005B283, "ld", dict(rd=5, rs1=11, imm=0)),
    (0x0082B303, "ld", dict(rd=6, rs1=5, imm=8)),
    (0x00B2B023, "sd", dict(rs1=5, rs2=11, imm=0)),
    (0x02B282B3, "mul", dict(rd=5, rs1=5, rs2=11)),
    (0x02C2D2B3, "divu", dict(rd=5, rs1=5, rs2=12)),
    (0x000122B7, "lui", dict(rd=5, imm=0x12)),
    (0x00012297, "auipc", dict(rd=5, imm=0x12)),
    (0x00229293, "slli", dict(rd=5, rs1=5, imm=2)),
    (0x4022D293, "srai", dict(rd=5, rs1=5, imm=2)),
    (0x0000100F, "fence", {}),
    (0x00000073, "ecall", {}),
]


@pytest.mark.parametrize("word,mnemonic,fields", KNOWN)
def test_known_encodings(word, mnemonic, fields):
    inst = decode(word, pc=0x1000)
    assert inst.mnemonic == mnemonic
    for field, expected in fields.items():
        assert getattr(inst, field) == expected, field
    assert inst.pc == 0x1000


def test_branch_offset_decoding():
    # beq x5, x6, -8  (branch back two instructions)
    inst = decode(0xFE628CE3)
    assert inst.mnemonic == "beq"
    assert (inst.rs1, inst.rs2) == (5, 6)
    assert inst.imm == -8


def test_jal_offset_decoding():
    # jal ra, +16
    inst = decode(0x010000EF)
    assert inst.mnemonic == "jal"
    assert inst.rd == 1
    assert inst.imm == 16


def test_fp_load_store_register_spaces():
    flw = decode(0x0002A787 | (0b010 << 12))  # flw f15, 0(x5)
    assert flw.mnemonic == "flw"
    assert flw.rd >= 32  # FP register flat index
    fsd = decode(0x00B2B027)  # fsd f11, 0(x5)
    assert fsd.mnemonic == "fsd"
    assert fsd.rs2 >= 32


def test_compressed_rejected():
    with pytest.raises(DecodeError, match="compressed"):
        decode(0x4501)  # c.li a0, 0


def test_unknown_opcode_rejected():
    with pytest.raises(DecodeError, match="unsupported opcode"):
        decode(0x0000007B)


def test_word_ops():
    inst = decode(0x00B5053B)  # addw a0, a0, a1
    assert inst.mnemonic == "addw"
    inst = decode(0x02B5053B)  # mulw a0, a0, a1
    assert inst.mnemonic == "mulw"


# ---- spike log ingestion -----------------------------------------------------

SPIKE_LOG = """\
core   0: 3 0x0000000080000000 (0x000122b7) x5  0x0000000000012000
core   0: 3 0x0000000080000004 (0x0082b303) x6  0x000000000000002a mem 0x0000000000012008
core   0: 3 0x0000000080000008 (0x0102b383) x7  0x0000000000000007 mem 0x0000000000012010
core   0: 3 0x000000008000000c (0x00b2b023) mem 0x0000000000012000 0x000000000000000b
core   0: 3 0x0000000080000010 (0xfe628ce3)
core   0: 3 0x0000000080000008 (0x0102b383) x7  0x0000000000000007 mem 0x0000000000012010
"""


def test_spike_log_roundtrip():
    trace = from_spike_log(io.StringIO(SPIKE_LOG))
    assert len(trace) == 6
    assert trace[0].inst.mnemonic == "lui"
    load = trace[1]
    assert load.inst.mnemonic == "ld"
    assert load.addr == 0x12008
    store = trace[3]
    assert store.inst.mnemonic == "sd"
    assert store.addr == 0x12000
    branch = trace[4]
    assert branch.is_branch
    assert branch.taken          # the next committed PC went backwards
    assert branch.target_pc == 0x80000008


def test_spike_log_skips_noise():
    noisy = "warning: something\n" + SPIKE_LOG + "core   0: exception!\n"
    trace = from_spike_log(io.StringIO(noisy))
    assert len(trace) == 6


def test_spike_trace_runs_through_pipeline():
    trace = from_spike_log(io.StringIO(SPIKE_LOG * 40))
    result = simulate(trace, ProcessorConfig().with_mode(FusionMode.HELIOS))
    assert result.instructions == len(trace)


# ---- JSON-lines trace round trip ----------------------------------------------

def test_save_load_roundtrip():
    trace = run_program(assemble("""
        li a0, 0x20000
        li a1, 20
    loop:
        ld a2, 0(a0)
        ld a3, 8(a0)
        sd a2, 64(a0)
        addi a0, a0, 16
        addi a1, a1, -1
        bnez a1, loop
        ecall
    """, name="roundtrip"))
    buffer = io.StringIO()
    save_trace(trace, buffer)
    buffer.seek(0)
    loaded = load_trace(buffer)
    assert loaded.name == "roundtrip"
    assert len(loaded) == len(trace)
    for original, copy in zip(trace, loaded):
        assert original.pc == copy.pc
        assert original.inst.mnemonic == copy.inst.mnemonic
        assert original.addr == copy.addr
        assert original.taken == copy.taken


def test_loaded_trace_simulates_identically():
    trace = run_program(assemble("""
        li a0, 0x20000
        li a1, 30
    loop:
        ld a2, 0(a0)
        ld a3, 8(a0)
        addi a0, a0, 16
        andi a0, a0, 0xfff
        li t0, 0x20000
        add a0, a0, t0
        addi a1, a1, -1
        bnez a1, loop
        ecall
    """))
    buffer = io.StringIO()
    save_trace(trace, buffer)
    buffer.seek(0)
    loaded = load_trace(buffer)
    config = ProcessorConfig().with_mode(FusionMode.CSF_SBR)
    assert simulate(trace, config).cycles == simulate(loaded, config).cycles


def test_load_rejects_foreign_files():
    with pytest.raises(TraceFormatError):
        load_trace(io.StringIO('{"format": "something-else"}\n'))


_HEADER = '{"format": "repro-trace", "version": 1, "name": "t"}\n'
_RECORD = {"pc": 4096, "mnemonic": "addi", "rd": 10, "rs1": 10,
           "rs2": None, "imm": 1}


def _with_record(**changes):
    record = dict(_RECORD, **changes)
    return _HEADER + json.dumps({k: v for k, v in record.items()
                                 if v is not ...}) + "\n"


@pytest.mark.parametrize("text, line", [
    ("", "line 1"),
    ("[1]\n", "not a repro trace"),
    (_with_record(mnemonic=...), "line 2"),
    (_HEADER + "[4096, \"addi\"]\n", "line 2"),
    (_with_record(mnemonic="frobnicate"), "line 2"),
    (_with_record(rd="a"), "line 2"),
], ids=["empty-file", "list-header", "no-mnemonic", "list-record",
        "unknown-mnemonic", "string-register"])
def test_load_malformed_raises_trace_format_error(text, line):
    with pytest.raises(TraceFormatError, match=line):
        load_trace(io.StringIO(text))


def _saved_text():
    trace = run_program(assemble("""
        li a0, 0x20000
        li a1, 3
    loop:
        ld a2, 0(a0)
        sd a2, 8(a0)
        addi a1, a1, -1
        bnez a1, loop
        ecall
    """, name="fuzz"))
    buffer = io.StringIO()
    save_trace(trace, buffer)
    return buffer.getvalue()


_SAVED = _saved_text()
_SAVED_LINES = _SAVED.splitlines(keepends=True)

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


@st.composite
def _mutated_trace_files(draw):
    """A file :func:`save_trace` wrote, with one mutation: text edits
    anywhere, or a record field replaced, dropped or added."""
    kind = draw(st.sampled_from(["text", "field", "drop", "line"]))
    if kind == "text":
        text = _SAVED
        for _ in range(draw(st.integers(1, 4))):
            at = draw(st.integers(0, len(text)))
            cut = draw(st.integers(0, 3))
            text = text[:at] + draw(st.text(max_size=3)) + text[at + cut:]
        return text
    lines = list(_SAVED_LINES)
    index = draw(st.integers(0, len(lines) - 1))
    if kind == "line":
        lines[index] = json.dumps(draw(_json_values)) + "\n"
        return "".join(lines)
    record = json.loads(lines[index])
    key = draw(st.sampled_from(sorted(record) + ["extra"]))
    if kind == "drop":
        record.pop(key, None)
    else:
        record[key] = draw(_json_values)
    lines[index] = json.dumps(record) + "\n"
    return "".join(lines)


@settings(max_examples=300, deadline=None)
@given(text=_mutated_trace_files())
def test_load_mutated_file_raises_only_trace_format_error(text):
    try:
        load_trace(io.StringIO(text))
    except TraceFormatError:
        pass

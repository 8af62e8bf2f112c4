"""Seeded workload generators with independent reference images.

Each generator turns a seed into gtrans input text (a rule file and a
program) and computes, in plain Python and without gtrans, the byte image
that text must translate to.  Same seed, same text, same reference.
The shape of each workload is fixed and the seed draws only operand
values, so seeds differ in their bytes, not in the work they ask for (in
``dest_loop`` the seed moves the branch mix by about a percent).

Workloads:

* ``asm``: an assembler-style program.  Lexing, guard elimination and the
  hex formatter do real work; every class resolution hits its first
  candidate and every expression text runs about once per pass.
* ``dest_loop``: a short program whose ``@while`` runs ~20k iterations.
  Nearly all work is the destination phase re-evaluating the same few
  expressions in both passes.
* ``macro``: ~20 overloads of one class, of which the oldest matches, and
  a variadic class that recurses once per list element, driven by a
  ``#while`` loop.  Nearly all work is the source phase and class matching.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

NAMES = ("asm", "dest_loop", "macro")

@dataclass
class Workload:
    name: str
    seed: int
    rules: str
    source: str
    format: str                 # gtrans output format: "raw" or "hex"
    expected: bytes             # reference image
    properties: dict = field(default_factory=dict)

    @property
    def input_lines(self) -> int:
        """Lines gtrans reads: rule file plus program, as it splits them."""
        return self.rules.count("\n") + 1 + self.source.count("\n") + 1

    def check(self, output: bytes) -> str | None:
        """None when the translator's output is the reference, else why not."""
        if self.format == "hex":
            try:
                image = decode_hex_dump(output)
            except ValueError as exc:
                return f"malformed hex dump: {exc}"
        else:
            image = output
        if image == self.expected:
            return None
        n = min(len(image), len(self.expected))
        first = next((i for i in range(n) if image[i] != self.expected[i]), n)
        return (
            f"image differs from reference at byte {first} "
            f"({len(image)} bytes, expected {len(self.expected)})"
        )


def generate(name: str, seed: int) -> Workload:
    if name == "asm":
        return gen_asm(seed)
    if name == "dest_loop":
        return gen_dest_loop(seed)
    if name == "macro":
        return gen_macro(seed)
    raise ValueError(f"unknown workload '{name}'")


# -- helpers ----------------------------------------------------------------


def _le(value: int, size: int) -> bytes:
    """Little-endian unit, value truncated to the unit like gtrans does."""
    return (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")


def _printable(b: int) -> str:
    return chr(b) if 0x20 <= b < 0x7F else "."


def decode_hex_dump(dump: bytes) -> bytes:
    """Bytes of a hex dump, checking every row's offset and ASCII column.

    Row shape: ``OOOOOOOO: xx xx ... (padded to 47)  |ascii|``.
    """
    text = dump.decode("ascii")
    if text and not text.endswith("\n"):
        raise ValueError("missing final newline")
    out = bytearray()
    for row_no, row in enumerate(text.splitlines()):
        off, sep, rest = row.partition(": ")
        if not sep or int(off, 16) != len(out) or len(off) != 8:
            raise ValueError(f"row {row_no}: bad offset field")
        cells, bar, ascii_col = rest[:47], rest[47:50], rest[50:]
        if bar != "  |" or not ascii_col.endswith("|"):
            raise ValueError(f"row {row_no}: bad column layout")
        chunk = bytes.fromhex(cells)
        if not 1 <= len(chunk) <= 16:
            raise ValueError(f"row {row_no}: {len(chunk)} bytes in a row")
        if ascii_col[:-1] != "".join(_printable(b) for b in chunk):
            raise ValueError(f"row {row_no}: ASCII column disagrees")
        out += chunk
    return bytes(out)


# -- asm --------------------------------------------------------------------

ASM_UNITS = 3700
ASM_HELPERS = 24            # guard chain h_23 -> h_22 -> ... -> h_0
ASM_CALLED = 12             # the program calls only h_0 .. h_11


def gen_asm(seed: int) -> Workload:
    """Assembler-style rules, a guarded helper library and a long program.

    Rules: ``nop``, ``mov r , v``, ``add r , v``, ``jmp t``, ``call t`` and
    the embedded ``INC(v)``.  Helper ``h_i`` calls ``h_(i-1)``, so when the
    program calls only the lower half the upper half drops one guard
    elimination round at a time.
    """
    rng = random.Random(seed)
    rules = ["// register file"]
    rules += [f"r{k} = {k}" for k in range(8)]
    rules += [
        "class nop { db 0x90 }",
        "class mov r , v",
        "{",
        "db 0xB8 + r",
        "dd v",
        "}",
        "class add r , v",
        "{",
        "db 0x05, r",
        "dw v",
        "}",
        "class jmp t",
        "{",
        "db 0xE9",
        "dd t",
        "}",
        "class call t",
        "{",
        "db 0xE8",
        "dd t",
        "}",
        "class INC ( v ) { v + 1 }",
        "// helper library: each helper calls the one below it",
    ]
    # Items of the image in order: ("label", name) or ("bytes", b"..") or
    # ("ref", name, size) for a unit whose value is a label's offset.
    helpers: dict[str, list] = {}
    helper_refs: dict[str, set[str]] = {}
    for i in range(ASM_HELPERS):
        name = f"h_{i}"
        reg, val = i % 8, rng.randrange(1 << 16)
        rules += [f"@if [{name}]", f"{name} :", f"mov r{reg} , {val}"]
        items = [("label", name), ("bytes", bytes([0xB8 + reg]) + _le(val, 4))]
        refs = set()
        if i > 0:
            rules.append(f"call h_{i - 1}")
            items += [("bytes", b"\xe8"), ("ref", f"h_{i - 1}", 4)]
            refs.add(f"h_{i - 1}")
        rules += ["db 0xC3", "@endif"]
        items.append(("bytes", b"\xc3"))
        helpers[name] = items
        helper_refs[name] = refs

    prog = []
    prog_items: list = []
    program_refs: set[str] = set()
    data_values = forward_values = 0
    for k in range(ASM_UNITS):
        label, nxt = f"L_{k}", f"L_{k + 1}"
        ra, va = rng.randrange(8), rng.randrange(1 << 16)
        rb, wb = rng.randrange(8), rng.randrange(1 << 15)
        c, d = rng.randrange(256), rng.randrange(255)
        ch = rng.choice("ABCDEFGHIJKLMNOPQRSTUVWXYZ")
        text = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(2))
        p, q = rng.randrange(1, 1000), rng.randrange(1, 1000)
        x = p * q + k
        prog += [
            f"{label} :",
            f"mov r{ra} , {va}",
            f"add r{rb} , INC({wb})",
        ]
        prog_items += [
            ("label", label),
            ("bytes", bytes([0xB8 + ra]) + _le(va, 4)),
            ("bytes", bytes([0x05, rb]) + _le(wb + 1, 2)),
        ]
        data_values += 5        # mov: db, dd; add: db (two values), dw
        for _ in range(k % 3):
            prog.append("nop")
            prog_items.append(("bytes", b"\x90"))
            data_values += 1
        prog += [
            f"x_{k} = {p} * {q} + {k}",
            f"db {c}, INC({d}), '{ch}', \"{text}\", x_{k}",
        ]
        prog_items.append(
            ("bytes", bytes([c, d + 1, ord(ch)]) + text.encode() + _le(x, 1))
        )
        data_values += 5
        if k % 2 == 0:
            target = f"h_{rng.randrange(ASM_CALLED)}"
            prog.append(f"call {target}")
            prog_items += [("bytes", b"\xe8"), ("ref", target, 4)]
            program_refs.add(target)
            data_values += 2    # helpers precede the program: a backward ref
        prog.append(f"jmp {nxt}")
        prog_items += [("bytes", b"\xe9"), ("ref", nxt, 4)]
        data_values += 2
        forward_values += 1
    prog += [f"L_{ASM_UNITS} :", "db 0xC3"]
    prog_items += [("label", f"L_{ASM_UNITS}"), ("bytes", b"\xc3")]
    data_values += 1

    # Guard elimination, greatest fixpoint: a helper stays while a kept
    # line outside its own region names it.
    kept = set(helpers)
    while True:
        refs = set(program_refs)
        for name in kept:
            refs |= helper_refs[name] - {name}
        if refs & kept == kept:
            break
        kept &= refs
    items = [it for name in helpers if name in kept for it in helpers[name]]
    items += prog_items

    expected = _layout(items)
    helper_values = sum(
        3 + (2 if i > 0 else 0)
        for i in range(ASM_HELPERS) if f"h_{i}" in kept
    )
    return Workload(
        name="asm",
        seed=seed,
        rules="\n".join(rules) + "\n",
        source="\n".join(prog) + "\n",
        format="hex",
        expected=expected,
        properties={
            "units": ASM_UNITS,
            "guard_chain_depth": ASM_HELPERS,
            "guard_regions_dropped": ASM_HELPERS - len(kept),
            "forward_ref_share": forward_values / (data_values + helper_values),
            "max_expansion_depth": 2,
            "image_bytes": len(expected),
        },
    )


def _layout(items) -> bytes:
    """Assign label offsets, then fill label references: the reference
    does its own two-step layout."""
    labels: dict[str, int] = {}
    offset = 0
    for it in items:
        if it[0] == "label":
            labels[it[1]] = offset
        elif it[0] == "bytes":
            offset += len(it[1])
        else:
            offset += it[2]
    out = bytearray()
    for it in items:
        if it[0] == "bytes":
            out += it[1]
        elif it[0] == "ref":
            out += _le(labels[it[1]], it[2])
    return bytes(out)


# -- dest_loop --------------------------------------------------------------

LOOP_ITERATIONS = 20000
_LCG_A, _LCG_C, _LCG_MASK = 1103515245, 12345, 0x7FFFFFFF


def gen_dest_loop(seed: int) -> Workload:
    """One ``@while`` loop that emits a pseudo-random mix of units.

    Every iteration steps an LCG, picks ``db``/``dw``/``dd`` with an
    ``@if/@elif/@else``, emits ``end - i`` where ``end`` is a label after
    the loop, and reserves ``s % 3`` words filled with ``end``.
    """
    rng = random.Random(seed)
    s0 = rng.randrange(1, _LCG_MASK)
    source = "\n".join([
        "// LCG-driven emission; 'end' is defined after the loop",
        "i = 0",
        f"s = {s0}",
        f"@while i < {LOOP_ITERATIONS}",
        f"s = (s * {_LCG_A} + {_LCG_C}) & 0x{_LCG_MASK:X}",
        "@if s % 3 = 0",
        "db s & 0xFF",
        "@elif s % 3 = 1",
        "dw s & 0xFFFF",
        "@else",
        "dd s",
        "@endif",
        "dd end - i",
        "rw s % 3, end",
        "i = i + 1",
        "@endw",
        "end :",
        "db 0xEE",
    ]) + "\n"

    # Python replay: sizes first (nothing looks forward), then bytes.
    states = []
    s = s0
    size = 0
    for _ in range(LOOP_ITERATIONS):
        s = (s * _LCG_A + _LCG_C) & _LCG_MASK
        states.append(s)
        size += (1, 2, 4)[s % 3] + 4 + 2 * (s % 3)
    end = size
    out = bytearray()
    for i, s in enumerate(states):
        out += _le(s, (1, 2, 4)[s % 3])
        out += _le(end - i, 4)
        out += _le(end, 2) * (s % 3)
    out += b"\xee"
    return Workload(
        name="dest_loop",
        seed=seed,
        rules="",
        source=source,
        format="raw",
        expected=bytes(out),
        properties={
            "iterations": LOOP_ITERATIONS,
            # per iteration: the unit, 'end - i' and the reserve fill
            "forward_ref_share": 2 / 3,
            "guard_chain_depth": 0,
            "max_expansion_depth": 1,
            "image_bytes": len(out),
        },
    )


# -- macro ------------------------------------------------------------------

MACRO_ITERATIONS = 10000
MACRO_LONG_EVERY = 400      # iterations between long lists
MACRO_LONG_LEN = 300        # elements in a long list
# separators of the overloads that never match; '+' is the oldest, real one
_DECOY_SEPS = (
    "-", "*", "/", "%", "<<", ">>", "&", "|", "^", "<", ">", "<=", ">=",
    "!=", "&&", "||", ":", ";", "?",
)


def gen_macro(seed: int) -> Workload:
    """Class resolution and recursive expansion under a ``#while`` loop.

    ``op a + b`` is the oldest of ~20 overloads and the only one whose
    separator occurs in the calls, so every ``op`` resolution tries all of
    them.  ``push x , .. rest`` emits one element and recurses on the rest;
    every MACRO_LONG_EVERY iterations a MACRO_LONG_LEN element list drives
    the expansion stack that deep.
    """
    rng = random.Random(seed)
    # Only multiples of 4 are emitted by the variadic overload.  Residues
    # mod 4 are fixed and only the rest is drawn, so every seed emits the
    # same number of lines and does the same work.
    k1, k4, k5, k6 = (rng.randrange(1, 200) for _ in range(4))
    k2 = 4 * rng.randrange(1, 50)           # always emitted
    k3 = 4 * rng.randrange(50) + 2          # never emitted
    long_list = [
        4 * rng.randrange(64) + (0 if j % 4 == 0 else rng.randrange(1, 4))
        for j in range(MACRO_LONG_LEN)
    ]
    rules = [
        "// oldest overload first: it is the one that matches",
        "class op a + b",
        "{",
        "db a, b",
        "}",
    ]
    for sep in _DECOY_SEPS:
        rules += [f"class op a {sep} b", "{", "db 0xFF, a, b", "}"]
    rules += [
        "class push x",
        "{",
        "db x",
        "}",
        "class push x , .. rest",
        "{",
        "#if (x) % 4 = 0",
        "db x",
        "#endif",
        "push rest",
        "}",
    ]
    source = "\n".join([
        "i = 0",
        f"#while i < {MACRO_ITERATIONS}",
        f"#if i % {MACRO_LONG_EVERY} = {MACRO_LONG_EVERY - 1}",
        "push " + " , ".join(str(v) for v in long_list),
        "#elif i % 3 = 0",
        f"op i + {k1}",
        "#elif i % 3 = 1",
        f"push i , {k2} , {k3} , i + {k4}",
        "#else",
        f"op (i * {k5}) + {k6}",
        "#endif",
        "i = i + 1",
        "#endw",
    ]) + "\n"

    def push(values):
        # every element but the last goes through the variadic overload,
        # which emits only multiples of 4; the last one always emits
        for v in values[:-1]:
            if v % 4 == 0:
                out.append(v & 0xFF)
        out.append(values[-1] & 0xFF)

    out = bytearray()
    for i in range(MACRO_ITERATIONS):
        if i % MACRO_LONG_EVERY == MACRO_LONG_EVERY - 1:
            push(long_list)
        elif i % 3 == 0:
            out += bytes([i & 0xFF, k1])
        elif i % 3 == 1:
            push([i, k2, k3, i + k4])
        else:
            out += bytes([(i * k5) & 0xFF, k6])
    return Workload(
        name="macro",
        seed=seed,
        rules="\n".join(rules) + "\n",
        source=source,
        format="raw",
        expected=bytes(out),
        properties={
            "iterations": MACRO_ITERATIONS,
            "overloads": 1 + len(_DECOY_SEPS),
            "forward_ref_share": 0.0,
            "guard_chain_depth": 0,
            # the top-level program plus one level per list element
            "max_expansion_depth": 1 + MACRO_LONG_LEN,
            "image_bytes": len(out),
        },
    )

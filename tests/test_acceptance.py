"""End-to-end checks, one test per shipped behavior guarantee.

Run with -v to see the checklist; every test here drives the public
surface (the CLI pipeline or a whole phase), not internal helpers.
"""

import random
import time

import pytest

from gtrans.classes import ClassTable
from gtrans.cli import TranslatorConfig, translate
from gtrans.dest_phase import resolve_guarded_regions, run_dest_phase
from gtrans.engine import Limits
from gtrans.errors import StructureError
from gtrans.expr import evaluate
from gtrans.lexer import tokenize, tokenize_lines
from gtrans.source_phase import run_source_phase

from helpers import gen_directive_program, gen_expr
from oracles import (
    OracleError,
    consistent_guard_subsets,
    largest_consistent_subset,
    oracle_eval,
    top_level_positions,
)


def build(tmp_path, source, rules=(), **cfg_kw):
    """Full pipeline through the driver; returns (report, output bytes)."""
    src = tmp_path / "prog.src"
    src.write_text(source)
    paths = []
    for k, text in enumerate(rules):
        p = tmp_path / f"rules{k}.gt"
        p.write_text(text)
        paths.append(str(p))
    out = tmp_path / "prog.bin"
    report = translate(
        TranslatorConfig(
            rule_files=paths, source=str(src), output=str(out), **cfg_kw
        )
    )
    return report, (out.read_bytes() if out.exists() else None)


def phase1(source, env=None):
    diags = []
    stream = run_source_phase(
        tokenize_lines(source, "t.s"),
        env if env is not None else {},
        ClassTable(),
        diags,
        Limits(),
    )
    return stream, diags


def test_c01_single_byte_instruction(tmp_path):
    started = time.perf_counter()
    report, data = build(tmp_path, "nop\n", rules=["class nop { db 0x90 }\n"])
    elapsed = time.perf_counter() - started
    assert report.status == "ok" and report.byte_count == 1
    assert data == b"\x90"
    assert elapsed < 1.0


def test_c02_word_emission_endianness(tmp_path):
    _, arm = build(tmp_path, "dd 0xE1A00000\n")
    _, riscv = build(tmp_path, "dd 0x13\n")
    assert arm == bytes([0x00, 0x00, 0xA0, 0xE1])
    assert riscv == bytes([0x13, 0x00, 0x00, 0x00])
    _, arm_be = build(tmp_path, "dd 0xE1A00000\n", endian="big")
    _, riscv_be = build(tmp_path, "dd 0x13\n", endian="big")
    assert arm_be == bytes(reversed(arm)) == bytes([0xE1, 0xA0, 0x00, 0x00])
    assert riscv_be == bytes(reversed(riscv))


def test_c03_alphabet_loop(tmp_path):
    source = "I = 'A'\n@while I <= 'Z'\ndb I\nI = I + 1\n@endw\n"
    report, data = build(tmp_path, source)
    assert data == b"ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    assert report.byte_count == 26


def test_c04_phase_print_order(tmp_path):
    source = (
        '@print "Output Processing ..."\n'
        '#print "Input Processing ..."\n'
        "db 0\n"
    )
    report, _ = build(tmp_path, source)
    assert report.diagnostics == [
        "Input Processing ...",
        "Output Processing ...",
    ]


def test_c05_newest_definition_wins(tmp_path):
    s1 = "class Sum x + y { db 1 }\n"
    s2 = "class Sum x + y { db 2 }\n"
    _, data = build(tmp_path, "Sum 3 + 4\n", rules=[s1 + s2])
    assert data == b"\x02"
    _, data = build(tmp_path, "Sum 3 + 4\n", rules=[s1])
    assert data == b"\x01"


# marker bytes reveal which definition fired and what it captured:
# 0xAA opens an addition split, 0xBB a multiplication split, then the
# two captured runs expand recursively in order
E_TABLE = (
    "class E x { db x }\n"
    "class E x * y\n{\ndb 0xBB\nE x\nE y\n}\n"
    "class E x + y\n{\ndb 0xAA\nE x\nE y\n}\n"
)


def test_c06_split_precedence_by_order(tmp_path):
    # the newest definition (+) is tried first, so it takes the
    # outermost split: x gets `a * b`, y gets `c`
    table = ClassTable()
    for header in ("E x", "E x * y", "E x + y"):
        t = tokenize(header)
        table.define(t[0].text, t[1:], [], (), t[0].pos)
    cls, binding, _ = table.resolve("E", tokenize("a * b + c"))
    assert cls.fixed[1] == ("+",)
    assert [t.text for t in binding["x"]] == ["a", "*", "b"]
    assert [t.text for t in binding["y"]] == ["c"]

    _, data = build(
        tmp_path,
        "E a * b + c\n",
        rules=[E_TABLE],
        defines={"a": 1, "b": 2, "c": 3},
    )
    assert data == bytes([0xAA, 0xBB, 1, 2, 3])

    # the split point equals the rightmost top-level occurrence of the
    # newest operator present, over random parenthesized expressions

    def gen(rng, depth):
        if depth == 0 or rng.random() < 0.35:
            atom = rng.choice(["a", "b", "c", "1", "2", "7"])
            return "( %s )" % atom if rng.random() < 0.2 else atom
        text = "%s %s %s" % (
            gen(rng, depth - 1),
            rng.choice(["+", "*"]),
            gen(rng, depth - 1),
        )
        return "( %s )" % text if rng.random() < 0.4 else text

    rng = random.Random(8128)
    splits = atoms = 0
    for round_ in range(200):
        if round_ % 4 == 3:
            text = "( %s )" % gen(rng, 2)  # no top-level operator at all
        else:
            text = "%s %s %s" % (
                gen(rng, 2), rng.choice(["+", "*"]), gen(rng, 2)
            )
        args = tokenize(text)
        texts = [t.text for t in args]
        cls, binding, _ = table.resolve("E", args)
        for op in ("+", "*"):
            hits = top_level_positions(texts, [op])
            if hits:
                assert [t.text for t in binding["x"]] == texts[: hits[-1]]
                assert [t.text for t in binding["y"]] == texts[hits[-1] + 1 :]
                assert cls.fixed[1] == (op,)
                splits += 1
                break
        else:
            assert [t.text for t in binding["x"]] == texts
            atoms += 1
    assert splits >= 150 and atoms >= 50


def test_c07_associativity_encodings(tmp_path):
    rules = (
        "class F x - y - z { db ( ( x - y ) - z ) }\n"
        "class G x - y - z { db ( x - ( y - z ) ) }\n"
    )
    stream, _ = phase1(rules + "F a - b - c\nG a - b - c\n")
    assert "\n".join(line.render() for line in stream) == (
        "db ( ( a - b ) - c )\ndb ( a - ( b - c ) )"
    )
    _, data = build(
        tmp_path,
        "F a - b - c\nG a - b - c\n",
        rules=[rules],
        defines={"a": 10, "b": 5, "c": 2},
    )
    assert data == bytes([3, 7])  # (10-5)-2 vs 10-(5-2)


def test_c08_dead_region_elimination():
    def check(source, records, names):
        """records: (covering region or None, referenced name or None)."""
        lines = tokenize_lines(source, "t.s")
        _, included = resolve_guarded_regions(lines)

        def refs_under(s):
            return {
                ref
                for cover, ref in records
                if (cover is None or cover in s) and ref and ref != cover
            }

        assert included == set(largest_consistent_subset(names, refs_under))
        for s in consistent_guard_subsets(names, refs_under):
            assert s <= included  # engine answer dominates every fixpoint
        return run_dest_phase(lines, {})

    # unreferenced: contributes zero bytes
    img = check(
        "@if [P1]\nP1 : rb 64\n@endif\ndb 9\n",
        [("P1", None), (None, None)],
        ["P1"],
    )
    assert img.data == b"\x09" and img.labels == {}

    # referenced: included
    img = check(
        "@if [P1]\nP1 : db 1\n@endif\ndw P1\n",
        [("P1", None), (None, "P1")],
        ["P1"],
    )
    assert img.data.hex() == "010000" and img.labels == {"P1": 0}

    # a chain referenced only from inside a dead region dies with it
    img = check(
        "@if [P1]\nP1 : db 1\ndw P2\n@endif\n"
        "@if [P2]\nP2 : db 2\n@endif\n"
        "db 9\n",
        [("P1", None), ("P1", "P2"), ("P2", None), (None, None)],
        ["P1", "P2"],
    )
    assert img.data == b"\x09" and img.labels == {}


def test_c09_directive_engines_agree():
    seed = random.Random(271828)
    for _ in range(100):
        stamp = seed.randrange(1 << 30)
        # each program ends in a run error; what was printed before it
        # must agree too
        src = gen_directive_program(random.Random(stamp), "#") + "\n#break\n"
        dst = gen_directive_program(random.Random(stamp), "@") + "\n@break\n"
        first_log, second_log = [], []
        with pytest.raises(StructureError) as first:
            run_source_phase(
                tokenize_lines(src, "t.s"),
                {},
                ClassTable(),
                first_log,
                Limits(),
            )
        with pytest.raises(StructureError) as second:
            run_dest_phase(
                tokenize_lines(dst, "t.s"), {}, diagnostics=second_log
            )
        assert first_log == second_log
        assert str(first.value) == str(second.value)
        assert str(second.value).endswith("break outside of a loop")


def test_c10_emission_laws():
    rng = random.Random(1105)
    for _ in range(150):
        letter, size = rng.choice(list({"b": 1, "w": 2, "d": 4, "p": 6, "q": 8}.items()))
        values = [
            rng.randrange(-(1 << 63), 1 << 63) for _ in range(rng.randrange(1, 6))
        ]
        src = "d%s %s\n" % (letter, ", ".join(str(v) for v in values))
        img = run_dest_phase(tokenize_lines(src, "t.s"), {})
        assert len(img.data) == size * len(values)
        expected = b"".join(
            (v & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
            for v in values
        )
        assert bytes(img.data) == expected

        count = rng.randrange(0, 5)
        fill = rng.randrange(0, 1 << (8 * size))
        reserved = run_dest_phase(
            tokenize_lines("r%s %d, %d\n" % (letter, count, fill), "t.s"), {}
        )
        single = run_dest_phase(
            tokenize_lines("d%s %d\n" % (letter, fill), "t.s"), {}
        )
        assert bytes(reserved.data) == bytes(single.data) * count


def test_c11_expression_differential():
    rng = random.Random(14142)
    env = {"a": 3, "b": 10, "c": -4}
    checked = attempts = 0
    while checked < 1000:
        attempts += 1
        assert attempts < 20000
        text = gen_expr(rng, 4)
        try:
            want = oracle_eval(text, env)
        except OracleError:
            continue  # division by zero and friends: out of scope here
        got = evaluate(tokenize(text), env.get)
        assert got == want, text
        checked += 1


def test_c12_define_emulation(tmp_path):
    rules = (
        "class #define a b { a := b }\n"
        "class #define a(x) b { class a(x) { b } }\n"
    )
    source = "#define INC(v) v + 1\ndb INC(4)\n"
    report, data = build(tmp_path, source, rules=[rules])
    assert report.status == "ok"
    assert data == b"\x05"


def test_c13_break_levels():
    source = (
        "a = 0\n"
        "b = 0\n"
        "#while a < 10\n"
        "a = a + 1\n"
        "#if a % 2\n"
        "#break 0\n"
        "#endif\n"
        "b = b + 1\n"
        "#if a = 6\n"
        "#break\n"
        "#endif\n"
        "#endw\n"
        "n = 0\n"
        "#while 1\n"
        "#while 1\n"
        "n = n + 1\n"
        "#break 2\n"
        "#endw\n"
        "n = n + 100\n"
        "#endw\n"
    )
    env = {}
    phase1(source, env)
    assert env.get("a") == 6  # level 1 left the loop at the mark
    assert env.get("b") == 3  # level 0 skipped the odd passes
    assert env.get("n") == 1  # level 2 left both loops at once


def test_c14_determinism(tmp_path):
    corpus = [
        ("nop\n", ["class nop { db 0x90 }\n"], {}),
        ("I = 'A'\n@while I <= 'Z'\ndb I\nI = I + 1\n@endw\n", [], {}),
        ("E a * b + c\n", [E_TABLE], {"a": 1, "b": 2, "c": 3}),
        (
            "@if [P1]\nP1 : db 1\ndw P2\n@endif\n"
            "@if [P2]\nP2 : db 2\n@endif\ndd P1\n",
            [],
            {},
        ),
        (
            "#define INC(v) v + 1\ndb INC(4)\nrw 3, 0xAB\nt dd t\n",
            [
                "class #define a b { a := b }\n"
                "class #define a(x) b { class a(x) { b } }\n"
            ],
            {},
        ),
        (gen_directive_program(random.Random(555), "#") + "\ndb 1\n", [], {}),
    ]
    for k, (source, rules, defines) in enumerate(corpus):
        runs = []
        for attempt in range(2):
            d = tmp_path / f"case{k}_{attempt}"
            d.mkdir()
            report, data = build(d, source, rules=rules, defines=defines)
            assert report.status == "ok", (k, report.diagnostics)
            runs.append((data, tuple(report.diagnostics)))
        assert runs[0] == runs[1], f"case {k} diverged"

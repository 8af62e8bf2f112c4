"""Second-phase tests: emission, labels, forward-reference fixups, guards."""

import random

import pytest

from gtrans.dest_phase import resolve_guarded_regions, run_dest_phase
from gtrans.engine import Limits
from gtrans.errors import (
    EmitError,
    EvalError,
    LimitError,
    StructureError,
    TranslationError,
    UnresolvedNameError,
    UserAbort,
)
from gtrans.lexer import Line, tokenize_lines

from oracles import (
    OracleError,
    largest_consistent_subset,
    oracle_layout,
    visible_after_guards,
)


def emit(src, defines=None, **kw):
    return run_dest_phase(tokenize_lines(src, "t.s"), defines, **kw)


def hexdata(src, **kw):
    return emit(src, **kw).data.hex()


def printed(src, **kw):
    """What the driver prints for src: the log, then the error if any."""
    log = []
    try:
        emit(src, diagnostics=log, **kw)
    except UserAbort:
        pass  # the directive logged its own message
    except TranslationError as exc:
        log.append(str(exc))
    return log


# -- data emission ---------------------------------------------------------


def test_byte_values():
    assert hexdata("db 1, 2, 0x41\n") == "010241"


def test_commas_are_optional():
    assert hexdata("db 1 2 3\n") == hexdata("db 1, 2, 3\n") == "010203"


@pytest.mark.parametrize(
    "src,out",
    [
        ("dw 0x1234\n", "3412"),
        ("dd 0xE1A00000\n", "0000a0e1"),
        ("dp 0x112233445566\n", "665544332211"),
        ("dq 0x1122334455667788\n", "8877665544332211"),
    ],
)
def test_little_endian_units(src, out):
    assert hexdata(src) == out


def test_big_endian_units():
    assert hexdata("dd 0x13\n", endian="big") == "00000013"
    assert hexdata("dw 0x1234\ndq 1\n", endian="big") == "12340000000000000001"


def test_negative_values_wrap():
    assert hexdata("db 0 - 1\n") == "ff"
    assert hexdata("dw 0 - 2\n") == "feff"
    assert hexdata("dd 0 - 1\n") == "ffffffff"


def test_oversized_value_truncates_when_not_strict():
    assert hexdata("db 0x1FF\n") == "ff"
    assert hexdata("dw 0x12345\n") == "4523"


def test_expressions_in_values():
    assert hexdata("db 2 + 3 * 4\n") == "0e"
    assert hexdata("db 'A' + 1, 'Z' - 'A'\n") == "4219"


def test_string_bytes():
    assert hexdata('db "AB", 0\n') == "414200"


def test_string_concatenation():
    assert hexdata('db "A" + "B"\n') == "4142"


def test_string_outside_db_rejected():
    with pytest.raises(EmitError, match="strings can only be emitted with 'db'"):
        emit('dw "AB"\n')


def test_string_latin1_limit():
    assert hexdata('db "\xe9"\n') == "e9"
    with pytest.raises(EmitError, match="above 0xFF"):
        emit('db "€"\n')


def test_placeholder_emits_default_unit():
    assert hexdata("dd ?\n") == "00000000"
    assert hexdata("db ?, 1, ?\n") == "000100"


def test_data_line_needs_values():
    with pytest.raises(EmitError, match="needs at least one value"):
        emit("db\n")


def test_stray_token_is_reported_at_its_column():
    # the error names the stray token itself, not the token after it
    assert printed("db 1 + ) 2\n") == ["t.s:1:8: unexpected ')'"]
    assert printed("@if 1 + ) 2\n@endif\n") == ["t.s:1:9: unexpected ')'"]


# -- reserve ---------------------------------------------------------------


def test_reserve_zero_filled():
    assert hexdata("rb 4\n") == "00000000"
    assert hexdata("rq 1\n") == "0000000000000000"


def test_reserve_with_fill_value():
    assert hexdata("rw 3, 0xAB\n") == "ab00ab00ab00"
    assert hexdata("rb 2 0xFF\n") == "ffff"


def test_reserve_placeholder_fill():
    assert hexdata("rd 2, ?\n") == "0000000000000000"


def test_reserve_count_is_an_expression():
    assert hexdata("n = 3\nrb n * 2\n") == "000000000000"


def test_reserve_zero_count():
    assert hexdata("rb 0\ndb 1\n") == "01"


def test_reserve_fill_may_look_forward():
    # the count never defers, the value does, like any data value
    assert hexdata("rb 2, tail\ntail db 7\n") == "020207"


def test_reserve_count_never_looks_forward():
    with pytest.raises(UnresolvedNameError):
        emit("rb tail\ntail db 7\n")


def test_reserve_count_faults():
    with pytest.raises(EmitError, match="negative reserve count"):
        emit("rb 0 - 1\n")
    with pytest.raises(EmitError, match="reserve needs a count"):
        emit("rb\n")
    with pytest.raises(LimitError, match="reserve count exceeds"):
        emit("rb 100\n", limits=Limits(max_loop=10))
    with pytest.raises(EmitError, match="at most one value"):
        emit("rb 1, 2, 3\n")
    with pytest.raises(EvalError, match="expected a value after ','"):
        emit("rb 2,\n")
    with pytest.raises(EmitError) as exc:
        emit('rb "a"\n')
    assert str(exc.value) == "t.s:1:1: reserve count must be an integer"
    with pytest.raises(EmitError) as exc:
        emit('rb 2, "a"\n')
    assert str(exc.value) == "t.s:1:1: reserve value must be an integer"


# -- labels ----------------------------------------------------------------


def test_label_offsets():
    img = emit("first :\ndb 1, 2\nsecond :\ndw 3\nlast :\n")
    assert img.labels == {"first": 0, "second": 2, "last": 4}


def test_labeled_data_defines_and_emits():
    img = emit("t dd ?\n")
    assert img.labels == {"t": 0}
    assert img.data == b"\0\0\0\0"
    img = emit("a.b db 1\n")
    assert img.labels == {"a.b": 0}
    assert img.data == b"\1"


def test_labeled_data_with_colon():
    img = emit("db 9\nt : dw 5\n")
    assert img.labels == {"t": 1}
    assert img.data.hex() == "090500"


def test_dotted_labels():
    img = emit("io.port :\ndb 1\ndw io.port + 2\n")
    assert img.labels == {"io.port": 0}
    assert img.data.hex() == "010200"


def test_forward_reference_in_data():
    assert hexdata("dd tail\ntail db 1\n") == "0400000001"


def test_backward_reference_in_data():
    assert hexdata("head db 1\ndd head\n") == "0100000000"


def test_random_layouts_match_oracle():
    rng = random.Random(7019)
    outcomes = {"ok": 0, "fault": 0}
    for _ in range(300):
        labels = ["L%d" % k for k in range(rng.randrange(1, 6))]
        pending = list(labels)
        variables = []

        def value():
            names = labels + variables
            if rng.random() < 0.3:
                return str(rng.randrange(0, 300))
            op = rng.choice(["+", "-", "*", "+", "-", "/"])
            return "%s %s %s" % (
                rng.choice(names),
                op,
                rng.choice(names + [str(rng.randrange(1, 9))]),
            )

        lines = []
        for _ in range(rng.randrange(1, 16)):
            roll = rng.random()
            if roll < 0.2 and pending:
                lines.append("%s :" % pending.pop(0))
            elif roll < 0.55:
                keyword = rng.choice(["db", "dw", "dd"])
                count = rng.randrange(1, 4)
                lines.append(
                    "%s %s" % (keyword, ", ".join(value() for _ in range(count)))
                )
            elif roll < 0.75:
                lines.append("rb %d, %s" % (rng.randrange(0, 4), value()))
            elif variables and rng.random() < 0.6:
                v = rng.choice(variables)
                lines.append("%s = %s + %d" % (v, v, rng.randrange(-5, 300)))
            else:
                variables.append("v%d" % len(variables))
                lines.append("%s = %d" % (variables[-1], rng.randrange(0, 99)))
        lines += ["%s :" % name for name in pending]
        try:
            want = oracle_layout(lines)
        except OracleError:
            want = None
        try:
            img = run_dest_phase(tokenize_lines("\n".join(lines), "t.s"), {})
            got = (bytes(img.data), img.labels)
        except EvalError:
            got = None
        assert got == want, "\n".join(lines)
        outcomes["ok" if want else "fault"] += 1
    # forward references must resolve often, and faults must occur too
    assert outcomes["ok"] > 150 and outcomes["fault"] > 5, outcomes


def test_duplicate_label_rejected():
    with pytest.raises(TranslationError, match="duplicate label 'x'"):
        emit("x :\ndb 1\nx :\n")


def test_condition_cannot_look_forward():
    with pytest.raises(UnresolvedNameError, match="undefined name 'tail'"):
        emit("@if tail > 0\ndb 1\n@endif\ntail :\n")


def test_condition_sees_backward_labels():
    assert hexdata("db 9\nt :\n@if t = 1\ndb 5\n@endif\n") == "0905"


def test_assignment_cannot_look_forward():
    with pytest.raises(UnresolvedNameError):
        emit("x = tail + 1\ntail :\ndb x\n")


def test_assignment_sees_backward_labels():
    assert hexdata("db 1\nhere :\nx = here + 10\ndb x\n") == "010b"


def test_label_arithmetic_measures_data():
    src = 'text db "hello"\nend :\nsize = end - text\ndb size\n'
    assert hexdata(src) == "68656c6c6f05"


@pytest.mark.parametrize(
    "line", ["mov r0 , r1", "5 db 1", '"s" : db 1', "( db 7"]
)
def test_unrecognized_statement_rejected(line):
    """Data may follow only an identifier or a dotted name, its label."""
    with pytest.raises(TranslationError, match="unrecognized statement"):
        emit(line + "\n")


def test_source_leftovers_rejected():
    with pytest.raises(StructureError, match="no meaning in the intermediate"):
        emit("#if 1\ndb 1\n#endif\n")


# -- control flow at this phase --------------------------------------------


def test_conditional_emission():
    assert hexdata("@if 1\ndb 1\n@else\ndb 2\n@endif\n") == "01"
    assert hexdata("@if 0\ndb 1\n@else\ndb 2\n@endif\n") == "02"


def test_loop_emission():
    assert hexdata("n = 0\n@while n < 3\ndb n\nn = n + 1\n@endw\n") == "000102"
    assert hexdata("@repeat 2\ndb 5\n@until\n") == "0505"


def test_repeat_count_below_one():
    # zero skips the body without reading the closing condition
    assert hexdata("@repeat 0\ndb 1\n@until missing\ndb 2\n") == "02"
    assert printed("@repeat -1\ndb 1\n@until\n") == [
        "t.s:1:1: negative repeat count"
    ]


def test_loop_value_fault_comes_at_its_iteration():
    src = "i = 0\n@while i < 10\n@print i\ndb 10 / (5 - i)\ni = i + 1\n@endw\n"
    assert printed(src) == ["0", "1", "2", "3", "4", "5", "t.s:4:7: division by zero"]


def test_dead_parse_fault_in_loop_raises_on_first_run():
    for line in ("@if 0 && ( 1 +\n@endif\n", "db 0 && ( 1 +\n"):
        src = "i = 0\n@while i < 3\n@print i\n" + line + "i = i + 1\n@endw\n"
        log = printed(src)
        assert log[0] == "0" and len(log) == 2
        assert log[1].startswith("t.s:4:") and log[1].endswith("expected a value")


def test_fixup_in_loop_patches_every_iteration():
    src = "i = 0\n@while i < 4\ndb end - i\nrw i, end + i\ni = i + 1\n@endw\nend :\n"
    # 'end' is 16: four bytes, then 0 + 1 + 2 + 3 words
    assert hexdata(src) == (
        "10" + "0f" + "1100" + "0e" + "1200" * 2 + "0d" + "1300" * 3
    )


def test_defines_feed_conditions():
    src = "@if mode = 2\ndb 1\n@else\ndb 2\n@endif\n"
    assert hexdata(src, defines={"mode": 2}) == "01"
    assert hexdata(src, defines={"mode": 0}) == "02"


def test_loop_counting_bytes():
    # pad to a boundary using the current offset
    src = "db 1, 2, 3\nhere :\n@while here + pad < 8\npad = pad + 1\n@endw\nrb pad\ndb 9\n"
    img = emit(src, defines={"pad": 0})
    assert len(img.data) == 9
    assert img.data.hex() == "010203000000000009"


def test_print_reports_once():
    diags = []
    emit('@print "at" 1 + 1\ndb 0\n', diagnostics=diags)
    assert diags == ["at 2"]


def test_error_aborts_with_location():
    diags = []
    with pytest.raises(UserAbort, match="boom"):
        emit('db 1\n@error "boom"\n', diagnostics=diags)
    assert diags == ["t.s:2: boom"]


def test_print_before_a_run_error_is_kept():
    assert printed("@print 1\n@break\n") == [
        "1",
        "t.s:2:1: break outside of a loop",
    ]


def test_value_fault_cuts_the_log_at_its_line():
    assert printed("@print 1\ndb 1/0\n@print 2\n") == [
        "1",
        "t.s:2:5: division by zero",
    ]


def test_run_error_wins_over_earlier_value_fault():
    assert printed("db 1/0\n@break\n") == ["t.s:2:1: break outside of a loop"]


def test_value_fault_wins_over_later_error_directive():
    # only labels defined before '@error' exist when the fixups run
    assert printed('db later\n@error "x"\nlater :\n') == [
        "t.s:1:4: undefined name 'later'"
    ]


def test_error_in_dead_branch_is_silent():
    assert hexdata('@if 0\n@error "never"\n@endif\ndb 1\n') == "01"


def test_unknown_directive_rejected():
    with pytest.raises(StructureError, match="unknown directive '@org'"):
        emit("@org 0x100\n")


def test_missing_condition_rejected():
    with pytest.raises(EvalError, match="missing condition"):
        emit("@if\ndb 1\n@endif\n")


# -- guarded regions -------------------------------------------------------


def test_unused_guard_dropped():
    img = emit("@if [P1]\nP1 : db 1\n@endif\ndb 9\n")
    assert img.data.hex() == "09"
    assert img.labels == {}


def test_used_guard_kept():
    img = emit("@if [P1]\nP1 : db 1\n@endif\ndw P1\n")
    assert img.data.hex() == "010000"
    assert img.labels == {"P1": 0}


def test_offsets_shrink_after_elimination():
    src = "@if [gone]\ngone : rb 100\n@endif\nkept :\ndb 1\n"
    assert emit(src).labels == {"kept": 0}


def test_reference_before_region():
    # use precedes the guarded block; data values may look forward
    assert hexdata("db P1\n@if [P1]\nP1 : db 7\n@endif\n") == "0107"


def test_guard_chain_follows_use():
    region = "@if [P1]\nP1 : db 1\ndw P2\n@endif\n@if [P2]\nP2 : db 2\n@endif\n"
    # P1 pulls P2 in; nothing pulls P1 without the outside use
    assert emit(region + "db P1\n").labels == {"P1": 0, "P2": 3}
    assert emit(region + "db 9\n").labels == {}


def test_mutual_orphans_survive():
    # each name is referenced from the other region, so the pair is
    # self-consistent and stays; nothing forces a smaller answer
    src = (
        "@if [A]\nA : db 1\ndw B\n@endif\n"
        "@if [B]\nB : db 2\ndw A\n@endif\n"
    )
    assert set(emit(src).labels) == {"A", "B"}


def test_self_reference_does_not_keep_a_region():
    assert emit("@if [P1]\nP1 : dd P1\n@endif\n").labels == {}


def test_guard_condition_is_not_evaluated():
    # the bracketed name never hits the expression evaluator
    assert hexdata("@if [whatever]\nwhatever : db 1\n@endif\ndb 2\n") == "02"


def test_included_region_is_just_its_body():
    src = (
        "@if [A]\nA : db 1\n"          # 0, 1
        "@if [B]\nB : db 2\n@endif\n"  # 2, 3, 4
        "dw B\n@endif\n"               # 5, 6
        "@if [C]\nC : db 3\n@endif\n"  # 7, 8, 9
        "dw A"                         # 10
    )
    visible, included = resolve_guarded_regions(tokenize_lines(src, "t.s"))
    assert visible == [1, 3, 5, 10]
    assert included == {"A", "B"}


def test_included_region_in_a_loop_runs_as_its_body():
    body = 'P = n\n@print "at" n\ndb n\n@if n = 3\n@break\n@endif\n'

    def run(region):
        src = "n = 0\n@while n < 5\nn = n + 1\n" + region + "@endw\ndw P\n"
        log = []
        img = emit(src, diagnostics=log)
        return img.data, log, [(s.start, s.line.render()) for s in img.spans]

    guarded = run("@if [P]\n" + body + "@endif\n")
    assert guarded == run(body)
    assert guarded[:2] == (bytes([1, 2, 3, 3, 0]), ["at 1", "at 2", "at 3"])


@pytest.mark.parametrize(
    "src",
    [
        "@if [P] \nP : db 1\n@else\ndb 2\n@endif\ndw P\n",
        "@if [P]\nP : db 1\n@elif 1\ndb 2\n@endif\ndw P\n",
    ],
)
def test_guard_with_arms_rejected(src):
    with pytest.raises(StructureError, match="cannot take elif or else"):
        emit(src)


@pytest.mark.parametrize(
    "src",
    [
        "@while [P]\ndb 1\n@endw\n",
        "@repeat\ndb 1\n@until [P]\n",
        "@if 0\n@elif [P]\ndb 1\n@endif\n",
    ],
)
def test_guard_shape_elsewhere_rejected(src):
    with pytest.raises(StructureError, match="can only open its own block"):
        emit(src)


def test_random_guard_programs_match_subset_oracle():
    rng = random.Random(61803)
    for _ in range(80):
        names = ["P%d" % i for i in range(1, rng.randrange(2, 6))]
        records = []  # (region or None, referenced name or None)
        for n in names:
            records.append((n, None))  # the region's own label line
            for _ in range(rng.randrange(0, 3)):
                records.append((n, rng.choice(names)))
        for _ in range(rng.randrange(0, 4)):
            records.append((None, rng.choice(names)))
        rng.shuffle(records)

        text = []
        grouped = {}
        for cover, ref in records:
            if cover is None:
                text.append("dw %s" % ref)
            else:
                grouped.setdefault(cover, []).append(ref)
        for n in names:
            body = ["@if [%s]" % n, "%s : db 1" % n]
            body += ["dw %s" % r for r in grouped.get(n, []) if r]
            body.append("@endif")
            text = body + text
        text.append("db 9")
        lines = tokenize_lines("\n".join(text) + "\n", "t.s")

        def refs_under(s):
            out = set()
            for cover, ref in records:
                if cover is not None and cover not in s:
                    continue
                if ref is not None and ref != cover:
                    out.add(ref)
            return out

        _, included = resolve_guarded_regions(lines)
        assert included == set(largest_consistent_subset(names, refs_under))
        # the surviving stream must assemble: every visible use resolves
        img = run_dest_phase(lines, {})
        assert set(img.labels) == included


def _nested_guard_program(rng, names):
    """Rows of (text, names of the regions covering the line, guard line?,
    names the line references) for a program whose regions nest up to
    three deep, share names and sit around and inside plain '@if' blocks."""
    rows = []

    def block(cover, depth):
        for _ in range(rng.randrange(1 if depth == 0 else 0, 4)):
            r = rng.random() if depth < 4 else 1.0
            if r < 0.35 and len(cover) < 3:
                name = rng.choice(names)
                inner = cover + (name,)
                rows.append(("@if [%s]" % name, inner, True, []))
                block(inner, depth + 1)
                rows.append(("@endif", inner, True, []))
            elif r < 0.5:
                rows.append(("@if 1", cover, False, []))
                block(cover, depth + 1)
                rows.append(("@endif", cover, False, []))
            else:
                refs = [rng.choice(names) for _ in range(rng.randrange(3))]
                text = "dw " + " , ".join(refs) if refs else "db 0"
                rows.append((text, cover, False, refs))

    block((), 0)
    return rows


def test_random_nested_guard_programs_match_oracles():
    rng = random.Random(4142)
    seen = dict.fromkeys(["nested", "shared", "dropped", "kept"], 0)
    for _ in range(400):
        names = ["P%d" % i for i in range(rng.randrange(1, 5))]
        rows = _nested_guard_program(rng, names)
        text = "".join(row[0] + "\n" for row in rows)
        lines = tokenize_lines(text, "t.s")[: len(rows)]
        covers = [row[1] for row in rows]
        guard_lines = {k for k, row in enumerate(rows) if row[2]}
        opened = [row[1][-1] for row in rows if row[0].startswith("@if [")]
        guard_names = set(opened)

        def refs_under(s):
            out = set()
            for _, cover, _, refs in rows:
                if set(cover) <= s:  # kept only when every cover is kept
                    out.update(r for r in refs if r not in cover)
            return out

        visible, included = resolve_guarded_regions(lines)
        best = largest_consistent_subset(guard_names, refs_under)
        assert included == set(best)
        assert visible == visible_after_guards(covers, guard_lines, included)
        seen["nested"] += any(len(c) >= 2 for c in covers)
        seen["shared"] += len(opened) > len(guard_names)
        seen["dropped"] += included < guard_names
        seen["kept"] += bool(included)
    assert min(seen.values()) >= 50, seen


class _CountedTokens(tuple):
    """A line's tokens that count how often they are iterated."""

    reads = 0

    def __iter__(self):
        self.reads += 1
        return super().__iter__()


def test_guard_chain_reads_each_line_at_most_twice():
    # region h<i> is referenced only from region h<i-1>, and nothing
    # outside references h0, so the whole chain drops
    n = 2000
    chain = "".join(
        "@if [h%d]\nh%d : db 1\ndw h%d\n@endif\n" % (i, i, i + 1)
        for i in range(n)
    )
    src = "db 9\n" + chain + "tail : dw tail\n"
    lines = [
        Line(_CountedTokens(line.tokens), line.kind, line.pos)
        for line in tokenize_lines(src, "t.s")
    ]
    visible, included = resolve_guarded_regions(lines)
    assert included == set()
    assert visible == [0, 4 * n + 1, 4 * n + 2]
    assert max(line.tokens.reads for line in lines) <= 2


# -- strict range checking -------------------------------------------------


@pytest.mark.parametrize("src", ["db 255\n", "db 0 - 128\n", "dw 0xFFFF\n"])
def test_strict_accepts_fitting_values(src):
    emit(src, strict=True)


@pytest.mark.parametrize("src", ["db 256\n", "db 0 - 129\n", "dw 0x10000\n"])
def test_strict_rejects_oversized_values(src):
    with pytest.raises(EmitError, match="does not fit"):
        emit(src, strict=True)


def test_strict_applies_to_reserve_fill():
    with pytest.raises(EmitError, match="does not fit"):
        emit("rb 1, 300\n", strict=True)


def test_strict_checks_final_values_not_placeholders():
    assert hexdata("db later - 200\nrb 250\nlater :\n", strict=True)[:2] == "33"
    src = "rb 2, later - 300\nrb 296\nlater :\n"
    assert hexdata(src, strict=True)[:4] == "fefe"
    with pytest.raises(EmitError) as exc:
        emit("db later\nrb 300\nlater :\n", strict=True)
    assert str(exc.value) == "t.s:1:1: value 301 does not fit in 1 byte(s)"


# -- bookkeeping -----------------------------------------------------------


def test_spans_cover_emitting_lines():
    img = emit("db 1, 2\nskip :\nrw 2\n")
    assert [(s.start, s.end) for s in img.spans] == [(0, 2), (2, 6)]
    assert [s.line.render() for s in img.spans] == ["db 1 , 2", "rw 2"]


def test_empty_stream_empty_image():
    img = emit("")
    assert img.data == b"" and img.labels == {} and img.spans == []


def test_runs_are_deterministic():
    src = "n = 0\n@while n < 9\ndb n * n\nn = n + 1\n@endw\ntail dd tail\n"
    a, b = emit(src), emit(src)
    assert a.data == b.data and a.labels == b.labels

"""Shared generators for the randomized tests."""

import random

_BIN_OPS = [
    "+", "-", "*", "/", "%", "<<", ">>", "<", "<=", ">", ">=",
    "=", "!=", "&", "^", "|", "&&", "||",
]
_UN_OPS = ["-", "!", "~"]


def gen_expr(rng, depth, names=("a", "b", "c")):
    """Random expression text, nesting at most `depth` levels."""
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.randrange(10)
        if roll < 4:
            return str(rng.randrange(0, 64))
        if roll < 5:
            return "0x%x" % rng.randrange(0, 1 << 16)
        if roll < 6:
            return "'%c'" % rng.choice("AZk9")
        if roll < 7:
            return str(rng.randrange(0, 1 << 62))
        return rng.choice(list(names))
    roll = rng.random()
    if roll < 0.15:
        return "%s%s" % (rng.choice(_UN_OPS), gen_expr(rng, depth - 1, names))
    if roll < 0.3:
        return "(%s)" % gen_expr(rng, depth - 1, names)
    return "%s %s %s" % (
        gen_expr(rng, depth - 1, names),
        rng.choice(_BIN_OPS),
        gen_expr(rng, depth - 1, names),
    )


def gen_directive_program(rng, prefix, max_lines=14):
    """Random straight-line program of conditionals, loops and prints.

    Every structural directive gets the given prefix so the same shape
    can be produced in '#' and '@' spellings.  Prints trace the path
    taken; a counter variable keeps loops finite.
    """
    lines = []
    serial = [0]

    def e(text):
        lines.append(text.replace("\x01", prefix))

    def fresh():
        serial[0] += 1
        return "v%d" % serial[0]

    def block(depth, budget):
        steps = rng.randrange(1, 4)
        for _ in range(steps):
            if budget[0] <= 0:
                break
            budget[0] -= 1
            roll = rng.random()
            if roll < 0.40 or depth >= 3:
                e('\x01print "p%d"' % rng.randrange(100))
            elif roll < 0.65:
                cond = rng.choice(["1", "0", "2 > 1", "1 = 0", "3 % 2"])
                e("\x01if %s" % cond)
                block(depth + 1, budget)
                if rng.random() < 0.5:
                    e("\x01elif %s" % rng.choice(["1", "0"]))
                    block(depth + 1, budget)
                if rng.random() < 0.5:
                    e("\x01else")
                    block(depth + 1, budget)
                e("\x01endif")
            elif roll < 0.85:
                v = fresh()
                e("%s = %d" % (v, rng.randrange(0, 3)))
                e("\x01while %s > 0" % v)
                e("%s = %s - 1" % (v, v))
                block(depth + 1, budget)
                e("\x01endw")
            else:
                v = fresh()
                e("%s = 0" % v)
                e("\x01repeat %d" % rng.randrange(1, 4))
                e("%s = %s + 1" % (v, v))
                block(depth + 1, budget)
                e("\x01until %s >= 2" % v)

    block(0, [max_lines])
    return "\n".join(lines)


# lines and short snippets that open, close, split and nest brace blocks
_BRACE_POOL = [
    "",
    "class f x { db x }",
    "class g a , b",
    "class h",
    "{",
    "{ db 1 }",
    "{ db 2",
    "}",
    "} al",
    "} al , bl",
    "db 3 }",
    "db 4",
    "class n { class m { db 5 } }",
    "class o {",
    "class p { #while 0",
    "#endw }",
    "class r x { #if x",
    "#endif }",
    "class q { db 1 } {",
    "class a } {",
    "class c { db 1 } }",
    "class { db 6 }",
    "class u {\nclass v\n\n{\ndb 9\n}\n}",
    "class w n\n{\n#while n > 0\ndb n\nn = n - 1\n#endw\n}",
    "f 1", "g 1 , 2", "h", "m", "n", "o", "p", "q", "r 0", "r 1",
    "u", "v", "w 2", "al 2", "bl 3", "x := f 2", "x",
    "#if 1", "#else", "#endif", "#while 0", "#endw", "#repeat 2", "#until",
    "#print 7", "#frob", "#break", "@if 1", "@endif", "@print 8",
    "db " + "9" * 700,
    "db " + "9" * 5000,
]


def gen_brace_program(rng, max_pieces=10):
    """Random program drawn from a brace-heavy line pool, sometimes with a
    directive program spliced in."""
    size = rng.randrange(1, max_pieces)
    pieces = [rng.choice(_BRACE_POOL) for _ in range(size)]
    if rng.random() < 0.3:
        at = rng.randrange(len(pieces) + 1)
        pieces.insert(at, gen_directive_program(rng, rng.choice("#@"), 6))
    return "\n".join(pieces) + "\n"


# overload patterns: multi-token, repeated and bracket separators, leading
# and trailing ones, runs of parameters, and variadic tails
_OVERLOAD_POOL = [
    "", "x", "x y", "x y z", "x + y", "x * y", "x , , y", "x - > y",
    "( x )", "x [ y ]", ": x", "x ;", "( x , y )", "x + y * z",
    ".. r", "x .. r", "x , .. r", "x , y , .. r", "x << y , .. r",
]
_ARG_POOL = ["a", "1", "2", "+", "*", ",", "-", ">", "<<", ":", ";", "db",
             "(", ")", "[", "]"]
_EMBEDDED_POOL = [
    "class F ( v ) { v + 1 }",
    "class F ( v , w ) { v * w }",
    "class G ( v ) { F ( v ) - 1 }",
    "class G ( ) { 9 }",
    "class H ( v ) { db v }",
]
_CALL_POOL = ["F ( 3 )", "F ( F ( 2 ) )", "G ( 4 )", "F ( 1 , 2 )", "G ( )",
              "F ( ( 1 , 2 ) )", "H ( 5 )", "F ( [ 1 ] )", "F ( 1"]


def _overload(rng, k):
    """One definition of 'op': its own number, then lines that use its
    parameters as values, labels and a recursive call on its tail."""
    pattern = rng.choice(_OVERLOAD_POOL)
    names = [t for t in pattern.split() if t.isalpha()]
    body = ["db %d" % k]
    if names and rng.random() < 0.3:
        body.append("db " + names[0])
    if names and rng.random() < 0.15:
        body.append(names[0] + " : db %d" % k)
    # recursion ends when a fixed part before '..' shortens the tail
    if ".." in pattern and not pattern.startswith("..") and rng.random() < 0.6:
        body.append("op " + names[-1])
    if len(body) == 1 and rng.random() < 0.5:
        return "class op %s { %s }" % (pattern, body[0])
    return "class op %s\n{\n%s\n}" % (pattern, "\n".join(body))


def _invocation_args(rng):
    """A pattern's shape filled with atoms and bracket groups, or a soup."""
    if rng.random() < 0.4:
        return " ".join(
            rng.choice(_ARG_POOL) for _ in range(rng.randrange(0, 9))
        )
    parts = []
    for t in rng.choice(_OVERLOAD_POOL).split():
        if t == "..":
            continue
        if not t.isalpha():
            parts.append(t)
        elif rng.random() < 0.25:
            parts.append("( %s , %s )" % (rng.choice("ab12"), rng.choice("12")))
        else:
            parts += [rng.choice("12a") for _ in range(rng.choice([1, 1, 2]))]
    return " ".join(parts)


def gen_class_program(rng, max_lines=10):
    """Overloads of one name, embedded 'name ( ... )' calls, and
    invocations whose arguments are pattern-shaped or token soup."""
    lines = [_overload(rng, k) for k in range(rng.randrange(1, 7))]
    if rng.random() < 0.6:
        lines.insert(0, "class op .. r { db 99 }")  # the oldest catches all
    embedded = rng.random() < 0.6
    if embedded:
        lines += rng.sample(_EMBEDDED_POOL, rng.randrange(2, 5))
    for _ in range(rng.randrange(1, max_lines)):
        roll = rng.random()
        if roll < 0.25 and embedded:
            lines.append("db " + rng.choice(_CALL_POOL))
        elif roll < 0.85:
            lines.append("op " + _invocation_args(rng))
        else:
            lines.append(_overload(rng, len(lines)))
    return "\n".join(lines) + "\n"


# '#break' levels and repeat counts, faulting ones included; the
# differential runs at max_loop 50, so 48-52 passes sit on both sides of it
_BREAK_LEVELS = ["", " 0", " 1", " 2", " 3", " 0 - 1", " 1 / 0", " zz", ' "s"']
_BAD_COUNTS = ["0 - 2", "1 / 0", "zz", '"s"']


def gen_loop_program(rng, max_lines=12):
    """Nested while and repeat loops in '#' and '@' spellings, with breaks
    of every level, repeat counts that skip, fault or sit at the loop
    limit, and '#until' lines with and without a condition."""
    lines = []
    prefix = rng.choice("#@")
    mixed = rng.random() < 0.25  # each loop and break picks its spelling

    def passes(work):
        # a count near the limit only where the enclosing loops stay short
        if work <= 60 and rng.random() < 0.3:
            return rng.randrange(48, 53)
        return rng.randrange(0, 4)

    def block(depth, work, budget, counter):
        for _ in range(rng.randrange(1, 4)):
            if budget[0] <= 0:
                return
            budget[0] -= 1
            p = rng.choice("#@") if mixed else prefix
            # the top level opens only loops
            roll = rng.uniform(0.4 if depth == 0 else 0, 1)
            v = "v%d" % len(lines)
            if roll < 0.25 or depth >= 3:
                lines.append(rng.choice(["db 1", p + "print %d" % depth]))
            elif roll < 0.4:
                level = rng.choice(_BREAK_LEVELS)
                if counter and rng.random() < 0.6:
                    cond = rng.choice(["{0} % 2", "{0} = 1", "{0} > 2", "1"])
                    lines.extend([p + "if " + cond.format(counter),
                                  p + "break" + level, p + "endif"])
                else:
                    lines.append(p + "break" + level)
            elif roll < 0.55:
                n = passes(work)
                lines.extend(["%s = %d" % (v, n), p + "while %s > 0" % v,
                              "%s = %s - 1" % (v, v)])
                block(depth + 1, work * max(n, 1), budget, v)
                lines.append(p + "endw")
            elif roll < 0.7:
                # left by its own break, or by the loop limit
                n = passes(work)
                lines.extend(["%s = 0" % v, p + "while 1",
                              "%s = %s + 1" % (v, v), p + "if %s >= %d" % (v, n),
                              p + "break" + rng.choice(_BREAK_LEVELS),
                              p + "endif"])
                block(depth + 1, work * max(n, 1), budget, v)
                lines.append(p + "endw")
            else:
                n = passes(work)
                count = rng.choice(["", str(n), str(n), rng.choice(_BAD_COUNTS)])
                until = rng.choice(["", "", " %s >= %d" % (v, passes(work)),
                                    " zz"])
                lines.extend(["%s = 0" % v, (p + "repeat " + count).rstrip(),
                              "%s = %s + 1" % (v, v)])
                block(depth + 1, work * max(n, 1), budget, v)
                lines.append(p + "until" + until)

    block(0, 1, [max_lines], None)
    return "\n".join(lines) + "\n"


# definitions made inside loops; K is replaced by a drawn number
_LOOP_DEFS = [
    "class op x { db x }",
    "class op x { db x + K }",
    "class op x , .. r\n{\ndb x\nop r\n}",
    "class op x , .. r\n{\n#if ( x ) % 2 = 0\ndb x\n#endif\nop r\n}",
    "class op a + b { db a , b } plus, alt",
    "class alt x { db K , x }",
    "class E ( v ) { v * K }",
    "class E ( v ) { ( v ) + K }",
    "class E ( v , w ) { v - w }",
    "class E ( v ) { E ( v ) }",
    "class G ( v ) { E ( v ) + 1 } H",
    "a := b", "b := c", "c := K", "a := E ( 1 )", "op := alt", "u := db",
    "a := a + 1", "E := G",
    # classes named with a '#' key, run as directives
    "class #put x { db x + K }",
    "class #put x , .. r\n{\n#put x\n#put r\n}",
    "class op x { #put x }",
    "class alt x\n{\n#if x > 99\n#nokey x\n#endif\n#put K , x\n}",
]
_LOOP_BASE = [
    "class op .. r { db 99 }", "class E ( v ) { v }", "class alt x { db x }",
    "class #put .. r { db 98 }",
]
# looped uses: plain, data and assignment lines, invocations of each shape
_LOOP_USES = [
    "op V", "op V , 2 , 3", "op 1 , V , 2 , 3", "op 1 + V", "alt V",
    "plus V", "db H ( V )", "db E ( V )", "db a , b , c", "db G ( E ( V ) )",
    "xK = E ( V ) + a", "xK = a", "yK = c", "u V", "db op", "op E ( V )",
    "#print a , b , c", "#put V", "#put V , 2 , 3", "#put E ( V )",
    "#if V > 99\n#nokey V\n#endif",
]


def gen_redefine_program(rng, max_lines=14):
    """Classes, aliases and substitutions defined or redefined inside
    '#while' and '#repeat' loops, often under an '#if' on the counter,
    between recursive, variadic and embedded invocations in looped plain,
    data and assignment lines.  Some classes are named with a '#' key and
    run as directives, from the loop and from class bodies, and some
    unknown '#' keys sit on lines no pass reaches."""
    lines = []

    def fill(text, counter):
        k = str(rng.randrange(1, 9))
        return text.replace("K", k).replace("V", rng.choice([counter, k]))

    def body(depth, counter, budget):
        for _ in range(rng.randrange(2, 6)):
            if budget[0] <= 0:
                return
            budget[0] -= 1
            roll = rng.random()
            if roll < 0.35:
                text = fill(rng.choice(_LOOP_DEFS), counter)
                if rng.random() < 0.6:
                    at = rng.randrange(3)
                    lines.extend(["#if %s = %d" % (counter, at), text, "#endif"])
                else:
                    lines.append(text)
            elif roll < 0.9 or depth >= 2:
                lines.append(fill(rng.choice(_LOOP_USES), counter))
            else:
                loop(depth + 1, budget)

    def loop(depth, budget):
        v = "i%d" % depth
        n = rng.randrange(1, 5)
        if rng.random() < 0.5:
            lines.extend(["%s = 0" % v, "#while %s < %d" % (v, n)])
            body(depth, v, budget)
            lines.extend(["%s = %s + 1" % (v, v), "#endw"])
        else:
            lines.extend(["%s = 0" % v, "#repeat %d" % n])
            body(depth, v, budget)
            lines.extend(["%s = %s + 1" % (v, v), "#until"])

    if rng.random() < 0.8:
        lines += ["a = 1", "b = 2", "c = 3"]
    if rng.random() < 0.7:  # oldest definitions, which catch what is left
        lines += _LOOP_BASE
    for _ in range(rng.randrange(0, 3)):
        lines.append(fill(rng.choice(_LOOP_DEFS), "1"))
    loop(0, [max_lines])
    if rng.random() < 0.5:
        lines.append(fill(rng.choice(_LOOP_USES), "1"))
    return "\n".join(lines) + "\n"


# '@'-phase lines for '#' loops to re-emit; V is the loop counter or a
# number, K a number.  f1, f2 and later are labels defined after the loop,
# or not at all; em and p1 are defined in the prelude, or not at all.
_REEMIT_LINES = [
    # data and reserve lines whose values and fills name later labels
    "db f1 + V", "dw f2 - V , V", "dd later * K", "rb K , f2", "rw V , f1",
    "rb V , later - V", "db 300 * V , f1", "dq f1 , f2 , V",
    # labels, each run of which defines them again
    "g1 : db V", "#if V = K\ng2 : dw f1\n#endif",
    "#if V = K\nh.x :\n#endif",
    # guarded regions: p1 is a procedure after the loop, p2 a symbol
    "dw p1", "@if [p2]\ndb V , f1\n@endif", "@if [p3]\ndb K\n@endif",
    # '@' control blocks
    "@if V % 2\ndb V\n@elif V = K\ndw f1\n@else\ndd V\n@endif",
    "k = 0\n@while k < V\ndb k , f2\nk = k + 1\n@endw",
    "@repeat V\ndb f1\n@until", "@print V , K",
    "@if V = K\n@error \"at\" , V\n@endif",
    # values that fault only on a later pass
    "db 10 / ( K - V )", "rb K - V", "dw 1 % ( K - V ) , f1",
    "db f1 / ( K - V )",
    # an '@' line a kept expansion emits
    "em V", "em f1 + V",
]


def gen_reemit_program(rng, max_lines=10):
    """'#while' and '#repeat' loops that re-emit the same '@'-phase lines
    on every pass: data and reserve lines with forward-referenced labels
    and fills, labels, '@if [name]' guarded regions, '@if', '@while',
    '@print' and '@error' blocks, values that fault only on a later pass,
    and the lines of a class expansion."""
    lines = []
    if rng.random() < 0.7:
        lines.append("class em x { dw x , later }")
    if rng.random() < 0.5:
        lines.append("p2 = %d" % rng.randrange(1, 4))

    def fill(text, counter):
        k = str(rng.randrange(1, 5))
        return text.replace("K", k).replace("V", rng.choice([counter, k]))

    def body(depth, counter, budget):
        for _ in range(rng.randrange(1, 5)):
            if budget[0] <= 0:
                return
            budget[0] -= 1
            if rng.random() < 0.85 or depth >= 2:
                lines.append(fill(rng.choice(_REEMIT_LINES), counter))
            else:
                loop(depth + 1, budget)

    def loop(depth, budget):
        v = "i%d" % depth
        n = rng.randrange(1, 5)
        if rng.random() < 0.5:
            lines.extend(["%s = 0" % v, "#while %s < %d" % (v, n)])
            body(depth, v, budget)
            lines.extend(["%s = %s + 1" % (v, v), "#endw"])
        else:
            lines.extend(["%s = 0" % v, "#repeat %d" % n])
            body(depth, v, budget)
            lines.extend(["%s = %s + 1" % (v, v), "#until"])

    loop(0, [max_lines])
    for label in ("f1 : db 1", "f2 :", "later : dw f1"):
        if rng.random() < 0.85:
            lines.append(label)
    if rng.random() < 0.7:
        lines.extend(["@if [p1]", "p1 : db 7", "@endif"])
    return "\n".join(lines) + "\n"


def gen_programs(seed, count):
    """count seeded programs: brace-heavy, '#'/'@' control flow, class
    overloads, nested loops with breaks, definitions inside loops, and
    '@' lines re-emitted by '#' loops in turn."""
    rng = random.Random(seed)
    for n in range(count):
        if n % 6 == 1:
            yield gen_directive_program(rng, rng.choice("#@"))
        elif n % 6 == 2:
            yield gen_class_program(rng)
        elif n % 6 == 3:
            yield gen_loop_program(rng)
        elif n % 6 == 4:
            yield gen_redefine_program(rng)
        elif n % 6 == 5:
            yield gen_reemit_program(rng)
        else:
            yield gen_brace_program(rng)

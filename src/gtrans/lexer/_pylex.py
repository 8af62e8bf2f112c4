"""Scan kernel of the lexer.

Turns one line of text into (kind, text, value, column) tuples.  This is
the hot loop of the whole translator, so it is written flat and index
based.

Kinds are small ints here; gtrans.lexer maps them to TokenKind by index.
"""

# kind codes, in TokenKind order
K_IDENT = 0
K_INT = 1
K_STRING = 2
K_OP = 3
K_PUNCT = 4

_SPACE = " \t\r\n\f\v"
_IDENT_START = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
_IDENT_CONT = _IDENT_START + "0123456789"
_DIGITS = "0123456789"
_HEX_DIGITS = "0123456789abcdefABCDEF"
# two-character operators, checked before the single-character ones
_OPS2 = ("<=", ">=", "!=", "<>", "&&", "||", "<<", ">>", ":=", "..")
_OPS1 = "+-*/%<>=!&|^~"
_PUNCT = "()[]{},:;.?"


class ScanError(Exception):
    """Lexical fault at a known column of the current line."""

    def __init__(self, message, column):
        super().__init__(message)
        self.message = message
        self.column = column


def scan(text):
    """Scan one line.  Returns a list of (kind, text, value, column)."""
    out = []
    n = len(text)
    i = 0
    while i < n:
        c = text[i]
        if c in _SPACE:
            i += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            break
        col = i + 1
        if c in _IDENT_START or c == "#" or c == "@":
            j = i + 1
            if c == "#" or c == "@":
                if j >= n or text[j] not in _IDENT_START:
                    raise ScanError("illegal character %r" % c, col)
                j += 1
            while j < n and text[j] in _IDENT_CONT:
                j += 1
            out.append((K_IDENT, text[i:j], 0, col))
            i = j
            continue
        if c in _DIGITS:
            if c == "0" and i + 1 < n and (text[i + 1] == "x" or text[i + 1] == "X"):
                j = i + 2
                while j < n and text[j] in _HEX_DIGITS:
                    j += 1
                if j == i + 2:
                    raise ScanError("invalid numeric literal", col)
                value = int(text[i + 2 : j], 16)
            else:
                j = i + 1
                while j < n and text[j] in _DIGITS:
                    j += 1
                value = int(text[i:j])
            if j < n and text[j] in _IDENT_CONT:
                raise ScanError("invalid numeric literal", col)
            out.append((K_INT, text[i:j], value, col))
            i = j
            continue
        if c == "'":
            # exactly one character, no escapes
            if i + 1 >= n:
                raise ScanError("unterminated character literal", col)
            ch = text[i + 1]
            if ch == "'":
                raise ScanError("empty character literal", col)
            if i + 2 >= n or text[i + 2] != "'":
                raise ScanError("unterminated character literal", col)
            out.append((K_INT, text[i : i + 3], ord(ch), col))
            i += 3
            continue
        if c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 1
            if j >= n:
                raise ScanError("unterminated string literal", col)
            out.append((K_STRING, text[i : j + 1], 0, col))
            i = j + 1
            continue
        if i + 1 < n:
            pair = text[i : i + 2]
            if pair in _OPS2:
                # <> is an alternate spelling of !=
                out.append((K_OP, "!=" if pair == "<>" else pair, 0, col))
                i += 2
                continue
        if c in _OPS1:
            out.append((K_OP, c, 0, col))
            i += 1
            continue
        if c in _PUNCT:
            out.append((K_PUNCT, c, 0, col))
            i += 1
            continue
        raise ScanError("illegal character %r" % c, col)
    return out

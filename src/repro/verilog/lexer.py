"""Tokenizer for the Verilog-2001 subset used by the evaluation pipeline.

Produces a flat token stream with line/column positions.  Handles line and
block comments, sized/based numeric literals (including x/z digits),
string literals, system identifiers (``$display``), escaped identifiers,
and compiler directives (```timescale`` and friends are consumed to end of
line, ```define``-free sources are assumed — the problem set and corpus
use none).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LexError

KEYWORDS = frozenset(
    """
    module endmodule input output inout wire reg integer real parameter
    localparam assign always initial begin end if else case casez casex
    endcase default for while repeat forever posedge negedge or and not
    nand nor xor xnor buf signed unsigned function endfunction task endtask
    generate endgenerate genvar wait deassign disable
    """.split()
)

# Multi-character operators, longest first so maximal munch works.
OPERATORS = [
    "<<<", ">>>", "===", "!==", "+:", "-:",
    "**", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "~&", "~|", "~^", "^~", "->",
    "+", "-", "*", "/", "%", "!", "~", "&", "|", "^", "<", ">",
    "=", "?", ":", ",", ";", ".", "(", ")", "[", "]", "{", "}", "#", "@",
]


@dataclass(frozen=True)
class Token:
    """A single lexical token.

    kind is one of: ID, KEYWORD, NUMBER, BASED_NUMBER, STRING, SYSID, OP, EOF.
    For BASED_NUMBER, ``text`` keeps the literal (e.g. ``8'hFF``) and the
    parsed fields live in ``meta`` as (size_or_None, base_char, digits,
    signed_flag).
    """

    kind: str
    text: str
    line: int
    column: int
    meta: tuple | None = None

    def __repr__(self) -> str:  # compact for parser error messages
        return f"{self.kind}({self.text!r}@{self.line}:{self.column})"


_ID_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_ID_CHARS = _ID_START | frozenset("0123456789$")
_DIGITS = frozenset("0123456789")

_BASE_DIGITS = {
    "b": frozenset("01xXzZ?_"),
    "o": frozenset("01234567xXzZ?_"),
    "d": frozenset("0123456789xXzZ?_"),
    "h": frozenset("0123456789abcdefABCDEFxXzZ?_"),
}


class Lexer:
    """Single-pass tokenizer; call :meth:`tokenize` once.

    ``first_line`` numbers the source's first line, so text that sits
    further down a larger file reports that file's line numbers.
    """

    def __init__(self, source: str, first_line: int = 1):
        self.source = source
        self.pos = 0
        self.line = first_line
        self.column = 1
        self.tokens: list[Token] = []

    # ------------------------------------------------------------------
    def tokenize(self) -> list[Token]:
        while self.pos < len(self.source):
            ch = self.source[self.pos]
            if ch in " \t\r\f":
                self._advance(1)
            elif ch == "\n":
                self._newline()
            elif self.source.startswith("//", self.pos):
                self._skip_line()
            elif self.source.startswith("/*", self.pos):
                self._skip_block_comment()
            elif ch == "`":
                self._skip_line()  # directives are consumed, not interpreted
            elif ch == '"':
                self._lex_string()
            elif ch == "$":
                self._lex_sysid()
            elif ch == "\\":
                self._lex_escaped_id()
            elif ch in _ID_START:
                self._lex_identifier()
            elif ch in _DIGITS or (ch == "'" and self._peek_base()):
                self._lex_number()
            else:
                self._lex_operator()
        self.tokens.append(Token("EOF", "", self.line, self.column))
        return self.tokens

    # ------------------------------------------------------------------
    def _advance(self, count: int) -> None:
        self.pos += count
        self.column += count

    def _newline(self) -> None:
        self.pos += 1
        self.line += 1
        self.column = 1

    def _skip_line(self) -> None:
        while self.pos < len(self.source) and self.source[self.pos] != "\n":
            self.pos += 1

    def _skip_block_comment(self) -> None:
        end = self.source.find("*/", self.pos + 2)
        if end < 0:
            raise LexError("unterminated block comment", self.line, self.column)
        for ch in self.source[self.pos : end + 2]:
            if ch == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
        self.pos = end + 2

    def _emit(self, kind: str, text: str, meta: tuple | None = None) -> None:
        self.tokens.append(Token(kind, text, self.line, self.column, meta))
        self._advance(len(text))

    # ------------------------------------------------------------------
    def _lex_string(self) -> None:
        start = self.pos + 1
        index = start
        while index < len(self.source):
            ch = self.source[index]
            if ch == "\\":
                index += 2
                continue
            if ch == '"':
                break
            if ch == "\n":
                raise LexError("newline in string literal", self.line, self.column)
            index += 1
        else:
            raise LexError("unterminated string literal", self.line, self.column)
        text = self.source[start:index]
        self._emit("STRING", f'"{text}"')

    def _lex_sysid(self) -> None:
        index = self.pos + 1
        while index < len(self.source) and self.source[index] in _ID_CHARS:
            index += 1
        if index == self.pos + 1:
            raise LexError("bare '$'", self.line, self.column)
        self._emit("SYSID", self.source[self.pos : index])

    def _lex_escaped_id(self) -> None:
        index = self.pos + 1
        while index < len(self.source) and not self.source[index].isspace():
            index += 1
        text = self.source[self.pos : index]
        token = Token("ID", text[1:], self.line, self.column)
        self.tokens.append(token)
        self._advance(len(text))

    def _lex_identifier(self) -> None:
        index = self.pos
        while index < len(self.source) and self.source[index] in _ID_CHARS:
            index += 1
        text = self.source[self.pos : index]
        kind = "KEYWORD" if text in KEYWORDS else "ID"
        self._emit(kind, text)

    # ------------------------------------------------------------------
    def _peek_base(self) -> bool:
        """True when the current ``'`` begins an unsized based literal."""
        nxt = self.source[self.pos + 1 : self.pos + 3].lower()
        if not nxt:
            return False
        if nxt[0] == "s" and len(nxt) > 1:
            return nxt[1] in _BASE_DIGITS
        return nxt[0] in _BASE_DIGITS

    def _lex_number(self) -> None:
        start = self.pos
        index = self.pos
        size_digits = ""
        while index < len(self.source) and self.source[index] in _DIGITS | {"_"}:
            index += 1
        size_digits = self.source[start:index].replace("_", "")
        # Look ahead past whitespace for a base marker 'b/'h/...
        probe = index
        while probe < len(self.source) and self.source[probe] in " \t":
            probe += 1
        if probe < len(self.source) and self.source[probe] == "'":
            self._lex_based_number(start, size_digits or None, probe)
            return
        if size_digits == "" and self.source[start] == "'":
            self._lex_based_number(start, None, start)
            return
        # Plain decimal (reject reals with a digit.digit form by lexing the
        # integer part only; the subset does not use real literals).
        text = self.source[start:index]
        token = Token("NUMBER", text, self.line, self.column, (int(size_digits),))
        self.tokens.append(token)
        self._advance(index - start)

    def _lex_based_number(
        self, start: int, size: str | None, quote_pos: int
    ) -> None:
        index = quote_pos + 1
        signed = False
        if index < len(self.source) and self.source[index] in "sS":
            signed = True
            index += 1
        if index >= len(self.source) or self.source[index].lower() not in _BASE_DIGITS:
            raise LexError("malformed based literal", self.line, self.column)
        base = self.source[index].lower()
        index += 1
        digit_start = index
        allowed = _BASE_DIGITS[base]
        while index < len(self.source) and self.source[index] in allowed:
            index += 1
        digits = self.source[digit_start:index].replace("_", "")
        if not digits:
            raise LexError("based literal has no digits", self.line, self.column)
        text = self.source[start:index]
        meta = (int(size) if size else None, base, digits, signed)
        token = Token("BASED_NUMBER", text, self.line, self.column, meta)
        self.tokens.append(token)
        # advance manually: text may contain internal spaces
        for ch in text:
            if ch == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
        self.pos = index

    # ------------------------------------------------------------------
    def _lex_operator(self) -> None:
        for op in OPERATORS:
            if self.source.startswith(op, self.pos):
                self._emit("OP", op)
                return
        raise LexError(
            f"unexpected character {self.source[self.pos]!r}",
            self.line,
            self.column,
        )


def tokenize(source: str, first_line: int = 1) -> list[Token]:
    """Tokenize Verilog source, raising :class:`LexError` on bad input."""
    return Lexer(source, first_line).tokenize()

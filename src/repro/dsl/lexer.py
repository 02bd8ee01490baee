"""Tokenizer for the textual schema DSL.

The graphical RIDL-G editor is substituted by a small declarative
language; the lexer produces a flat token stream with line/column
positions so the parser can report precise syntax errors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from repro.errors import DslSyntaxError


class TokenKind(Enum):
    """Lexical categories of the DSL."""

    WORD = "word"  # identifiers and keywords
    NUMBER = "number"  # signed integers and decimals
    STRING = "string"
    PUNCT = "punct"  # ( ) , : . [ ] ..
    NEWLINE = "newline"
    EOF = "eof"


@dataclass(frozen=True)
class Token:
    """One token with its source position (1-based)."""

    kind: TokenKind
    text: str
    line: int
    column: int

    def __str__(self) -> str:
        if self.kind is TokenKind.NEWLINE:
            return "end of line"
        if self.kind is TokenKind.EOF:
            return "end of input"
        return repr(self.text)


_PUNCT = "(),:.[]"

#: An integer or decimal literal, optionally signed, with an optional
#: exponent (the way Python prints a float such as ``1e-05``); ``2..5``
#: stays two numbers around the range mark.
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def tokenize(source: str) -> list[Token]:
    """Tokenize DSL source; comments run from ``--`` or ``#`` to EOL."""
    tokens: list[Token] = []
    for line_number, raw_line in enumerate(source.splitlines(), start=1):
        line = _strip_comment(raw_line)
        column = 0
        length = len(line)
        while column < length:
            char = line[column]
            if char.isspace():
                column += 1
                continue
            start = column
            if char == "'":
                # A doubled quote inside the literal stands for one quote.
                end = line.find("'", column + 1)
                while end >= 0 and line.startswith("''", end):
                    end = line.find("'", end + 2)
                if end < 0:
                    raise DslSyntaxError(
                        "unterminated string literal", line_number, column + 1
                    )
                tokens.append(
                    Token(
                        TokenKind.STRING,
                        line[column + 1:end].replace("''", "'"),
                        line_number,
                        column + 1,
                    )
                )
                column = end + 1
                continue
            if char == "." and line.startswith("..", column):
                tokens.append(Token(TokenKind.PUNCT, "..", line_number, column + 1))
                column += 2
                continue
            if char in _PUNCT:
                tokens.append(Token(TokenKind.PUNCT, char, line_number, column + 1))
                column += 1
                continue
            number = _NUMBER.match(line, column)
            if number:
                column = number.end()
                tokens.append(
                    Token(
                        TokenKind.NUMBER,
                        number.group(),
                        line_number,
                        start + 1,
                    )
                )
                continue
            if char.isalpha() or char == "_":
                while column < length and (
                    line[column].isalnum() or line[column] in "_-"
                ):
                    column += 1
                # A trailing hyphen belongs to punctuation, not names.
                while line[column - 1] == "-":
                    column -= 1
                tokens.append(
                    Token(
                        TokenKind.WORD, line[start:column], line_number, start + 1
                    )
                )
                continue
            raise DslSyntaxError(
                f"unexpected character {char!r}", line_number, column + 1
            )
        tokens.append(Token(TokenKind.NEWLINE, "\n", line_number, length + 1))
    last_line = source.count("\n") + 1
    tokens.append(Token(TokenKind.EOF, "", last_line, 1))
    return tokens


def _strip_comment(line: str) -> str:
    in_string = False
    for index, char in enumerate(line):
        if char == "'":
            in_string = not in_string
        elif not in_string:
            if char == "#" or line.startswith("--", index):
                return line[:index]
    return line

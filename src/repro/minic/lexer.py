"""Tokenizer for the mini-C language."""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import List

from repro.errors import ParseError

KEYWORDS = {
    "int",
    "unsigned",
    "float",
    "void",
    "if",
    "else",
    "while",
    "do",
    "for",
    "return",
    "break",
    "continue",
    "goto",
    "sizeof",
    "const",
    "volatile",
    "static",
}


class TokenKind(enum.Enum):
    IDENT = "ident"
    KEYWORD = "keyword"
    INT = "int"
    FLOAT = "float"
    PUNCT = "punct"
    STRING = "string"
    EOF = "eof"


@dataclass(frozen=True, slots=True)
class Token:
    kind: TokenKind
    text: str
    line: int
    column: int
    value: object = None

    def is_keyword(self, *names: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text in names

    def is_punct(self, *symbols: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.text in symbols

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind.value}:{self.text!r}@{self.line}"


#: Multi-character punctuation, longest first so the scanner is greedy.
_PUNCTUATION = [
    "<<=", ">>=", "...",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--", "->",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
    "(", ")", "{", "}", "[", "]", ";", ",", "?", ":", ".",
]

#: One master scanner: every lexeme class as a named alternative, tried in the
#: order of the original hand-rolled loop (comments, strings, float before
#: int, identifiers, then punctuation longest-first).  A single ``match`` call
#: per token replaces the per-character probing of several separate patterns.
_MASTER_RE = re.compile(
    "|".join(
        [
            r"(?P<ws>[ \t\r]+)",
            r"(?P<nl>\n)",
            r"(?P<linecomment>//[^\n]*)",
            r"(?P<blockcomment>/\*(?:[^*]|\*(?!/))*\*/)",
            r"(?P<badcomment>/\*)",
            r'(?P<string>"(?:[^"\\]|\\.)*")',
            r"(?P<float>\d+\.\d*(?:[eE][-+]?\d+)?[fF]?|\d+[eE][-+]?\d+[fF]?)",
            r"(?P<hex>0[xX][0-9a-fA-F]+[uUlL]*)",
            r"(?P<int>\d+[uUlL]*)",
            r"(?P<ident>[A-Za-z_]\w*)",
            r"(?P<punct>" + "|".join(re.escape(p) for p in _PUNCTUATION) + ")",
        ]
    )
)

_KEYWORD = TokenKind.KEYWORD
_IDENT = TokenKind.IDENT
_INT = TokenKind.INT
_FLOAT = TokenKind.FLOAT
_PUNCT = TokenKind.PUNCT
_STRING = TokenKind.STRING


def tokenize(source: str) -> List[Token]:
    """Tokenize a mini-C source string; raises :class:`ParseError` on bad input."""
    tokens: List[Token] = []
    append = tokens.append
    match_at = _MASTER_RE.match
    line = 1
    column = 1
    index = 0
    length = len(source)

    while index < length:
        # Preprocessor-style lines are ignored (the workloads use none, but
        # realistic sources may carry #include / #define headers).
        if column == 1 and source[index] == "#":
            end = source.find("\n", index)
            index = length if end < 0 else end
            continue

        match = match_at(source, index)
        if match is None:
            raise ParseError(
                f"unexpected character {source[index]!r}", line, column
            )
        kind = match.lastgroup
        text = match.group()
        index = match.end()

        if kind == "ws":
            column += len(text)
        elif kind == "nl":
            line += 1
            column = 1
        elif kind == "ident":
            append(
                Token(
                    _KEYWORD if text in KEYWORDS else _IDENT,
                    text,
                    line,
                    column,
                )
            )
            column += len(text)
        elif kind == "punct":
            append(Token(_PUNCT, text, line, column))
            column += len(text)
        elif kind == "int":
            append(Token(_INT, text, line, column, int(text.rstrip("uUlL"))))
            column += len(text)
        elif kind == "float":
            append(Token(_FLOAT, text, line, column, float(text.rstrip("fF"))))
            column += len(text)
        elif kind == "hex":
            append(Token(_INT, text, line, column, int(text.rstrip("uUlL"), 16)))
            column += len(text)
        elif kind == "linecomment":
            column += len(text)
        elif kind == "blockcomment":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                column = len(text) - text.rfind("\n")
            else:
                column += len(text)
        elif kind == "string":
            append(Token(_STRING, text, line, column, text[1:-1]))
            column += len(text)
        else:  # badcomment
            raise ParseError("unterminated block comment", line, column)

    append(Token(TokenKind.EOF, "", line, column))
    return tokens

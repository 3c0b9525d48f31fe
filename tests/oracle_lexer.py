"""Reference lexer for `frontend._logical_lines`: the per-line rule.

``logical_lines`` starts a fresh token scan at each physical line that
`str.strip()` does not call blank or a comment, takes the indent from the
line's leading spaces and tabs (a tab counts as four), and ends the
logical line at the first newline where no bracket is open. It shares
the token regex with the frontend but none of its line logic, so the
one-scan lexer can be compared with it on any text.
"""

from __future__ import annotations

from uclgen.ast_core import Span, identifier_head
from uclgen.frontend import (
    _ASSIGN_OPS,
    _BRACKETS,
    _ESCAPE_RE,
    _TOKEN_RE,
    _Line,
)


def _line_end(source: str, pos: int) -> int:
    end = source.find("\n", pos)
    return len(source) if end < 0 else end


def logical_lines(source: str) -> list[_Line]:
    """The logical lines of `source`, each token a `(kind, value, pos,
    end)` tuple."""
    out: list[_Line] = []
    start = 0
    while start <= len(source):
        text = source[start : _line_end(source, start)]
        stripped = text.strip()
        if not stripped or stripped.startswith("#"):
            start += len(text) + 1
            continue
        lead = text[: len(text) - len(text.lstrip(" \t"))]
        indent = len(lead) + 3 * lead.count("\t")
        toks: list[tuple[str, str, int, int]] = []
        depth, assign, bad = 0, None, False
        for m in _TOKEN_RE.finditer(source, start):
            kind = m.lastgroup
            at, end = m.start(kind), m.end()
            if kind == "NAME":
                value = source[at:end]
                if not identifier_head(value[0]):
                    toks, assign, bad = [], None, True
                    at = _line_end(source, at)
                    break
                toks.append(("NAME", value, at, end))
            elif kind == "OP":
                value = source[at:end]
                step = _BRACKETS.get(value)
                if step is not None:
                    depth += step
                elif depth == 0 and assign is None and value in _ASSIGN_OPS:
                    assign = len(toks)
                toks.append(("OP", value, at, end))
            elif kind == "NL":
                if depth <= 0:
                    break
            elif kind == "END":
                break
            elif kind == "OPEN" or kind == "BAD":
                toks, assign, bad = [], None, True
                at = len(source) if kind == "OPEN" else _line_end(source, at)
                break
            elif kind == "TRIPLE":
                toks.append(("STR", source[at + 3 : end - 3], at, end))
            elif kind == "QUOTED":
                value = _ESCAPE_RE.sub(r"\1", source[at + 1 : end - 1])
                toks.append(("STR", value, at, end))
            else:  # INT, FLOAT, HOLE
                toks.append((kind, source[at:end], at, end))
        out.append(_Line(indent, toks, Span(start, at), bad, assign))
        start = at + 1
    return out

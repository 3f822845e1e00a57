"""Lexer for Boogie concrete syntax (the subset our pretty-printer emits).

Trust: **trusted** — feeds the parser the kernel re-parses certificates and
programs with.

One compiled regular expression scans the whole text: each match skips
whitespace (space, tab, CR, LF) and comments, then takes one token, and
``findall`` collects the token texts.  ``tokenize_boogie`` returns them
with a parallel list of kinds, so no object is built per token; the
position of a token is computed only when an error is reported.
"""

from __future__ import annotations

import re
from typing import List, Pattern, Tuple


class BoogieSyntaxError(Exception):
    """Raised on lexical or syntactic errors in Boogie source text."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


KEYWORDS = frozenset(
    "type const unique var function axiom procedure assume assert havoc if "
    "else forall exists then true false int real bool div mod".split()
)

#: Tried in this order, so the longest operator sharing a prefix comes first.
OPERATORS = "<==> ==> :: := == != <= >= && || < > + - * / % ! , ; : ( ) { } [ ] _".split()

#: Keywords and operators are their own kind; every other token is an
#: ``int``, ``real`` or ``ident`` (see ``tokenize_boogie``).
_KINDS = {text: text for text in (*KEYWORDS, *OPERATORS)}
_KINDS[""] = "eof"

# Numbers start with a ``str.isdigit`` character; identifiers start with an
# ``isalpha`` one, or with ``_`` followed by an ``isalnum`` one or ``_``, and
# continue with ``isalnum`` or ``_'#``.  The classes are spelled out rather
# than written ``\d``/``\w``, which mean ``isdecimal`` and ``isalnum``.
# A token from ``/*`` to the end of the text is a comment the skip could
# not close; taking the rest keeps the scan linear.  The empty token at the
# end is the eof; a text that ends in whitespace or a comment yields it
# twice (an empty match may follow a non-empty one).
_SKIP = r"[ \t\r\n]+|//[^\n]*|/\*[\s\S]*?\*/"


def _compile(digit: str, alpha: str, alnum: str) -> Pattern[str]:
    return re.compile(
        r"(?:" + _SKIP + r")*"
        r"(" + digit + r"+(?:\." + digit + r"+)?"
        r"|(?:" + alpha + r"|_[" + alnum + r"_])[" + alnum + r"_'#]*"
        r"|/\*[\s\S]*|" + "|".join(map(re.escape, OPERATORS)) + r"|[\s\S]|\Z)"
    )


_ASCII_TOKEN = _compile("[0-9]", "[A-Za-z]", "A-Za-z0-9")


def _token_regex(source: str) -> Pattern[str]:
    """The token expression, with classes extended by the text's non-ASCII
    characters that ``isdigit``/``isalpha``/``isalnum`` accept."""
    if source.isascii():
        return _ASCII_TOKEN
    extra = sorted({ch for ch in source if not ch.isascii()})

    def escaped(test) -> str:
        return "".join(re.escape(ch) for ch in extra if test(ch))

    return _compile(
        f"[0-9{escaped(str.isdigit)}]",
        f"[A-Za-z{escaped(str.isalpha)}]",
        "A-Za-z0-9" + escaped(str.isalnum),
    )


def tokenize_boogie(source: str) -> Tuple[List[str], List[str]]:
    """Tokenise Boogie source text into parallel ``(kinds, texts)`` lists,
    ending with one ``eof`` token; raises ``BoogieSyntaxError``."""
    texts = _token_regex(source).findall(source)
    if len(texts) > 1 and texts[-2] == "":
        texts.pop()
    kind_of = _KINDS.get
    kinds = [kind_of(text, "ident") for text in texts]
    for index, text in enumerate(texts):
        # Only numbers and stray characters were labelled ``ident`` wrongly.
        if kinds[index] == "ident" and not (text[0].isalpha() or text[0] == "_"):
            if text[0].isdigit():
                kinds[index] = "real" if "." in text else "int"
            elif text.startswith("/*"):
                raise syntax_error(source, texts, index, "unterminated comment")
            else:
                raise syntax_error(source, texts, index, f"unexpected character {text!r}")
    return kinds, texts


def syntax_error(source: str, texts: List[str], index: int, message: str) -> BoogieSyntaxError:
    """A ``BoogieSyntaxError`` at token ``index`` of ``tokenize_boogie(source)``.

    Scans the text again to find the token's offset.  The eof token sits at
    the end of the text, unless the text ends in a ``//`` comment: then it
    keeps the column where that comment starts.
    """
    regex = _token_regex(source)
    offset = 0
    for _ in range(index):
        offset = regex.match(source, offset).end()
    match = regex.match(source, offset)
    start = match.start(1)
    if index == len(texts) - 1:
        tail = source[offset:start]
        while tail:
            skipped = re.match(_SKIP, tail).end()
            if tail.startswith("//") and skipped == len(tail):
                start -= len(tail)
            tail = tail[skipped:]
    line = source.count("\n", 0, start) + 1
    return BoogieSyntaxError(message, line, start - source.rfind("\n", 0, start))

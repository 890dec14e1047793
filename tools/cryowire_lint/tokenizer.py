"""A real C++ tokenizer (comments, strings, raw strings, preprocessor).

The previous lint (a regex script, since removed) ran regexes over
comment-stripped text, which misfires on string literals and cannot
see token boundaries. This lexer produces a flat token stream with
line numbers so rules can match *code*, never prose:

* ``//`` and ``/* */`` comments become COMMENT tokens (rules use them
  for the CRYOLINT suppression syntax, nothing else),
* ``"..."``, ``'...'``, and ``R"delim(...)delim"`` literals become
  STRING/CHAR tokens — a banned identifier inside a log message is not
  a finding,
* preprocessor lines (with ``\\``-continuations folded) become single
  PP tokens so the include-graph builder sees one directive per token,
* everything else lexes into IDENT / NUMBER / PUNCT tokens.

This is a lexer, not a parser: rules that need structure (scope
nesting, destructor bodies) reconstruct just enough of it from the
token stream.
"""

from __future__ import annotations

import dataclasses
import enum
import string


class Kind(enum.Enum):
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    CHAR = "char"
    PUNCT = "punct"
    COMMENT = "comment"
    PP = "pp"  # one whole preprocessor directive


@dataclasses.dataclass(frozen=True)
class Token:
    kind: Kind
    text: str
    line: int  # 1-based line of the token's first character


_IDENT_START = set(string.ascii_letters + "_")
_IDENT_CONT = set(string.ascii_letters + string.digits + "_")
_NUM_START = set(string.digits)

# Multi-character operators, longest first, so '::' never lexes as two
# ':' and '->*' never as '->' '*'.
_PUNCTS = (
    "<<=", ">>=", "...", "->*", "<=>",
    "::", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&",
    "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "##",
)


class TokenizeError(ValueError):
    """Unterminated string/comment — reported with a line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def tokenize(text: str) -> list[Token]:
    """Lex C++ source into a flat token list, preserving line numbers."""
    tokens: list[Token] = []
    i = 0
    line = 1
    n = len(text)
    at_line_start = True  # only whitespace seen since the last newline

    def advance(chunk: str) -> None:
        nonlocal line
        line += chunk.count("\n")

    while i < n:
        c = text[i]

        # -- whitespace ------------------------------------------------
        if c in " \t\r\v\f":
            i += 1
            continue
        if c == "\n":
            line += 1
            i += 1
            at_line_start = True
            continue
        if c == "\\" and i + 1 < n and text[i + 1] == "\n":
            line += 1
            i += 2
            continue

        start_line = line

        # -- preprocessor directive (swallow continuations) ------------
        if c == "#" and at_line_start:
            j = i
            while j < n:
                if text[j] == "\n":
                    if j > i and text[j - 1] == "\\":
                        j += 1
                        continue
                    break
                # A // comment inside a directive ends the directive
                # text but the line still continues to \n below.
                j += 1
            chunk = text[i:j].replace("\\\n", " ")
            # Trim a trailing // comment from the directive.
            chunk = _strip_line_comment(chunk)
            tokens.append(Token(Kind.PP, chunk.strip(), start_line))
            advance(text[i:j])
            i = j
            continue

        at_line_start = False

        # -- comments --------------------------------------------------
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            tokens.append(Token(Kind.COMMENT, text[i:j], start_line))
            i = j
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            if j < 0:
                raise TokenizeError("unterminated /* comment", start_line)
            chunk = text[i : j + 2]
            tokens.append(Token(Kind.COMMENT, chunk, start_line))
            advance(chunk)
            i = j + 2
            continue

        # -- raw string literals: R"delim( ... )delim" -----------------
        if c in "RLuU" and _looks_like_raw_string(text, i):
            j = text.find('"', i)
            k = text.find("(", j)
            delim = text[j + 1 : k]
            closer = ")" + delim + '"'
            end = text.find(closer, k + 1)
            if end < 0:
                raise TokenizeError("unterminated raw string", start_line)
            chunk = text[i : end + len(closer)]
            tokens.append(Token(Kind.STRING, chunk, start_line))
            advance(chunk)
            i = end + len(closer)
            continue

        # -- ordinary string / char literals ---------------------------
        if c == '"' or (
            c in "LuU"
            and _literal_prefix_quote(text, i) is not None
        ):
            q = i if c == '"' else _literal_prefix_quote(text, i)
            assert q is not None
            if text[q] == '"':
                j = _scan_quoted(text, q, '"', start_line)
                chunk = text[i:j]
                tokens.append(Token(Kind.STRING, chunk, start_line))
                advance(chunk)
                i = j
                continue
        if c == "'":
            j = _scan_quoted(text, i, "'", start_line)
            chunk = text[i:j]
            tokens.append(Token(Kind.CHAR, chunk, start_line))
            advance(chunk)
            i = j
            continue

        # -- identifiers / keywords ------------------------------------
        if c in _IDENT_START:
            j = i + 1
            while j < n and text[j] in _IDENT_CONT:
                j += 1
            word = text[i:j]
            # u8"..." / L'...' style prefixed literal starting here?
            if (
                word in ("u8", "u", "U", "L", "R", "u8R", "uR", "UR", "LR")
                and j < n
                and text[j] in "\"'"
            ):
                pass  # handled next iteration via the branches above
            tokens.append(Token(Kind.IDENT, word, start_line))
            i = j
            continue

        # -- numbers (incl. hex, digit separators, suffixes) -----------
        if c in _NUM_START or (
            c == "." and i + 1 < n and text[i + 1] in _NUM_START
        ):
            j = i + 1
            while j < n and (
                text[j] in _IDENT_CONT
                or text[j] in ".'"
                or (
                    text[j] in "+-"
                    and text[j - 1] in "eEpP"
                )
            ):
                j += 1
            tokens.append(Token(Kind.NUMBER, text[i:j], start_line))
            i = j
            continue

        # -- punctuation -----------------------------------------------
        for op in _PUNCTS:
            if text.startswith(op, i):
                tokens.append(Token(Kind.PUNCT, op, start_line))
                i += len(op)
                break
        else:
            tokens.append(Token(Kind.PUNCT, c, start_line))
            i += 1

    return tokens


def _strip_line_comment(directive: str) -> str:
    """Remove a trailing // comment from a preprocessor directive."""
    in_string = False
    k = 0
    while k < len(directive) - 1:
        ch = directive[k]
        if ch == '"':
            in_string = not in_string
        elif ch == "\\" and in_string:
            k += 1
        elif not in_string and ch == "/" and directive[k + 1] == "/":
            return directive[:k]
        elif not in_string and ch == "/" and directive[k + 1] == "*":
            end = directive.find("*/", k + 2)
            if end < 0:
                return directive[:k]
            directive = directive[:k] + " " + directive[end + 2 :]
            continue
        k += 1
    return directive


def _looks_like_raw_string(text: str, i: int) -> bool:
    """True when text[i:] starts a raw-string literal (R"., u8R".)."""
    for prefix in ("R", "u8R", "uR", "UR", "LR"):
        if text.startswith(prefix + '"', i):
            # Must not be the tail of a longer identifier.
            if i > 0 and text[i - 1] in _IDENT_CONT:
                return False
            return True
    return False


def _literal_prefix_quote(text: str, i: int) -> int | None:
    """Index of the quote if text[i:] is a prefixed literal (u8"..)."""
    for prefix in ("u8", "u", "U", "L"):
        if text.startswith(prefix, i):
            j = i + len(prefix)
            if j < len(text) and text[j] == '"':
                if i > 0 and text[i - 1] in _IDENT_CONT:
                    return None
                return j
    return None


def _scan_quoted(text: str, i: int, quote: str, line: int) -> int:
    """Return the index one past the closing quote."""
    j = i + 1
    n = len(text)
    while j < n:
        ch = text[j]
        if ch == "\\":
            j += 2
            continue
        if ch == quote:
            return j + 1
        if ch == "\n":
            break
        j += 1
    raise TokenizeError(f"unterminated {quote}...{quote} literal", line)


def code_tokens(tokens: list[Token]) -> list[Token]:
    """Tokens with comments removed (literals kept: they are code)."""
    return [t for t in tokens if t.kind is not Kind.COMMENT]

"""Plain-text DFA files.

The format is line oriented and diff friendly:

    states 2
    alphabet a b
    initial 0
    final 1
    row a 0 0
    row b 1 1

'#' starts a comment and blank lines are ignored. `row <letter>` lists
the image of every state in order, one row per alphabet letter. A DFA
over the empty alphabet is written with a bare `alphabet` line and no
rows; an empty final set is a bare `final` line. Rendering is canonical,
so parse(render(d)) reproduces d bit for bit.
"""

from __future__ import annotations

from .automata import Dfa, _unchecked_dfa, make_alphabet


class DfaParseError(ValueError):
    """Malformed DFA file; the message names the offending line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def render_dfa(d: Dfa) -> str:
    # Every state's decimal name, made once when there are rows to join,
    # which are as long as the table: a bare huge state count makes none.
    name = list(map(str, range(d.state_count))).__getitem__ if d.delta else str
    lines = [f"states {d.state_count}"]
    lines.append(("alphabet " + " ".join(d.alphabet)).rstrip())
    lines.append(f"initial {d.initial}")
    lines.append(("final " + " ".join(map(name, sorted(d.finals)))).rstrip())
    for letter, row in zip(d.alphabet, d.delta):
        lines.append(f"row {letter} " + " ".join(map(name, row)))
    return "\n".join(lines) + "\n"


def _parse_int(token: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise DfaParseError(line_no, f"{what} {token!r} is not an integer") from None


def _parse_ints(tokens: list[str], line_no: int, what: str) -> tuple[int, ...]:
    try:
        return tuple(map(int, tokens))
    except ValueError:  # rescan, to name the first bad token
        return tuple(_parse_int(tok, line_no, what) for tok in tokens)


def parse_dfa(text: str) -> Dfa:
    state_count = None
    alphabet: tuple[str, ...] | None = None
    initial = None
    finals: frozenset[int] | None = None
    header_lines: dict[str, int] = {}
    rows: dict[str, tuple[int, ...]] = {}
    row_lines: dict[str, int] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        keyword, args = fields[0], fields[1:]
        if keyword in header_lines:
            raise DfaParseError(
                line_no, f"repeated {keyword!r} line (first on line {header_lines[keyword]})"
            )
        if keyword != "row":
            header_lines[keyword] = line_no
        if keyword == "states":
            if len(args) != 1:
                raise DfaParseError(line_no, "expected: states <count>")
            state_count = _parse_int(args[0], line_no, "state count")
            if state_count <= 0:
                raise DfaParseError(line_no, "state count must be positive")
        elif keyword == "alphabet":
            try:
                alphabet = make_alphabet(args)
            except ValueError as exc:
                raise DfaParseError(line_no, str(exc)) from None
        elif keyword == "initial":
            if len(args) != 1:
                raise DfaParseError(line_no, "expected: initial <state>")
            initial = _parse_int(args[0], line_no, "initial state")
        elif keyword == "final":
            finals = frozenset(_parse_ints(args, line_no, "final state"))
        elif keyword == "row":
            if not args:
                raise DfaParseError(line_no, "expected: row <letter> <images...>")
            letter = args[0]
            if letter in rows:
                raise DfaParseError(line_no, f"duplicate row for letter {letter!r}")
            rows[letter] = _parse_ints(args[1:], line_no, "image")
            row_lines[letter] = line_no
        else:
            raise DfaParseError(line_no, f"unknown keyword {keyword!r}")

    for keyword in ("states", "alphabet", "initial", "final"):
        if keyword not in header_lines:
            raise DfaParseError(0, f"missing {keyword!r} line")
    if not 0 <= initial < state_count:
        raise DfaParseError(header_lines["initial"], "initial state out of range")
    if any(not 0 <= q < state_count for q in finals):
        raise DfaParseError(header_lines["final"], "final state out of range")
    for letter in alphabet:
        if letter not in rows:
            raise DfaParseError(0, f"missing row for letter {letter!r}")
    for letter in rows:
        if letter not in alphabet:
            raise DfaParseError(row_lines[letter], f"row for foreign letter {letter!r}")
    delta = []
    for letter in alphabet:
        images = rows[letter]
        if len(images) != state_count:
            raise DfaParseError(
                row_lines[letter],
                f"row {letter!r} lists {len(images)} images for {state_count} states",
            )
        if min(images) < 0 or max(images) >= state_count:
            raise DfaParseError(row_lines[letter], f"row {letter!r} has an image out of range")
        delta.append(images)
    # Every field is checked above, so the constructor's checks would repeat them.
    return _unchecked_dfa(state_count, alphabet, tuple(delta), initial, finals)

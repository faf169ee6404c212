from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from statecomplexity import (
    Dfa,
    DfaParseError,
    build_regular,
    parse_dfa,
    quotient_complexity,
    render_dfa,
)

from conftest import fig_ends_in_b, random_dfa


@st.composite
def dfas(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=0, max_value=4))
    alphabet = tuple("abcd"[:k])
    delta = tuple(
        tuple(draw(st.integers(0, n - 1)) for _ in range(n))
        for _ in alphabet
    )
    finals = frozenset(draw(st.sets(st.integers(0, n - 1))))
    return Dfa(n, alphabet, delta, draw(st.integers(0, n - 1)), finals)

KEYWORD_LINES = st.builds(
    lambda keyword, args: " ".join([keyword, *args]),
    st.sampled_from(["states", "alphabet", "initial", "final", "row"]),
    st.lists(
        st.one_of(
            st.integers(-2, 100000000000).map(str), st.sampled_from("ab"), st.text(max_size=3)
        ),
        max_size=4,
    ),
)


@st.composite
def perturbed_renders(draw):
    """A rendered DFA file with one line dropped, one line repeated, or
    one state number changed or added on the initial, final or a row line."""
    d = draw(dfas())
    lines = render_dfa(d).splitlines()
    edit = draw(st.sampled_from(["state", "drop", "repeat"]))
    if edit == "state":
        # Line 2 is the initial line, line 3 the final line, and the rows
        # follow. Hypothesis favours the first entry of a sampled list, so
        # the final line, whose length nothing checks, is listed first.
        i = draw(st.sampled_from([3, 2, *range(4, len(lines))]))
        tokens = lines[i].split()
        j = draw(st.sampled_from(range(2 if i > 3 else 1, len(tokens) + 1)))
        tokens[j : j + 1] = [str(draw(st.integers(-1, d.state_count)))]  # or append one
        lines[i] = " ".join(tokens)
    else:
        i = draw(st.sampled_from(range(len(lines))))
        if edit == "drop":
            del lines[i]
        else:
            lines.insert(i, lines[i])
    return "\n".join(lines) + "\n"


# Perturbed renders come first, the branch Hypothesis favours. Arbitrary
# text almost never parses; with them about one draw in ten does, so the
# assert below sees parsed DFAs on every run.
@given(
    st.one_of(
        perturbed_renders(),
        st.text(),
        st.lists(st.one_of(KEYWORD_LINES, st.text())).map("\n".join),
    )
)
def test_parse_raises_only_parse_errors(text):
    try:
        d = parse_dfa(text)
    except DfaParseError:
        return
    # The parser builds its result without the constructor's checks, so
    # it must accept nothing the constructor would refuse.
    assert d == Dfa(d.state_count, d.alphabet, d.delta, d.initial, d.finals)


ENDS_IN_B_FILE = """states 2
alphabet a b
initial 0
final 1
row a 0 0
row b 1 1
"""


def test_render_of_the_two_state_example():
    assert render_dfa(fig_ends_in_b()) == ENDS_IN_B_FILE


def test_parse_render_round_trip_is_bit_exact(rng):
    for _ in range(100):
        d = random_dfa(rng)
        assert parse_dfa(render_dfa(d)) == d


@given(dfas())
def test_round_trip_on_drawn_dfas(d):
    assert parse_dfa(render_dfa(d)) == d


def test_round_trip_of_witnesses():
    for n in (3, 4, 5):
        d = build_regular(n)
        assert parse_dfa(render_dfa(d)) == d


def test_comments_and_blank_lines_ignored():
    text = "# language of words ending in b\n\n" + ENDS_IN_B_FILE.replace(
        "initial 0", "initial 0   # start here"
    )
    assert parse_dfa(text) == fig_ends_in_b()


def test_empty_alphabet_and_empty_finals():
    d = Dfa(1, (), (), 0, frozenset())
    text = render_dfa(d)
    assert text == "states 1\nalphabet\ninitial 0\nfinal\n"
    assert parse_dfa(text) == d


def test_kappa_of_parsed_example():
    assert quotient_complexity(parse_dfa(ENDS_IN_B_FILE)) == 2


def test_wrong_row_arity_names_the_line():
    bad = ENDS_IN_B_FILE.replace("row a 0 0", "row a 0")
    with pytest.raises(DfaParseError) as err:
        parse_dfa(bad)
    assert "row 'a'" in str(err.value)
    assert "line 5" in str(err.value)


def test_duplicate_rows_rejected():
    bad = ENDS_IN_B_FILE + "row a 0 0\n"
    with pytest.raises(DfaParseError, match="duplicate row"):
        parse_dfa(bad)


@pytest.mark.parametrize(
    "header", ["states 3", "alphabet a b", "initial 1", "final 0"]
)
def test_repeated_header_lines_rejected(header):
    keyword = header.split()[0]
    with pytest.raises(DfaParseError, match=f"line 7: repeated '{keyword}' line"):
        parse_dfa(ENDS_IN_B_FILE + header + "\n")


@pytest.mark.parametrize(
    "old, new, line",
    [("initial 0", "initial 2", 3), ("final 1", "final 1 5", 4), ("final 1", "final -1", 4)],
)
def test_out_of_range_header_state_names_its_line(old, new, line):
    with pytest.raises(DfaParseError, match=f"line {line}: .* state out of range"):
        parse_dfa(ENDS_IN_B_FILE.replace(old, new))


def test_duplicate_letters_rejected():
    bad = ENDS_IN_B_FILE.replace("alphabet a b", "alphabet a a")
    with pytest.raises(DfaParseError, match="duplicate"):
        parse_dfa(bad)


def test_missing_sections_rejected():
    with pytest.raises(DfaParseError, match="missing 'initial'"):
        parse_dfa("states 1\nalphabet\nfinal\n")


def test_foreign_row_rejected():
    bad = ENDS_IN_B_FILE + "row c 0 0\n"
    with pytest.raises(DfaParseError, match="foreign letter"):
        parse_dfa(bad)


def test_image_out_of_range_rejected():
    bad = ENDS_IN_B_FILE.replace("row b 1 1", "row b 1 2")
    with pytest.raises(DfaParseError, match="out of range"):
        parse_dfa(bad)


def test_non_integer_image_rejected():
    bad = ENDS_IN_B_FILE.replace("row b 1 1", "row b 1 x")
    with pytest.raises(DfaParseError, match="not an integer"):
        parse_dfa(bad)


@pytest.mark.parametrize(
    "line, message",
    [
        ("row b 1 x", "line 6: image 'x' is not an integer"),
        ("row b 7 1.5", "line 6: image '1.5' is not an integer"),
        ("row b y x", "line 6: image 'y' is not an integer"),
        ("row b 1 2", "line 6: row 'b' has an image out of range"),
        ("row b -1 0", "line 6: row 'b' has an image out of range"),
        ("final 1 x", "line 4: final state 'x' is not an integer"),
        ("final 7 y 1.5", "line 4: final state 'y' is not an integer"),
    ],
)
def test_integer_list_error_messages(line, message):
    # A bad token is named even when an earlier one is out of range.
    keyword = line.split()[0]
    old = "row b 1 1" if keyword == "row" else "final 1"
    with pytest.raises(DfaParseError) as err:
        parse_dfa(ENDS_IN_B_FILE.replace(old, line))
    assert str(err.value) == message

"""Build complete DFAs, minimize them canonically, and measure complexity.

Run:  python demos/01_automata_basics.py
"""

from statecomplexity import (
    Dfa,
    accepts,
    build_regular,
    minimize,
    parse_dfa,
    quotient_complexity,
    render_dfa,
    trim_alphabet,
)

# A DFA is an ordered alphabet plus one total transformation per letter.
# Here is the two-state machine for the words over {a,b} that end in b:
ends_in_b = Dfa(
    state_count=2,
    alphabet=("a", "b"),
    delta=((0, 0), (1, 1)),
    initial=0,
    finals=frozenset({1}),
)
print("ends_in_b accepts 'ab': ", accepts(ends_in_b, "ab"))
print("ends_in_b accepts 'ba': ", accepts(ends_in_b, "ba"))

# The same machine as a diff-friendly text file (and back again):
text = render_dfa(ends_in_b)
print("\nDFA file format:")
print(text)
assert parse_dfa(text) == ends_in_b

# Witness families come ready-made. The regular witness on n states uses
# a full cycle, a transposition, a single collapsing letter, and an
# identity letter:
d4 = build_regular(4)
print("regular witness n=4, letter a:", d4.transformation("a"))
print("its quotient complexity:      ", quotient_complexity(d4))

# Minimization is canonical: equal languages over equal alphabets give
# identical DFAs, not merely isomorphic ones. Padding the witness with an
# unreachable sink changes the machine but not its language.
sink = d4.state_count
padded = Dfa(sink + 1, d4.alphabet, tuple(row + (sink,) for row in d4.delta), d4.initial, d4.finals)
print("padded witness states:        ", padded.state_count)
print("minimize(padded) == minimize(witness):", minimize(padded) == minimize(d4))
assert minimize(padded) == minimize(d4)

# Quotient complexity is measured over the language's own alphabet. A
# letter that no accepted word uses does not count: a* over {a,b} (with b
# falling into a dead state) has complexity 1, not 2.
astar = Dfa(
    state_count=2,
    alphabet=("a", "b"),
    delta=((0, 1), (1, 1)),
    initial=0,
    finals=frozenset({0}),
)
print("\nalphabet of a* as declared:", astar.alphabet)
print("alphabet of the language:  ", trim_alphabet(astar).alphabet)
print("trimmed machine:           ", trim_alphabet(astar).state_count, "state(s)")
print("quotient complexity:       ", quotient_complexity(astar))

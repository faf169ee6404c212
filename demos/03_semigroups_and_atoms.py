"""Syntactic semigroups and atoms of the witness families.

Run:  python demos/03_semigroups_and_atoms.py
"""

from itertools import count, islice, product

from statecomplexity import (
    apply_dialect,
    atom_dfa,
    atoms,
    build_left_ideal,
    build_regular,
    build_right_ideal,
    build_two_sided_ideal,
    parse_dialect,
    reverse,
    syntactic_semigroup_size,
    transition_semigroup,
    trim_alphabet,
)

# The transition semigroup collects the transformations of all non-empty
# words. For the three-letter regular witness it is the full n^n monoid.
# Each element is bytes whose entry q is the image of state q, the state
# the word leads q to; the first words in length-then-alphabet order:
d = apply_dialect(build_regular(3), parse_dialect("a,b,c"))
print("semigroup size of the 3-state witness:", len(transition_semigroup(d)), "= 3^3")
words = ("".join(w) for k in count(1) for w in product(d.alphabet, repeat=k))
for w in islice(words, 5):
    print(f"  word {w!r} induces {tuple(d.run(q, w) for q in range(d.state_count))}")

print("\nsyntactic semigroup sizes by class:")
print("  regular n=4:   ", syntactic_semigroup_size(apply_dialect(build_regular(4), parse_dialect("a,b,c"))), "= 4^4")
print("  right n=4:     ", syntactic_semigroup_size(apply_dialect(build_right_ideal(4), parse_dialect("a,b,c,d"))), "= 4^3")
print("  left n=4:      ", syntactic_semigroup_size(build_left_ideal(4)), "= 4^3 + 3")
print("  two-sided n=5: ", syntactic_semigroup_size(build_two_sided_ideal(5)), "= 5^3 + 3*2^3 + 1")

# Atoms: every word has a profile, the set of states whose quotient
# contains it; an atom is the set of words sharing one profile. The
# number of realized profiles always equals the complexity of the
# reversed language.
d = apply_dialect(build_regular(3), parse_dialect("a,b,c"))
realized = atoms(d)
print(f"\nthe 3-state regular witness realizes {len(realized)} atoms (= kappa of the reverse,",
      f"{reverse(d).kappa}):")
for s in realized:
    label = "{" + ",".join(map(str, sorted(s))) + "}"
    print(f"  profile {label:9s} atom complexity {atom_dfa(d, s).state_count}")

# Ideal witnesses realize far fewer profiles: a right ideal accepts the
# whole tail language from its final state, so every profile must contain
# that state.
r = trim_alphabet(apply_dialect(build_right_ideal(4), parse_dialect("a,-,-,d")))
print("\nright-ideal witness n=4 realizes", len(atoms(r)), "profiles, all containing the final state")

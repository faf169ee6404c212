"""Operations on languages over different alphabets.

The motivating example: the union of the words over {a,b} ending in b
with the words over {a,c} ending in c. Each operand is complete over its
own two-letter alphabet, yet the union needs six states, beating the
classical same-alphabet bound of m*n = 4.

Run:  python demos/02_operations_across_alphabets.py
"""

from statecomplexity import (
    BooleanOp,
    Dfa,
    apply_dialect,
    boolean,
    build_regular,
    complement,
    parse_dialect,
    product,
    render_dfa,
    reverse,
    star,
)

ends_in_b = Dfa(2, ("a", "b"), ((0, 0), (1, 1)), 0, frozenset({1}))
ends_in_c = Dfa(2, ("a", "c"), ((0, 0), (1, 1)), 0, frozenset({1}))

# Every operation walks subsets of the operands' states over the union
# alphabet. A letter that one operand lacks (c for ends_in_b, b for
# ends_in_c) empties that operand's part of the subset: the word has left
# its language for good, which the extra states of the union record.
union = boolean(BooleanOp.UNION, ends_in_b, ends_in_c)
print("minimal DFA of the union over {a,b,c}:")
print(render_dfa(union.dfa))
print("kappa of the union:", union.kappa, "(six states, not four)")

# The regular witness family attains the worst case for every operation.
# Dialects rename or drop letters so that the two operands interleave
# private letters: (a,b,-,c) and (b,a,-,d) share a and b only.
def reg(n, spec):
    return apply_dialect(build_regular(n), parse_dialect(spec))

m = n = 4
lhs, rhs = reg(m, "a,b,-,c"), reg(n, "b,a,-,d")
print(f"\nworst-case complexities at m = n = {m}:")
print("  product          ", product(lhs, rhs).kappa, "= m*2^n + 2^(n-1)")
for op in (BooleanOp.UNION, BooleanOp.SYMDIFF, BooleanOp.DIFF, BooleanOp.INTER):
    print(f"  {op.name.lower():17s}", boolean(op, lhs, rhs).kappa)

# All ten proper boolean operations are available; complement inside them
# is always taken over the union universe.
print("\nthe ten proper boolean operations at (4,4):")
for op in BooleanOp:
    print(f"  {op.name.lower():14s} -> {boolean(op, lhs, rhs).kappa}")

# Unary operations, with their witness dialects:
print("\nstar of the two-letter witness:   ", star(reg(4, "a,b")).kappa, "= 2^(n-1) + 2^(n-2)")
print("reverse of the three-letter one:  ", reverse(reg(4, "a,b,c")).kappa, "= 2^n")
print("complement over a larger universe:", complement(reg(4, "a,b"), ("a", "b", "z")).kappa)

"""The set-sharing plus linearity product and its matching operator.

An element is a triple: which sets of variables may share, which variables
are definitely linear, and the variables of interest. Ground variables are
always linear. The matcher works directly on this representation and is
exactly the clipped matcher seen through the embedding.
"""
from sharlin import (
    alpha_sl,
    format_group,
    gamma_sl,
    gamma_sl_maximals,
    leq_sl,
    match2,
    match_sl,
    nl,
    parse_sl,
    parse_two,
)

s1 = parse_sl("[{x, xz}, lin={y,z}]_{x,y,z}")
s2 = parse_sl("[{uv, ux, vx, x}, lin={u,v}]_{u,v,x}")
print("exit side: ", s1, " (y is ground, hence linear; x is not)")
print("entry side:", s2)
print()

embedded = sorted(format_group(g, star=True) for g in gamma_sl_maximals(s1))
print("embedding of the exit side:", embedded)
print("  x is possibly non-linear, so every group delinearizes on x")
print()

result = match_sl(s1, s2)
print("match:", result)
print()

composed = alpha_sl(match2(gamma_sl(s1), gamma_sl(s2)))
print("through the embedding:", composed)
print("identical:", result == composed)
print()

print("non-linear variables of a choice {ux, vx}:", sorted(nl([frozenset('ux'), frozenset('vx')])))
print("so picking both groups makes x non-linear in the combined group.")
print()

# monotone and precision-ordered as expected
bigger = parse_sl("[{uv, ux, vx, x, uvx}, lin={u}]_{u,v,x}")
print("monotone:", leq_sl(result, match_sl(s1, bigger)))

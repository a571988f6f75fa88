"""The exact-multiplicity matching operator, step by step.

Matching an exit description [x^2, xz] over {x,y,z} against an entry
description [uv, ux, vx^2, x] over {u,v,x}: groups of the entry side that
avoid {x,y,z} pass through; every other result group restricts into the
exit side on {x,y,z} and decomposes into a sum of entry groups on {u,v,x}.
"""
from sharlin import (
    alpha_omega,
    canonicalize,
    ematch,
    leq_omega,
    match_omega,
    parse_group,
    parse_omega,
    parse_substitution,
    star_decompose,
)

e1 = parse_omega("[x^2, xz]_{x,y,z}")
e2 = parse_omega("[uv, ux, vx^2, x]_{u,v,x}")
print("exit side: ", e1)
print("entry side:", e2)
print()

result = match_omega(e1, e2)
print("match:", result)
print()

print("uv has no variable in {x,y,z}: passes through unchanged.")
print()

for text in ("u^2x^2", "ux^3", "u"):
    target = parse_group(text)
    ok, witness = star_decompose(target, [parse_group(t) for t in ("ux", "vx^2", "x")])
    if ok:
        pretty = " + ".join(f"{k}*{g}" if k > 1 else str(g) for g, k in witness)
        print(f"{target} decomposes as {pretty}")
    else:
        print(f"{target} has no decomposition")
print()

# the abstract result covers the concrete one, with room to spare: the
# operator is optimal yet not complete
t1 = canonicalize(parse_substitution("{x/r(w1,w2,w2,w3,w3), y/a, z/r(w1)}"), {"x", "y", "z"})
t2 = canonicalize(
    parse_substitution("{x/r(w4,w5,w6,w8,w8), u/r(w4,w7), v/r(w7,w8)}"), {"u", "v", "x"}
)
concrete = alpha_omega(ematch(t1, t2))
print("concrete abstraction:", concrete)
print("covered:", leq_omega(concrete, result))
print("equal:  ", concrete == result, " (xz, u^2x^2, ux^2 are abstract-only)")

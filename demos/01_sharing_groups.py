"""Sharing groups: how substitutions are summarized by variable multisets.

A substitution binds program variables to terms; the terms may share
hidden (existential) variables. For each hidden variable we record how
many times it occurs in each binding: that multiset is its sharing group.
"""
from sharlin import (
    alpha_omega,
    canonicalize,
    parse_group,
    parse_substitution,
    preimage_group,
    preimage_var,
)

theta = parse_substitution("{x/s(y,u,y), z/s(u,u), v/u}")
print("substitution:", theta)
print()

for v in ("u", "y", "z", "w"):
    print(f"group of {v}:", preimage_var(theta, v))

print()
print("u occurs once in x's binding... no: s(y,u,y) has u once, s(u,u) twice,")
print("so u's group is", preimage_var(theta, "u"), "- u itself counts once too.")
print()

# groups add up when substitutions are composed
eta = parse_substitution("{v/a, w/s(x,x)}")
print("rewriting", parse_group("uvxz^2"), "through", eta)
print("  piecewise:", [str(preimage_var(eta, v)) for v in "uvxz"])
print("  total:    ", preimage_group(eta, parse_group("uvxz^2")))
print()

# restriction keeps only the variables of interest
g = preimage_var(theta, "u")
print("restricted to {w,x,y,z}:", g.restrict({"w", "x", "y", "z"}))
print()

# sums are pointwise
a, b = parse_group("a^3c^5"), parse_group("ab^2")
print(f"{a} + {b} = {a + b}")
print()

# the whole abstraction of a substitution class
c = canonicalize(theta, {"w", "x", "y", "z"})
print("class:", c)
print("abstraction over {w,x,y,z}:", alpha_omega(c))

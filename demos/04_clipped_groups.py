"""2-sharing groups: multiplicities clipped at 2.

A 2-sharing group is an exact-multiplicity group whose counts are
saturated at 2. Exponent 1 means "occurs exactly once" (linearity); 2,
printed ^*, means "may occur more than once". Elements are
downward-closed and stored by maximals. Two matchers agree: a literal
reference enumeration and the production algorithm working directly on
maximal antichains.
"""
from sharlin import (
    alpha2,
    down_closure,
    format_group,
    gamma2_contains,
    leq2,
    match2,
    match2_opt,
    match2_ref,
    match_omega,
    parse_group,
    parse_omega,
    parse_two,
)

b = parse_group("xy^2z")
print("clipping:", b, "->", format_group(b.clip(2), star=True))
print()

e = parse_two("[xy^*z]_{x,y,z}")
print("element:", e)
print("its closure:", sorted(format_group(g, star=True) for g in down_closure(e.maximals)))
for g in ("xyz", "xy^3z", "x^2yz"):
    print(f"  contains {g}?", gamma2_contains(e, parse_group(g)))
print()

t1 = parse_two("[x^*, xz]_{x,y,z}")
t2 = parse_two("[uv, ux, vx^*, x]_{u,v,x}")
print("matching", t1, "with", t2)
ref = match2_ref(t1, t2)
opt = match2(t1, t2)
print("  reference:", ref)
print("  antichain:", opt)
print("  equal:", ref == opt)
print()

raw = match2_opt(t1.maximals, t1.interest, t2.maximals, t2.interest)
print("raw maximal groups:", sorted(format_group(g, star=True) for g in raw if g))
print()
print("note vxz: choosing the delinearized vx from below vx^* is different")
print("from choosing a group twice; xz's x is linear, so vx^* enters once")
print("with its x clipped back to one occurrence.")
print()

# clipping the exact result loses nothing it should not: containment holds
mo = match_omega(
    parse_omega("[x^2, xz]_{x,y,z}"), parse_omega("[uv, ux, vx^2, x]_{u,v,x}")
)
print("clipped exact result:", alpha2(mo))
print("inside the clipped matching:", leq2(alpha2(mo), opt))

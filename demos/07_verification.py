"""Verification oracles: correctness, optimality witnesses, equivalences.

Correctness: abstract matching of abstractions covers the abstraction of
the concrete matching. Optimality: every group the abstract matcher emits
is realized by an explicitly constructed pair of substitutions, so nothing
it emits could be removed. Equivalence: the reference and production
matchers agree, and so do the direct and composed product-domain matchers.
"""
from sharlin import (
    TrialConfig,
    check_equivalences,
    check_optimality,
    parse_omega,
    render_report,
    run_correctness,
    run_optimality,
    witness_theta2,
    parse_group,
)

cfg = TrialConfig(seed=42, trials=2000)
print(render_report(run_correctness(cfg)))

cfg_small = TrialConfig(seed=7, trials=100)
for domain in ("omega", "two", "sl"):
    print(render_report(run_optimality(cfg_small, domain)))

print(render_report(check_equivalences(TrialConfig(seed=11, trials=500, max_vars=5))))

# a witness pair, spelled out: to realize u^2x^2 the second substitution
# stacks the private variable of the needed group twice
theta2 = witness_theta2({parse_group("ux"): 2}, {"u", "v", "x"})
print("second-side witness for two copies of ux:", theta2)

e1 = parse_omega("[x^2, xz]_{x,y,z}")
e2 = parse_omega("[uv, ux, vx^2, x]_{u,v,x}")
reports = check_optimality(e1, e2, "omega")
print(f"\nwitnessed groups for match({e1}, {e2}):")
for r in reports:
    if r.group:
        print(f"  {r.group}: theta1 = {r.theta1.rep}, theta2 = {r.theta2.rep}"
              f"  verified={r.verified}")

"""The abstract domains, each one module that is its own record.

The paper derives each domain's matching from the one above it through an
abstraction map, so a domain is a few operations of its own plus an
``alpha`` from the domain above: ShLin^2 (``shlin2``) abstracts
ShLin^omega (``shlin_omega``), and Sharing x Lin (``shlin_sl``)
abstracts ShLin^2. ``existential``, the concrete domain, sits above
ShLin^omega and supplies only ``parse``. A record names only what differs
between the domains; every module in ``DOMAINS`` supplies these names:

* ``parse(text)``: the element a textual form denotes;
* ``leq(e1, e2)``: the order of the domain;
* ``match(e1, e2)``: the optimal abstract matching;
* ``gen(rng, variables, cap)``: a random element over ``variables``, counts at most ``cap``;
* ``above``: the module whose elements ``alpha`` abstracts;
* ``alpha(e)``: the best abstraction of an element of ``above``;
* ``bottom(interest)``: the element approximating no substitution;
* ``amgu(e, var, term, cap, drop)``: bind ``var`` to ``term``, then project ``drop`` away.

A domain whose optimal matching is defined through the domain above, as
``alpha(above.match(gamma(e1), gamma(e2)))``, also supplies ``gamma(e)``,
the embedding into ``above`` (only ``shlin_sl``, whose elements are
stored as that embedding, so ``gamma`` re-labels them).

The operations the three domains share are ShLin^omega's, defined once in
``shlin_omega`` and bound nowhere else, since each builds through its
element's own class: ``project_omega``, ``union_omega``, ``rename_omega``,
``extend`` (fresh independent linear variables), ``join_disjoint`` (the
union over disjoint interest sets), ``clip`` (saturate counts at the
analysis cap, unless the element has a ceiling of its own) and
``groups_of`` (the textual groups, for precision diffs). Every caller
looks an operation up on its module when it calls it, a record entry on
the domain's and a shared operation on ``shlin_omega``, so rebinding a
module attribute reaches every caller. The order of ``DOMAINS`` is the
order of reports; each module comes after the one above it.
"""
from __future__ import annotations

from . import shlin2, shlin_omega, shlin_sl

__all__ = ["DOMAINS"]

DOMAINS = {"omega": shlin_omega, "two": shlin2, "sl": shlin_sl}

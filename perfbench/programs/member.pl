% list membership
member(u, [u|v]).
member(u, [v|w]) :- member(u, w).

% quicksort; part/4 splits nondeterministically (the language has no
% comparisons), which keeps every sharing path of the real predicate
app([], v, v).
app([u|v], w, [u|x]) :- app(v, w, x).
part([], u, [], []).
part([u|v], w, [u|x], y) :- part(v, w, x, y).
part([u|v], w, x, [u|y]) :- part(v, w, x, y).
qsort([], []).
qsort([u|v], w) :- part(v, u, x, y), qsort(x, x1), qsort(y, y1), app(x1, [u|y1], w).

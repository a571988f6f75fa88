% naive reverse over app/3
app([], v, v).
app([u|v], w, [u|x]) :- app(v, w, x).
nrev([], []).
nrev([u|v], w) :- nrev(v, x), app(x, [u], w).

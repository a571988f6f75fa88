% list concatenation
app([], v, v).
app([u|v], w, [u|x]) :- app(v, w, x).

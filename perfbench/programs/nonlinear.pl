% one variable five times under one functor
p(f(u, u, u, u, u)).

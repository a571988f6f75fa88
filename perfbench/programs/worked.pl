% the three-argument fact of the paper's first worked analysis
p(u, v, w).

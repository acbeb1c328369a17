% matic-repro-v1 n=4 k=2 stim=11 fault=none
% two-argument `min`/`max` with an array operand: the simulator reduced
% the first argument to a scalar and ignored the second, where
% `matic-interp` and the C backend (an `fmin`/`fmax` zip) go element-wise
% with scalar broadcast (fix: element-wise in `eval_builtin`).
function y = fz(a, b, k)
y = min(a, k) + max(k, b);
end

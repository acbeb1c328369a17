% matic-repro-v1 n=4 k=0 stim=7 fault=none
% the vectorizer's inner-loop liveness: the inner loop became a `vred`
% that leaves `t` unset, although `y = y + t` reads it on the next outer
% iteration; full optimization returned 3*sum(a) instead of 3*sum(a) + 8
% (fix: a `for` body's upward-exposed reads stay live at its end).
function y = fz(a, b, k)
y = 0;
t = 0;
for j = 1:3
  y = y + t;
  acc = 0;
  for t = 1:numel(a)
    acc = acc + a(t);
  end
  y = y + acc;
end
end

% matic-repro-v1 n=8 k=0 stim=7 fault=none
% an accumulator updated with `*` instead of `+` (`y = y * a(t)`):
% at full optimization the vectorizer's affine-index fallback followed
% the def of `y` back into itself without end and overflowed the
% stack, aborting the compiler; the loop now stays scalar.
function y = fz(a, b, k)
y = 1;
for t = 1:numel(a)
y = y * a(t);
end
end

% matic-repro-v1 n=9 k=0 stim=7 fault=none
% the loop variable read after its loop (`y = acc + 1000 * t`): at full
% optimization the vectorizer replaced the loop with a reduction that
% left no `t` behind, so the read failed with "read of unset `t`" while
% the baseline (and MATLAB) leave `t = 9`; the loop now stays scalar.
function y = fz(a, b, k)
acc = 0;
for t = 1:numel(a)
acc = acc + a(t);
end
y = acc + 1000 * t;
end

% Count X up from 0 to N, then back down to 0. X stays integral and never
% drops below 0, so the program is safe; the polyhedral analysis alone
% cannot see that and the refinement loop runs until its budget is spent.
c1. up(X, N) :- X = 0, N > 0.
c2. up(X1, N) :- up(X, N), X < N, X1 = X + 1.
c3. down(X, N) :- up(X, N), X >= N.
c4. down(X1, N) :- down(X, N), X > 0, X1 = X - 1.
c5. false :- down(X, N), X < 0.

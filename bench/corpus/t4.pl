% Loop summing two counters; the assertion A + B = 3*N at the exit is
% violated for non-integer N, so the program is unsafe over the rationals.
c1. false :- N > 0, I = 0, A = 0, B = 0, l(I, A, B, N).
c2. l(I, A, B, N) :- I < N, l_body(A, B, A1, B1), I1 = I + 1, l(I1, A1, B1, N).
c3. l(I, A, B, N) :- I >= N, A + B > 3 * N.
c4. l(I, A, B, N) :- I >= N, A + B < 3 * N.
c5. l_body(A0, B0, A1, B1) :- A1 = A0 + 1, B1 = B0 + 2.
c6. l_body(A0, B0, A1, B1) :- A1 = A0 + 2, B1 = B0 + 1.

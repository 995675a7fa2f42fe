-- Golden session transcript: replayed through one Session by
-- crates/server/tests/golden_session.rs; expected output in session.out.
-- One statement per line (a DATALOG block may span lines), as `serve`
-- reads them.
CREATE RELATION S(x, y) AS 4*x^2 - y - 20*x + 25 <= 0;
SELECT exists y (S(x, y) and y <= 0);
select forall y (S(x, y) or y <= 9);
CREATE RELATION P(x);
INSERT INTO P VALUES (1), (2), (7/2), (-1/3);
INSERT INTO P CONSTRAINT 2*x = 7;
SELECT P(x) and x >= 2;
DELETE FROM P VALUES (2);
DELETE FROM P CONSTRAINT 3*x + 1 = 0;
SELECT P(x);
CREATE RELATION Band(x);
INSERT INTO Band CONSTRAINT x >= 1 and x <= 2;
INSERT INTO Band CONSTRAINT x >= 5/2 and x <= 3;
SELECT Band(x) and x <= 1.5;
CREATE RELATION E(x, y);
INSERT INTO E VALUES (1, 2), (2, 3), (3, 4);
DATALOG {
  -- transitive closure
  T(x, y) :- E(x, y).
  T(x, y) :- T(x, z), E(z, y).   -- the recursive step
};
SELECT T(x, y) and x = 1;
INSERT INTO E VALUES (4, 5);
SELECT T(x, y) and x = 1;
DATALOG {
  -- a decimal bound, then inflationary negation
  Low(x) :- Band(x), x <= 1.5.
  High(x) :- Band(x), not Low(x).
};
SELECT Low(x);
SELECT High(x) and x >= 2;
CREATE RELATION V(x) AS P(x) and x >= 0;
INSERT INTO P VALUES (5);
SELECT V(x);
SELECT z = SURFACE[x, y]{ S(x, y) and y <= 9 };
SELECT z = MAX[x]{ Band(x) };
SELECT exp(x) <= 2 and x >= 0 and x <= 1;
SHOW RELATIONS;
DROP RELATION V;
SHOW RELATIONS;
-- Malformed statements, one per line.
SELECT x <= 1 # 2;
SELECT x <= ! 1;
SELECT exists (x <= 1);
CREATE TABLE Q(x);
CREATE RELATION Q();
INSERT INTO P VALUES (1, 2);
DELETE FROM Nope VALUES (1);
DROP RELATION Nope;
DATALOG { W(x) :- E(x y). };
DATALOG { W(x) :- E(x, y) };
INSERT INTO P VALUES (3/0);
-- Rejected before this change, accepted now (no later statement reads them).
CREATE RELATION Q(x);
INSERT INTO Q VALUES (1.5), (9223372036854775808);
DATALOG { B(x) :- P(x), not(Low(x)). };
-- Session commands: NUMERICAL EVALUATION and the finite precision
-- semantics (appended before the unterminated last line, which stays
-- last). Figure 1: the closed form, then its one solution point.
CREATE RELATION Fig1(x, y) AS 4*x^2 - y - 20*x + 25 <= 0;
SELECT exists y (Fig1(x, y) and y <= 0);
SOLVE exists y (Fig1(x, y) and y <= 0);
SOLVE Band(x);
SOLVE x^2 = 4 and y = x + 1;
SET PRECISION 3;
SELECT exists y (Fig1(x, y) and y <= 0);
INSERT INTO Q VALUES (2);
SOLVE exists y (Fig1(x, y) and y <= 0);
SOLVE x^2 = 1000;
SET PRECISION 64;
SELECT exists y (Fig1(x, y) and y <= 0);
SET PRECISION UNBOUNDED;
SET PRECISION 1.5;
-- CALC_F lowering: EVAL under negation and conjunction, analytic terms
-- and aggregates under negation, aggregate bodies with analytic bounds.
SELECT x >= -3 and x <= 3 and not EVAL[x]{ x^2 = 2 };
SELECT EVAL[x]{ x^2 = 2 or x = 1 } and x > 0;
SELECT EVAL[x]{ x = 1 or x = 2 };
SELECT x >= 0 and x <= 1 and not (y <= sin(x)) and y <= 1;
SELECT z = LENGTH[x]{ not (cos(x) < 0) and x >= 0 and x <= 3 };
SELECT z = SURFACE[x, y]{ x >= 0 and x <= 1 and y >= 0 and not (y > exp(x)) };
SELECT not (z = AVG[x]{ x >= 0 and x <= 2 }) and z >= 0 and z <= 2;
-- A `;` inside a comment does not end a command.
SELECT x >= 0
-- note;
and x <= 1;
SELECT P(x)

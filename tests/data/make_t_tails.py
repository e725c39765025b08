"""Write t_tails.csv: Student t upper tails P(T > t) computed with mpmath.

    python tests/data/make_t_tails.py

Each row is ``df,t,sf``.  ``t`` is a double written with ``repr`` (so it
reads back exactly) and ``sf`` is the exact tail at that double, computed at
50 significant digits and rounded once to the nearest double.  Every value is
checked against a second evaluation at 70 digits.  Each df also gets the
|t| whose tail is just above 1e-300; rows whose tail is below 1e-300 are left
out.  Written with mpmath 1.3.0; the tests read the table and do not need
mpmath.
"""

import csv
import math
import random
from pathlib import Path

import mpmath

DFS = [*range(1, 11), 12, 15, 20, 30, 47, 64, 100, 200, 500, 999, 1000, 10**4, 10**6]
ABS_T = [0.0, 1e-300, 1e-8, 1e-3, 0.1, 0.3, 0.5, 1.0, 1.5, 1.76, 2.0, 2.5, 3.0, 4.0, 5.0, 7.0, 10.0, 15.0, 20.0,
         30.0, 40.0, 300.0]
RANDOM_T_PER_DF = 6  # log-uniform |t| in [1e-3, 40], random sign
MIN_TAIL = 1e-300


def deep_t(df: int) -> float:
    """The |t| where x^(df/2) = e^-680, so that the tail lies just above 1e-300."""
    nu = mpmath.mpf(df)
    return float(mpmath.sqrt(nu * mpmath.expm1(680 / (nu / 2))))


def upper_tail(df: int, t: float, dps: int) -> mpmath.mpf:
    """P(T > t) = I_x(df/2, 1/2) / 2 for t > 0, x = df / (df + t²), through 2F1 series."""
    with mpmath.workdps(dps):
        tm = mpmath.mpf(t)
        if tm == 0:
            return mpmath.mpf(1) / 2
        nu = mpmath.mpf(df)
        a, h = nu / 2, mpmath.mpf(1) / 2
        x = nu / (nu + tm * tm)
        y = tm * tm / (nu + tm * tm)
        front = x**a * mpmath.sqrt(y) / mpmath.beta(a, h)
        if x < (a + 1) / (a + h + 2):  # I_x(a, 1/2) directly
            tail = front / a * mpmath.hyp2f1(a + h, 1, a + 1, x, maxterms=10**6) / 2
        else:  # 1 - I_y(1/2, a)
            tail = (1 - front / h * mpmath.hyp2f1(a + h, 1, h + 1, y, maxterms=10**6)) / 2
        return +(tail if tm > 0 else 1 - tail)


def main() -> None:
    rng = random.Random(0)
    rows = []
    for df in DFS:
        ts = [s * abs_t for abs_t in (*ABS_T, deep_t(df)) for s in (1.0, -1.0)]
        ts += [rng.choice((1.0, -1.0)) * 10 ** rng.uniform(-3.0, math.log10(40.0)) for _ in range(RANDOM_T_PER_DF)]
        for t in ts:
            if df / 2 * mpmath.log1p(mpmath.mpf(t) ** 2 / df) > 700:  # the tail is below x^(df/2) < 1e-300
                continue
            sf = upper_tail(df, t, 50)
            check = upper_tail(df, t, 70)
            assert abs(sf - check) <= mpmath.mpf("1e-40") * check, (df, t)
            if float(sf) >= MIN_TAIL:
                rows.append((df, repr(t), repr(float(sf))))
    out = Path(__file__).with_name("t_tails.csv")
    with open(out, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(("df", "t", "sf"))
        writer.writerows(rows)
    print(f"{len(rows)} rows written to {out}")


if __name__ == "__main__":
    main()

"""Reference table of the Frank copula's mutual information over |theta|.

Writes ``tests/data/frank_mutual_information.csv``: 300 log-spaced |theta|
in [1e-3, 300] (copeda's cap) and the mutual information I(theta) of a
pair coupled by Frank(theta), computed with mpmath at 30 digits from

    I(theta) = log(t / (1 - e^-t)) + 2 D1(t) - 2,    t = |theta|,

where D1(t) = (1/t) int_0^t s / (e^s - 1) ds is the first Debye function.
The formula follows from E log c(U, V) with U = h^-1(P | V): in (P, V)
the Frank density is t (1 - (1 - P)(1 - e^-tV)) (1 - P (1 - e^-t(1-V)))
/ (1 - e^-t), whose log integrates to the above.  As a check that does
not rest on that algebra, every 30th row is recomputed by a 2-D
quadrature of the log of the copula density itself over (P, V), and the
script stops if the two disagree.

I(theta) is even in theta: Frank(-theta) is the copula of (1 - U, V).
It rises strictly in t: I'(t) = (1 + g(t) - 2 D1(t)) / t with
g(s) = s / (e^s - 1), and g is strictly convex, so its mean D1(t) over
[0, t] is below (g(0) + g(t)) / 2 (Hermite-Hadamard).  copula-MIMIC ranks
its Frank links by |theta| on that ground; the tests read this table to
check it.  Needs mpmath (not a copeda dependency); about 12 s on a
2-vCPU VM.

    python scripts/frank_mutual_information.py
"""

import pathlib

import mpmath as mp

OUT = (pathlib.Path(__file__).resolve().parent.parent
       / "tests" / "data" / "frank_mutual_information.csv")
ROWS, LOW, HIGH = 300, 1e-3, 300.0
CHECK_EVERY, CHECK_RTOL = 30, 1e-10


def closed_form(t):
    debye = mp.quad(lambda s: s / mp.expm1(s) if s else mp.mpf(1), [0, t]) / t
    return mp.log(t / -mp.expm1(-t)) + 2 * debye - 2


def by_density(t):
    """E log c(U, V) over U = h^-1(P | V), with P and V uniform."""
    a = mp.exp(-t)

    def log_density(p, v):
        b = mp.exp(-t * v)
        u = -mp.log((b * (1 - p) + p * a) / (b + p * (1 - b))) / t
        d = mp.exp(-t * u) + b - mp.exp(-t * (u + v)) - a
        return mp.log(t * (1 - a)) - t * (u + v) - 2 * mp.log(d)

    with mp.workdps(15):
        return mp.quad(log_density, [0, 1], [0, 1])


def main():
    mp.mp.dps = 30
    thetas = [mp.mpf(LOW) * (mp.mpf(HIGH) / LOW) ** (mp.mpf(k) / (ROWS - 1))
              for k in range(ROWS)]
    thetas[-1] = mp.mpf(HIGH)
    rows = []
    for k, t in enumerate(thetas):
        mi = closed_form(t)
        if k % CHECK_EVERY == 0 or k == ROWS - 1:
            check = by_density(t)
            if abs(check - mi) > CHECK_RTOL * mi:
                raise SystemExit(f"theta {float(t)!r}: closed form "
                                 f"{mp.nstr(mi, 17)} against the density's "
                                 f"{mp.nstr(check, 17)}")
        rows.append((float(t), float(mi)))
    if any(b[1] <= a[1] for a, b in zip(rows, rows[1:])):
        raise SystemExit("the mutual information does not rise strictly")
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text("theta,mutual_information\n"
                   + "".join(f"{t!r},{mi!r}\n" for t, mi in rows))
    print(f"wrote {len(rows)} rows to {OUT}")


if __name__ == "__main__":
    main()

"""One bracketed root finder: ITP (Oliveira & Takahashi, ACM TOMS 47(1), 2020)
with inverse-quadratic interpolation steps.

Once a step has replaced a bracket end, the next point interpolates x as a
quadratic in f through both ends and that replaced one, if the three values
differ and the point lies inside the bracket; otherwise it is the regula
falsi point nudged toward the midpoint.  Either is then projected into a
ball around the midpoint that shrinks like bisection's worst case: any sign
change, even a jump, costs at most one evaluation more than bisection
(n0 = 1).  Near a smooth simple root the interpolation converges
superlinearly, where the truncated regula falsi step alone can spend that
one step of slack and fall back to bisection (x^3 - 2 on [0, 4]: 9
evaluations, against 51).
"""

from __future__ import annotations

import math

from .errors import NoBracket


def find_root(f, a: float, b: float, fa: float, fb: float,
              ftol: float) -> tuple[float, float]:
    """(x, f(x)) with the smallest |f| seen while shrinking [a, b].

    fa = f(a) and fb = f(b) must not share a sign (else NoBracket); nothing
    else, not even monotonicity, is assumed.  Stops once |f(x)| <= ftol or
    the bracket is four ulps wide; the caller judges the returned residual.
    """
    if not (a < b and fa * fb <= 0.0):
        raise NoBracket(f"no sign change on [{a}, {b}] "
                        f"(end values {fa:.3e}, {fb:.3e})")
    best = (a, fa) if abs(fa) <= abs(fb) else (b, fb)
    s = math.copysign(1.0, fb - fa)     # s*f(a) < 0 < s*f(b) until a zero
    eps = 2.0 * math.ulp(max(abs(a), abs(b)))
    n_max = max(math.ceil(math.log2((b - a) / (2.0 * eps))), 0) + 1
    kappa = 0.2 / (b - a)
    c = fc = None   # the bracket end the last step replaced
    for j in range(n_max):
        if abs(best[1]) <= ftol or b - a <= 2.0 * eps:
            break
        mid = 0.5 * (a + b)
        # Rounding can leave the bracket an ulp wider than the worst-case
        # envelope; a negative radius would then push x past the midpoint and
        # double that excess on every step, so project onto the midpoint.
        radius = max(eps * 2.0 ** (n_max - j) - 0.5 * (b - a), 0.0)
        x_t = None
        if c is not None and fc != fa and fc != fb:
            x_t = (a * fb * fc / ((fa - fb) * (fa - fc))
                   + b * fa * fc / ((fb - fa) * (fb - fc))
                   + c * fa * fb / ((fc - fa) * (fc - fb)))
        if x_t is None or not a < x_t < b:
            x_f = a + (b - a) * fa / (fa - fb)
            delta = kappa * (b - a) ** 2
            x_t = x_f + math.copysign(delta, mid - x_f) \
                if delta <= abs(mid - x_f) else mid
        x = x_t if abs(x_t - mid) <= radius \
            else mid + math.copysign(radius, x_t - mid)
        if not a < x < b:
            x = mid
        fx = f(x)
        if abs(fx) <= abs(best[1]):
            best = (x, fx)
        if s * fx > 0.0:
            c, fc, b, fb = b, fb, x, fx
        else:
            c, fc, a, fa = a, fa, x, fx
    return best

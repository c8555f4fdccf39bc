"""Fit the float32 GELU's Phi(x) = (1 + tanh(x h(x^2))) / 2.

h is a polynomial of degree DEGREE in u = x^2. The fit is done in
z = x / sqrt(2), where tanh(g) = erf(z) means g = atanh(erf(z)), and 1/sqrt(2)
is then folded into the coefficients so the kernel works on x directly.

A linear program (scipy's linprog, HiGHS) minimises the largest error in
Phi over z in [0, FIT_Z]. To first order an error e in g moves Phi by
e sech^2(g) / 2, so each residual carries that weight. It also requires
g >= TAIL_G on z in [4, TAIL_Z]: numpy's float32 tanh is exactly +-1 from
|g| >= 10, so Phi is then exactly 0 or 1 for |x| >= 4 sqrt(2).

The script prints the coefficients (highest power first, as
swinqa.tensor._PHI_TANH takes them). It then runs swinqa.tensor._gelu_f32
with them and prints its largest error against scipy on the +-12 grid of
tests/test_tensor.py, and whether Phi is exactly 0 or 1 for every |x| >=
4 sqrt(2), on that grid and on a log grid up to the largest float32.

Run offline: PYTHONPATH=src python3 tools/fit_gelu_phi.py
"""
from __future__ import annotations

import numpy as np
from scipy.optimize import linprog
from scipy.special import erf, erfc

from swinqa import tensor as T

DEGREE = 6
FIT_Z = 3.9
TAIL_Z = 4.6
TAIL_G = 10.05


def fit(degree: int = DEGREE) -> tuple[float, ...]:
    """Coefficients of h in x^2, highest power first, 1/sqrt(2) folded in."""
    z = np.linspace(0.0, FIT_Z, 4000)[1:]
    c = erfc(z)
    g = 0.5 * np.log((2.0 - c) / c)  # atanh(erf(z)) without cancellation
    w = 0.5 * c * (2.0 - c)  # sech^2(g) / 2 = (1 - erf^2) / 2
    powers = np.arange(degree + 1)
    basis = z[:, None] ** (2 * powers + 1)  # g(z) = sum a_k z^(2k+1)
    zt = np.linspace(4.0, TAIL_Z, 200)
    tail = zt[:, None] ** (2 * powers + 1)
    n = degree + 1
    # variables: a_0..a_degree, t; minimise t subject to |w (basis a - g)| <= t
    wb = w[:, None] * basis
    ones = np.ones((len(z), 1))
    a_ub = np.vstack([np.hstack([wb, -ones]), np.hstack([-wb, -ones]),
                      np.hstack([-tail, np.zeros((len(zt), 1))])])
    b_ub = np.concatenate([w * g, -w * g, np.full(len(zt), -TAIL_G)])
    cost = np.zeros(n + 1)
    cost[-1] = 1.0
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * (n + 1),
                  method="highs")
    if not res.success:
        raise RuntimeError(res.message)
    a = res.x[:n]
    folded = a * np.sqrt(0.5) ** (2 * powers + 1)  # z = x / sqrt(2)
    return tuple(float(v) for v in folded[::-1])


def main() -> None:
    coeffs = fit()
    print(f"degree {DEGREE} in x^2, fit on z in [0, {FIT_Z}], "
          f"g >= {TAIL_G} on z in [4, {TAIL_Z}]")
    print("_PHI_TANH = (")
    for c in coeffs:
        print(f"    {c!r},")
    print(")")
    T._PHI_TANH = coeffs  # measure the fit through the float32 kernel itself
    x = np.linspace(-12.0, 12.0, 2_000_001, dtype=np.float32)
    phi = np.empty_like(x)
    T._gelu_f32(x, phi=phi)
    exact = 0.5 * (1.0 + erf(x.astype(np.float64) / np.sqrt(2.0)))
    print(f"float32 max |Phi - scipy| on [-12, 12]: {np.abs(phi - exact).max():.3e}")
    tails = np.abs(x) >= 4.0 * np.sqrt(2.0)
    print("tails exact:", bool(np.array_equal(phi[tails], (x[tails] > 0).astype(np.float32))))
    far = np.geomspace(4.0 * np.sqrt(2.0), float(np.finfo(np.float32).max), 1_000_000)
    far = np.concatenate([-far, far]).astype(np.float32)
    phi = np.empty_like(far)
    T._gelu_f32(far, phi=phi)
    print("tails exact up to the largest float32:",
          bool(np.array_equal(phi, (far > 0).astype(np.float32))))


if __name__ == "__main__":
    main()

"""Benchmark problems with known exact solutions."""

from dataclasses import dataclass

import numpy as np

SOLITON = "soliton"
PLANE_WAVE = "planewave"


def sech(x):
    with np.errstate(over="ignore"):   # cosh overflows to inf for |x| > ~710; 1/inf is 0
        return 1.0 / np.cosh(x)


@dataclass(frozen=True)
class Problem:
    """Initial data plus (optionally) the exact solution and its gradient."""

    name: str
    a: float
    b: float
    kappa: float
    q: float
    u0: callable                 # x -> complex, vectorized in x (a constant may return a scalar)
    exact: callable = None       # (x, t) -> complex, vectorized in x
    exact_grad: callable = None


def soliton(a=-20.0, b=20.0, kappa=2.0, q=3.0):
    """Cubic focusing benchmark: u = sech(x + 4t) exp(i(2x + 3t)).

    Solves i u_t - u_xx - 2|u|^2 u = 0 (kappa=2, q=3); the initial profile
    sech(x) e^{2ix} travels left with unchanged shape.  Any other (kappa, q)
    keeps the initial profile and has no exact solution.
    """
    def u0(x):
        return sech(x) * np.exp(2j * x)

    def exact(x, t):
        return sech(x + 4.0 * t) * np.exp(1j * (2.0 * x + 3.0 * t))

    def exact_grad(x, t):
        return (2j - np.tanh(x + 4.0 * t)) * exact(x, t)

    if (kappa, q) != (2.0, 3.0):
        return Problem(name=SOLITON, a=a, b=b, kappa=kappa, q=q, u0=u0)
    return Problem(name=SOLITON, a=a, b=b, kappa=kappa, q=q,
                   u0=u0, exact=exact, exact_grad=exact_grad)


def plane_wave(kappa=0.0, q=3.0, a=0.0, b=1.0):
    """Progressive wave u = exp(i(beta x + omega t)) with |u| = 1.

    Substituting into i u_t - u_xx - f(|u|^2) u = 0 gives
    omega = beta^2 - f(1); kappa = 0 is the free-particle case.
    """
    beta = 2.0 * np.pi / (b - a)
    f_one = kappa  # f(1) = kappa * 1^((q-1)/2)
    omega = beta ** 2 - f_one

    def u0(x):
        return np.exp(1j * beta * x)

    def exact(x, t):
        return np.exp(1j * (beta * x + omega * t))

    def exact_grad(x, t):
        return 1j * beta * exact(x, t)

    return Problem(name=PLANE_WAVE, a=a, b=b, kappa=kappa, q=q,
                   u0=u0, exact=exact, exact_grad=exact_grad)

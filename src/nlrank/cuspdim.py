"""Dimensions of vector-valued cusp forms and the Picard-number identity.

The dimension of S_{k,M} for half-integral k > 2 comes from Riemann-Roch
on the modular curve: a main term d*(k+5)/12 on the plus/minus eigenspace
rank, elliptic corrections at the order-4 and order-6 points expressed
through quadratic Gauss sums of the discriminant form, and a parabolic
correction from the T-eigenvalues.  All are read from the histogram of the
discriminant form's q-values plus its elements with 2*gamma = 0: exact
integer sums except the three Gauss sums, which are float sums of
counts * e(j*v/N) over the distinct values v only; the value is snapped to
an integer.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    BadSignature,
    HypothesisNotAsserted,
    SnapFailure,
    WeightTooSmall,
)
from .lattices import DiscriminantForm, Lattice, discriminant_form, signature

SNAP_TOL = 1e-6

_U_GRAM = ((0, 1), (1, 0))


@dataclass(frozen=True)
class CuspDimReport:
    k: Fraction
    d: int
    dim: int
    parity_ok: bool
    symmetric: bool | None
    boundary_terms: dict = field(default_factory=dict)

    def to_json(self) -> str:
        obj = {
            "k": [self.k.numerator, self.k.denominator],
            "d": self.d,
            "dim": self.dim,
            "parity_ok": self.parity_ok,
            "symmetric": self.symmetric,
            "boundary_terms": self.boundary_terms,
        }
        return json.dumps(obj, sort_keys=True)


def dim_cusp_df(df: DiscriminantForm, k: Fraction) -> CuspDimReport:
    """Riemann-Roch dimension of cusp forms of weight k and type rho.

    Valid for k > 2.  Weights whose parity is incompatible with the
    representation give a flagged zero, not an error.
    """
    k = Fraction(k)
    if k.denominator not in (1, 2):
        raise ValueError(f"weight must be half-integral, got {k}")
    if k <= 2:
        raise WeightTooSmall(f"formula needs weight > 2, got {k}")
    two_k = (2 * k).numerator

    parity = (two_k + df.sig_mod_8) % 4
    if parity == 0:
        symm = True
    elif parity == 2:
        symm = False
    else:
        return CuspDimReport(
            k=k, d=df.cardinality, dim=0, parity_ok=False, symmetric=None
        )
    eps = 1 if symm else -1

    d = df.cardinality
    n = df.level
    sqrt_d = math.sqrt(d)
    sig = df.sig_mod_8

    # one representative of each pair {gamma, -gamma}: as q(-gamma) = q(gamma),
    # that is half the full-group sum, plus or minus half the sum over the
    # elements with 2*gamma = 0 (those only carry symmetric forms); the
    # full-group sums are read from the histogram of q-values
    values, counts = df.q_histogram  # n * q(gamma)/2 mod n, values[0] = 0
    q_two = df.qn[df.two_torsion]
    rank_pm = (d + eps * len(q_two)) // 2
    # -v mod n is n - v for every value but values[0] = 0
    alpha_t = Fraction(
        int(counts[1:] @ (n - values[1:])) + eps * int((-q_two % n).sum()), 2 * n
    )
    n_iso = (int(counts[0]) + eps * int(np.count_nonzero(q_two == 0))) // 2

    # G(j) = sum of e(j*q/2) over A as sums of counts * z^j, z = e(v/n) at
    # the distinct values v only
    z = np.exp((2j * math.pi / n) * values)
    wz = counts * z
    wz2 = wz * z
    g1 = complex(wz.sum())
    g2 = complex(wz2.sum())
    g2_part = g2.real if symm else g2.imag
    g3 = complex(wz2 @ z).conjugate()

    main = rank_pm * (k + 5) / 12
    e4 = cmath.exp(1j * cmath.pi * (two_k + sig + 1 - eps) / 4)
    term_e4 = (e4 * g2_part).real / (4 * sqrt_d)
    e6 = cmath.exp(1j * cmath.pi * (3 * sig + 2 * two_k - 10) / 12)
    term_e6 = ((e6 * (g1 + eps * g3)).real) / (3 * math.sqrt(3) * sqrt_d)

    value = float(main) + term_e4 - float(alpha_t) - term_e6 - n_iso
    dim = round(value)
    if abs(value - dim) > SNAP_TOL:
        raise SnapFailure(f"dimension {value} is not within {SNAP_TOL} of an integer")
    if dim < 0:
        raise SnapFailure(f"negative dimension {dim} from Riemann-Roch")
    return CuspDimReport(
        k=k,
        d=d,
        dim=dim,
        parity_ok=True,
        symmetric=symm,
        boundary_terms={
            "rank_pm": rank_pm,
            "main": float(main),
            "elliptic_order4": term_e4,
            "elliptic_order6": -term_e6,
            "parabolic": -float(alpha_t),
            "isotropic": -n_iso,
            "raw_value": value,
        },
    )


def dim_cusp(lat: Lattice, k: Fraction) -> CuspDimReport:
    return dim_cusp_df(discriminant_form(lat), k)


def picard_rank_via_cusp(lat: Lattice, *, split_asserted: bool = False) -> int:
    """1 + dim S_{m/2, M} for an even lattice M of signature (p, 2).

    Requires the hermitian slot of the signature to be 2 and the U + U(N)
    orthogonal splitting hypothesis.  The hypothesis is taken as shown when
    at least two orthogonal blocks of the Gram matrix are exactly
    U = ((0, 1), (1, 0)), as in every catalog Lambda_g; otherwise the caller
    must assert it with split_asserted=True.  The lattice's name is not read.
    """
    sig = signature(lat)
    if sig.positive != 2:
        raise BadSignature(
            f"need signature (2, p); lattice has ({sig.positive}, {sig.negative})"
        )
    known_split = sum(sub == _U_GRAM for _, sub in lat.blocks) >= 2
    if not (split_asserted or known_split):
        raise HypothesisNotAsserted(
            "caller must assert the U + U(N) orthogonal splitting"
        )
    m = lat.rank
    report = dim_cusp(lat, Fraction(m, 2))
    return 1 + report.dim

"""Dimensions of vector-valued cusp forms and the Picard-number identity.

The dimension of S_{k,M} for half-integral k > 2 comes from Riemann-Roch
on the modular curve: a main term d*(k+5)/12 on the plus/minus eigenspace
rank, elliptic corrections at the order-4 and order-6 points expressed
through quadratic Gauss sums of the discriminant form, and a parabolic
correction from the T-eigenvalues.  All are read from one streamed pass
over the discriminant form's q-values (`DiscriminantForm.qn_slices`, a
bounded slice at a time) plus its elements with 2*gamma = 0: running
integer sums for the zero count and the sum of the values, and float sums
of e(j*v/N), j = 1, 2, 3, for the three Gauss sums, with the roots read
from the form's `roots`.  No array as long as the group is built, so memory
does not grow with |A|.  Only the fractional part of the exact terms plus
the two bounded elliptic terms is a float, snapped to an integer, so the
dimension is exact at any weight.  Nothing here comes from the closed form.

The forms counted are of type rho* = conj(rho), the dual of the Weil
representation rho that `nlrank.weil` builds, as in Bruinier's treatment
of lattices of signature (2, n).  The convention matters: with rho in place
of rho*, the eigenvalue form of the same formula gives wrong dimensions for
most forms and weights.
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
    """Riemann-Roch dimension of cusp forms of weight k and type rho*.

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
    # elements with 2*gamma = 0 (those only carry symmetric forms).  qn_at
    # raises TooLarge here, before anything is enumerated, for a group whose
    # q-values overflow int64
    q_two = df.qn_at(df.two_torsion).tolist()  # n * q(gamma)/2 mod n
    rank_pm = (d + eps * len(q_two)) // 2

    # the full-group sums, streamed: the zero count, the sum of the values,
    # and G(j) = sum of e(j*q/2) over A for j = 1, 2, 3
    roots = df.roots
    zeros = total = 0
    g1 = g2 = g3 = 0j
    for v in df.qn_slices():
        zeros += len(v) - int(np.count_nonzero(v))
        total += int(v.sum())
        z = roots(v)
        g1 += z.sum()
        g2 += z @ z  # numpy's dot does not conjugate: the sum of z^2
        g3 += (z * z) @ z
    # -v mod n is n - v for every value but 0
    alpha_num = n * (d - zeros) - total + eps * sum(-x % n for x in q_two)  # over 2n
    n_iso = (zeros + eps * q_two.count(0)) // 2
    g1, g2, g3 = complex(g1), complex(g2), complex(g3).conjugate()
    g2_part = g2.real if symm else g2.imag

    # the phases' exponents are reduced as integers, so exp never sees a
    # large argument
    e4 = cmath.exp(1j * cmath.pi * ((two_k + sig + 1 - eps) % 8) / 4)
    term_e4 = (e4 * g2_part).real / (4 * sqrt_d)
    e6 = cmath.exp(1j * cmath.pi * ((3 * sig + 2 * two_k - 10) % 24) / 12)
    term_e6 = ((e6 * (g1 + eps * g3)).real) / (3 * math.sqrt(3) * sqrt_d)

    # main - alpha_t - n_iso in integers over one denominator, main being
    # rank_pm * (2k + 10)/24 = main_num/den: only the fractional part meets floats
    den = math.lcm(24, 2 * n)
    main_num = rank_pm * (two_k + 10) * (den // 24)
    whole, rest = divmod(main_num - alpha_num * (den // (2 * n)) - n_iso * den, den)
    x = rest / den + term_e4 - term_e6
    residual = abs(x - round(x))
    if residual > SNAP_TOL:
        raise SnapFailure(f"dimension {whole} + {x} is {residual} from an integer")
    dim = whole + round(x)
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
            "main": main_num / den,
            "elliptic_order4": term_e4,
            "elliptic_order6": -term_e6,
            "parabolic": -alpha_num / (2 * n),
            "isotropic": -n_iso,
            "raw_value": whole + x,
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

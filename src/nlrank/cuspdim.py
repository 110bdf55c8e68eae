"""Dimensions of vector-valued cusp forms and the Picard-number identity.

The dimension of S_{k,M} for half-integral k > 2 comes from Riemann-Roch
on the modular curve: a main term d*(k+5)/12 on the plus/minus eigenspace
rank, elliptic corrections at the order-4 and order-6 points expressed
through quadratic Gauss sums of the discriminant form, and a parabolic
correction from the T-eigenvalues.  Every term is even under
gamma -> -gamma, as q(-gamma) = q(gamma), so all are read from one streamed
walk over half the discriminant group (`DiscriminantForm.half_walk`, a
bounded slice at a time): one element of each pair {gamma, -gamma} with
gamma != -gamma, then each element with 2*gamma = 0 once.  It keeps
running integer sums for the zero count and the sum of the values, and
float sums of e(j*v/N), j = 1, 2, 3, for the three Gauss sums, with the
roots read from the form's `roots`; a full-group sum is twice the walk's
minus that of the 2-torsion.  No array as long as the group is built, so
memory does not grow with |A|.  Only the fractional part of the exact terms
plus the two bounded elliptic terms is a float, snapped to an integer, so
the dimension is exact at any weight.  Nothing here comes from the closed form.

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
    # |x - round(x)| of the one float that is snapped (see `dim_cusp_df`),
    # 0 when nothing is; not part of `to_json`
    snap_residual: float = 0.0

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

    # every term is even under gamma -> -gamma, as q(-gamma) = q(gamma), so
    # the sums run over one element of each pair {gamma, -gamma} with
    # gamma != -gamma plus the set T of gamma = -gamma (`half_walk`, which
    # puts T last and raises TooLarge before its first slice); a full-group
    # sum S(A) is then 2*S(walk) - S(T).  Streamed: the zero count, the sum
    # of the values and G(j) = sum of e(j*q/2), j = 1, 2, 3
    roots = df.roots
    zeros = total = 0
    g1 = g2 = g3 = 0j
    two = []  # n * q(gamma)/2 mod n on T
    for index, n_two in df.half_walk():
        v = df.qn_at(index)
        zeros += len(v) - int(np.count_nonzero(v))
        total += int(v.sum())
        z = roots(v)
        g1 += z.sum()
        g2 += z @ z  # numpy's dot does not conjugate: the sum of z^2
        g3 += (z * z) @ z
        if n_two:
            two += v[len(v) - n_two :].tolist()
    # on T, q(gamma) is in Z/2 (4q(gamma) = q(2*gamma) = 0 mod 2), so
    # e(v/n) = i^m with m = 4v/n, and S(T) of each G(j) is exact
    quarter = [4 * x // n for x in two]
    c0, c1, c2, c3 = (quarter.count(m) for m in range(4))
    zeros = 2 * zeros - c0
    total = 2 * total - sum(two)
    g1 = 2 * complex(g1) - complex(c0 - c2, c1 - c3)
    g2 = 2 * complex(g2) - (c0 - c1 + c2 - c3)
    g3 = (2 * complex(g3) - complex(c0 - c2, c3 - c1)).conjugate()
    # the 2-torsion only carries symmetric forms
    rank_pm = (d + eps * len(two)) // 2
    # -v mod n is n - v for every value but 0
    alpha_num = n * (d - zeros) - total + eps * sum(-x % n for x in two)  # over 2n
    n_iso = (zeros + eps * c0) // 2
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
        snap_residual=residual,
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

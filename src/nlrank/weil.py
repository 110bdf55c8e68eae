"""Weil representation of Mp2(Z) on the group ring of a discriminant form.

The standard generators act on C[A] as three operators, none of them held
as a matrix, each read from the form's int64 kernel:

- rho(T) is diagonal with entries e(q(gamma)/2), the form's `qroots`
  (its `roots` at its `qn`);
- rho(Z) = rho(S)^2 sends e_gamma to e(-sig/4) e_{-gamma} (`neg_index`);
- rho(S) is a discrete Fourier transform over A = Z/d_1 + ... + Z/d_m.  As
  b(gamma, delta) = sum_j delta_j * xi(gamma)_j / d_j mod 1 with
  xi(gamma)_j = sum_i gamma_i * b(g_i, g_j) * d_j mod d_j,
  (rho(S) v)(gamma) is e(-sig/8)/sqrt(|A|) times the DFT of v over A,
  read at xi(gamma) (`dual_index`).  That DFT is the tensor product of the
  cyclic factors' DFTs (Strömberg, Weil representations associated with
  finite quadratic modules, Math. Z. 2013), applied one factor at a time,
  first to last, each on a 2-D view with that factor's axis last: a factor
  of order d <= MATMUL_MAX_ORDER is one matrix product with its d x d DFT
  matrix, e(-ij/d) from the form's `roots`, and a larger one is one 1-D
  `numpy.fft.fft` along that axis (see `WeilRep._s_rows`).

Applying rho(S) costs O(|A| * (sum of the small orders + sum of log d over
the large ones)) time and the operators O(|A| * ngens) memory, so the
group's order is bounded by memory alone.  The metaplectic relations are
checked on a fixed set of probe vectors with four applications of rho(S),
(ST)^3 = S^2 in the equivalent form TSTST = S (see `verify_relations`).
The form's int64 arrays are built once per form, and a group too large for
int64 is refused before any of them (`build_weil_rep`).  rho(T)'s
diagonal is the form's `qroots`, read from its `roots` tables at the exact
integers `qn` = N*q(gamma)/2 mod N, N the level.  So T^N = 1 holds exactly
and rho(T)'s eigenvalue content is the histogram of `qn`; the float check
of T measures how far each diagonal entry sits from an e(q(gamma)/2)
computed by `numpy.exp`, without the tables.  Like the cusp dimension,
this module imports nothing from the closed form.  Complex double
precision throughout.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattices import DiscriminantForm, Lattice, discriminant_form

# the probes: PROBE_RANDOM random unit vectors drawn from PROBE_SEED, then
# the basis vectors e_0, e_{d//2} and e_{d-1}
PROBE_SEED = 20130101
PROBE_RANDOM = 4

# a cyclic factor of order up to this is applied by one matrix product with
# its DFT matrix, a larger one by one 1-D FFT.  Applications of rho(S) to
# the seven probes as rows (`WeilRep._s_rows`), in us, minimum of repeats
# (one BLAS thread, 2-core shared Xeon); the last column is the one-off
# cost of building the form's DFT matrix of the largest order:
#
#     form          products   FFTs   matrix
#     U(16)             34.6   52.7     13.8
#     U(24)             47.0   55.1     11.3
#     U(32)             88.3   95.8     16.4
#     U(36)            113.2  111.6     18.0
#     U(40)            164.2  180.5     24.0
#     U(48)            367.7  351.1     37.9
#     U(56)            526.5  456.1     33.8
#     U(2)+<36>+E8      26.2   34.2     18.0
#     <24>               5.6    8.7     12.1
#     <36>               6.4    9.4     19.2
#
# On U(N) products win through N = 32 and the two ways tie at 36; from 40
# on the winner changed between runs, and FFTs won at 56 every time.  With
# small factors before it, a factor of order 36 is a quarter faster by
# products.  A lone cyclic factor saves about 3 us per application, so
# from order 24 on its matrix costs about what the four applications of
# `verify_relations` save
MATMUL_MAX_ORDER = 36


@dataclass(frozen=True)
class WeilRep:
    """rho(T), rho(S) and rho(Z) on C[A], basis in the form's `elements()` order.

    The `apply_*` methods take a vector of length |A|, or an (|A|, m) array
    whose columns are vectors, and return the image in the same shape.
    """

    df: DiscriminantForm
    # diagonal of rho(T): e(q(gamma)/2)
    t_diag: np.ndarray
    # for each gamma, the flat index of xi(gamma) in the DFT's output
    xi: np.ndarray
    # e(-sig/8)/sqrt(|A|)
    s_phase: complex
    # e(-sig/4)
    z_phase: complex

    @property
    def dimension(self) -> int:
        return self.df.cardinality

    @property
    def level(self) -> int:
        return self.df.level

    @cached_property
    def dft_matrices(self) -> dict[int, np.ndarray]:
        """The d x d DFT matrix e(-ij/d) of each distinct order d of the
        form up to MATMUL_MAX_ORDER: the form's `roots` on one row,
        e(j/d) = roots(j * N/d), read at -ij mod d."""
        n, mats = self.level, {}
        for d in self.df.orders:
            if d <= MATMUL_MAX_ORDER and d not in mats:
                i = np.arange(d)
                mats[d] = self.df.roots(i * (n // d))[-np.outer(i, i) % d]
        return mats

    def apply_t(self, v: np.ndarray) -> np.ndarray:
        return self.t_diag.reshape((-1,) + (1,) * (v.ndim - 1)) * v

    def apply_s(self, v: np.ndarray) -> np.ndarray:
        return self._s_rows(v.reshape(self.dimension, -1).T).T.reshape(v.shape)

    def _s_rows(self, f: np.ndarray) -> np.ndarray:
        """rho(S) on each row of an (m, |A|) array, as a new C-ordered one.

        The DFT over A runs one cyclic factor at a time.  A cyclic form's
        one factor runs along the rows.  Otherwise the array is read as
        (|A|, m), with axes (d_1, ..., d_k, m) (no copy when f is the
        transpose of a C-ordered array), and each step views it as
        (d_j, rest), transposed to (rest, d_j), and transforms along that
        last axis: one matrix product with the factor's DFT matrix
        (symmetric, so no transpose of it is needed) or one 1-D FFT.  A
        product writes a fresh C-ordered (rest, d_j) array, which moves the
        factor's axis to the end; an FFT's output keeps its input's strides,
        and the next reshape copies it to C order.  So after k steps the
        axes are (m, d_1, ..., d_k) again.  One gather along the rows at xi
        ends it.
        """
        mats, orders = self.dft_matrices, self.df.orders
        if len(orders) == 1:
            (d,) = orders
            f = f @ mats[d] if d in mats else np.fft.fft(f, axis=1)
        elif orders:
            f = np.ascontiguousarray(f.T)
            for d in orders:
                f = f.reshape(d, -1).T
                f = f @ mats[d] if d in mats else np.fft.fft(f, axis=1)
            f = f.reshape(-1, self.dimension)
        out = np.take(f, self.xi, axis=1)
        out *= self.s_phase
        return out

    def apply_z(self, v: np.ndarray) -> np.ndarray:
        return self.z_phase * v[self.df.neg_index]


def build_weil_rep(df: DiscriminantForm) -> WeilRep:
    """The three operators of the Weil representation on C[A].

    `qroots` comes first, and reads `qn` before the form's `roots` tables,
    so a group too large for int64 raises TooLarge (see
    `DiscriminantForm.check_int64`) before any array of |A| entries.
    """
    return WeilRep(
        df=df,
        t_diag=df.qroots,
        xi=df.dual_index,
        s_phase=cmath.exp(-2j * cmath.pi * df.sig_mod_8 / 8) / math.sqrt(df.cardinality),
        z_phase=cmath.exp(-2j * cmath.pi * df.sig_mod_8 / 4),
    )


def weil_rep_of(lat: Lattice) -> WeilRep:
    return build_weil_rep(discriminant_form(lat))


def _max_abs(m: np.ndarray) -> float:
    return float(np.abs(m).max(initial=0.0))


def _probes(d: int) -> np.ndarray:
    """The (d, PROBE_RANDOM + 3) probe vectors, the same on every call.

    The random ones have real and imaginary parts uniform in [-1/2, 1/2)
    before normalising, from splitmix64 (Steele, Lea and Flood, 2014) of
    PROBE_SEED + i * 0x9E3779B97F4A7C15: integer operations only, so the same
    on every machine, and no numpy.random, whose import takes longer than
    a whole check of a small form.  The integer steps run in place.
    """
    n = d * PROBE_RANDOM
    z = np.arange(1, 2 * n + 1, dtype=np.uint64)
    shifted = np.empty_like(z)
    z *= 0x9E3779B97F4A7C15
    z += PROBE_SEED
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(z, shift, out=shifted)
        z ^= shifted
        z *= mult
    np.right_shift(z, 31, out=shifted)
    z ^= shifted
    z >>= 11
    u = np.multiply(z, 2.0**-53)
    u -= 0.5
    p = np.zeros((d, PROBE_RANDOM + 3), dtype=complex)
    rand = p[:, :PROBE_RANDOM]
    rand.real = u[:n].reshape(d, PROBE_RANDOM)
    rand.imag = u[n:].reshape(d, PROBE_RANDOM)
    rand /= np.linalg.norm(rand, axis=0)
    for col, row in enumerate((0, d // 2, d - 1), start=PROBE_RANDOM):
        p[row, col] = 1.0
    return p


@dataclass(frozen=True)
class RelationReport:
    maxErrS2Z: float
    maxErrST3: float
    maxErrTN: float
    maxErrUnitary: float
    maxErrZSwap: float
    level: int
    passed: bool


def verify_relations(w: WeilRep, tol: float = 1e-9) -> RelationReport:
    """Check the Mp2(Z) presentation on the operators.

    S^2 = Z, (ST)^3 = S^2, S unitary as <Su, Sv> = <u, v>, and S^2 moving
    the weight at -gamma to gamma with modulus kept (the Z-swap) are each
    checked on the columns of `_probes` and report the largest entry of the
    residual.  (ST)^3 = S^2 reads S(TSTST) = S(S); S is invertible, so
    multiplying both sides by S^-1 on the left shows it holds exactly when
    TSTST = S.  It is checked in that form, as t*S(t*S(t*p)) against the
    Sp that the unitarity and S^2 = Z checks need anyway, so the whole
    check applies rho(S) four times, not five.  Its residual `maxErrST3`
    has the entries of a difference of two vectors like Sp, on the scale
    1/sqrt(|A|) for a basis probe, where (ST)^3 p - S^2 p has entries of
    size 1: at Lambda_100000 it reads 4.4e-17 where (ST)^3 p - S^2 p reads
    5.8e-16.  T^N = 1, N the level, holds exactly for the exponents `qn`,
    so `maxErrTN` checks the floats: the largest |t(gamma) - e(q(gamma)/2)|
    over the diagonal, with e(q(gamma)/2) = exp(2 pi i qn/N) by `numpy.exp`
    rather than the form's `roots` tables.  Unscaled, it stays a few ulps
    of 2 pi at every level (1.0e-15 at Lambda_100000), and an entry moved
    onto another N-th root of unity reads as far off as one moved anywhere
    else.  It is taken before the probes exist, so it adds nothing to the
    peak below.

    The probes, Sp, S^2 p and p at -gamma, with the moduli of the last two
    (half as large, as reals), or two applications of rho(S) in flight:
    the check holds at most five (|A|, 7) complex arrays' worth of memory
    at once.  Reports errors, never raises.
    """
    err_tn = _max_abs(w.t_diag - np.exp((2j * np.pi / w.level) * w.df.qn))
    # the probes as the rows of a (7, |A|) array, so that rho(T), the
    # gathers and a cyclic form's transform run along contiguous rows
    p = np.ascontiguousarray(_probes(w.dimension).T)
    sp = w._s_rows(p)
    err_unitary = _max_abs(sp.conj() @ sp.T - p.conj() @ p.T)
    s2p = w._s_rows(sp)
    zp = np.take(p, w.df.neg_index, axis=1)
    modulus = np.abs(s2p)
    modulus -= np.abs(zp)
    err_swap = _max_abs(modulus)
    zp *= w.z_phase
    s2p -= zp
    err_s2z = _max_abs(s2p)
    del s2p, zp, modulus  # before TSTST holds two arrays of its own
    # TSTST p, in place on p, which no other check reads any more
    for _ in range(2):
        p *= w.t_diag
        p = w._s_rows(p)
    p *= w.t_diag
    p -= sp
    err_st3 = _max_abs(p)
    passed = all(
        e < tol for e in (err_s2z, err_st3, err_tn, err_unitary, err_swap)
    )
    return RelationReport(
        maxErrS2Z=err_s2z,
        maxErrST3=err_st3,
        maxErrTN=err_tn,
        maxErrUnitary=err_unitary,
        maxErrZSwap=err_swap,
        level=w.level,
        passed=passed,
    )


@dataclass(frozen=True)
class TraceReport:
    trT: complex
    trS: complex
    trST: complex
    level: int
    # multiplicity of each N-th root of unity e(k/N) on the diagonal of
    # rhoT, N = level, keyed by the integer exponent k in [0, N): the
    # histogram of the form's `qn`
    eigT_multiplicities: dict[int, int]


def traces(w: WeilRep) -> TraceReport:
    """Traces of T, S, ST and the exact eigenvalue content of rho(T).

    The diagonal of rho(S) is e(-sig/8)/sqrt(|A|) * e(-q(gamma)), the
    square of the conjugate of rho(T)'s diagonal times the phase.  The
    eigenvalue content is one `np.bincount` of the form's exact exponents
    `qn` in [0, N), N the level: e(k/N) occurs once for each gamma with
    N*q(gamma)/2 = k mod N.
    """
    n = w.level
    z = w.t_diag
    counts = np.bincount(w.df.qn, minlength=n)
    keys = np.flatnonzero(counts)
    s_diag = w.s_phase * z.conj() ** 2
    return TraceReport(
        trT=complex(z.sum()),
        trS=complex(s_diag.sum()),
        trST=complex(s_diag @ z),
        level=n,
        eigT_multiplicities=dict(zip(keys.tolist(), counts[keys].tolist())),
    )

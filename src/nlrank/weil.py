"""Weil representation of Mp2(Z) on the group ring of a discriminant form.

The standard generators act on C[A] as three operators, none of them held
as a matrix, each read from the form's int64 kernel:

- rho(T) is diagonal with entries e(q(gamma)/2), the form's `roots` at its
  `qn`;
- rho(Z) = rho(S)^2 sends e_gamma to e(-sig/4) e_{-gamma} (`neg_index`);
- rho(S) is a discrete Fourier transform over A = Z/d_1 + ... + Z/d_m.  As
  b(gamma, delta) = sum_j delta_j * xi(gamma)_j / d_j mod 1 with
  xi(gamma)_j = sum_i gamma_i * b(g_i, g_j) * d_j mod d_j,
  (rho(S) v)(gamma) is e(-sig/8)/sqrt(|A|) times the DFT of v over A,
  read at xi(gamma) (`dual_index`).  That DFT is the tensor product of the
  cyclic factors' DFTs (Strömberg, Weil representations associated with
  finite quadratic modules, Math. Z. 2013), applied one factor at a time,
  last to first: a factor of order d <= MATMUL_MAX_ORDER is one matrix
  product of its d x d DFT matrix, e(-ij/d) from the form's `roots`, over
  the (prod(orders[:j]), d, -1) view, and a larger one is one 1-D
  `numpy.fft.fft` along that axis.

Applying rho(S) costs O(|A| * (sum of the small orders + sum of log d over
the large ones)) time and the operators O(|A| * ngens) memory, so the
group's order is bounded by memory alone.  The metaplectic relations are
checked on a fixed set of probe vectors (see `verify_relations`).  T^N = 1
is checked, and the traces' eigenvalue content read, from one comparison of
rho(T)'s diagonal with the N-th roots of unity e(q(gamma)/2) from the same
`roots` (`WeilRep.t_snap`), whose residual does not grow with N.  Like the cusp dimension, this module imports nothing
from the closed form.  Complex double precision throughout; every
downstream consumer snaps to roots of unity or integers.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SnapFailure
from .lattices import DiscriminantForm, Lattice, discriminant_form

# how far a diagonal entry of rho(T) may sit from its N-th root of unity
# e(q(gamma)/2) before `traces` raises SnapFailure
T_SNAP_TOL = 1e-6

# the probes: PROBE_RANDOM random unit vectors drawn from PROBE_SEED, then
# the basis vectors e_0, e_{d//2} and e_{d-1}
PROBE_SEED = 20130101
PROBE_RANDOM = 4

# a cyclic factor of order up to this is applied by one matrix product with
# its DFT matrix, a larger one by one 1-D FFT.  The crossover, timing whole
# applications of rho(S) to the seven probes on U(N) (one BLAS thread,
# 2-core Xeon): products took 26, 34, 39, 48, 62 and 71 us at N = 14, 16, ...,
# 24, FFTs 34, 37, 45, 48, 59 and 62 us.  With fewer slices before the
# factor the product wins further, but by less: on U(2)+<36>+E8 the two
# ways tie
MATMUL_MAX_ORDER = 20


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
    def t_snap(self) -> tuple[np.ndarray, np.ndarray]:
        """rho(T)'s diagonal against its N-th roots of unity, N the level:
        k = the form's `qn` and dist = |t(gamma) - e(k/N)| by the form's `roots`."""
        k = self.df.qn
        return k, np.abs(self.t_diag - self.df.roots(k))

    @cached_property
    def dft_matrices(self) -> dict[int, np.ndarray]:
        """The d x d DFT matrix e(-ij/d) of each distinct order d of the
        form up to MATMUL_MAX_ORDER, the form's `roots` at (-ij mod d) * (N/d)."""
        n, mats = self.level, {}
        for d in self.df.orders:
            if d <= MATMUL_MAX_ORDER and d not in mats:
                i = np.arange(d)
                mats[d] = self.df.roots(-np.outer(i, i) % d * (n // d))
        return mats

    def apply_t(self, v: np.ndarray) -> np.ndarray:
        return self.t_diag.reshape((-1,) + (1,) * (v.ndim - 1)) * v

    def apply_s(self, v: np.ndarray) -> np.ndarray:
        mats, f, pre = self.dft_matrices, v, self.dimension
        for d in reversed(self.df.orders):
            pre //= d
            f = f.reshape(pre, d, -1)
            f = np.matmul(mats[d], f) if d in mats else np.fft.fft(f, axis=1)
        return self.s_phase * f.reshape(v.shape)[self.xi]

    def apply_z(self, v: np.ndarray) -> np.ndarray:
        return self.z_phase * v[self.df.neg_index]


def build_weil_rep(df: DiscriminantForm) -> WeilRep:
    """The three operators of the Weil representation on C[A]."""
    return WeilRep(
        df=df,
        t_diag=df.roots(df.qn),
        xi=df.dual_index,
        s_phase=cmath.exp(-2j * cmath.pi * df.sig_mod_8 / 8) / math.sqrt(df.cardinality),
        z_phase=cmath.exp(-2j * cmath.pi * df.sig_mod_8 / 4),
    )


def weil_rep_of(lat: Lattice) -> WeilRep:
    return build_weil_rep(discriminant_form(lat))


def _max_abs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m))) if m.size else 0.0


def _probes(d: int) -> np.ndarray:
    """The (d, PROBE_RANDOM + 3) probe vectors, the same on every call.

    The random ones have real and imaginary parts uniform in [-1/2, 1/2)
    before normalising, from splitmix64 (Steele, Lea and Flood, 2014) of
    PROBE_SEED + i * 0x9E3779B97F4A7C15: integer operations only, so the same
    on every machine, and no numpy.random, whose import takes longer than
    a whole check of a small form.
    """
    z = np.arange(1, 2 * d * PROBE_RANDOM + 1, dtype=np.uint64)
    z = z * 0x9E3779B97F4A7C15 + PROBE_SEED
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    u = ((z ^ (z >> 31)) >> 11) * 2.0**-53 - 0.5
    p = np.zeros((d, PROBE_RANDOM + 3), dtype=complex)
    p[:, :PROBE_RANDOM] = u[: d * PROBE_RANDOM].reshape(d, PROBE_RANDOM)
    p[:, :PROBE_RANDOM] += 1j * u[d * PROBE_RANDOM :].reshape(d, PROBE_RANDOM)
    p[:, :PROBE_RANDOM] /= np.linalg.norm(p[:, :PROBE_RANDOM], axis=0)
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
    residual.  T^N = 1 for N the level is checked on the diagonal of rho(T)
    as N times the largest distance of an entry t(gamma) to its N-th root of
    unity e(q(gamma)/2) (`WeilRep.t_snap`): to first order that bounds
    |t^N - 1|, without the rounding error of an N-th power, which grows with
    N, and it also catches an entry moved onto another N-th root.  Reports
    errors, never raises.
    """
    p = _probes(w.dimension)
    sp = w.apply_s(p)
    s2p = w.apply_s(sp)
    st3p = p
    for _ in range(3):
        st3p = w.apply_s(w.apply_t(st3p))
    err_s2z = _max_abs(s2p - w.apply_z(p))
    err_st3 = _max_abs(st3p - s2p)
    err_tn = w.level * _max_abs(w.t_snap[1])
    err_unitary = _max_abs(sp.conj().T @ sp - p.conj().T @ p)
    err_swap = _max_abs(np.abs(s2p) - np.abs(p[w.df.neg_index]))
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
    # rhoT, N = level, keyed by the integer exponent k in [0, N)
    eigT_multiplicities: dict[int, int]


def traces(w: WeilRep) -> TraceReport:
    """Traces of T, S, ST and the exact eigenvalue content of rho(T).

    The diagonal of rho(S) is e(-sig/8)/sqrt(|A|) * e(-q(gamma)), the
    square of the conjugate of rho(T)'s diagonal times the phase.  The
    eigenvalue content is one `np.bincount` of the exponents k in [0, N)
    from `WeilRep.t_snap`, the snap `verify_relations` also reads; an
    entry further than the module constant T_SNAP_TOL from its N-th root
    of unity e(q(gamma)/2) (N = level) raises SnapFailure.
    """
    n = w.level
    z = w.t_diag
    k, dist = w.t_snap
    off = dist > T_SNAP_TOL
    if off.any():
        raise SnapFailure(f"rhoT entry {z[off][0]} is not an {n}-th root of unity")
    counts = np.bincount(k, minlength=n)
    keys = np.flatnonzero(counts)
    s_diag = w.s_phase * z.conj() ** 2
    return TraceReport(
        trT=complex(z.sum()),
        trS=complex(s_diag.sum()),
        trST=complex(s_diag @ z),
        level=n,
        eigT_multiplicities=dict(zip(keys.tolist(), counts[keys].tolist())),
    )

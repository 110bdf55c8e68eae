"""Weil representation of Mp2(Z) on the group ring of a discriminant form.

Matrices for the standard generators T and S, the center Z = S^2, and the
diagnostics that tie them to the metaplectic presentation.  Complex double
precision throughout; every downstream consumer snaps to roots of unity or
integers, and group orders stay small enough that 1e-9 tolerances are
comfortable.
"""

from __future__ import annotations

import cmath
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BadGroupCap, SnapFailure, TooLarge
from .lattices import DiscriminantForm, Lattice, discriminant_form

DEFAULT_GROUP_CAP = 4096


def group_cap() -> int:
    """NLRANK_MAX_GROUP if set, which must be a positive integer, else the default."""
    text = os.environ.get("NLRANK_MAX_GROUP")
    if text is None:
        return DEFAULT_GROUP_CAP
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise BadGroupCap(f"NLRANK_MAX_GROUP must be a positive integer, got {text!r}")
    return cap


@dataclass(frozen=True)
class WeilRep:
    df: DiscriminantForm
    rhoT: np.ndarray
    rhoS: np.ndarray
    rhoZ: np.ndarray

    @property
    def dimension(self) -> int:
        return self.df.cardinality

    @property
    def sig_mod_8(self) -> int:
        return self.df.sig_mod_8

    @property
    def level(self) -> int:
        return self.df.level

    def matrices_json(self) -> str:
        """JSON export: matrices as nested arrays of [re, im] pairs."""

        def enc(m):
            return [[[z.real, z.imag] for z in row] for row in m.tolist()]

        return json.dumps(
            {"rhoT": enc(self.rhoT), "rhoS": enc(self.rhoS), "rhoZ": enc(self.rhoZ)}
        )


def build_weil_rep(df: DiscriminantForm, cap: int | None = None) -> WeilRep:
    """Matrices of T and S on C[A].

    rhoT is diagonal with entries exp(pi*i*q(gamma)); rhoS has entries
    exp(-2*pi*i*sig/8)/sqrt(|A|) * exp(-2*pi*i*b(gamma,delta)) where sig
    is the lattice signature mod 8, both read off the form's integer
    encoding (`qn`, `bn()`).  rhoZ sends e_gamma to exp(-2*pi*i*sig/4) *
    e_{-gamma} (`neg_index`), built from that definition rather than as
    rhoS^2, so that `verify_relations` can compare the two.  Basis order is
    that of the form's `elements()`.
    """
    if cap is None:
        cap = group_cap()
    d = df.cardinality
    if d > cap:
        raise TooLarge(f"group of order {d} exceeds cap {cap}")
    n = df.level
    rho_t = np.diag(np.exp((2j * np.pi / n) * df.qn))
    phase = cmath.exp(-2j * cmath.pi * df.sig_mod_8 / 8) / math.sqrt(d)
    # rhoS entry for each value n*b(gamma, delta) mod n, looked up by bn
    rho_s = (phase * np.exp((-2j * np.pi / n) * np.arange(n)))[df.bn()]
    rho_z = np.zeros((d, d), dtype=complex)
    rho_z[df.neg_index, np.arange(d)] = cmath.exp(-2j * cmath.pi * df.sig_mod_8 / 4)
    return WeilRep(df=df, rhoT=rho_t, rhoS=rho_s, rhoZ=rho_z)


def weil_rep_of(lat: Lattice, cap: int | None = None) -> WeilRep:
    return build_weil_rep(discriminant_form(lat), cap)


def _max_abs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m))) if m.size else 0.0


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
    """Check the Mp2(Z) presentation on the constructed matrices.

    S^2 = Z, (ST)^3 = S^2, T^N = 1 for N the level, S unitary, and S^2
    permutes e_gamma to a scalar multiple of e_{-gamma}.  T^N = 1 is checked
    on the diagonal of rhoT, and any entry off it counts as error.  Reports
    errors, never raises.
    """
    d = w.dimension
    eye = np.eye(d)
    st3 = np.linalg.matrix_power(w.rhoS @ w.rhoT, 3)
    s2 = w.rhoS @ w.rhoS
    err_st3 = _max_abs(st3 - s2)
    err_s2z = _max_abs(s2 - w.rhoZ)
    z = np.abs(s2)
    # drop the d x d products before the next ones, so at most three coexist
    del st3, s2
    neg, cols = w.df.neg_index, np.arange(d)
    err_swap = float(np.max(np.abs(z[neg, cols] - 1.0)))
    z[neg, cols] = 0.0
    err_swap = max(err_swap, float(np.max(z)))
    del z
    diag = np.diag(w.rhoT)
    err_tn = max(_max_abs(diag**w.level - 1), _max_abs(w.rhoT - np.diag(diag)))
    err_unitary = _max_abs(w.rhoS @ w.rhoS.conj().T - eye)
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
    # multiplicity of each N-th root of unity exp(2*pi*i*r) on the diagonal
    # of rhoT, keyed by the reduced exponent r in [0,1)
    eigT_multiplicities: dict[Fraction, int]


def traces(w: WeilRep, snap_tol: float = 1e-6) -> TraceReport:
    """Traces of T, S, ST and the exact eigenvalue content of rhoT.

    Each diagonal entry of rhoT is snapped to the nearest N-th root of
    unity (N = level); entries further than snap_tol raise SnapFailure.
    """
    n = w.level
    z = np.diag(w.rhoT)
    k = np.rint(np.angle(z) / (2 * math.pi) * n).astype(np.int64) % n
    off = np.abs(z - np.exp((2j * np.pi / n) * k)) > snap_tol
    if off.any():
        raise SnapFailure(f"rhoT entry {z[off][0]} is not an {n}-th root of unity")
    keys, counts = np.unique(k, return_counts=True)
    mult = {Fraction(int(r), n): int(c) for r, c in zip(keys, counts)}
    tr_t = complex(np.trace(w.rhoT))
    tr_s = complex(np.trace(w.rhoS))
    tr_st = complex(np.einsum("ij,ji->", w.rhoS, w.rhoT))
    return TraceReport(trT=tr_t, trS=tr_s, trST=tr_st, eigT_multiplicities=mult)

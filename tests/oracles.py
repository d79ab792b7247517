"""Independent cross-check oracles shared by the spin tests.

These deliberately avoid the time-domain propagator: crossings are read off
the manifold eigensystems and composed with the closed-form passage
probability, so they exercise a different computational path than
``propagate_sweep``.
"""

import numpy as np

from fieldcycle.spin import (crossing_table, electron_gap, lz_probability,
                             manifold_blocks)


def ladder_band(sys, sweep):
    """Absolute-frequency band covering only the two crossings into the
    lower hyperfine branch, well separated from the other pair."""
    dets = [x.detuning_Hz for x in crossing_table(sys, sweep)]
    gap = electron_gap(sys)
    d_hi = dets[0] + 0.45 * (dets[0] - dets[1])
    d_lo = 0.5 * (dets[1] + dets[2])
    f_lo, f_hi = gap - d_hi, gap - d_lo
    return 0.5 * (f_lo + f_hi), f_hi - f_lo


def eigh_crossings(sys, sweep):
    """The four ladder crossings as (detuning, g_level, e_level, coupling),
    read off ``np.linalg.eigh`` of the manifold blocks, in the order the
    upward sweep meets them."""
    h_g, h_e = manifold_blocks(sys)
    wg, qg = np.linalg.eigh(h_g)
    we, qe = np.linalg.eigh(h_e)
    out = [(wg[i] - we[j], i, j,
            sweep.mw_rabi_Hz / 2 * abs(np.vdot(qe[:, j], qg[:, i])))
           for i in range(2) for j in range(2)]
    return sorted(out, key=lambda x: -x[0])


def lz_composition(sys, sweep):
    """Ordered two-level crossings composed with the LZ formula, then
    incoherent projection of leftover driven-manifold population."""
    gap = electron_gap(sys)
    d_hi = gap - (sweep.band_center_Hz - sweep.band_width_Hz / 2)
    d_lo = gap - (sweep.band_center_Hz + sweep.band_width_Hz / 2)
    h_g, h_e = manifold_blocks(sys)
    wg, qg = np.linalg.eigh(h_g)
    we, qe = np.linalg.eigh(h_e)
    pg = np.array([0.5, 0.5])
    pe = np.zeros(2)
    for x in crossing_table(sys, sweep):
        if not (d_lo < x.detuning_Hz < d_hi):
            continue
        p = lz_probability(2 * np.pi * x.coupling_Hz,
                           2 * np.pi * abs(sweep.sweep_rate_Hz_per_s))
        gi, ej = pg[x.g_level], pe[x.e_level]
        pg[x.g_level] = p * gi + (1 - p) * ej
        pe[x.e_level] = p * ej + (1 - p) * gi
    up = pg @ np.abs(qg[0, :]) ** 2 + pe @ np.abs(qe[0, :]) ** 2
    dn = pg @ np.abs(qg[1, :]) ** 2 + pe @ np.abs(qe[1, :]) ** 2
    return up - dn


def repumped_sweeps(u, n):
    """Polarization after ``n`` chirps of unitary ``u`` from m_s=0 and an
    unpolarized nucleus, the density matrix stepped chirp by chirp: after
    each, the electron is reset to m_s=0, keeping the nuclear populations
    and dropping every coherence."""
    rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    for _ in range(n):
        p = (u @ rho @ u.conj().T).diagonal().real
        rho = np.diag([p[0] + p[2], p[1] + p[3], 0.0, 0.0]).astype(complex)
    return float(rho[0, 0].real - rho[1, 1].real)

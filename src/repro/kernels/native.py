"""C implementation of the kernels, compiled at first use via ctypes.

The ``jit`` backend's provider: a single small C translation unit,
compiled once with the system compiler into a content-addressed shared
library under a per-user scratch directory, and bound through
:mod:`ctypes`.

Bit-exactness: the C code replays the NumPy oracle's expression trees
exactly -- same association, strict ``<``/``>`` first-occurrence tie
breaks -- and the build forbids the two compiler liberties that change
IEEE results (``-fno-fast-math`` against reassociation, and
``-ffp-contract=off`` against FMA contraction, which GCC otherwise
enables at any optimisation level).
"""

from __future__ import annotations

import ctypes
import getpass
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from repro.kernels._adapt import RawKernels, wrap_raw_backend
from repro.kernels.interface import KernelBackend

__all__ = ["KernelBuildError", "find_compiler", "make_cc_backend"]


class KernelBuildError(RuntimeError):
    """Raised when the C kernels cannot be compiled or loaded."""


_SOURCE = r"""
#include <math.h>

/* Inverse golden ratios; sqrt(5.0) is correctly rounded at compile
 * time, so these bits match Python's (math.sqrt(5.0) - 1.0) / 2.0. */
#define INVPHI  ((sqrt(5.0) - 1.0) / 2.0)
#define INVPHI2 ((3.0 - sqrt(5.0)) / 2.0)

typedef long long i64;

/* One player's decomposed sweep: adjusted per-entry costs, per-menu
 * server argmin, per-bs total argmin, current cost.  Mirrors the NumPy
 * gap_sweep row for row (first-minimum tie breaks via strict <). */
static double sweep_player(
    i64 i, i64 I, i64 K, i64 N, i64 G,
    const double *loads, const double *p, const double *w,
    const double *sub, const double *wcur, const i64 *cur_idx,
    const i64 *menu_of_bs, const i64 *menu_off, const i64 *menu_srv,
    i64 *nidx, double *adj, double *t, double *bvals,
    i64 *kbest_out, double *cur_out)
{
    i64 W = 2 * K + N;
    const double *pi = p + i * W;
    const double *wi = w + i * W;
    const double *si = sub + i * W;
    for (i64 r = 0; r < W; ++r)
        adj[r] = ((loads[r] - si[r]) + pi[r]) * wi[r];
    for (i64 k = 0; k < K; ++k)
        t[k] = adj[k] + adj[K + k];
    for (i64 g = 0; g < G; ++g) {
        i64 off = menu_off[g];
        i64 cnt = menu_off[g + 1] - off;
        i64 bidx = 0;
        double bv = adj[2 * K + menu_srv[off]];
        for (i64 j = 1; j < cnt; ++j) {
            double v = adj[2 * K + menu_srv[off + j]];
            if (v < bv) { bv = v; bidx = j; }
        }
        nidx[g * I + i] = bidx;
        bvals[g] = bv;
    }
    i64 kb = 0;
    double best = t[0] + bvals[menu_of_bs[0]];
    for (i64 k = 1; k < K; ++k) {
        double v = t[k] + bvals[menu_of_bs[k]];
        if (v < best) { best = v; kb = k; }
    }
    *kbest_out = kb;
    {
        double c0 = wcur[0 * I + i] * loads[cur_idx[0 * I + i]];
        double c1 = wcur[1 * I + i] * loads[cur_idx[1 * I + i]];
        double c2 = wcur[2 * I + i] * loads[cur_idx[2 * I + i]];
        *cur_out = (c0 + c1) + c2;
    }
    return best;
}

void repro_gap_sweep(
    i64 I, i64 K, i64 N, i64 G,
    const double *loads, const double *p, const double *w,
    const double *sub, const double *wcur, const i64 *cur_idx,
    const i64 *menu_of_bs, const i64 *menu_off, const i64 *menu_srv,
    i64 *nidx, i64 *kbest,
    double *best_out, double *cur_out,
    double *adj, double *t, double *bvals)
{
    for (i64 i = 0; i < I; ++i)
        best_out[i] = sweep_player(i, I, K, N, G, loads, p, w, sub, wcur,
                                   cur_idx, menu_of_bs, menu_off, menu_srv,
                                   nidx, adj, t, bvals, &kbest[i], &cur_out[i]);
}

/* The resource-major helpers of repro_run_dynamics.  Each works on
 * whole rows of (rows x I) mirrors, one element per player, so GCC
 * vectorises them.  A first-minimum scan takes entries two at a time
 * as branchless selects on locals, index before value:
 * j = v < b ? idx : j; b = v < b ? v : b.  (Written as
 * b[i] = c ? v[i] : b[i] instead, GCC turns the pair of selects into
 * conditional stores, which the baseline x86-64 ISA cannot vectorise.)
 * An odd last entry is passed as both entries, and the second strict <
 * then never wins.  Same first-minimum rule, NaN behaviour and IEEE
 * operations as sweep_player's branches. */

/* One adj row for every player: ((load - own weight) + p) * w. */
static void adj_row(
    i64 I, double load, const double *restrict sub,
    const double *restrict p, const double *restrict w,
    double *restrict out)
{
    for (i64 i = 0; i < I; ++i)
        out[i] = ((load - sub[i]) + p[i]) * w[i];
}

/* One t row for every player: access + fronthaul. */
static void t_row(
    i64 I, const double *restrict access, const double *restrict front,
    double *restrict out)
{
    for (i64 i = 0; i < I; ++i)
        out[i] = access[i] + front[i];
}

/* Scan entries j and j + 1, values v1 and v2. */
static void first_min_pair(
    i64 I, i64 j, const double *restrict v1, const double *restrict v2,
    double *restrict best, i64 *restrict idx)
{
    for (i64 i = 0; i < I; ++i) {
        double b = best[i];
        i64 x = idx[i];
        x = v1[i] < b ? j : x;
        b = v1[i] < b ? v1[i] : b;
        x = v2[i] < b ? j + 1 : x;
        b = v2[i] < b ? v2[i] : b;
        best[i] = b;
        idx[i] = x;
    }
}

/* Menu g's best compute term and its argmin position, every player. */
static void menu_rows(
    i64 I, i64 K, i64 g, const i64 *menu_off, const i64 *menu_srv,
    const double *adjT, double *bvT, i64 *nidx)
{
    const i64 *srv = menu_srv + menu_off[g];
    i64 cnt = menu_off[g + 1] - menu_off[g];
    const double *rows = adjT + 2 * K * I;
    double *bv = bvT + g * I;
    i64 *nx = nidx + g * I;
    const double *first = rows + srv[0] * I;
    for (i64 i = 0; i < I; ++i) {
        bv[i] = first[i];
        nx[i] = 0;
    }
    for (i64 j = 1; j < cnt; j += 2)
        first_min_pair(I, j, rows + srv[j] * I,
                       rows + srv[j + 1 < cnt ? j + 1 : j] * I, bv, nx);
}

/* Base stations k and k + 1 of the K-way argmin: total t + menu best. */
static void bs_pair(
    i64 I, i64 k, const double *restrict t1, const double *restrict bv1,
    const double *restrict t2, const double *restrict bv2,
    double *restrict best, i64 *restrict kb)
{
    for (i64 i = 0; i < I; ++i) {
        double b = best[i];
        i64 x = kb[i];
        double v1 = t1[i] + bv1[i], v2 = t2[i] + bv2[i];
        x = v1 < b ? k : x;
        b = v1 < b ? v1 : b;
        x = v2 < b ? k + 1 : x;
        b = v2 < b ? v2 : b;
        best[i] = b;
        kb[i] = x;
    }
}

/* A player's gap under the slack eligibility test; -inf when the
 * player may not move. */
static inline double gap_value(double slack, double cur, double best)
{
    if (slack == 0.0) {
        double gap = cur - best;
        return (gap <= 0.0) ? -INFINITY : gap;
    }
    return ((1.0 - slack) * cur > best) ? (cur - best) : -INFINITY;
}

/* Current cost (access + fronthaul) + compute, then the gap, for
 * every player. */
static void gap_rows(
    i64 I, double slack, const double *restrict loads,
    const double *restrict wcur, const i64 *restrict cur_idx,
    const double *restrict best, double *restrict gaps)
{
    for (i64 i = 0; i < I; ++i) {
        double c0 = wcur[i] * loads[cur_idx[i]];
        double c1 = wcur[I + i] * loads[cur_idx[I + i]];
        double c2 = wcur[2 * I + i] * loads[cur_idx[2 * I + i]];
        gaps[i] = gap_value(slack, (c0 + c1) + c2, best[i]);
    }
}

/* The fused best-response loop: argmax gap pick, apply the cached best
 * response, refresh, gap update -- one iteration per move, exactly the
 * engine's hot Python loop.  Returns the move count; *converged_out is
 * 1 when the gap argmax hit -inf within the budget.
 *
 * The first move is refreshed with the player-major sweep_player.  A
 * second move builds resource-major (rows x I) mirrors of p, w and sub
 * in the caller's scratch, fills adj, t and the menu bests from them,
 * and maps every server to the menus that hold it.  From the third
 * move on, a move from (k_old, n_old) to (k_new, n_new) changes only
 * the loads at {k, K + k, 2K + n} of the old and new choice (and the
 * mover's sub there), so only those adj rows, the t rows k_old and
 * k_new and the menus holding n_old or n_new are recomputed; the K-way
 * argmin, current cost and gap are then rescanned for every player.
 * Untouched entries keep the bits a full sweep would recompute, so
 * every path yields the same gaps, kbest and nidx.  Every call that
 * makes a second move rebuilds the mirrors; no other kernel reads them.
 *
 * mirror (doubles): pT, wT, subT, adjT (W x I each), tT (K x I),
 * bvT ((G + 1) x I, row G +inf for empty menus), best (I).
 * imirror (i64): srv_off (N + 1), srv_menus (menu_off[G]), stamp (G). */
i64 repro_run_dynamics(
    i64 I, i64 K, i64 N, i64 G,
    double slack, i64 max_iter,
    double *loads, const double *p, const double *w,
    double *sub, double *wcur, i64 *cur_idx,
    const i64 *menu_of_bs, const i64 *menu_off, const i64 *menu_srv,
    i64 *nidx, i64 *kbest, double *gaps,
    const double *p_access, const double *p_front, const double *p_compute,
    const double *m_access, const double *m_front, const double *m_compute,
    i64 *bs_of, i64 *server_of,
    double *pa_cur, double *pc_cur,
    double *sq_access, double *sq_front, double *sq_compute,
    double *adj, double *t, double *bvals,
    double *mirror, i64 *imirror,
    i64 *converged_out)
{
    i64 W = 2 * K + N;
    double *pT = mirror, *wT = pT + W * I, *subT = wT + W * I;
    double *adjT = subT + W * I, *tT = adjT + W * I, *bvT = tT + K * I;
    double *best = bvT + (G + 1) * I;
    i64 *srv_off = imirror, *srv_menus = srv_off + N + 1;
    i64 *stamp = srv_menus + menu_off[G];
    i64 moves = 0;
    for (i64 it = 0; it < max_iter; ++it) {
        i64 pl = 0;
        double g = gaps[0];
        for (i64 i = 1; i < I; ++i)
            if (gaps[i] > g) { g = gaps[i]; pl = i; }
        if (g == -INFINITY) { *converged_out = 1; return moves; }

        /* Apply the cached best response of player pl (same float op
         * order as OffloadingCongestionGame.move). */
        i64 k_new = kbest[pl];
        i64 grp = menu_of_bs[k_new];
        i64 n_new = menu_srv[menu_off[grp] + nidx[grp * I + pl]];
        i64 k_old = bs_of[pl];
        i64 n_old = server_of[pl];
        i64 rows[6] = {k_old, K + k_old, 2 * K + n_old,
                       k_new, K + k_new, 2 * K + n_new};
        {
            double pa_old = p_access[pl * K + k_old];
            double pa_new = p_access[pl * K + k_new];
            double pf = p_front[pl];
            double pc_old = p_compute[pl * N + n_old];
            double pc_new = p_compute[pl * N + n_new];
            double own[6] = {0.0, 0.0, 0.0, pa_new, pf, pc_new};
            double *sp = sub + pl * W;

            loads[k_old] -= pa_old;
            loads[k_new] += pa_new;
            sq_access[k_old] -= pa_old * pa_old;
            sq_access[k_new] += pa_new * pa_new;

            loads[K + k_old] -= pf;
            loads[K + k_new] += pf;
            sq_front[k_old] -= pf * pf;
            sq_front[k_new] += pf * pf;

            loads[2 * K + n_old] -= pc_old;
            loads[2 * K + n_new] += pc_new;
            sq_compute[n_old] -= pc_old * pc_old;
            sq_compute[n_new] += pc_new * pc_new;

            bs_of[pl] = k_new;
            server_of[pl] = n_new;
            pa_cur[pl] = pa_new;
            pc_cur[pl] = pc_new;

            /* Old entries cleared first, so a kept resource ends up
             * holding the new weight. */
            for (int e = 0; e < 6; ++e) {
                sp[rows[e]] = own[e];
                if (moves >= 2)
                    subT[rows[e] * I + pl] = own[e];
            }
            wcur[0 * I + pl] = m_access[k_new] * pa_new;
            wcur[1 * I + pl] = m_front[k_new] * pf;
            wcur[2 * I + pl] = m_compute[n_new] * pc_new;
            cur_idx[0 * I + pl] = k_new;
            cur_idx[1 * I + pl] = K + k_new;
            cur_idx[2 * I + pl] = 2 * K + n_new;
        }
        ++moves;

        if (moves == 1) {
            /* One-move calls are common: refresh player-major and
             * leave the mirrors unbuilt. */
            for (i64 i = 0; i < I; ++i) {
                double cur;
                double bst = sweep_player(i, I, K, N, G, loads, p, w, sub,
                                          wcur, cur_idx, menu_of_bs,
                                          menu_off, menu_srv, nidx, adj, t,
                                          bvals, &kbest[i], &cur);
                gaps[i] = gap_value(slack, cur, bst);
            }
            continue;
        }
        if (moves == 2) {
            /* Build the mirrors on the profile after this move. */
            for (i64 r = 0; r < W; ++r) {
                double *pr = pT + r * I, *wr = wT + r * I, *sr = subT + r * I;
                for (i64 i = 0; i < I; ++i) {
                    pr[i] = p[i * W + r];
                    wr[i] = w[i * W + r];
                    sr[i] = sub[i * W + r];
                }
                adj_row(I, loads[r], sr, pr, wr, adjT + r * I);
            }
            for (i64 i = 0; i < I; ++i)
                bvT[G * I + i] = INFINITY;
            for (i64 n = 0; n <= N; ++n)
                srv_off[n] = 0;
            for (i64 e = 0; e < menu_off[G]; ++e)
                ++srv_off[menu_srv[e] + 1];
            for (i64 n = 0; n < N; ++n)
                srv_off[n + 1] += srv_off[n];
            for (i64 gg = 0; gg < G; ++gg) {
                stamp[gg] = 0;
                for (i64 e = menu_off[gg]; e < menu_off[gg + 1]; ++e)
                    srv_menus[srv_off[menu_srv[e]]++] = gg;
            }
            for (i64 n = N; n > 0; --n)
                srv_off[n] = srv_off[n - 1];
            srv_off[0] = 0;
            for (i64 k = 0; k < K; ++k)
                t_row(I, adjT + k * I, adjT + (K + k) * I, tT + k * I);
            for (i64 gg = 0; gg < G; ++gg)
                menu_rows(I, K, gg, menu_off, menu_srv, adjT, bvT, nidx);
        } else {
            /* Only the six touched resources changed. */
            for (int e = 0; e < 6; ++e) {
                i64 r = rows[e];
                if (e >= 3 && r == rows[e - 3])
                    continue;
                adj_row(I, loads[r], subT + r * I, pT + r * I, wT + r * I,
                        adjT + r * I);
            }
            t_row(I, adjT + k_old * I, adjT + (K + k_old) * I, tT + k_old * I);
            if (k_new != k_old)
                t_row(I, adjT + k_new * I, adjT + (K + k_new) * I,
                      tT + k_new * I);
            for (int s = 0; s < 2; ++s) {
                i64 n = s ? n_new : n_old;
                for (i64 e = srv_off[n]; e < srv_off[n + 1]; ++e) {
                    i64 gg = srv_menus[e];
                    if (stamp[gg] == moves)
                        continue;
                    stamp[gg] = moves;
                    menu_rows(I, K, gg, menu_off, menu_srv, adjT, bvT, nidx);
                }
            }
        }
        {
            const double *bv0 = bvT + menu_of_bs[0] * I;
            for (i64 i = 0; i < I; ++i) {
                best[i] = tT[i] + bv0[i];
                kbest[i] = 0;
            }
        }
        for (i64 k = 1; k < K; k += 2) {
            i64 k2 = k + 1 < K ? k + 1 : k;
            bs_pair(I, k, tT + k * I, bvT + menu_of_bs[k] * I,
                    tT + k2 * I, bvT + menu_of_bs[k2] * I, best, kbest);
        }
        gap_rows(I, slack, loads, wcur, cur_idx, best, gaps);
    }
    *converged_out = 0;
    return moves;
}

/* Per-lane golden-section search on the P2-B quadratic-energy
 * objective f(x) = ls/x + ep * (scale * (qa x^2 + qb x + qc)).
 * Replays minimize_convex_scalar lane by lane: same probe points, same
 * fc <= fd branch, same endpoint-included candidate comparison with
 * the first-minimum tie break, same evaluation counting. */
void repro_golden_quad(
    i64 n, const double *lo, const double *hi,
    double tol, i64 max_iter,
    const double *ls, const double *ep, const double *scale,
    const double *qa, const double *qb, const double *qc,
    double *x_out, i64 *evals_out)
{
    for (i64 i = 0; i < n; ++i) {
        double a = lo[i], b = hi[i];
        double L = ls[i], E = ep[i], S = scale[i];
        double A = qa[i], B = qb[i], C = qc[i];
        double width, threshold, c, d, fc, fd, xl, xh, fl, fh, bv, bx;
        i64 evals;
        if (b == a) {
            x_out[i] = a;
            evals_out[i] = 1;
            continue;
        }
        width = b - a;
        threshold = tol * (width > 1.0 ? width : 1.0);
        c = a + INVPHI2 * (b - a);
        d = a + INVPHI * (b - a);
        fc = L / c + E * (S * (A * c * c + B * c + C));
        fd = L / d + E * (S * (A * d * d + B * d + C));
        evals = 2;
        for (i64 it = 0; it < max_iter; ++it) {
            if ((b - a) <= threshold)
                break;
            if (fc <= fd) {
                b = d; d = c; fd = fc;
                c = a + INVPHI2 * (b - a);
                fc = L / c + E * (S * (A * c * c + B * c + C));
            } else {
                a = c; c = d; fc = fd;
                d = a + INVPHI * (b - a);
                fd = L / d + E * (S * (A * d * d + B * d + C));
            }
            ++evals;
        }
        xl = lo[i];
        xh = hi[i];
        fl = L / xl + E * (S * (A * xl * xl + B * xl + C));
        fh = L / xh + E * (S * (A * xh * xh + B * xh + C));
        evals += 2;
        bv = fl; bx = xl;
        if (fh < bv) { bv = fh; bx = xh; }
        if (fc < bv) { bv = fc; bx = c; }
        if (fd < bv) { bv = fd; bx = d; }
        x_out[i] = bx;
        evals_out[i] = evals;
    }
}

/* Re-seed the per-profile arrays from bs_of/server_of, as the NumPy
 * reset_profile does: current indices and weights, loads and squared
 * loads (zero, then each block summed in player order -- the fused
 * bincount's order), then the own-weight rows and current-cost
 * weights.  Returns 1, 0 when an access load is not finite (sub and
 * wcur left unfilled), or -1 on an out-of-range profile entry. */
i64 repro_reset_profile(
    i64 I, i64 K, i64 N,
    const i64 *bs_of, const i64 *server_of,
    const double *p_access, const double *p_compute, const double *m,
    i64 *cur_idx, double *cur_p,
    double *loads, double *sq, double *sub, double *wcur)
{
    i64 W = 2 * K + N;
    double *pa_cur = cur_p, *p_front = cur_p + I, *pc_cur = cur_p + 2 * I;
    for (i64 i = 0; i < I; ++i)
        if (bs_of[i] < 0 || bs_of[i] >= K || server_of[i] < 0
            || server_of[i] >= N)
            return -1;
    for (i64 r = 0; r < W; ++r) {
        loads[r] = 0.0;
        sq[r] = 0.0;
    }
    for (i64 i = 0; i < I; ++i) {
        i64 k = bs_of[i], n = server_of[i];
        double pa = p_access[i * K + k];
        double pf = p_front[i];
        double pc = p_compute[i * N + n];
        cur_idx[i] = k;
        cur_idx[I + i] = K + k;
        cur_idx[2 * I + i] = 2 * K + n;
        pa_cur[i] = pa;
        pc_cur[i] = pc;
        loads[k] += pa;
        loads[K + k] += pf;
        loads[2 * K + n] += pc;
        sq[k] += pa * pa;
        sq[K + k] += pf * pf;
        sq[2 * K + n] += pc * pc;
    }
    for (i64 k = 0; k < K; ++k)
        if (!isfinite(loads[k]))
            return 0;
    for (i64 r = 0; r < I * W; ++r)
        sub[r] = 0.0;
    for (i64 i = 0; i < I; ++i) {
        i64 k = bs_of[i], n = server_of[i];
        double *si = sub + i * W;
        si[k] = pa_cur[i];
        si[K + k] = p_front[i];
        si[2 * K + n] = pc_cur[i];
        wcur[i] = m[k] * pa_cur[i];
        wcur[I + i] = m[K + k] * p_front[i];
        wcur[2 * I + i] = m[2 * K + n] * pc_cur[i];
    }
    return 1;
}

/* m_compute = 1 / ((speed_scale * omega) * 1e9), MECNetwork.speeds. */
static void clock_weights(
    i64 N, const double *speed_scale, const double *freq, double *m_compute)
{
    for (i64 n = 0; n < N; ++n)
        m_compute[n] = 1.0 / ((speed_scale[n] * freq[n]) * 1e9);
}

/* Refill every slot-dependent weight, as the NumPy rebind does: the
 * fronthaul and compute resource weights, the player weights (access
 * +inf on uncovered links, the h floor at 1e-300 otherwise) and the
 * decomposed p/w rows. */
void repro_rebind(
    i64 I, i64 K, i64 N,
    const double *h, const double *bits, const double *cycles,
    const double *front_se,
    const double *front_bw, const double *speed_scale,
    const double *suitability, const double *freq,
    const double *m_access, double *m_front, double *m_compute,
    double *p_access, double *p_front, double *p_compute,
    double *p, double *w)
{
    i64 W = 2 * K + N;
    for (i64 k = 0; k < K; ++k)
        m_front[k] = 1.0 / (front_bw[k] * front_se[k]);
    clock_weights(N, speed_scale, freq, m_compute);
    for (i64 i = 0; i < I; ++i) {
        double d = bits[i];
        double pf = sqrt(d);
        double *pi = p + i * W;
        double *wi = w + i * W;
        p_front[i] = pf;
        for (i64 k = 0; k < K; ++k) {
            double hk = h[i * K + k];
            double pa = INFINITY;
            if (hk > 0.0)
                pa = sqrt(d / (hk >= 1e-300 ? hk : 1e-300));
            p_access[i * K + k] = pa;
            pi[k] = pa;
            wi[k] = m_access[k] * pa;
            pi[K + k] = pf;
            wi[K + k] = m_front[k] * pf;
        }
        for (i64 n = 0; n < N; ++n) {
            double pc = sqrt(cycles[i] / suitability[i * N + n]);
            p_compute[i * N + n] = pc;
            pi[2 * K + n] = pc;
            wi[2 * K + n] = m_compute[n] * pc;
        }
    }
}

/* np.argmin's scan step: the first NaN wins for good, otherwise the
 * first strict minimum.  Returns 1 when the scan may stop. */
static int argmin_step(double v, i64 j, double *bv, i64 *bj)
{
    if (*bj < 0 || v < *bv || isnan(v)) {
        *bv = v;
        *bj = j;
        return isnan(v);
    }
    return 0;
}

/* The one-pass greedy assignment, as the NumPy greedy_pass: each
 * device in order takes its cheapest marginal pair given the loads
 * committed so far.  A resource's marginal is (m * p) * (2 * load + p),
 * communication (access + fronthaul) first, then compute; joint
 * minimises their sum, otherwise the communication argmin fixes the
 * base station and the compute argmin over its candidates the server.
 * loads is (2K + N) scratch.  Returns 0, -1 on an out-of-range device,
 * candidate or offset, or -2 on an empty strategy set. */
i64 repro_greedy_pass(
    i64 I, i64 K, i64 N, i64 C, i64 n_order, i64 joint,
    const i64 *order, const i64 *offsets, const i64 *bs, const i64 *server,
    const double *p_access, const double *p_front, const double *p_compute,
    const double *m_access, const double *m_front, const double *m_compute,
    double *loads, i64 *bs_of, i64 *server_of)
{
    double *la = loads, *lf = loads + K, *lc = loads + 2 * K;
    for (i64 r = 0; r < 2 * K + N; ++r)
        loads[r] = 0.0;
    for (i64 t = 0; t < n_order; ++t) {
        i64 i = order[t];
        if (i < 0 || i >= I)
            return -1;
        i64 off = offsets[i], end = offsets[i + 1];
        if (off < 0 || end > C || end < off)
            return -1;
        if (end == off)
            return -2;
        for (i64 c = off; c < end; ++c)
            if (bs[c] < 0 || bs[c] >= K || server[c] < 0 || server[c] >= N)
                return -1;
        const double *pai = p_access + i * K;
        const double *pci = p_compute + i * N;
        double pf = p_front[i];
        double bv = 0.0;
        i64 bj = -1;
        if (joint) {
            for (i64 c = off; c < end; ++c) {
                i64 k = bs[c], n = server[c];
                double pa = pai[k], pc = pci[n];
                double comm = (m_access[k] * pa) * (2.0 * la[k] + pa)
                              + (m_front[k] * pf) * (2.0 * lf[k] + pf);
                double comp = (m_compute[n] * pc) * (2.0 * lc[n] + pc);
                if (argmin_step(comm + comp, c, &bv, &bj))
                    break;
            }
        } else {
            for (i64 c = off; c < end; ++c) {
                i64 k = bs[c];
                double pa = pai[k];
                double comm = (m_access[k] * pa) * (2.0 * la[k] + pa)
                              + (m_front[k] * pf) * (2.0 * lf[k] + pf);
                if (argmin_step(comm, c, &bv, &bj))
                    break;
            }
            i64 best_k = bs[bj];
            bj = -1;
            for (i64 c = off; c < end; ++c) {
                if (bs[c] != best_k)
                    continue;
                i64 n = server[c];
                double pc = pci[n];
                double comp = (m_compute[n] * pc) * (2.0 * lc[n] + pc);
                if (argmin_step(comp, c, &bv, &bj))
                    break;
            }
        }
        {
            i64 k = bs[bj], n = server[bj];
            bs_of[i] = k;
            server_of[i] = n;
            la[k] += pai[k];
            lf[k] += pf;
            lc[n] += pci[n];
        }
    }
    return 0;
}

/* The clock refresh: m_compute, the compute block of w, and the
 * compute row of wcur. */
void repro_update_frequencies(
    i64 I, i64 K, i64 N,
    const double *speed_scale, const double *freq,
    const double *p_compute, const i64 *server_of, const double *pc_cur,
    double *m_compute, double *w, double *wcur)
{
    i64 W = 2 * K + N;
    clock_weights(N, speed_scale, freq, m_compute);
    for (i64 i = 0; i < I; ++i) {
        double *wi = w + i * W + 2 * K;
        const double *pci = p_compute + i * N;
        for (i64 n = 0; n < N; ++n)
            wi[n] = m_compute[n] * pci[n];
        wcur[2 * I + i] = m_compute[server_of[i]] * pc_cur[i];
    }
}
"""

#: Flags that pin IEEE semantics: no reassociation, no FMA contraction.
_CFLAGS = ["-O3", "-fPIC", "-shared", "-fno-fast-math", "-ffp-contract=off"]


def find_compiler() -> str | None:
    """Path of a usable C compiler, or ``None``."""
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    try:
        user = getpass.getuser()
    except Exception:  # no passwd entry in minimal containers
        user = "shared"
    return Path(tempfile.gettempdir()) / f"repro-kernels-{user}"


def _build_library() -> Path:
    """Compile (or reuse) the shared library; content-addressed cache."""
    compiler = find_compiler()
    if compiler is None:
        raise KernelBuildError("no C compiler found (tried cc, gcc, clang)")
    digest = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
    cache = _cache_dir()
    lib_path = cache / f"reprokern-{digest}.so"
    if lib_path.exists():
        return lib_path
    cache.mkdir(parents=True, exist_ok=True)
    src_path = cache / f"reprokern-{digest}.c"
    src_path.write_text(_SOURCE)
    tmp_path = cache / f".reprokern-{digest}.{os.getpid()}.so"
    cmd = [compiler, *_CFLAGS, "-o", str(tmp_path), str(src_path), "-lm"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise KernelBuildError(f"kernel compile failed to run: {exc}") from exc
    if proc.returncode != 0:
        raise KernelBuildError(
            f"kernel compile failed ({compiler}):\n{proc.stderr.strip()}"
        )
    os.replace(tmp_path, lib_path)  # atomic: concurrent builds converge
    return lib_path


# Arrays are passed as raw data pointers: ndpointer's per-call
# dtype/flags validation costs microseconds per argument, which
# dominates once the kernels themselves are sub-millisecond.  The
# adapter (_adapt._StateCache) validates dtype/contiguity once per
# array binding and caches the converted pointer.
_f64 = ctypes.c_void_p
_i64 = ctypes.c_void_p
_ll = ctypes.c_longlong
_dbl = ctypes.c_double


def _as_ptr(arr: np.ndarray) -> ctypes.c_void_p:
    """The array's data pointer, for the c_void_p argument slots."""
    return ctypes.c_void_p(arr.ctypes.data)


def _bind(lib: ctypes.CDLL) -> RawKernels:
    gap_sweep = lib.repro_gap_sweep
    gap_sweep.restype = None
    gap_sweep.argtypes = [
        _ll, _ll, _ll, _ll,
        _f64, _f64, _f64, _f64, _f64, _i64,
        _i64, _i64, _i64,
        _i64, _i64,
        _f64, _f64,
        _f64, _f64, _f64,
    ]
    run_dynamics = lib.repro_run_dynamics
    run_dynamics.restype = _ll
    run_dynamics.argtypes = [
        _ll, _ll, _ll, _ll,
        _dbl, _ll,
        _f64, _f64, _f64, _f64, _f64, _i64,
        _i64, _i64, _i64,
        _i64, _i64, _f64,
        _f64, _f64, _f64,
        _f64, _f64, _f64,
        _i64, _i64,
        _f64, _f64,
        _f64, _f64, _f64,
        _f64, _f64, _f64,
        _f64, _i64,
        _i64,
    ]
    golden_quad = lib.repro_golden_quad
    golden_quad.restype = None
    golden_quad.argtypes = [
        _ll, _f64, _f64,
        _dbl, _ll,
        _f64, _f64, _f64,
        _f64, _f64, _f64,
        _f64, _i64,
    ]
    reset_profile = lib.repro_reset_profile
    reset_profile.restype = _ll
    reset_profile.argtypes = [
        _ll, _ll, _ll,
        _i64, _i64,
        _f64, _f64, _f64,
        _i64, _f64,
        _f64, _f64, _f64, _f64,
    ]
    rebind = lib.repro_rebind
    rebind.restype = None
    rebind.argtypes = [
        _ll, _ll, _ll,
        _f64, _f64, _f64,
        _f64,
        _f64, _f64,
        _f64, _f64,
        _f64, _f64, _f64,
        _f64, _f64, _f64,
        _f64, _f64,
    ]
    update_frequencies = lib.repro_update_frequencies
    update_frequencies.restype = None
    update_frequencies.argtypes = [
        _ll, _ll, _ll,
        _f64, _f64,
        _f64, _i64, _f64,
        _f64, _f64, _f64,
    ]
    greedy_pass = lib.repro_greedy_pass
    greedy_pass.restype = _ll
    greedy_pass.argtypes = [
        _ll, _ll, _ll, _ll, _ll, _ll,
        _i64, _i64, _i64, _i64,
        _f64, _f64, _f64,
        _f64, _f64, _f64,
        _f64, _i64, _i64,
    ]
    return RawKernels(
        gap_sweep, run_dynamics, golden_quad,
        reset_profile, rebind, update_frequencies, greedy_pass,
    )


_backend: KernelBackend | None = None


def make_cc_backend() -> KernelBackend:
    """Compile, load, and wrap the C kernels (cached per process).

    Raises:
        KernelBuildError: When no compiler is available or the build or
            load fails; callers fall back to the NumPy kernels.
    """
    global _backend
    if _backend is not None:
        return _backend
    lib_path = _build_library()
    try:
        raw = _bind(ctypes.CDLL(str(lib_path)))
    except OSError as exc:
        raise KernelBuildError(f"failed to load kernel library: {exc}") from exc
    _backend = wrap_raw_backend(raw, convert=_as_ptr)
    return _backend

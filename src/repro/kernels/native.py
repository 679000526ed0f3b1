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
#include <time.h>

/* Inverse golden ratios; sqrt(5.0) is correctly rounded at compile
 * time, so these bits match Python's (math.sqrt(5.0) - 1.0) / 2.0. */
#define INVPHI  ((sqrt(5.0) - 1.0) / 2.0)
#define INVPHI2 ((3.0 - sqrt(5.0)) / 2.0)

typedef long long i64;

/* The scalars of repro_slot, in the order _adapt packs them: the sizes
 * and the compensated-sum flag once per state, CGBA's settings and the
 * fused slot's scalars before every repro_bdma_slot call. */
typedef struct {
    i64 I, K, N, G, compensated;
    i64 max_iter, accept_partial;
    double slack;
    i64 z, warm_start, has_initial, rebind_first, has_deadline, has_available;
    double queue_backlog, v, budget, price, deadline;
} repro_slot_params;

/* One game state, the argument of every state-bound kernel.  Every
 * field is a pointer, in the order _adapt lays them out: the fields of
 * the game's DecomposedState (_SLOT_STATE_FIELDS), then the state
 * cache's buffers (_CACHE_BUFFERS: the slot's arrays, which the adapter
 * copies in, scratch, run_dynamics' mirrors, the best costs and the
 * scalars), then a SlotBinding's buffers (_BINDING_BUFFERS: seeds,
 * round profiles, results), which only repro_bdma_slot reads. */
typedef struct {
    double *loads, *sq, *m, *cur_p, *p, *w, *sub, *wcur;
    i64 *cur_idx, *menu_of_bs, *menu_off, *menu_srv, *nidx, *kbest;
    double *cc, *p_access, *p_front, *p_compute;
    double *m_access, *m_front, *m_compute;
    i64 *bs_of, *server_of;
    double *pa_cur, *pc_cur, *sq_access, *sq_front, *sq_compute;
    double *frequencies;
    double *access_bw, *front_bw, *speed_scale, *suitability;
    double *freq_min, *freq_max, *energy;
    double *se, *bits, *cycles, *front_se;
    double *adj, *t, *bvals, *mirror;
    i64 *imirror;
    double *best;
    const repro_slot_params *params;
    i64 *available;
    double *gaps, *work;
    i64 *seeds, *prev, *best_assign;
    double *freq, *best_freq, *shares, *history, *rtimes, *out_f;
    i64 *rcounts, *out_i;
} repro_slot;

/* One player's decomposed sweep: adjusted per-entry costs, per-menu
 * server argmin, per-bs total argmin, current cost.  Mirrors the NumPy
 * gap_sweep row for row (first-minimum tie breaks via strict <). */
static double sweep_player(const repro_slot *s, i64 i, i64 *kbest_out,
                           double *cur_out)
{
    const repro_slot_params *q = s->params;
    const i64 I = q->I, K = q->K, N = q->N, G = q->G;
    const double *loads = s->loads, *wcur = s->wcur;
    const i64 *cur_idx = s->cur_idx, *menu_of_bs = s->menu_of_bs;
    const i64 *menu_off = s->menu_off, *menu_srv = s->menu_srv;
    double *adj = s->adj, *t = s->t, *bvals = s->bvals;
    i64 *nidx = s->nidx;
    i64 W = 2 * K + N;
    const double *pi = s->p + i * W;
    const double *wi = s->w + i * W;
    const double *si = s->sub + i * W;
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

/* The full sweep: every player's best cost into s->best, its current
 * cost into s->cc, its argmins into s->kbest and s->nidx. */
void repro_gap_sweep(const repro_slot *s)
{
    for (i64 i = 0; i < s->params->I; ++i)
        s->best[i] = sweep_player(s, i, &s->kbest[i], &s->cc[i]);
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
 * engine's hot Python loop.  gaps is the caller's gap vector (the
 * engine's, or the fused slot's s->gaps).  Returns the move count;
 * *converged_out is 1 when the gap argmax hit -inf within the budget.
 *
 * The first move is refreshed with the player-major sweep_player.  A
 * second move builds resource-major (rows x I) mirrors of p, w and sub
 * in s->mirror, fills adj, t and the menu bests from them,
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
 * s->mirror (doubles): pT, wT, subT, adjT (W x I each), tT (K x I),
 * bvT ((G + 1) x I, row G +inf for empty menus), best (I).
 * s->imirror (i64): srv_off (N + 1), srv_menus (menu_off[G]), stamp (G). */
i64 repro_run_dynamics(const repro_slot *s, double *gaps, double slack,
                       i64 max_iter, i64 *converged_out)
{
    const repro_slot_params *q = s->params;
    const i64 I = q->I, K = q->K, N = q->N, G = q->G;
    double *loads = s->loads, *sub = s->sub, *wcur = s->wcur;
    const double *p = s->p, *w = s->w;
    i64 *cur_idx = s->cur_idx, *nidx = s->nidx, *kbest = s->kbest;
    const i64 *menu_of_bs = s->menu_of_bs, *menu_off = s->menu_off;
    const i64 *menu_srv = s->menu_srv;
    const double *p_access = s->p_access, *p_front = s->p_front;
    const double *p_compute = s->p_compute, *m_access = s->m_access;
    const double *m_front = s->m_front, *m_compute = s->m_compute;
    i64 *bs_of = s->bs_of, *server_of = s->server_of;
    double *pa_cur = s->pa_cur, *pc_cur = s->pc_cur;
    double *sq_access = s->sq_access, *sq_front = s->sq_front;
    double *sq_compute = s->sq_compute;
    i64 W = 2 * K + N;
    double *pT = s->mirror, *wT = pT + W * I, *subT = wT + W * I;
    double *adjT = subT + W * I, *tT = adjT + W * I, *bvT = tT + K * I;
    double *best = bvT + (G + 1) * I;
    i64 *srv_off = s->imirror, *srv_menus = srv_off + N + 1;
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
                double bst = sweep_player(s, i, &kbest[i], &cur);
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

/* One lane of the golden-section search on the P2-B quadratic-energy
 * objective f(x) = L/x + E * (S * (A x^2 + B x + C)) over [lo, hi].
 * Replays minimize_convex_scalar: same probe points, same fc <= fd
 * branch, same endpoint-included candidate comparison with the
 * first-minimum tie break, same evaluation counting. */
static double golden_lane(
    double lo, double hi, double tol, i64 max_iter,
    double L, double E, double S, double A, double B, double C,
    i64 *evals_out)
{
    double a = lo, b = hi;
    double width, threshold, c, d, fc, fd, fl, fh, bv, bx;
    i64 evals;
    if (b == a) {
        *evals_out = 1;
        return a;
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
    fl = L / lo + E * (S * (A * lo * lo + B * lo + C));
    fh = L / hi + E * (S * (A * hi * hi + B * hi + C));
    evals += 2;
    bv = fl; bx = lo;
    if (fh < bv) { bv = fh; bx = hi; }
    if (fc < bv) { bv = fc; bx = c; }
    if (fd < bv) { bv = fd; bx = d; }
    *evals_out = evals;
    return bx;
}

/* Per-lane golden-section search, golden_lane on every lane. */
void repro_golden_quad(
    i64 n, const double *lo, const double *hi,
    double tol, i64 max_iter,
    const double *ls, const double *ep, const double *scale,
    const double *qa, const double *qb, const double *qc,
    double *x_out, i64 *evals_out)
{
    for (i64 i = 0; i < n; ++i)
        x_out[i] = golden_lane(lo[i], hi[i], tol, max_iter, ls[i], ep[i],
                               scale[i], qa[i], qb[i], qc[i], &evals_out[i]);
}

/* Re-seed the per-profile arrays from bs_of/server_of, as the NumPy
 * reset_profile does: current indices and weights, loads and squared
 * loads (zero, then each block summed in player order -- the fused
 * bincount's order), then the own-weight rows and current-cost
 * weights.  Returns 1, 0 when an access load is not finite (sub and
 * wcur left unfilled), or -1 on an out-of-range profile entry. */
i64 repro_reset_profile(const repro_slot *s)
{
    const i64 I = s->params->I, K = s->params->K, N = s->params->N;
    const i64 *bs_of = s->bs_of, *server_of = s->server_of;
    const double *p_access = s->p_access, *p_compute = s->p_compute;
    const double *m = s->m;
    double *cur_p = s->cur_p;
    i64 *cur_idx = s->cur_idx;
    double *loads = s->loads, *sq = s->sq, *sub = s->sub, *wcur = s->wcur;
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
void repro_rebind(const repro_slot *s)
{
    const i64 I = s->params->I, K = s->params->K, N = s->params->N;
    const double *h = s->se, *bits = s->bits, *cycles = s->cycles;
    const double *suitability = s->suitability, *m_access = s->m_access;
    double *m_front = s->m_front, *m_compute = s->m_compute;
    double *p_access = s->p_access, *p_front = s->p_front;
    double *p_compute = s->p_compute, *p = s->p, *w = s->w;
    i64 W = 2 * K + N;
    for (i64 k = 0; k < K; ++k)
        m_front[k] = 1.0 / (s->front_bw[k] * s->front_se[k]);
    clock_weights(N, s->speed_scale, s->frequencies, m_compute);
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
void repro_update_frequencies(const repro_slot *s)
{
    const i64 I = s->params->I, K = s->params->K, N = s->params->N;
    double *m_compute = s->m_compute;
    i64 W = 2 * K + N;
    clock_weights(N, s->speed_scale, s->frequencies, m_compute);
    for (i64 i = 0; i < I; ++i) {
        double *wi = s->w + i * W + 2 * K;
        const double *pci = s->p_compute + i * N;
        for (i64 n = 0; n < N; ++n)
            wi[n] = m_compute[n] * pci[n];
        s->wcur[2 * I + i] = m_compute[s->server_of[i]] * s->pc_cur[i];
    }
}

/* ---- One slot's BDMA and Lemma-1 allocation in one call ---------- */

/* time.perf_counter(): CLOCK_MONOTONIC nanoseconds in seconds, rounded
 * as CPython rounds them (whole seconds converted exactly). */
static double now_s(void)
{
    struct timespec ts;
    i64 ns;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    ns = (i64)ts.tv_sec * 1000000000LL + (i64)ts.tv_nsec;
    if (ns % 1000000000LL == 0)
        return (double)(ns / 1000000000LL);
    return (double)ns / 1e9;
}

/* numpy's pairwise summation, which a contiguous float64 .sum() runs:
 * a running sum below 8 entries, eight interleaved accumulators up to
 * 128, and above that a split at half the length rounded down to a
 * multiple of 8. */
double repro_pairwise_sum(const double *a, i64 n)
{
    if (n < 8) {
        double res = 0.0;
        for (i64 i = 0; i < n; ++i)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8], res;
        i64 i;
        for (int j = 0; j < 8; ++j)
            r[j] = a[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; ++j)
                r[j] += a[i + j];
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; ++i)
            res += a[i];
        return res;
    }
    {
        i64 n2 = n / 2;
        n2 -= n2 % 8;
        return repro_pairwise_sum(a, n2) + repro_pairwise_sum(a + n2, n - n2);
    }
}

/* The builtin sum of a list of floats from its int 0 start: a running
 * sum, or with compensated set (CPython 3.12 on) Neumaier's
 * compensated sum, the compensation added at the end when it is
 * non-zero and finite. */
double repro_builtin_sum(const double *x, i64 n, i64 compensated)
{
    double f, c = 0.0;
    if (n == 0)
        return 0.0;
    f = 0.0 + x[0];
    for (i64 i = 1; i < n; ++i) {
        double t = f + x[i];
        if (compensated) {
            if (fabs(f) >= fabs(x[i]))
                c += (f - t) + x[i];
            else
                c += (x[i] - t) + f;
        }
        f = t;
    }
    if (c != 0.0 && isfinite(c))
        f += c;
    return f;
}

/* Per-round records: ROUND_I counts (stage reached -- 1 seeded, 2
 * CGBA done, 3 P2-B done --, refill kind -- 1 rebind, 2 clock update
 * --, moves, converged, searched lanes) and
 * ROUND_T times (P2-A start, refill, reset and sweep seconds, CGBA
 * start, dynamics seconds, CGBA end, P2-B start, golden seconds, P2-B
 * end). */
#define ROUND_I 5
#define ROUND_T 10

static void copy_i64(i64 n, const i64 *src, i64 *dst)
{
    for (i64 i = 0; i < n; ++i)
        dst[i] = src[i];
}

static int same_profile(i64 I, const i64 *bs, const i64 *srv, const i64 *prof)
{
    for (i64 i = 0; i < I; ++i)
        if (bs[i] != prof[i] || srv[i] != prof[I + i])
            return 0;
    return 1;
}

/* T_t of the current profile at clocks freq (optimal_total_latency),
 * reusing the P2-B server roots; the three closed-form terms are
 * .sum()s, hence pairwise. */
static double slot_latency(const repro_slot *s, i64 I, i64 K, i64 N,
                           const double *roots, double *terms)
{
    double *ra = terms + N, *rf = ra + K, *kt = rf + K;
    double proc, access, front;
    for (i64 n = 0; n < N; ++n)
        terms[n] = roots[n] * roots[n] / ((s->speed_scale[n] * s->freq[n]) * 1e9);
    proc = repro_pairwise_sum(terms, N);
    for (i64 k = 0; k < K; ++k) {
        ra[k] = 0.0;
        rf[k] = 0.0;
    }
    for (i64 i = 0; i < I; ++i) {
        i64 k = s->bs_of[i];
        double h = s->se[i * K + k];
        ra[k] += h > 0.0 ? sqrt(s->bits[i] / h) : 0.0;
    }
    for (i64 i = 0; i < I; ++i)
        rf[s->bs_of[i]] += sqrt(s->bits[i]);
    for (i64 k = 0; k < K; ++k)
        kt[k] = ra[k] * ra[k] / s->access_bw[k];
    access = repro_pairwise_sum(kt, K);
    for (i64 k = 0; k < K; ++k)
        kt[k] = rf[k] * rf[k] / (s->front_bw[k] * s->front_se[k]);
    front = repro_pairwise_sum(kt, K);
    return proc + (access + front);
}

/* Whether any of n shares is non-finite, negative or above 1 + 1e-9:
 * what ResourceAllocation's validating constructor refuses. */
i64 repro_shares_invalid(const double *x, i64 n)
{
    for (i64 i = 0; i < n; ++i)
        if (!(x[i] >= 0.0 && x[i] <= 1.0 + 1e-9))
            return 1;
    return 0;
}

/* Lemma 1's shares for profile (bs, srv) into s->shares, rows compute,
 * access, fronthaul (optimal_allocation).  Returns the first device
 * whose base station does not cover it, or -1. */
static i64 slot_allocation(const repro_slot *s, i64 I, i64 K, i64 N,
                           const i64 *bs, const i64 *srv, double *totals)
{
    double *w0 = s->shares, *w1 = w0 + I, *w2 = w1 + I;
    for (i64 i = 0; i < I; ++i)
        if (s->se[i * K + bs[i]] <= 0.0 && s->bits[i] > 0.0)
            return i;
    for (i64 r = 0; r < N + 2 * K; ++r)
        totals[r] = 0.0;
    for (i64 i = 0; i < I; ++i) {
        double h = s->se[i * K + bs[i]];
        w0[i] = sqrt(s->cycles[i] / s->suitability[i * N + srv[i]]);
        w1[i] = h > 0.0 ? sqrt(s->bits[i] / h) : 0.0;
        w2[i] = sqrt(s->bits[i]);
    }
    for (i64 i = 0; i < I; ++i)
        totals[srv[i]] += w0[i];
    for (i64 i = 0; i < I; ++i)
        totals[N + bs[i]] += w1[i];
    for (i64 i = 0; i < I; ++i)
        totals[N + K + bs[i]] += w2[i];
    for (i64 i = 0; i < I; ++i) {
        double d0 = totals[srv[i]], d1 = totals[N + bs[i]];
        double d2 = totals[N + K + bs[i]];
        w0[i] = d0 > 0.0 ? w0[i] / d0 : 0.0;
        w1[i] = d1 > 0.0 ? w1[i] / d1 : 0.0;
        w2[i] = d2 > 0.0 ? w2[i] / d2 : 0.0;
    }
    return -1;
}

/* One slot of BDMA(z) (solve_p2_bdma with a cgba_p2a_solver) and the
 * Lemma-1 allocation of its decision, replaying the Python loop step
 * for step.  Per round: the deadline check, the P2-A workspace refill
 * (rebind on the first round of a new slot state, the clock update
 * otherwise), the profile seed and reset, CGBA (gap sweep, slack gaps,
 * run_dynamics), the fixed-point exit, P2-B (server roots, the fast
 * paths, golden_lane on every searched server) and the round's score
 * (T_t, C_t and the objective), keeping the first best round.
 *
 * Seeds: with warm_start, seeds row 0 is the first round's profile
 * (the carried-over one when has_initial, else a drawn one) and later
 * rounds start from the previous round's; without it, row r seeds
 * round r.  Returns 0, 1 when the deadline expired before the first
 * round, 2 when CGBA hit max_iter without accept_partial, 3 when a
 * seed has a non-finite access load, 4 on an out-of-range seed.
 * out_i: rounds started, rounds run, warm-start hits, truncated,
 * uncovered allocation device (-1 none), decided, shares invalid
 * (repro_shares_invalid), and the engine's moves and sweeps over the
 * rounds CGBA finished.  out_f: objective, latency, cost, and those
 * rounds' sweep and dynamics seconds. */
i64 repro_bdma_slot(const repro_slot *s)
{
    const repro_slot_params *p = s->params;
    const i64 I = p->I, K = p->K, N = p->N, z = p->z;
    const i64 warm_start = p->warm_start, has_initial = p->has_initial;
    const i64 rebind_first = p->rebind_first, max_iter = p->max_iter;
    const i64 accept_partial = p->accept_partial;
    const i64 has_deadline = p->has_deadline;
    const i64 has_available = p->has_available;
    const i64 compensated = p->compensated;
    const double slack = p->slack, queue_backlog = p->queue_backlog;
    const double v = p->v, budget = p->budget, price = p->price;
    const double deadline = p->deadline;
    const double *E = s->energy;
    double *roots = s->work, *terms = roots + N, *power = terms + N + 3 * K;
    double *totals = power + N;
    double energy_pressure = queue_backlog * price;
    double best_obj = INFINITY, best_lat = 0.0, best_cost = 0.0;
    i64 rounds_started = 0, rounds_run = 0, warm_hits = 0, truncated = 0;
    i64 hist = 0, have_best = 0, status = 0;
    i64 have_prev = warm_start && has_initial;
    i64 moves_total = 0, sweeps_total = 0;
    double sweep_s = 0.0, dynamics_s = 0.0;

    for (i64 n = 0; n < N; ++n)
        s->freq[n] = s->freq_min[n];
    if (have_prev)
        copy_i64(2 * I, s->seeds, s->prev);
    for (i64 r = 0; r < z; ++r) {
        i64 *rc = s->rcounts + r * ROUND_I;
        double *rt = s->rtimes + r * ROUND_T;
        double t0;
        i64 st;
        if (has_deadline && now_s() >= deadline) {
            if (!have_best) {
                status = 1;
                break;
            }
            truncated = 1;
            for (double last = s->history[hist - 1]; hist < z; ++hist)
                s->history[hist] = last;
            break;
        }
        for (int j = 0; j < ROUND_I; ++j)
            rc[j] = 0;
        ++rounds_started;
        rt[0] = now_s();
        for (i64 n = 0; n < N; ++n)
            s->frequencies[n] = s->freq[n];
        t0 = now_s();
        if (r == 0 && rebind_first) {
            repro_rebind(s);
            rc[1] = 1;
        } else {
            repro_update_frequencies(s);
            rc[1] = 2;
        }
        rt[1] = now_s() - t0;
        {
            const i64 *seed = !warm_start ? s->seeds + r * 2 * I
                              : r == 0    ? s->seeds
                                          : s->prev;
            copy_i64(I, seed, s->bs_of);
            copy_i64(I, seed + I, s->server_of);
        }
        t0 = now_s();
        st = repro_reset_profile(s);
        rt[2] = now_s() - t0;
        rt[3] = now_s();
        rc[0] = 1;
        if (st <= 0) {
            status = st < 0 ? 4 : 3;
            break;
        }

        /* CGBA: the engine restart's full sweep and gaps, then the
         * fused dynamics. */
        t0 = now_s();
        repro_gap_sweep(s);
        rt[4] = now_s() - t0;
        for (i64 i = 0; i < I; ++i)
            s->gaps[i] = gap_value(slack, s->cc[i], s->best[i]);
        {
            i64 conv = 0, moves;
            t0 = now_s();
            moves = repro_run_dynamics(s, s->gaps, slack, max_iter, &conv);
            rt[5] = now_s() - t0;
            rt[6] = now_s();
            rc[0] = 2;
            rc[2] = moves;
            rc[3] = conv;
            if (!conv && !accept_partial) {
                status = 2;
                break;
            }
            moves_total += moves;
            sweeps_total += moves + 1;
            sweep_s += rt[4];
            dynamics_s += rt[5];
        }
        ++rounds_run;
        if (warm_start && have_prev
            && same_profile(I, s->bs_of, s->server_of, s->prev)) {
            ++warm_hits;
            if (r > 0) {
                /* Alternation fixed point: every later round replays
                 * this one bit for bit. */
                warm_hits += (z - r) - 1;
                for (double last = s->history[hist - 1]; hist < z; ++hist)
                    s->history[hist] = last;
                break;
            }
        }

        /* P2-B: fast paths, then the golden-section search per
         * loaded server (solve_p2b on a native golden_quad). */
        rt[7] = now_s();
        for (i64 n = 0; n < N; ++n)
            roots[n] = 0.0;
        for (i64 i = 0; i < I; ++i) {
            i64 n = s->server_of[i];
            roots[n] += sqrt(s->cycles[i] / s->suitability[i * N + n]);
        }
        for (i64 n = 0; n < N; ++n)
            s->freq[n] = s->freq_min[n];
        rt[8] = 0.0;
        if (energy_pressure <= 0.0) {
            for (i64 n = 0; n < N; ++n)
                if (roots[n] * roots[n] > 0.0
                    && (!has_available || s->available[n]))
                    s->freq[n] = s->freq_max[n];
        } else {
            i64 searched = 0;
            t0 = now_s();
            for (i64 n = 0; n < N; ++n) {
                double demand = roots[n] * roots[n];
                i64 ev;
                if (!(demand > 0.0) || (has_available && !s->available[n]))
                    continue;
                s->freq[n] = golden_lane(
                    s->freq_min[n], s->freq_max[n], 1e-8, 200,
                    v * demand / (s->speed_scale[n] * 1e9), energy_pressure,
                    E[n], E[N + n], E[2 * N + n], E[3 * N + n], &ev);
                ++searched;
            }
            rt[8] = now_s() - t0;
            rc[4] = searched;
        }
        rt[9] = now_s();
        rc[0] = 3;

        /* The round's score: v T_t + Q (C_t - budget). */
        {
            double latency = slot_latency(s, I, K, N, roots, terms);
            double cost, obj;
            i64 m = 0;
            for (i64 n = 0; n < N; ++n) {
                double f = s->freq[n];
                if (has_available && !s->available[n])
                    continue;
                power[m++] = E[n] * (E[N + n] * f * f + E[2 * N + n] * f
                                     + E[3 * N + n]);
            }
            cost = price * repro_builtin_sum(power, m, compensated);
            obj = v * latency + queue_backlog * (cost - budget);
            s->history[hist++] = obj;
            if (obj < best_obj) {
                best_obj = obj;
                best_lat = latency;
                best_cost = cost;
                have_best = 1;
                copy_i64(I, s->bs_of, s->best_assign);
                copy_i64(I, s->server_of, s->best_assign + I);
                for (i64 n = 0; n < N; ++n)
                    s->best_freq[n] = s->freq[n];
            }
        }
        copy_i64(I, s->bs_of, s->prev);
        copy_i64(I, s->server_of, s->prev + I);
        have_prev = 1;
    }
    s->out_i[0] = rounds_started;
    s->out_i[1] = rounds_run;
    s->out_i[2] = warm_hits;
    s->out_i[3] = truncated;
    s->out_i[4] = -1;
    s->out_i[5] = have_best;
    s->out_i[6] = 0;
    s->out_i[7] = moves_total;
    s->out_i[8] = sweeps_total;
    s->out_f[0] = best_obj;
    s->out_f[1] = best_lat;
    s->out_f[2] = best_cost;
    s->out_f[3] = sweep_s;
    s->out_f[4] = dynamics_s;
    if (status != 0 || !have_best)
        return status;
    s->out_i[4] = slot_allocation(s, I, K, N, s->best_assign,
                                  s->best_assign + I, totals);
    if (s->out_i[4] < 0)
        s->out_i[6] = repro_shares_invalid(s->shares, 3 * I);
    return 0;
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
    src_path = cache / f"reprokern-{digest}.c"
    try:
        cache.mkdir(parents=True, exist_ok=True)
        src_path.write_text(_SOURCE)
    except OSError as exc:
        raise KernelBuildError(f"kernel cache {cache} unusable: {exc}") from exc
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
# array and lays the converted pointers out as the repro_slot struct.
_ptr = ctypes.c_void_p
_ll = ctypes.c_longlong
_dbl = ctypes.c_double


def _as_ptr(arr: np.ndarray) -> ctypes.c_void_p:
    """The array's data pointer, for the c_void_p argument slots."""
    return ctypes.c_void_p(arr.ctypes.data)


def _bind(lib: ctypes.CDLL) -> RawKernels:
    def declare(name: str, restype, *argtypes):
        fn = getattr(lib, f"repro_{name}")
        fn.restype, fn.argtypes = restype, list(argtypes)
        return fn

    # The state-bound kernels take the repro_slot struct (run_dynamics
    # also its gap vector, slack, max_iter and converged flag); only
    # golden_quad and greedy_pass take flat arguments.
    return RawKernels(
        gap_sweep=declare("gap_sweep", None, _ptr),
        run_dynamics=declare("run_dynamics", _ll, _ptr, _ptr, _dbl, _ll, _ptr),
        golden_quad=declare(
            "golden_quad", None, _ll, _ptr, _ptr, _dbl, _ll, *[_ptr] * 8
        ),
        reset_profile=declare("reset_profile", _ll, _ptr),
        rebind=declare("rebind", None, _ptr),
        update_frequencies=declare("update_frequencies", None, _ptr),
        greedy_pass=declare("greedy_pass", _ll, *[_ll] * 6, *[_ptr] * 13),
        bdma_slot=declare("bdma_slot", _ll, _ptr),
        slot_struct=_slot_struct,
    )


def _slot_struct(pointers: "tuple[ctypes.c_void_p | None, ...]") -> tuple:
    """A ``repro_slot`` struct (every field a pointer, so an array of
    ``void *`` has its layout; ``None`` is NULL) and the argument that
    passes it; the array must outlive every call."""
    struct = (ctypes.c_void_p * len(pointers))(*pointers)
    return struct, ctypes.c_void_p(ctypes.addressof(struct))


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

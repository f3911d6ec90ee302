/* Compiled event kernels for invitesim.ctmc: the scheme-B loop behind
 * simulate_b and drift_replicates_b, and the simulate_a loop, statement for
 * statement.
 *
 * Each kernel reads the same uniforms in the same order as the Python loop
 * (hold, pick, thin if the pick is an arrival candidate, round if enabled)
 * and evaluates the same double expressions, so the grids, the event log and
 * the event count agree bit for bit.  Build with -ffp-contract=off and without
 * fast-math: a fused multiply-add or a reassociation would change the last
 * bit.  log and sin are libm's, the functions math.log and math.sin call.
 *
 * A call runs until one of:
 *   K_DONE      the run has ended and the grid is filled;
 *   K_NEED_U    an event needs a uniform past u[n_u - 1]; ui and t are rolled
 *               back to the start of that event, and no state it would change
 *               has changed except grid samples it rewrites the same way;
 *   K_LOG_FULL  the log chunk holds log_cap entries; the event is complete;
 *   K_THIN_ERR  the arrival rate err_lam at time t exceeds the declared bound.
 * The caller refills u or swaps the chunk and calls again with the same state.
 * run_b with n_reps > 0 runs n_reps windows [0, horizon] from (y0, x0), each
 * reading on from where the last one stopped, and writes each window's
 * (y - y0, x - x0) to out; a resumed window rolls back like any other event.
 * No global state: concurrent calls on separate states are safe.
 */
#include <math.h>
#include <stdint.h>

enum { K_DONE = 0, K_NEED_U = 1, K_LOG_FULL = 2, K_THIN_ERR = 3 };
enum { ARR_NONE = 0, ARR_SINUSOID = 1, ARR_PIECEWISE = 2 };

/* Every field is 8 bytes wide, so the layout has no padding; the ctypes
 * mirror in invitesim/_native.py lists the same fields in the same order. */
typedef struct {
    /* model, fixed for a run */
    double beta, eps, beta_t, gamma, bound_rate, bound, g_frac;
    int64_t g_lo, gamma_int, rounding;
    int64_t arrival;              /* ARR_*; ARR_NONE means no thinning */
    double a_base, a_amp, a_period;
    const double *bp, *bv;        /* piecewise: n_bp breakpoints, n_bp + 1 values */
    int64_t n_bp;
    /* grid */
    double horizon, dtg;
    int64_t n_grid;
    int64_t *ys, *xs;
    double *tgts;                 /* scheme A only */
    /* uniforms */
    const double *u;
    int64_t n_u, ui;
    /* event log chunk */
    int64_t budget, logging, truncated;
    double *log_t;
    int64_t *log_y, *log_x;
    int64_t log_cap, log_n;
    /* run state */
    double t, tg, target, last_change, err_lam;
    int64_t y, x, gi, n_events;
    /* drift windows of run_b; n_reps = 0 is one plain run */
    int64_t n_reps, rep, y0, x0;
    int64_t *out;                 /* n_reps rows of (dy, dx) */
} kstate;

/* lets the loader check that its mirror of kstate has the same size */
int64_t kstate_size(void)
{
    return (int64_t)sizeof(kstate);
}

/* ArrivalRateFn.__call__ of SinusoidArrival and PiecewiseConstantArrival */
static double rate_at(const kstate *s, double t)
{
    if (s->arrival == ARR_SINUSOID)
        return s->a_base + s->a_amp * sin(2.0 * 3.141592653589793 * t / s->a_period);
    for (int64_t i = 0; i < s->n_bp; i++)
        if (t < s->bp[i])
            return s->bv[i];
    return s->bv[s->n_bp];
}

/* next uniform into v, or roll the event back and ask for more */
#define DRAW(v)                                                          \
    do {                                                                 \
        if (s->ui >= s->n_u) {                                           \
            s->ui = ui0;                                                 \
            s->t = t0;                                                   \
            return K_NEED_U;                                             \
        }                                                                \
        (v) = s->u[s->ui++];                                             \
    } while (0)

/* post-event state into the log; 1 when the chunk is now full */
static int log_event(kstate *s)
{
    s->n_events++;
    if (!s->logging)
        return 0;
    if (s->n_events > s->budget) {
        s->truncated = 1;
        s->logging = 0;
        return 0;
    }
    s->log_t[s->log_n] = s->t;
    s->log_y[s->log_n] = s->y;
    s->log_x[s->log_n] = s->x;
    return ++s->log_n == s->log_cap;
}

/* grid samples up to the first grid time at or after tn */
static void fill_grid(kstate *s, double tn)
{
    while (s->tg < tn) {
        s->ys[s->gi] = s->y;
        s->xs[s->gi] = s->x;
        if (s->tgts)
            s->tgts[s->gi] = s->target;
        s->gi++;
        s->tg = s->gi < s->n_grid ? (double)s->gi * s->dtg : INFINITY;
    }
}

/* thinning test of an arrival candidate at s->t: 1 keep, 0 reject,
 * or a K_* code to return */
#define THIN(keep)                                                       \
    do {                                                                 \
        double lam_t_ = rate_at(s, s->t), v_;                            \
        if (lam_t_ > s->bound * (1.0 + 1e-9)) {                          \
            s->err_lam = lam_t_;                                         \
            return K_THIN_ERR;                                           \
        }                                                                \
        DRAW(v_);                                                        \
        (keep) = v_ * s->bound < lam_t_;                                 \
    } while (0)

/* end of a run_b window: record its (dy, dx) and restart from (y0, x0) at
 * t = 0; 1 when no window is left, always so for n_reps = 0 */
static int end_window(kstate *s)
{
    if (s->rep == s->n_reps)
        return 1;
    s->out[2 * s->rep] = s->y - s->y0;
    s->out[2 * s->rep + 1] = s->x - s->x0;
    if (++s->rep == s->n_reps)
        return 1;
    s->y = s->y0;
    s->x = s->x0;
    s->t = 0.0;
    return 0;
}

int run_b(kstate *s)
{
    for (;;) {
        int64_t ui0 = s->ui, y = s->y, x = s->x, step;
        double t0 = s->t, u, tn, pick;
        double acc = s->beta * (double)x;
        double fb = s->eps * (double)(y > 0 ? y : -y);
        double total = s->bound_rate + acc + fb;
        if (total <= 0.0) {
            if (end_window(s))
                break;
            continue;
        }
        DRAW(u);
        tn = s->t + -log(1.0 - u) / total;
        fill_grid(s, tn);
        if (tn > s->horizon) {
            if (end_window(s))
                break;
            continue;
        }
        DRAW(u);
        s->t = tn;
        pick = u * total;
        if (pick < s->bound_rate) {
            if (s->arrival != ARR_NONE) {
                int keep;
                THIN(keep);
                if (!keep)
                    continue;
            }
            step = s->gamma_int;
            if (s->rounding) {
                DRAW(u);
                step = s->g_lo + (u < s->g_frac ? 1 : 0);
            }
            s->y = y - 1;
            s->x = x + step;
        } else if (pick < s->bound_rate + acc) {
            step = s->gamma_int;
            if (s->rounding) {
                DRAW(u);
                step = s->g_lo + (u < s->g_frac ? 1 : 0);
            }
            s->y = y + 1;
            s->x = x - (x >= step ? step : x);
        } else if (x >= 1) {
            s->x = x + (y > 0 ? -1 : 1);
        } else if (y < 0) {
            s->x = x + 1;
        }
        if (log_event(s))
            return K_LOG_FULL;
    }
    fill_grid(s, INFINITY);
    return K_DONE;
}

int run_a(kstate *s)
{
    for (;;) {
        int64_t ui0 = s->ui, y = s->y, x = s->x;
        double t0 = s->t, u, tn, pick, v;
        double acc = s->beta * (double)x;
        double rej = s->beta_t * (double)x;
        double total = s->bound_rate + acc + rej;
        if (total <= 0.0)
            break;
        DRAW(u);
        tn = s->t + -log(1.0 - u) / total;
        fill_grid(s, tn);
        if (tn > s->horizon)
            break;
        DRAW(u);
        s->t = tn;
        pick = u * total;
        if (pick < s->bound_rate) {
            if (s->arrival != ARR_NONE) {
                int keep;
                THIN(keep);
                if (!keep)
                    continue;
            }
            v = s->target + s->gamma - s->eps * (double)y * (s->t - s->last_change);
            s->target = v > 0.0 ? v : 0.0;  /* max(0.0, v), signed zeros included */
            s->last_change = s->t;
            s->y = y - 1;
        } else if (pick < s->bound_rate + acc) {
            v = s->target - s->gamma - s->eps * (double)y * (s->t - s->last_change);
            s->target = v > 0.0 ? v : 0.0;
            s->last_change = s->t;
            s->y = y + 1;
            s->x = --x;
        } else {
            s->x = --x;
        }
        if ((double)s->x < s->target)
            s->x = (int64_t)ceil(s->target);
        if (log_event(s))
            return K_LOG_FULL;
    }
    fill_grid(s, INFINITY);
    return K_DONE;
}

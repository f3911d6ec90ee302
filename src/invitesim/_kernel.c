/* Compiled event kernels for invitesim.ctmc: the scheme-B loop behind
 * simulate_b and drift_replicates_b, and the simulate_a loop, statement for
 * statement, with one stated exception, run_b's squeeze, that changes no
 * output.
 *
 * Each kernel reads the same uniforms in the same order as the Python loop
 * and takes the same branches on the same double values, so the grids, the
 * event log and the event count agree bit for bit.  Per event run_b reads
 * hold, pick, and thin if the pick is an arrival candidate of a time-varying
 * rate; run_a, which runs at the constant rate only, reads hold and pick.
 * Both log each event's (t, kind, dy, dx) from the branch it took.  Build
 * with -ffp-contract=off and without fast-math: a fused multiply-add or a
 * reassociation would change the last bit.  log and sin are libm's, the
 * functions math.log and math.sin call.
 *
 * The squeeze skips a libm call whose result cannot change a branch, in
 * two places, each with a bound widened far beyond the rounding of either
 * side of the comparison it replaces:
 *   thinning      a sinusoid candidate is kept or dropped against bounds on
 *                 its rate from the last exactly evaluated one, and sin runs
 *                 only between them (thin_keep);
 *   quiet windows a drift window whose first hold outlasts it is told by
 *                 comparing its first uniform with a threshold, without log
 *                 (quiet_threshold, skip_quiet).
 * Thinning trusts the bound: it is the profile's bound(), its exact peak,
 * and SinusoidArrival and PiecewiseConstantArrival, which cannot be
 * subclassed, are the only profiles, so no candidate's rate exceeds it.
 *
 * The uniforms are read from the block u[0 .. n_u), which refill fills from
 * the run's numpy bit generator, one next_double per slot in order, as
 * Generator.random fills an array.  A call runs until one of:
 *   K_DONE      the run has ended and the grid is filled;
 *   K_LOG_FULL  the log chunk holds log_cap entries; the event is complete,
 *               and the caller swaps the chunk and calls again.
 * run_b with n_reps > 0 runs n_reps windows [0, horizon] from (y0, x0) at
 * the constant rate (ARR_NONE) and with no grid, each reading on from where
 * the last one stopped, and writes each window's (y - y0, x - x0) to out.
 * No global state: concurrent calls on separate states are safe.
 *
 * format_rows writes CSV rows of int64, float64 and fixed-width bytes
 * columns, each float as Python's format(v, '.10g') or format(v, '.12g')
 * gives it, byte for byte (see fmt_g); it reads no global state either.
 */
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

enum { K_DONE = 0, K_LOG_FULL = 1 };
enum { ARR_NONE = 0, ARR_SINUSOID = 1, ARR_PIECEWISE = 2 };
/* event kinds of the log, ctmc's K_ARRIVAL .. K_REJECT */
enum { EV_ARRIVAL = 0, EV_ACCEPT = 1, EV_FEEDBACK_UP = 2, EV_FEEDBACK_DOWN = 3,
       EV_REJECT = 4 };

/* Every field is 8 bytes wide, so the layout has no padding; the ctypes
 * mirror in invitesim/_native.py lists the same fields in the same order. */
typedef struct {
    /* model, fixed for a run */
    double beta, eps, beta_t, gamma, bound_rate, bound;
    int64_t gamma_int;
    int64_t arrival;              /* ARR_*; ARR_NONE means no thinning */
    double a_base, a_amp, a_period;
    const double *bp, *bv;        /* piecewise: n_bp breakpoints, n_bp + 1 values */
    int64_t n_bp;
    /* grid */
    double horizon, dtg;
    int64_t n_grid;
    int64_t *ys, *xs;
    double *tgts;                 /* scheme A only */
    /* uniforms, and the numpy bit generator's state and next_double */
    double *u;
    int64_t n_u, ui;
    void *bitgen;
    double (*next_double)(void *);
    /* event log chunk: each event's time, kind, dy and dx */
    int64_t budget, logging, truncated;
    double *log_t;
    int8_t *log_kind, *log_dy;
    int32_t *log_dx;
    int64_t log_cap, log_n;
    /* run state */
    double t, tg, target, last_change;
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

/* run_b's thinning state for one call */
typedef struct {
    double ta, la;      /* the last exactly evaluated rate: la at time ta */
    double slope;       /* |amp| * 2pi/period, widened: the rate's Lipschitz constant */
    double slack0, slack1;  /* rounding slack slack0 + slack1 * t */
} thinning;

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

/* the thinning state at time t */
static thinning thinning_at(const kstate *s, double t)
{
    thinning th = {0};
    th.ta = t;
    th.la = rate_at(s, t);
    if (s->arrival == ARR_SINUSOID) {
        double w = 2.0 * 3.141592653589793 / s->a_period;
        th.slope = fabs(s->a_amp) * w * (1.0 + 1e-12);
        th.slack0 = 1e-12 * (s->a_base + 2.0 * fabs(s->a_amp));
        th.slack1 = 1e-12 * fabs(s->a_amp) * w;
    }
    return th;
}

/* the next n_u draws of the bit generator into the block */
static __attribute__((cold, noinline)) void refill(kstate *s)
{
    for (int64_t i = 0; i < s->n_u; i++)
        s->u[i] = s->next_double(s->bitgen);
    s->ui = 0;
}

/* the next uniform */
static double draw(kstate *s)
{
    if (s->ui >= s->n_u)
        refill(s);
    return s->u[s->ui++];
}

/* Thin the arrival candidate at s->t: 1 keep, 0 drop.  The candidate is
 * kept when v = u * bound < rate(t).  A sinusoid's computed rate differs from the
 * anchor la by at most slope * (t - ta) + slack(t): slack, 1e-12 of the
 * rate's scale and of its argument, covers the rounding of the argument,
 * of sin and of the sums at t and at ta, which is below 1e-15 of them.
 * Outside that bracket around la the answer is known without sin. */
static int thin_keep(kstate *s, thinning *th)
{
    double t = s->t, v = draw(s) * s->bound, lam_t;
    if (s->arrival == ARR_SINUSOID) {
        double d = th->slope * (t - th->ta) + th->slack0 + th->slack1 * t;
        if (v < th->la - d)
            return 1;
        if (v >= th->la + d)
            return 0;
    }
    lam_t = rate_at(s, t);
    th->ta = t;
    th->la = lam_t;
    return v < lam_t;
}

/* one event into the log; 1 when the chunk is now full */
static int log_event(kstate *s, int kind, int dy, int64_t dx)
{
    int64_t n;
    s->n_events++;
    if (!s->logging)
        return 0;
    if (s->n_events > s->budget) {
        s->truncated = 1;
        s->logging = 0;
        return 0;
    }
    n = s->log_n;
    s->log_t[n] = s->t;
    s->log_kind[n] = (int8_t)kind;
    s->log_dy[n] = (int8_t)dy;
    s->log_dx[n] = (int32_t)dx;
    return (s->log_n = n + 1) == s->log_cap;
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

/* Each drift window starts at t = 0 from (y0, x0), at the rate total0.  Its
 * first hold, -log(1 - u) / total0, outlasts the window exactly when
 * u > -expm1(-horizon * total0); above that threshold, widened by 1e-12 of
 * it and by 1e-300 for a product that underflows, the window is quiet
 * without log.  At or above 1 no uniform is. */
static double quiet_threshold(const kstate *s)
{
    double total0 = s->bound_rate + s->beta * (double)s->x0
                    + s->eps * (double)(s->y0 > 0 ? s->y0 : -s->y0);
    return -expm1(-s->horizon * total0) * (1.0 + 1e-12) + 1e-300;
}

/* at the start of a window: end every quiet window from here on; 1 when no
 * window is left.  The uniform that ends the scan is the next window's first
 * hold, and is put back to be read again. */
static int skip_quiet(kstate *s, double quiet)
{
    while (draw(s) > quiet)
        if (end_window(s))
            return 1;
    s->ui--;
    return 0;
}

int run_b(kstate *s)
{
    thinning th = {0};
    double quiet = quiet_threshold(s);  /* read at window starts only */
    if (s->arrival != ARR_NONE)
        th = thinning_at(s, s->t);
    /* drift windows log nothing, so their run is one call from the start of
     * the first window */
    if (s->n_reps > 0 && skip_quiet(s, quiet))
        return K_DONE;
    for (;;) {
        int64_t y = s->y, x = s->x, dx;
        int kind, dy;
        double tn, pick;
        double acc = s->beta * (double)x;
        double fb = s->eps * (double)(y > 0 ? y : -y);
        double total = s->bound_rate + acc + fb;
        /* no event is enabled: only a plain run under an all-zero rate gets
         * here, as drift windows run at bound_rate = lam*r > 0 */
        if (total <= 0.0)
            break;
        tn = s->t + -log(1.0 - draw(s)) / total;
        fill_grid(s, tn);
        if (tn > s->horizon) {
            if (end_window(s) || skip_quiet(s, quiet))
                break;
            continue;
        }
        s->t = tn;
        pick = draw(s) * total;
        if (pick < s->bound_rate) {
            if (s->arrival != ARR_NONE && !thin_keep(s, &th))
                continue;
            kind = EV_ARRIVAL;
            dy = -1;
            dx = s->gamma_int;
        } else if (pick < s->bound_rate + acc) {
            kind = EV_ACCEPT;
            dy = 1;
            dx = -(x >= s->gamma_int ? s->gamma_int : x);
        } else {
            /* feedback: one more invitation when Y < 0, one fewer when
             * Y > 0, none at X = 0 with Y >= 0 (a null withdrawal) */
            dy = 0;
            dx = x >= 1 ? (y > 0 ? -1 : 1) : (y < 0 ? 1 : 0);
            kind = dx == 1 ? EV_FEEDBACK_UP : EV_FEEDBACK_DOWN;
        }
        s->y = y + dy;
        s->x = x + dx;
        if (log_event(s, kind, dy, dx))
            return K_LOG_FULL;
    }
    fill_grid(s, INFINITY);
    return K_DONE;
}

int run_a(kstate *s)
{
    for (;;) {
        int64_t y = s->y, x = s->x;
        int kind, dy;
        double tn, pick, v;
        double acc = s->beta * (double)x;
        double rej = s->beta_t * (double)x;
        double total = s->bound_rate + acc + rej;
        if (total <= 0.0)
            break;
        tn = s->t + -log(1.0 - draw(s)) / total;
        fill_grid(s, tn);
        if (tn > s->horizon)
            break;
        s->t = tn;
        pick = draw(s) * total;
        if (pick < s->bound_rate) {
            v = s->target + s->gamma - s->eps * (double)y * (s->t - s->last_change);
            s->target = v > 0.0 ? v : 0.0;  /* max(0.0, v), signed zeros included */
            s->last_change = s->t;
            kind = EV_ARRIVAL;
            dy = -1;
        } else if (pick < s->bound_rate + acc) {
            v = s->target - s->gamma - s->eps * (double)y * (s->t - s->last_change);
            s->target = v > 0.0 ? v : 0.0;
            s->last_change = s->t;
            kind = EV_ACCEPT;
            dy = 1;
            s->x = x - 1;
        } else {
            kind = EV_REJECT;
            dy = 0;
            s->x = x - 1;
        }
        s->y = y + dy;
        if ((double)s->x < s->target)
            s->x = (int64_t)ceil(s->target);
        if (log_event(s, kind, dy, s->x - x))
            return K_LOG_FULL;
    }
    fill_grid(s, INFINITY);
    return K_DONE;
}

/* ---- CSV rows ---- */

typedef unsigned __int128 u128;

enum { COL_INT = 0, COL_BYTES = 1, COL_G10 = 10, COL_G12 = 12 };

/* one column of format_rows; the ctypes mirror is _csv's (kind, width, base,
 * stride) rows of int64 */
typedef struct {
    int64_t kind;    /* COL_*; COL_G10 and COL_G12 are float64 at that precision */
    int64_t width;   /* bytes per element of a COL_BYTES column */
    int64_t base;    /* address of row 0 */
    int64_t stride;  /* bytes from one row to the next */
} column;

/* the longest field a number can take: "-1.23456789012e-308" is 19 bytes and
 * "-9223372036854775808" 20 */
#define FIELD_MAX 24

static const uint64_t POW5[28] = {
    1ULL, 5ULL, 25ULL, 125ULL, 625ULL, 3125ULL, 15625ULL, 78125ULL, 390625ULL,
    1953125ULL, 9765625ULL, 48828125ULL, 244140625ULL, 1220703125ULL,
    6103515625ULL, 30517578125ULL, 152587890625ULL, 762939453125ULL,
    3814697265625ULL, 19073486328125ULL, 95367431640625ULL, 476837158203125ULL,
    2384185791015625ULL, 11920928955078125ULL, 59604644775390625ULL,
    298023223876953125ULL, 1490116119384765625ULL, 7450580596923828125ULL};

static const uint64_t POW10[13] = {
    1ULL, 10ULL, 100ULL, 1000ULL, 10000ULL, 100000ULL, 1000000ULL, 10000000ULL,
    100000000ULL, 1000000000ULL, 10000000000ULL, 100000000000ULL,
    1000000000000ULL};

/* 10^k for k = -30 .. 30, to place |v| between two powers of ten */
static const double P10[61] = {
    1e-30, 1e-29, 1e-28, 1e-27, 1e-26, 1e-25, 1e-24, 1e-23, 1e-22, 1e-21,
    1e-20, 1e-19, 1e-18, 1e-17, 1e-16, 1e-15, 1e-14, 1e-13, 1e-12, 1e-11,
    1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1e0, 1e1,
    1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14,
    1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22, 1e23, 1e24, 1e25, 1e26,
    1e27, 1e28, 1e29, 1e30};

static int bitlen(u128 x)
{
    uint64_t hi = (uint64_t)(x >> 64), lo = (uint64_t)x;
    return hi ? 128 - __builtin_clzll(hi) : lo ? 64 - __builtin_clzll(lo) : 0;
}

/* round_half_even(m * 2^q * 10^k), exact, into *d; 0 when a step would
 * leave 128 bits.  With 10^k = 5^k * 2^k this is num / den for
 * num = m * 5^max(k,0) * 2^max(q+k,0) and den = 5^max(-k,0) * 2^max(-q-k,0). */
static int scale_round(uint64_t m, int q, int k, uint64_t *d)
{
    u128 num = m, den = 1, quot, rem;
    int e2 = q + k;
    if (k > 54 || k < -54)
        return 0;
    if (k != 0) {
        int a = k > 0 ? k : -k;
        u128 f = a <= 27 ? (u128)POW5[a] : (u128)POW5[27] * POW5[a - 27];
        if (k > 0) {
            if (bitlen(num) + bitlen(f) > 128)
                return 0;
            num *= f;
        } else
            den = f;
    }
    if (e2 >= 0) {
        if (bitlen(num) + e2 > 128)
            return 0;
        num <<= e2;
    } else {
        if (bitlen(den) - e2 > 128)
            return 0;
        den <<= -e2;
    }
    /* a power of two, as den is for every |v| < 10^(p-1): shift, do not divide */
    quot = den & (den - 1) ? num / den : num >> (bitlen(den) - 1);
    rem = num - quot * den;
    if (rem > den - rem || (rem == den - rem && (quot & 1)))
        quot++;
    *d = (uint64_t)quot;
    return 1;
}

/* |v| rounded to p significant digits as d * 10^(E - p + 1), with
 * 10^(p-1) <= d < 10^p; returns E.  Finite non-zero v only. */
static int round_digits(double v, int p, uint64_t *d)
{
    uint64_t bits, m;
    int be, E;
    memcpy(&bits, &v, sizeof bits);
    be = (int)(bits >> 52 & 0x7ff);
    m = (bits & ((1ULL << 52) - 1)) | 1ULL << 52;
    /* floor(log10|v|) from the binary exponent, which is cheaper than
     * libm's log10: (be - 1023) * log10(2) is it or one below.  A d out of
     * [10^(p-1), 10^p) moves E by one, as does a rounding that carries
     * into a new digit. */
    E = (be - 1023) * 78913 >> 18;
    if (E >= -31 && E < 30 && fabs(v) >= P10[E + 31])
        E++;
    while (be != 0 && scale_round(m, be - 1075, p - 1 - E, d)) {
        if (*d >= POW10[p])
            E++;
        else if (*d < POW10[p - 1])
            E--;
        else
            return E;
    }
    /* subnormal, or too far from 1 for 128 bits: libc's %e rounds exactly
     * too; the decimal point, whatever LC_NUMERIC makes it, is skipped */
    char t[48], *c;
    snprintf(t, sizeof t, "%.*e", p - 1, fabs(v));
    *d = 0;
    for (c = t; *c != 'e'; c++)
        if (*c >= '0' && *c <= '9')
            *d = *d * 10 + (uint64_t)(*c - '0');
    return atoi(c + 1);
}

/* Python's format(v, '.{p}g') into s; returns the end of the text */
static char *fmt_g(char *s, double v, int p)
{
    char dig[16];
    uint64_t d;
    int E, n, i;
    if (isnan(v)) {
        memcpy(s, "nan", 3);
        return s + 3;
    }
    if (signbit(v))
        *s++ = '-';
    if (isinf(v)) {
        memcpy(s, "inf", 3);
        return s + 3;
    }
    if (v == 0.0) {
        *s++ = '0';
        return s;
    }
    E = round_digits(v, p, &d);
    for (n = p; d % 10 == 0; n--)  /* trailing zeros go */
        d /= 10;
    for (i = n - 1; i >= 0; i--, d /= 10)
        dig[i] = (char)('0' + d % 10);
    if (E < -4 || E >= p) {
        int a = E < 0 ? -E : E;
        *s++ = dig[0];
        if (n > 1) {
            *s++ = '.';
            memcpy(s, dig + 1, (size_t)(n - 1));
            s += n - 1;
        }
        *s++ = 'e';
        *s++ = E < 0 ? '-' : '+';
        if (a >= 100)
            *s++ = (char)('0' + a / 100);
        *s++ = (char)('0' + a / 10 % 10);
        *s++ = (char)('0' + a % 10);
    } else if (E >= 0) {
        for (i = 0; i <= E; i++)
            *s++ = i < n ? dig[i] : '0';
        if (n > E + 1) {
            *s++ = '.';
            memcpy(s, dig + E + 1, (size_t)(n - E - 1));
            s += n - E - 1;
        }
    } else {
        *s++ = '0';
        *s++ = '.';
        for (i = -1; i > E; i--)
            *s++ = '0';
        memcpy(s, dig, (size_t)n);
        s += n;
    }
    return s;
}

static char *fmt_int(char *s, int64_t v)
{
    char t[20];
    int n = 0;
    uint64_t u = v < 0 ? 0 - (uint64_t)v : (uint64_t)v;
    if (v < 0)
        *s++ = '-';
    do {
        t[n++] = (char)('0' + u % 10);
        u /= 10;
    } while (u);
    while (n)
        *s++ = t[--n];
    return s;
}

/* rows r0 .. r1 - 1 of the columns into buf as CSV: fields joined by ',', a
 * '\n' after each row, a bytes field up to its trailing NULs as numpy reads
 * it.  Returns the bytes written, or -1 when a row might not fit in the cap
 * bytes of buf. */
int64_t format_rows(char *buf, int64_t cap, int64_t ncols, const column *cols,
                     int64_t r0, int64_t r1)
{
    char *s = buf;
    int64_t row_max = 0;
    for (int64_t j = 0; j < ncols; j++)
        row_max += (cols[j].kind == COL_BYTES ? cols[j].width : FIELD_MAX) + 1;
    for (int64_t r = r0; r < r1; r++) {
        if (s - buf + row_max > cap)
            return -1;
        for (int64_t j = 0; j < ncols; j++) {
            const column *c = cols + j;
            const char *e = (const char *)(intptr_t)c->base + r * c->stride;
            double v;
            int64_t iv, w;
            switch (c->kind) {
            case COL_INT:
                memcpy(&iv, e, sizeof iv);
                s = fmt_int(s, iv);
                break;
            case COL_BYTES:
                for (w = c->width; w > 0 && e[w - 1] == 0; w--)
                    ;
                memcpy(s, e, (size_t)w);
                s += w;
                break;
            default:
                memcpy(&v, e, sizeof v);
                s = fmt_g(s, v, (int)c->kind);
            }
            *s++ = j + 1 < ncols ? ',' : '\n';
        }
    }
    return s - buf;
}

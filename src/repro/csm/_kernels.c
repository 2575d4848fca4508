/* Forward-Euler step loops of the CSM integrator (repro/csm/simulate.py).
 *
 * Each loop transcribes one scalar twin of simulate.py operation for
 * operation: csm_output is _scalar_recurrence_output, csm_internal is
 * _scalar_recurrence_internal.  Built with -ffp-contract=off and without
 * -ffast-math, every double operation here rounds exactly as its Python
 * counterpart does, so each row's samples are bitwise the twin's.  Rows are
 * independent: a row's result never depends on the other rows of a call.
 *
 * Layout: every per-row array is row-major, one row after another; step k
 * of row b reads moving-core row clamp(k - first_move[b], 0, core_len[b] - 1)
 * starting at core_start[b] (the constant flanks before and after the core
 * replicate its edge rows, as simulate._Precomputed describes).
 */
typedef long long i64; /* 64 bits on LP64 and LLP64 hosts; no libc header needed */

/* Inlining and unrolling hints only: neither changes an operation. */
#if defined(__GNUC__)
#define ALWAYS_INLINE inline __attribute__((always_inline))
#define UNROLL _Pragma("GCC unroll 8")
#else
#define ALWAYS_INLINE inline
#define UNROLL
#endif

/* One recurrent state axis, as simulate._axis_lookup describes it. */
typedef struct {
    const double *pts;   /* n points */
    const double *spans; /* n - 1 spans, pts[i + 1] - pts[i] */
    i64 n;
    i64 uniform;     /* nonzero: index by inv_h with truncation */
    double inv_h;
} csm_axis;

/* simulate._scalar_bracket: the lower index of value's interval, and the
 * fraction of the way through it, after clamping value onto the axis. */
static inline i64 bracket(const csm_axis *axis, double value, double *frac)
{
    const double lo = axis->pts[0];
    const double hi = axis->pts[axis->n - 1];
    const i64 top = axis->n - 2;
    double vc = value < hi ? value : hi;
    i64 idx;
    if (vc < lo)
        vc = lo;
    if (axis->uniform) {
        const double t = (vc - lo) * axis->inv_h;
        idx = (i64)t; /* truncates toward zero, as int() does */
        if (idx > top)
            idx = top;
        *frac = t - (double)idx;
        return idx;
    }
    /* bisect_right(pts, vc) - 1 */
    i64 a = 0, b = axis->n;
    while (a < b) {
        const i64 mid = (a + b) / 2;
        if (vc < axis->pts[mid])
            b = mid;
        else
            a = mid + 1;
    }
    idx = a - 1;
    if (idx < 0)
        idx = 0;
    else if (idx > top)
        idx = top;
    *frac = (vc - axis->pts[idx]) / axis->spans[idx];
    return idx;
}

static inline i64 core_row(i64 k, i64 first_move, i64 last)
{
    i64 idx = k - first_move;
    if (idx < 0)
        idx = 0;
    else if (idx > last)
        idx = last;
    return idx;
}

/* One output-only row: its reduced Io rows, coefficients and state. */
typedef struct {
    const double *table; /* core rows, n values each */
    const double *q, *d; /* charge, denom per step */
    i64 first_move, last;
    double lo, hi, vo;
    double *o;
} output_row;

/* count output-only rows stepped together: each step advances every row
 * once, so the rows' independent dependency chains (each through a
 * division) overlap.  Each row's arithmetic is that of
 * _scalar_recurrence_output, and no row reads another's.  Inlined per
 * block size, so the loop over rows has a constant trip count. */
static ALWAYS_INLINE void output_block(i64 steps, const double *dt, const csm_axis *vo_axis,
                                       output_row *row, const i64 count)
{
    const i64 n = vo_axis->n;
    UNROLL
    for (i64 r = 0; r < count; r++)
        row[r].o[0] = row[r].vo;
    for (i64 k = 0; k < steps; k++) {
        UNROLL
        for (i64 r = 0; r < count; r++) {
            output_row *x = &row[r];
            double frac;
            const i64 i = bracket(vo_axis, x->vo, &frac);
            const double *t = x->table + core_row(k, x->first_move, x->last) * n;
            const double io_val = t[i] + frac * (t[i + 1] - t[i]);
            double vo = x->vo + (x->q[k] - io_val * dt[k]) / x->d[k];
            if (vo < x->lo)
                vo = x->lo;
            else if (vo > x->hi)
                vo = x->hi;
            x->vo = vo;
            x->o[k + 1] = vo;
        }
    }
}

#define CSM_BLOCK 4

/* Output-only models (SIS, baseline MIS): io holds every row's reduced Io
 * rows, n values each (the Vo axis), core rows laid end to end.  Rows are
 * stepped in blocks of CSM_BLOCK. */
void csm_output(i64 rows, i64 steps, const double *dt, csm_axis vo_axis,
                const double *io, const i64 *core_start, const i64 *core_len,
                const i64 *first_move, const double *charge, const double *denom,
                const double *v0, const double *v_low, const double *v_high, double *out)
{
    output_row block[CSM_BLOCK];
    i64 count = 0;
    for (i64 b = 0; b < rows; b++) {
        output_row *x = &block[count++];
        x->table = io + core_start[b] * vo_axis.n;
        x->q = charge + b * steps;
        x->d = denom + b * steps;
        x->first_move = first_move[b];
        x->last = core_len[b] - 1;
        x->lo = v_low[b];
        x->hi = v_high[b];
        x->vo = v0[b];
        x->o = out + b * (steps + 1);
        if (count == CSM_BLOCK) {
            output_block(steps, dt, &vo_axis, block, CSM_BLOCK);
            count = 0;
        }
    }
    for (i64 r = 0; r < count; r++) /* the remainder, one row at a time */
        output_block(steps, dt, &vo_axis, &block[r], 1);
}

/* NDTable._contract_apply at one state entry: the 2**npins pin-corner
 * values at v + corner[c] (first pin axis the most significant bit of c),
 * combined axis by axis, first pin axis first, as g0 * (1 - f) + g1 * f. */
static ALWAYS_INLINE double contract(const double *v, const i64 *corner,
                                     const double *frac, const i64 npins)
{
    double g[8];
    i64 count = (i64)1 << npins;
    UNROLL
    for (i64 c = 0; c < count; c++)
        g[c] = v[corner[c]];
    UNROLL
    for (i64 d = 0; d < npins; d++) {
        const double high = frac[d];
        const double low = 1.0 - high;
        count >>= 1;
        UNROLL
        for (i64 r = 0; r < count; r++)
            g[r] = g[r] * low + g[count + r] * high;
    }
    return g[0];
}

/* The bilinear (VN, Vo) lookup of one table at a reduced row contracted on
 * demand: v points at the row's low pin corner plus j * n_out + i. */
static ALWAYS_INLINE double lookup(const double *v, i64 n_out, const i64 *corner,
                                   const double *frac, const i64 npins, double fo, double fn)
{
    const double c00 = contract(v, corner, frac, npins);
    const double c01 = contract(v + 1, corner, frac, npins);
    const double c10 = contract(v + n_out, corner, frac, npins);
    const double c11 = contract(v + n_out + 1, corner, frac, npins);
    const double at_lo = c00 + fo * (c01 - c00);
    const double at_hi = c10 + fo * (c11 - c10);
    return at_lo + fn * (at_hi - at_lo);
}

/* One internal-node row: where its tables, brackets and coefficients
 * live, and its state. */
typedef struct {
    const double *io, *in;          /* the row's Io and I_N tables */
    const i64 *io_c, *in_c;         /* pin-corner offsets */
    const i64 *io_base, *in_base;   /* per core row: low pin corner's slice */
    const double *io_frac, *in_frac; /* per core row: 3 pin weights */
    const double *q, *ro, *rn;      /* drive, rate_o, rate_n per step */
    i64 first_move, last;
    double lo, hi, vo, vn;
    double *o, *w;                  /* output and internal-node samples */
} internal_row;

/* As output_block, for count internal-node rows with pins pin axes each;
 * each row's arithmetic is that of _scalar_recurrence_internal.  Inlined
 * per pin count too, so the loops over corners and pin axes also have
 * constant trip counts. */
static ALWAYS_INLINE void internal_block(i64 steps, const csm_axis *vn_axis,
                                         const csm_axis *vo_axis, const i64 pins,
                                         internal_row *row, const i64 count)
{
    const i64 n_out = vo_axis->n;
    UNROLL
    for (i64 r = 0; r < count; r++) {
        row[r].o[0] = row[r].vo;
        row[r].w[0] = row[r].vn;
    }
    for (i64 k = 0; k < steps; k++) {
        UNROLL
        for (i64 r = 0; r < count; r++) {
            internal_row *x = &row[r];
            double fo, fn;
            const i64 i = bracket(vo_axis, x->vo, &fo);
            const i64 j = bracket(vn_axis, x->vn, &fn);
            const i64 c = core_row(k, x->first_move, x->last);
            const i64 state = j * n_out + i;
            const double io_val = lookup(x->io + x->io_base[c] + state, n_out, x->io_c,
                                         x->io_frac + 3 * c, pins, fo, fn);
            const double in_val = lookup(x->in + x->in_base[c] + state, n_out, x->in_c,
                                         x->in_frac + 3 * c, pins, fo, fn);
            double vo = x->vo + (x->q[k] - io_val * x->ro[k]);
            if (vo > x->hi)
                vo = x->hi;
            if (vo < x->lo)
                vo = x->lo;
            double vn = x->vn + (0.0 - in_val * x->rn[k]);
            if (vn > x->hi)
                vn = x->hi;
            if (vn < x->lo)
                vn = x->lo;
            x->vo = vo;
            x->vn = vn;
            x->o[k + 1] = vo;
            x->w[k + 1] = vn;
        }
    }
}

/* Internal-node (MCSM) models.  values holds the group's Io and I_N tables
 * laid end to end; row b's tables start at io_start[b] and in_start[b].
 * Per core row r (row-major over every row's core), io_base[r] is the
 * offset of the low pin corner's (VN, Vo) slice and io_frac[3 r + d] the
 * weight of pin axis d (NDTable._contract_weights); corner[8 b + c] is the
 * offset of pin corner c from the low one.  The in_ arrays are the same
 * for I_N.  npins[b] is 1, 2 or 3.  Rows of one pin count are stepped in
 * blocks of CSM_BLOCK (internal_block). */
void csm_internal(i64 rows, i64 steps, csm_axis vn_axis, csm_axis vo_axis,
                  const double *values, const i64 *io_start, const i64 *in_start,
                  const i64 *npins, const i64 *io_corner, const i64 *in_corner,
                  const i64 *core_start, const i64 *core_len,
                  const i64 *first_move, const i64 *io_base, const double *io_frac,
                  const i64 *in_base, const double *in_frac, const double *drive,
                  const double *rate_o, const double *rate_n, const double *v0_out,
                  const double *v0_int, const double *v_low, const double *v_high,
                  double *out, double *out_int)
{
    for (i64 pins = 1; pins <= 3; pins++) {
        internal_row block[CSM_BLOCK];
        i64 count = 0;
        for (i64 b = 0; b < rows; b++) {
            if (npins[b] != pins)
                continue;
            const i64 start = core_start[b];
            internal_row *x = &block[count++];
            x->io = values + io_start[b];
            x->in = values + in_start[b];
            x->io_c = io_corner + 8 * b;
            x->in_c = in_corner + 8 * b;
            x->io_base = io_base + start;
            x->in_base = in_base + start;
            x->io_frac = io_frac + 3 * start;
            x->in_frac = in_frac + 3 * start;
            x->q = drive + b * steps;
            x->ro = rate_o + b * steps;
            x->rn = rate_n + b * steps;
            x->first_move = first_move[b];
            x->last = core_len[b] - 1;
            x->lo = v_low[b];
            x->hi = v_high[b];
            x->vo = v0_out[b];
            x->vn = v0_int[b];
            x->o = out + b * (steps + 1);
            x->w = out_int + b * (steps + 1);
            if (count < CSM_BLOCK)
                continue;
            count = 0;
            switch (pins) { /* constant pin counts for the inliner */
            case 1:
                internal_block(steps, &vn_axis, &vo_axis, 1, block, CSM_BLOCK);
                break;
            case 2:
                internal_block(steps, &vn_axis, &vo_axis, 2, block, CSM_BLOCK);
                break;
            default:
                internal_block(steps, &vn_axis, &vo_axis, 3, block, CSM_BLOCK);
                break;
            }
        }
        for (i64 r = 0; r < count; r++) /* the remainder, one row at a time */
            internal_block(steps, &vn_axis, &vo_axis, pins, &block[r], 1);
    }
}

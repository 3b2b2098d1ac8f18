/*
 * Kernels of the `native` compute backend (repro.he.native loads this file).
 *
 * Six entry points: the forward/inverse NTT; the two window steps built
 * around one fused key switch (gadget decomposition, the digits' forward NTT
 * and the key-switch inner product, one ciphertext at a time with its digits
 * cache-resident) -- one ExpandQuery level (slot-gather automorphism, Subs,
 * the b add and the level's butterfly) and one ColTor round (ones - zeros, the
 * external product, + zeros), each a ciphertext at a time with every
 * intermediate in that ciphertext's tiles; the RowSel contraction over the
 * uint32 database store; the client's encryption of zero rows; and the seeded
 * draws both ends make (uniform a rows from upload seeds, error rows from the
 * client's private seed), counter-based so any split is exact.  The two
 * key-switching entry points share one static per-ciphertext helper
 * (switch_one), and every entry point shares its loop bodies with the others
 * through static row helpers, so no loop exists twice.
 *
 * Portable C99: no intrinsics, no threads, no allocation, no globals.  Every
 * buffer comes from the caller.  repro.he.native splits the large calls over
 * the cores itself: the entry points it splits take a slice of their outermost
 * axis (a range, or a pointer into it), and slices write disjoint outputs, so
 * a split call is byte-identical to the whole one.  The vector unit is the
 * compiler's business: every hot loop is a plain fixed-stride loop over 32-bit
 * words, the butterflies' short spans included, and repro.he.native builds
 * with -march=native where the compiler takes it (32-bit lane multiplies need
 * more than baseline x86-64).  Every tensor is the repo's (..., rns, n) layout
 * with the coefficient axis contiguous -- int64 everywhere but the database,
 * which is uint32; outer axes come with explicit element strides where a
 * caller hands views, so views and a broadcast RNS axis (stride 0) are read
 * where they lie.
 *
 * One exactness bound carries every kernel: 4q < 2^32 for each modulus q
 * (repro.he.native.NativeRing raises ParameterError otherwise).  Residues then
 * live in 32-bit words through Harvey's lazy butterflies -- [0, 4q) forward,
 * [0, 2q) inverse -- and every product by a constant w is Shoup's: with
 * ws = floor(w * 2^32 / q) precomputed, w*x - floor(x*ws / 2^32) * q lies in
 * [0, 2q) for any 32-bit x and needs no division.
 */
#include <stddef.h>
#include <stdint.h>

typedef uint32_t u32;
typedef uint64_t u64;
typedef int64_t i64;

/* Entries of one modulus' row in the `consts` table (CONSTS u32 each). */
enum {
    C_Q,          /* the modulus */
    C_ONE_S,      /* Shoup companion of 1: floor(2^32 / q) */
    C_R32,        /* 2^32 mod q, and its companion */
    C_R32_S,
    C_NINV,       /* n^-1 mod q, and its companion */
    C_NINV_S,
    C_WNINV,      /* inv[1] * n^-1 mod q: the last inverse stage's twiddle */
    C_WNINV_S,
    C_QHATINV,    /* (Q/q)^-1 mod q (Eq. 3), and its companion */
    C_QHATINV_S,
    C_BITS,       /* bit length of q: 2^bits <= 2q */
    CONSTS
};

static inline u32 mul_shoup(u32 x, u32 w, u32 ws, u32 q)
{
    return x * w - (u32)(((u64)x * ws) >> 32) * q;
}

/* x - bound if that does not go negative, else x. */
static inline u32 cond_sub(u32 x, u32 bound)
{
    return x - (bound & (u32)-(x >= bound));
}

/*
 * n int64 of any size into words the kernels can start from: [0, 2^bits),
 * inside [0, 2q).  Canonical residues, [0, 2q) partial ones that fit, and
 * signed rows in (-q, q) (errors, plaintexts: q is added to the negatives)
 * pass through the first loop alone; anything wider is divided.
 */
static void load_row(u32 *work, const i64 *in, size_t n, const u32 *c)
{
    u64 q = c[C_Q], seen = 0;
    for (size_t j = 0; j < n; j++) {
        u64 v = (u64)in[j];
        v += q & (0 - (v >> 63));
        seen |= v;
        work[j] = (u32)v;
    }
    if (seen >> c[C_BITS])
        for (size_t j = 0; j < n; j++) {
            i64 v = in[j] % (i64)q;
            work[j] = (u32)(v < 0 ? v + (i64)q : v);
        }
}

/* Any uint64 into [0, q): the two 32-bit halves by Shoup, 2^32 folded in. */
static inline u32 reduce64(u64 v, const u32 *c)
{
    u32 q = c[C_Q];
    u32 hi = mul_shoup((u32)(v >> 32), c[C_R32], c[C_R32_S], q);
    u32 lo = mul_shoup((u32)v, 1, c[C_ONE_S], q);
    return cond_sub(cond_sub(hi + lo, 2 * q), q);
}

/* Nonzero when a word of the (rns, n) block x is not a canonical residue. */
static u32 noncanonical(const i64 *x, size_t rns, size_t n, const u32 *consts)
{
    u32 bad = 0;
    for (size_t m = 0; m < rns; m++) {
        u64 q = consts[m * CONSTS + C_Q];
        for (size_t j = 0; j < n; j++)
            bad |= (u32)((u64)x[m * n + j] >= q);
    }
    return bad;
}

/*
 * One butterfly stage of span T over all n / 2T blocks, block i on twiddle
 * w[n / 2T + i]: Cooley-Tukey forward ([0, 4q) in and out) and Gentleman-Sande
 * inverse ([0, 2q) in and out).  Each macro instantiates the stage twice
 * over: at the run-time span t (the long spans, 16 and up) and at the fixed
 * spans 8, 4 and 2, which ignore t.  A run-time j loop shorter than the vector
 * is left scalar and costs 2-3x the long stages per butterfly; at a constant
 * span the compiler vectorises it like the others.
 */
#define FORWARD_STAGE(name, T)                                                \
static void name(u32 *a, size_t n, size_t t, const u32 *w, const u32 *ws,    \
                 u32 q)                                                       \
{                                                                             \
    size_t m = n / (2 * (T));                                                 \
    (void)t;                                                                  \
    for (size_t i = 0; i < m; i++) {                                          \
        u32 wi = w[m + i], wsi = ws[m + i];                                   \
        u32 *x = a + 2 * i * (T), *y = x + (T);                               \
        for (size_t j = 0; j < (T); j++) {                                    \
            u32 u = cond_sub(x[j], 2 * q);                                    \
            u32 v = mul_shoup(y[j], wi, wsi, q);                              \
            x[j] = u + v;                                                     \
            y[j] = u - v + 2 * q;                                             \
        }                                                                     \
    }                                                                         \
}
#define INVERSE_STAGE(name, T)                                                \
static void name(u32 *a, size_t n, size_t t, const u32 *w, const u32 *ws,    \
                 u32 q)                                                       \
{                                                                             \
    size_t h = n / (2 * (T));                                                 \
    (void)t;                                                                  \
    for (size_t i = 0; i < h; i++) {                                          \
        u32 wi = w[h + i], wsi = ws[h + i];                                   \
        u32 *x = a + 2 * i * (T), *y = x + (T);                               \
        for (size_t j = 0; j < (T); j++) {                                    \
            u32 u = x[j], v = y[j];                                           \
            x[j] = cond_sub(u + v, 2 * q);                                    \
            y[j] = mul_shoup(u - v + 2 * q, wi, wsi, q);                      \
        }                                                                     \
    }                                                                         \
}
FORWARD_STAGE(forward_stage, t)
FORWARD_STAGE(forward_span_8, 8)
FORWARD_STAGE(forward_span_4, 4)
FORWARD_STAGE(forward_span_2, 2)
INVERSE_STAGE(inverse_stage, t)
INVERSE_STAGE(inverse_span_2, 2)
INVERSE_STAGE(inverse_span_4, 4)
INVERSE_STAGE(inverse_span_8, 8)

/*
 * Cooley-Tukey stages over the bit-reversed table w: [0, q) in, [0, 4q) out.
 * Spans 8, 4 and 2 are fixed-width stages; the last (t = 1, a twiddle per
 * butterfly) runs over adjacent pairs so that it vectorises like the others.
 */
static void forward_stages(u32 *a, size_t n, const u32 *w, const u32 *ws, u32 q)
{
    u32 two_q = 2 * q;
    for (size_t t = n >> 1; t > 8; t >>= 1)
        forward_stage(a, n, t, w, ws, q);
    if (n >= 16)
        forward_span_8(a, n, 8, w, ws, q);
    if (n >= 8)
        forward_span_4(a, n, 4, w, ws, q);
    if (n >= 4)
        forward_span_2(a, n, 2, w, ws, q);
    for (size_t i = 0, m = n >> 1; i < m; i++) {
        u32 u = cond_sub(a[2 * i], two_q);
        u32 v = mul_shoup(a[2 * i + 1], w[m + i], ws[m + i], q);
        a[2 * i] = u + v;
        a[2 * i + 1] = u - v + two_q;
    }
}

/*
 * Gentleman-Sande stages, [0, q) in and out: values stay in [0, 2q), the first
 * stage (t = 1) runs over adjacent pairs, spans 2, 4 and 8 are fixed-width
 * stages, and the last (t = n / 2) folds n^-1 in.
 */
static void inverse_stages(u32 *a, size_t n, const u32 *w, const u32 *ws,
                           const u32 *c)
{
    u32 q = c[C_Q], two_q = 2 * q;
    size_t h = n >> 1;
    if (n < 2)
        return;
    if (n > 2)
        for (size_t i = 0; i < h; i++) {
            u32 u = a[2 * i], v = a[2 * i + 1];
            a[2 * i] = cond_sub(u + v, two_q);
            a[2 * i + 1] = mul_shoup(u - v + two_q, w[h + i], ws[h + i], q);
        }
    if (n > 4)
        inverse_span_2(a, n, 2, w, ws, q);
    if (n > 8)
        inverse_span_4(a, n, 4, w, ws, q);
    if (n > 16)
        inverse_span_8(a, n, 8, w, ws, q);
    for (size_t t = 16; t < h; t <<= 1)
        inverse_stage(a, n, t, w, ws, q);
    for (size_t j = 0; j < h; j++) {
        u32 u = a[j], v = a[j + h];
        a[j] = cond_sub(mul_shoup(u + v, c[C_NINV], c[C_NINV_S], q), q);
        a[j + h] = cond_sub(
            mul_shoup(u - v + two_q, c[C_WNINV], c[C_WNINV_S], q), q);
    }
}

/*
 * One row's NTT under one modulus: n int64 of any size from `in` (load_row)
 * into n words of `out`, forward or inverse, through the n words of `work`.
 * `w` is the modulus' (2, n) twiddles and companions, `c` its consts row.  A
 * `partial` forward leaves [0, 2q), which is all the key switch's inner
 * product needs of its digits.
 */
static void ntt_row(i64 *out, const i64 *in, size_t n, const u32 *w,
                    const u32 *c, int inverse, int partial, u32 *work)
{
    u32 q = c[C_Q];
    load_row(work, in, n, c);
    if (inverse) {
        inverse_stages(work, n, w, w + n, c);
        for (size_t j = 0; j < n; j++)
            out[j] = work[j];
    } else {
        forward_stages(work, n, w, w + n, q);
        if (partial)
            for (size_t j = 0; j < n; j++)
                out[j] = cond_sub(work[j], 2 * q);
        else
            for (size_t j = 0; j < n; j++)
                out[j] = cond_sub(cond_sub(work[j], 2 * q), q);
    }
}

/*
 * NTT of `rows` polynomials under each of `rns` moduli, forward or inverse.
 *
 * src[r * src_row + m * src_mod + j] is any int64 (src_mod = 0 broadcasts one
 * coefficient row into every modulus); dst is dense (rows, rns, n).  `tw` is
 * (rns, 2, n): the twiddles of one direction and their Shoup companions;
 * `consts` is (rns, CONSTS).  `work` holds n words.
 */
void ive_ntt(i64 *dst, const i64 *src, size_t rows, ptrdiff_t src_row,
             ptrdiff_t src_mod, size_t rns, size_t n, const u32 *tw,
             const u32 *consts, int inverse, u32 *work)
{
    for (size_t r = 0; r < rows; r++)
        for (size_t m = 0; m < rns; m++)
            ntt_row(dst + (r * rns + m) * n,
                    src + (ptrdiff_t)r * src_row + (ptrdiff_t)m * src_mod, n,
                    tw + m * 2 * n, consts + m * CONSTS, inverse, 0, work);
}

/*
 * RLWE encryptions of zero in place, rows [lo, hi) of rows (2, count, rns, n)
 * whose rows[0] holds the uniform a (NTT form): per modulus, the signed error
 * row is loaded and transformed, b = NTT(e) - a*s mod q written to rows[1],
 * and the row's constants shift[r] = (to a, to b), each (rns,), added to both
 * halves (the RGSW gadget terms; shift may be NULL).  errors is dense (count,
 * n), shift (count, 2, rns), key (rns, 2, n): s in NTT form and its Shoup
 * companions; tw the forward twiddles, work n words.  Returns nonzero, the
 * slice untouched, when an a or shift word of it is not a canonical residue.
 */
int ive_encrypt(i64 *restrict rows, const i64 *restrict errors,
                const i64 *restrict shift, size_t count, size_t lo, size_t hi,
                size_t rns, size_t n, const u32 *key, const u32 *tw,
                const u32 *consts, u32 *work)
{
    i64 *a = rows, *b = rows + count * rns * n;
    u32 bad = 0;
    for (size_t r = lo; r < hi; r++) {
        bad |= noncanonical(a + r * rns * n, rns, n, consts);
        for (size_t m = 0; shift && m < rns; m++) {
            u64 q = consts[m * CONSTS + C_Q];
            bad |= (u32)((u64)shift[2 * r * rns + m] >= q)
                | (u32)((u64)shift[(2 * r + 1) * rns + m] >= q);
        }
    }
    if (bad)
        return 1;
    for (size_t r = lo; r < hi; r++)
        for (size_t m = 0; m < rns; m++) {
            const u32 *c = consts + m * CONSTS, *w = tw + m * 2 * n;
            const u32 *s = key + m * 2 * n, *ss = s + n;
            u32 q = c[C_Q];
            u32 to_a = shift ? (u32)shift[2 * r * rns + m] : 0;
            u32 to_b = shift ? (u32)shift[(2 * r + 1) * rns + m] : 0;
            i64 *x = a + (r * rns + m) * n, *y = b + (r * rns + m) * n;
            load_row(work, errors + r * n, n, c);
            forward_stages(work, n, w, w + n, q);
            for (size_t j = 0; j < n; j++) {
                u32 e = cond_sub(cond_sub(work[j], 2 * q), q);
                u32 as = cond_sub(mul_shoup((u32)x[j], s[j], ss[j], q), q);
                y[j] = cond_sub(cond_sub(e + to_b + q - as, 2 * q), q);
                x[j] = cond_sub((u32)x[j] + to_a, q);
            }
        }
    return 0;
}

/*
 * The counter-based generator of repro.he.sampling, which defines it and runs
 * it in numpy on the eager backend: SplitMix64's finalizer, a polynomial's
 * stream key (its tag with the seed's four words folded in), and word j of a
 * stream, mix(key + (j + 1) * GAMMA).
 */
#define GAMMA 0x9E3779B97F4A7C15ull
/* The low byte of an error row's tag (an a polynomial's holds its modulus). */
#define ERROR_TAG 0xFFu
/* Words of a stream drawn per pass into the caller's work buffer. */
#define SAMPLE_BLOCK 256

static inline u64 mix(u64 z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

static u64 stream_key(const u64 *seed, u64 tag)
{
    for (size_t i = 0; i < 4; i++)
        tag = mix(tag ^ seed[i]);
    return tag;
}

/*
 * n residues uniform on [0, q): the first n draws of the stream that Lemire's
 * rejection accepts -- x * q is kept, as its high word, when its low word is
 * at least t = 2^32 mod q.  Each word of the stream is two draws, low half
 * first; `work` holds SAMPLE_BLOCK words.  The accept loop writes every
 * candidate to out[have] and advances past the accepted ones only, so its
 * only branches are the bounds.
 */
static void uniform_row(i64 *out, u64 key, size_t n, u32 q, u32 t, u64 *work)
{
    size_t have = 0;
    for (u64 j = 0; have < n; j += SAMPLE_BLOCK) {
        for (size_t i = 0; i < SAMPLE_BLOCK; i++)
            work[i] = mix(key + (j + i + 1) * GAMMA);
        for (size_t i = 0; i < SAMPLE_BLOCK && have < n; i++) {
            u64 lo = (work[i] & 0xffffffffu) * q, hi = (work[i] >> 32) * q;
            out[have] = (i64)(lo >> 32);
            have += (u32)lo >= t;
            if (have == n)
                break;
            out[have] = (i64)(hi >> 32);
            have += (u32)hi >= t;
        }
    }
}

/* Table entries every error coefficient is compared against; a magnitude
 * that reaches all of them (|e| >= 16, p ~ 1e-6 at sigma = 3.2) goes on
 * through the rest of the table. */
#define CDT_FAST 16

/*
 * n signed rounded-Gaussian errors: coefficient i's magnitude is the number of
 * entries of the cumulative table `cdt` (cdt_len uint64, ascending) at or
 * below word i of the stream, and bit i % 64 of word n + i / 64 its sign.
 * `work` holds 2 * 64 words.
 */
static void error_row(i64 *out, u64 key, size_t n, const u64 *cdt,
                      size_t cdt_len, u64 *work)
{
    u64 *u = work, *mag = work + 64;
    size_t fast = cdt_len < CDT_FAST ? cdt_len : CDT_FAST;
    for (size_t j0 = 0; j0 < n; j0 += 64) {
        size_t len = n - j0 < 64 ? n - j0 : 64;
        u64 signs = mix(key + (n + j0 / 64 + 1) * GAMMA), far = 0;
        for (size_t j = 0; j < len; j++) {
            u[j] = mix(key + (j0 + j + 1) * GAMMA);
            mag[j] = 0;
        }
        for (size_t k = 0; k < fast; k++)
            for (size_t j = 0; j < len; j++)
                mag[j] += u[j] >= cdt[k];
        for (size_t j = 0; j < len; j++)
            far |= mag[j] == fast;
        for (size_t j = 0; far && j < len; j++)
            for (size_t k = fast; mag[j] >= fast && k < cdt_len; k++)
                mag[j] += u[j] >= cdt[k];
        for (size_t j = 0; j < len; j++) {
            u64 neg = 0 - ((signs >> j) & 1);
            out[j0 + j] = (i64)((mag[j] ^ neg) - neg);
        }
    }
}

/*
 * The seeded draws of one encryption block or dispatch group, units [lo, hi)
 * of max(a_rows, e_rows): unit u is a row.  Below a_rows it is row u % rows of
 * seed u / rows (seeds is (a_rows / rows, 4) key words), whose rns residue
 * polynomials -- tag u % rows << 8 | m -- go to a, dense (a_rows, rns, n);
 * below e_rows it is error row u of error_seed (4 key words; tag u << 8 |
 * ERROR_TAG), written to e, dense (e_rows, n).  Only C_Q and C_R32 (2^32 mod q)
 * of each consts row are read.  `work` holds SAMPLE_BLOCK words.  Every
 * polynomial is a function of its seed and index alone, so slices of any
 * bounds write the whole call's bytes.
 */
void ive_sample(i64 *restrict a, const u64 *seeds, size_t rows, size_t a_rows,
                i64 *restrict e, const u64 *error_seed, size_t e_rows,
                size_t lo, size_t hi, size_t rns, size_t n, const u32 *consts,
                const u64 *cdt, size_t cdt_len, u64 *work)
{
    for (size_t u = lo; u < hi; u++) {
        if (u < a_rows) {
            const u64 *seed = seeds + 4 * (u / rows);
            u64 row = u % rows;
            for (size_t m = 0; m < rns; m++) {
                const u32 *c = consts + m * CONSTS;
                uniform_row(a + (u * rns + m) * n, stream_key(seed, row << 8 | m),
                            n, c[C_Q], c[C_R32], work);
            }
        }
        if (u < e_rows)
            error_row(e + u * n, stream_key(error_seed, (u64)u << 8 | ERROR_TAG),
                      n, cdt, cdt_len, work);
    }
}

/* Most moduli the limb walk takes: their products below 2^62 sum in a uint64.
 * With q < 2^30, rns * Q then fits as many 32-bit limbs. */
#define MAX_RNS 4
/* Coefficients per pass of decompose_row: every per-coefficient value is an
 * array over the tile, so each step below is a plain loop that vectorises. */
#define DIGIT_TILE 64

/* One gadget's limb-walk tables (NativeRing._gadget builds them). */
typedef struct {
    const u32 *recip, *qhat, *q_limbs;
    unsigned recip_shift, base_log2;
    size_t limbs, length;
} limb_walk;

/*
 * Gadget digits of one coefficient-domain polynomial by limb iCRT.
 *
 * Per coefficient x (Eq. 3): t_i = x_i * (Q/q_i)^-1 mod q_i, and the lift is
 * S = sum_i t_i * (Q/q_i) - k * Q with k = floor(sum_i t_i / q_i).  `recip`
 * holds floor(2^recip_shift / q_i) as 32-bit words (NativeRing._gadget picks
 * the shift), so (sum_i t_i * recip_i) >> recip_shift falls short of the real
 * sum by less than 1/2: it is k, or k - 1 when the lift is that close below
 * Q, and one borrow-chain subtraction of Q, kept where it does not go
 * negative, settles it.  S - k * Q is accumulated by columns over `limbs`
 * 32-bit limbs (qhat is (rns, limbs), q_limbs Q itself; rns <= MAX_RNS, so
 * limbs <= MAX_RNS hold rns * Q) with a carry that is signed in two's
 * complement, and the base-2^base_log2 digits (base_log2 <= 32) are read off
 * the limbs.  src is (rns, n) at modulus stride src_mod; digits is dense
 * (length, n).
 */
static void decompose_row(i64 *digits, const i64 *src, ptrdiff_t src_mod,
                          size_t rns, size_t n, const u32 *consts,
                          const limb_walk *g)
{
    const u32 *recip = g->recip, *qhat = g->qhat, *q_limbs = g->q_limbs;
    size_t limbs = g->limbs;
    unsigned base_log2 = g->base_log2;
    u64 mask = ((u64)1 << base_log2) - 1;
    for (size_t j0 = 0; j0 < n; j0 += DIGIT_TILE) {
        size_t len = n - j0 < DIGIT_TILE ? n - j0 : DIGIT_TILE;
        u32 t[MAX_RNS][DIGIT_TILE], k[DIGIT_TILE];
        u64 s[MAX_RNS + 1][DIGIT_TILE], less[MAX_RNS][DIGIT_TILE];
        u64 sum[DIGIT_TILE] = {0}, carry[DIGIT_TILE] = {0};
        for (size_t i = 0; i < rns; i++) {
            const u32 *c = consts + i * CONSTS;
            const i64 *in = src + (ptrdiff_t)i * src_mod + (ptrdiff_t)j0;
            u32 q = c[C_Q], w = c[C_QHATINV], ws = c[C_QHATINV_S];
            load_row(t[i], in, len, c);
            for (size_t j = 0; j < len; j++) {
                t[i][j] = cond_sub(mul_shoup(t[i][j], w, ws, q), q);
                sum[j] += (u64)t[i][j] * recip[i];
            }
        }
        for (size_t j = 0; j < len; j++)
            k[j] = (u32)(sum[j] >> g->recip_shift);
        for (size_t l = 0; l < limbs; l++) {
            u32 q_limb = q_limbs[l];
            for (size_t j = 0; j < len; j++)
                sum[j] = 0;
            for (size_t i = 0; i < rns; i++) {
                u32 limb = qhat[i * limbs + l];
                for (size_t j = 0; j < len; j++)
                    sum[j] += (u64)t[i][j] * limb;
            }
            for (size_t j = 0; j < len; j++) {
                u64 v = carry[j] + (sum[j] & 0xffffffffu) - (u64)k[j] * q_limb;
                s[l][j] = v & 0xffffffffu;
                carry[j] = ((v >> 32) | (0 - ((v >> 63) << 32))) + (sum[j] >> 32);
            }
        }
        for (size_t j = 0; j < len; j++)
            s[limbs][j] = carry[j] = 0;
        for (size_t l = 0; l < limbs; l++) {
            u32 q_limb = q_limbs[l];
            for (size_t j = 0; j < len; j++) {
                u64 v = s[l][j] - q_limb - carry[j];
                less[l][j] = v & 0xffffffffu;
                carry[j] = v >> 63;
            }
        }
        for (size_t l = 0; l < limbs; l++)
            for (size_t j = 0; j < len; j++) {
                u64 keep = 0 - carry[j];  /* all ones where S < Q */
                s[l][j] = (s[l][j] & keep) | (less[l][j] & ~keep);
            }
        for (size_t d = 0; d < g->length; d++) {
            /* Digits past the limbs (z^length far above Q) read the zero pad. */
            size_t l = d * base_log2 >> 5 < limbs ? d * base_log2 >> 5 : limbs;
            unsigned shift = d * base_log2 & 31;
            const u64 *low = s[l], *high = s[l < limbs ? l + 1 : l];
            i64 *out = digits + d * n + j0;
            for (size_t j = 0; j < len; j++)
                out[j] = (i64)(((low[j] | high[j] << 32) >> shift) & mask);
        }
    }
}

/* Coefficients per pass of inner_row: its accumulators stay in L1. */
#define INNER_TILE 256

/*
 * One output row of the key-switch inner product under one modulus:
 * o[j] = sum_kk d[kk * step + j] * key[kk * step + j] mod q over k terms,
 * reduced every `chunk` terms.  Every operand word is ORed into seen[0]
 * (digits) and seen[1] (keys), for the caller's range check.
 */
static void inner_row(i64 *restrict o, const i64 *restrict d,
                      const i64 *restrict key, size_t k, size_t step, size_t n,
                      const u32 *c, size_t chunk, u64 *seen)
{
    u64 seen_digits = 0, seen_keys = 0;
    for (size_t j0 = 0; j0 < n; j0 += INNER_TILE) {
        size_t len = n - j0 < INNER_TILE ? n - j0 : INNER_TILE;
        u64 acc[INNER_TILE] = {0};
        for (size_t lo = 0; lo < k; lo += chunk) {
            size_t hi = lo + chunk < k ? lo + chunk : k;
            for (size_t kk = lo; kk < hi; kk++) {
                const i64 *x = d + kk * step + j0, *y = key + kk * step + j0;
                for (size_t j = 0; j < len; j++) {
                    seen_digits |= (u64)x[j];
                    seen_keys |= (u64)y[j];
                    acc[j] += (u64)(u32)x[j] * (u32)y[j];
                }
            }
            for (size_t j = 0; j < len; j++)
                acc[j] = reduce64(acc[j], c);
        }
        for (size_t j = 0; j < len; j++)
            o[j0 + j] = (i64)acc[j];
    }
    seen[0] |= seen_digits;
    seen[1] |= seen_keys;
}

/*
 * What the key switches of one slice share: the ring (its forward twiddles
 * `tw`, (rns, 2, n) as in ive_ntt, and consts), the gadget's limb walk, the
 * inner product's operand bounds -- digits below 2^digit_bits, keys below
 * 2^key_bits, at most 32 bits each -- and `chunk` (that many products of that
 * size plus one residue fit a uint64), the slice's own tiles -- `digits`
 * (k, n) and `tile` (k, rns, n) for the k digit rows of one ciphertext, `work`
 * n words -- and the OR of every operand word the inner products read
 * (digits, keys).
 */
typedef struct {
    size_t rns, n;
    const u32 *tw, *consts;
    limb_walk g;
    unsigned digit_bits, key_bits;
    size_t chunk;
    i64 *digits, *tile;
    u32 *work;
    u64 seen[2];
} switcher;

/*
 * The key switch of one ciphertext (the paper's reduction overlapping,
 * Section IV-A): its `parts` coefficient-domain polynomials, (rns, n) each and
 * `part` words apart, are decomposed into the digits tile (k = parts * length
 * rows, a part's digits after the previous part's), which is forward-
 * transformed, partially ([0, 2q)), into `tile` and contracted against the key
 * rows of both halves -- key[h] dense (k, rns, n) -- while it is still in
 * cache.  out is (rns, n) per half, `out_half` words apart, canonical.
 */
static void switch_one(i64 *out, ptrdiff_t out_half, const i64 *coeff,
                       ptrdiff_t part, size_t parts, const i64 *const key[2],
                       switcher *s)
{
    size_t rns = s->rns, n = s->n, k = parts * s->g.length;
    for (size_t p = 0; p < parts; p++)
        decompose_row(s->digits + p * s->g.length * n,
                      coeff + (ptrdiff_t)p * part, (ptrdiff_t)n, rns, n,
                      s->consts, &s->g);
    for (size_t d = 0; d < k; d++)
        for (size_t m = 0; m < rns; m++)
            ntt_row(s->tile + (d * rns + m) * n, s->digits + d * n, n,
                    s->tw + m * 2 * n, s->consts + m * CONSTS, 0, 1, s->work);
    for (size_t h = 0; h < 2; h++)
        for (size_t m = 0; m < rns; m++)
            inner_row(out + (ptrdiff_t)h * out_half + m * n, s->tile + m * n,
                      key[h] + m * n, k, rns * n, n, s->consts + m * CONSTS,
                      s->chunk, s->seen);
}

/* Nonzero when an inner product of the slice read a digit or key word at or
 * above its bound (a negative one included). */
static int refused(const switcher *s)
{
    return (s->seen[0] >> s->digit_bits) != 0 || (s->seen[1] >> s->key_bits) != 0;
}

/*
 * Inverse NTT of one canonical residue row held in `work`, written to the n
 * int64 of out as canonical coefficients.  `itw` is the modulus' (2, n)
 * inverse twiddles and companions, `c` its consts row.
 */
static void inverse_into(i64 *out, u32 *work, size_t n, const u32 *itw,
                         const u32 *c)
{
    inverse_stages(work, n, itw, itw + n, c);
    for (size_t j = 0; j < n; j++)
        out[j] = work[j];
}

/*
 * One ExpandQuery level (Fig. 2-(1)) for the ciphertexts f in [lo, hi) of
 * vec, dense (2, cts, rns, n) in NTT form, queries of `step` ciphertexts each:
 * Subs(v) = KeySwitch(a o r) + (b o r) under the evaluation key -- keys[h] the
 * dense (length, rns, n) rows of half h -- then even = v + Subs(v) and odd =
 * (v - Subs(v)) * X^-step, mod q, written to out, dense (2, cts / step,
 * 2 * step, rns, n), a query's evens before its odds.  The automorphism
 * X -> X^r is the gather of NTT slots `slots` (n words, one table for every
 * modulus): the gathered a is inverse-transformed and key-switched
 * (switch_one), the gathered b added to the second half.  mono is (rns, 2, n):
 * X^-step in NTT form and its Shoup companions; itw the inverse twiddles,
 * (rns, 2, n).  `held` holds 3 * rns * n int64: the gathered a's coefficients
 * and the key switch's two halves.  Returns nonzero, with this slice of `out`
 * unspecified, when a word of the slice's vec is not a canonical residue
 * (checked before anything is written) or a key word was out of range.
 */
int ive_expand_level(i64 *restrict out, const i64 *restrict vec,
                     const i64 *const *keys, const u32 *slots, size_t cts,
                     size_t step, size_t lo, size_t hi, size_t rns, size_t n,
                     const u32 *tw, const u32 *itw, const u32 *consts,
                     const u32 *mono, const u32 *recip, unsigned recip_shift,
                     const u32 *qhat, const u32 *q_limbs, size_t limbs,
                     unsigned base_log2, size_t length, unsigned digit_bits,
                     unsigned key_bits, size_t chunk, i64 *restrict digits,
                     i64 *restrict tile, i64 *restrict held, u32 *work)
{
    switcher s = {rns, n, tw, consts,
                  {recip, qhat, q_limbs, recip_shift, base_log2, limbs, length},
                  digit_bits, key_bits, chunk, digits, tile, work, {0, 0}};
    size_t poly = rns * n;
    i64 *coeff = held, *sub = held + poly;
    u32 bad = 0;
    for (size_t f = lo; f < hi; f++)
        bad |= noncanonical(vec + f * poly, rns, n, consts)
            | noncanonical(vec + (cts + f) * poly, rns, n, consts);
    if (bad)
        return 1;
    for (size_t f = lo; f < hi; f++) {
        const i64 *a = vec + f * poly, *b = vec + (cts + f) * poly;
        for (size_t m = 0; m < rns; m++) {
            const i64 *x = a + m * n;
            for (size_t j = 0; j < n; j++)
                work[j] = (u32)x[slots[j]];
            inverse_into(coeff + m * n, work, n, itw + m * 2 * n,
                         consts + m * CONSTS);
        }
        switch_one(sub, (ptrdiff_t)poly, coeff, 0, 1, keys, &s);
        for (size_t m = 0; m < rns; m++) {
            u32 q = consts[m * CONSTS + C_Q];
            const i64 *x = b + m * n;
            i64 *y = sub + poly + m * n;
            for (size_t j = 0; j < n; j++)
                y[j] = cond_sub((u32)y[j] + (u32)x[slots[j]], q);
        }
        for (size_t h = 0; h < 2; h++)
            for (size_t m = 0; m < rns; m++) {
                u32 q = consts[m * CONSTS + C_Q];
                const u32 *mw = mono + m * 2 * n, *ms = mw + n;
                const i64 *v = vec + (h * cts + f) * poly + m * n;
                const i64 *w = sub + h * poly + m * n;
                i64 *even = out + (h * 2 * cts + f / step * 2 * step + f % step)
                    * poly + m * n;
                i64 *odd = even + step * poly;
                for (size_t j = 0; j < n; j++) {
                    u32 x = (u32)v[j], y = (u32)w[j];
                    even[j] = cond_sub(x + y, q);
                    odd[j] = cond_sub(mul_shoup(x - y + q, mw[j], ms[j], q), q);
                }
            }
    }
    return refused(&s);
}

/*
 * One ColTor round (Fig. 2-(3)) for the outputs f in [lo, hi) of the flat
 * (queries * count / 2) axis: the cmux bit (x) (ones - zeros) + zeros of each
 * pair (zeros, ones) = entries (2i, 2i + 1) of query f / (count / 2).  cur is
 * dense (2, queries, count, rns, n) in NTT form, out dense (2, queries,
 * count / 2, rns, n); keys holds two addresses per query, its RGSW bit's rows
 * in each half, dense (2 * length, rns, n) each.  Per output, ones - zeros is
 * taken on both halves, inverse-transformed and key-switched as two parts
 * (switch_one) against the query's rows, and zeros added back.  itw is the
 * inverse twiddles, (rns, 2, n); `held` holds 4 * rns * n int64: the
 * difference's coefficients and the key switch's two halves.  Returns nonzero,
 * with this slice of `out` unspecified, when a word of the slice's entries is
 * not a canonical residue (checked before anything is written) or a key word
 * was out of range.
 */
int ive_cmux_round(i64 *restrict out, const i64 *restrict cur,
                   const i64 *const *keys, size_t queries, size_t count,
                   size_t lo, size_t hi, size_t rns, size_t n, const u32 *tw,
                   const u32 *itw, const u32 *consts, const u32 *recip,
                   unsigned recip_shift, const u32 *qhat, const u32 *q_limbs,
                   size_t limbs, unsigned base_log2, size_t length,
                   unsigned digit_bits, unsigned key_bits, size_t chunk,
                   i64 *restrict digits, i64 *restrict tile,
                   i64 *restrict held, u32 *work)
{
    switcher s = {rns, n, tw, consts,
                  {recip, qhat, q_limbs, recip_shift, base_log2, limbs, length},
                  digit_bits, key_bits, chunk, digits, tile, work, {0, 0}};
    size_t poly = rns * n, pairs = count / 2, outs = queries * pairs;
    i64 *coeff = held, *prod = held + 2 * poly;
    u32 bad = 0;
    for (size_t f = lo; f < hi; f++)
        for (size_t h = 0; h < 2; h++) {
            const i64 *zeros = cur
                + ((h * queries + f / pairs) * count + 2 * (f % pairs)) * poly;
            bad |= noncanonical(zeros, rns, n, consts)
                | noncanonical(zeros + poly, rns, n, consts);
        }
    if (bad)
        return 1;
    for (size_t f = lo; f < hi; f++) {
        size_t qi = f / pairs, entry = 2 * (f % pairs);
        for (size_t h = 0; h < 2; h++)
            for (size_t m = 0; m < rns; m++) {
                u32 q = consts[m * CONSTS + C_Q];
                const i64 *zeros = cur
                    + ((h * queries + qi) * count + entry) * poly + m * n;
                const i64 *ones = zeros + poly;
                for (size_t j = 0; j < n; j++)
                    work[j] = cond_sub((u32)ones[j] - (u32)zeros[j] + q, q);
                inverse_into(coeff + h * poly + m * n, work, n,
                             itw + m * 2 * n, consts + m * CONSTS);
            }
        switch_one(prod, (ptrdiff_t)poly, coeff, (ptrdiff_t)poly, 2,
                   keys + 2 * qi, &s);
        for (size_t h = 0; h < 2; h++)
            for (size_t m = 0; m < rns; m++) {
                u32 q = consts[m * CONSTS + C_Q];
                const i64 *zeros = cur
                    + ((h * queries + qi) * count + entry) * poly + m * n;
                const i64 *x = prod + h * poly + m * n;
                i64 *o = out + (h * outs + f) * poly + m * n;
                for (size_t j = 0; j < n; j++)
                    o[j] = cond_sub((u32)x[j] + (u32)zeros[j], q);
            }
    }
    return refused(&s);
}

/* Coefficients per tile of ive_rowsel: the tile's query words (both halves,
 * every row: 2 * rows * ROWSEL_TILE uint32) stay in L2 across the columns. */
#define ROWSEL_TILE 1024

/*
 * RowSel out[h, q, c] = sum_r db[q, c, r] * query[h, q, r] mod q_m (Eq. 1).
 *
 * db is the uint32 store, (queries or 1, cols, rows, rns, n) by element
 * strides db_q (0: one plane every query shares), db_c, db_r and db_m, the
 * coefficient axis contiguous; query is dense (halves, queries, rows, rns, n),
 * out dense (halves, queries, cols, rns, n), halves <= 2; only the outputs
 * [lo, hi) of the flat (queries * cols) axis are computed.  Per coefficient
 * tile the query is first packed into `work` (halves * rows * ROWSEL_TILE
 * words), so the MAC loop is a 32 x 32 -> 64-bit product of two word arrays;
 * then each DB word is loaded once and feeds every half's accumulator.
 * Operands must be below 2^db_bits and 2^query_bits: `chunk` products of that
 * size plus one residue fit a uint64, and the sums are reduced every `chunk`
 * rows.  Returns nonzero, with `out` unspecified, when an operand was out of
 * range.
 */
int ive_rowsel(i64 *restrict out, const u32 *restrict db,
               const i64 *restrict query, size_t halves, size_t queries,
               size_t cols, size_t lo, size_t hi, size_t rows, size_t rns,
               size_t n, ptrdiff_t db_q, ptrdiff_t db_c, ptrdiff_t db_r,
               ptrdiff_t db_m,
               const u32 *consts, unsigned db_bits, unsigned query_bits,
               size_t chunk, u32 *restrict work)
{
    u64 seen_query = 0;
    u32 seen_db = 0;
    size_t poly = rns * n;
    for (size_t u = lo; u < hi; u = (u / cols + 1) * cols)
    for (size_t m = 0; m < rns; m++)
    for (size_t j0 = 0; j0 < n; j0 += ROWSEL_TILE) {
        size_t qi = u / cols, end = hi - qi * cols;
        if (end > cols)
            end = cols;
        const u32 *c = consts + m * CONSTS;
        size_t len = n - j0 < ROWSEL_TILE ? n - j0 : ROWSEL_TILE;
        for (size_t h = 0; h < halves; h++)
            for (size_t r = 0; r < rows; r++) {
                const i64 *y = query + ((h * queries + qi) * rows + r) * poly
                    + m * n + j0;
                u32 *w = work + (h * rows + r) * len;
                for (size_t j = 0; j < len; j++) {
                    seen_query |= (u64)y[j];
                    w[j] = (u32)y[j];
                }
            }
        for (size_t col = u - qi * cols; col < end; col++) {
            const u32 *x0 = db + (ptrdiff_t)qi * db_q + (ptrdiff_t)col * db_c
                + (ptrdiff_t)m * db_m + (ptrdiff_t)j0;
            u64 acc[2][ROWSEL_TILE] = {{0}};
            for (size_t r0 = 0; r0 < rows; r0 += chunk) {
                size_t r1 = r0 + chunk < rows ? r0 + chunk : rows;
                for (size_t r = r0; r < r1; r++) {
                    const u32 *x = x0 + (ptrdiff_t)r * db_r;
                    for (size_t j = 0; j < len; j++)
                        seen_db |= x[j];
                    for (size_t h = 0; h < halves; h++) {
                        const u32 *y = work + (h * rows + r) * len;
                        u64 *a = acc[h];
                        for (size_t j = 0; j < len; j++)
                            a[j] += (u64)x[j] * y[j];
                    }
                }
                for (size_t h = 0; h < halves; h++)
                    for (size_t j = 0; j < len; j++)
                        acc[h][j] = reduce64(acc[h][j], c);
            }
            for (size_t h = 0; h < halves; h++) {
                i64 *o = out + ((h * queries + qi) * cols + col) * poly
                    + m * n + j0;
                for (size_t j = 0; j < len; j++)
                    o[j] = (i64)acc[h][j];
            }
        }
    }
    return (seen_db >> db_bits) != 0 || (seen_query >> query_bits) != 0;
}

/*
 * Kernels of the `native` compute backend (repro.he.native loads this file).
 *
 * Six entry points: the forward/inverse NTT, gadget decomposition and the
 * key-switch inner product the key switch is made of, and the three passes
 * around it -- the RowSel contraction over the uint32 database store, one
 * ExpandQuery level's butterfly, and the modular add/subtract of Subs and
 * ColTor.
 *
 * Portable C99: no intrinsics, no threads, no allocation, no globals.  Every
 * tensor is the repo's (..., rns, n) layout with the coefficient axis
 * contiguous -- int64 everywhere but the database, which is uint32; outer axes
 * come with explicit element strides where a caller hands views, so views and
 * a broadcast RNS axis (stride 0) are read where they lie.
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

/*
 * Cooley-Tukey stages over the bit-reversed table w: [0, q) in, [0, 4q) out.
 * The last stage (t = 1, a twiddle per butterfly) is written over adjacent
 * pairs so that it vectorises like the j loops of the others.
 */
static void forward_stages(u32 *a, size_t n, const u32 *w, const u32 *ws, u32 q)
{
    u32 two_q = 2 * q;
    size_t m = 1;
    for (size_t t = n >> 1; t > 1; m <<= 1, t >>= 1) {
        for (size_t i = 0; i < m; i++) {
            u32 wi = w[m + i], wsi = ws[m + i];
            u32 *x = a + 2 * i * t, *y = x + t;
            for (size_t j = 0; j < t; j++) {
                u32 u = cond_sub(x[j], two_q);
                u32 v = mul_shoup(y[j], wi, wsi, q);
                x[j] = u + v;
                y[j] = u - v + two_q;
            }
        }
    }
    for (size_t i = 0; i < n >> 1; i++) {
        u32 u = cond_sub(a[2 * i], two_q);
        u32 v = mul_shoup(a[2 * i + 1], w[m + i], ws[m + i], q);
        a[2 * i] = u + v;
        a[2 * i + 1] = u - v + two_q;
    }
}

/*
 * Gentleman-Sande stages, [0, q) in and out: values stay in [0, 2q), the first
 * stage (t = 1) runs over adjacent pairs and the last folds n^-1 in.
 */
static void inverse_stages(u32 *a, size_t n, const u32 *w, const u32 *ws,
                           const u32 *c)
{
    u32 q = c[C_Q], two_q = 2 * q;
    size_t h = n >> 1, t = 2;
    if (n < 2)
        return;
    if (n > 2)
        for (size_t i = 0; i < h; i++) {
            u32 u = a[2 * i], v = a[2 * i + 1];
            a[2 * i] = cond_sub(u + v, two_q);
            a[2 * i + 1] = mul_shoup(u - v + two_q, w[h + i], ws[h + i], q);
        }
    for (h >>= 1; h > 1; h >>= 1, t <<= 1) {
        for (size_t i = 0; i < h; i++) {
            u32 wi = w[h + i], wsi = ws[h + i];
            u32 *x = a + 2 * i * t, *y = x + t;
            for (size_t j = 0; j < t; j++) {
                u32 u = x[j], v = y[j];
                x[j] = cond_sub(u + v, two_q);
                y[j] = mul_shoup(u - v + two_q, wi, wsi, q);
            }
        }
    }
    t = n >> 1;
    for (size_t j = 0; j < t; j++) {
        u32 u = a[j], v = a[j + t];
        a[j] = cond_sub(mul_shoup(u + v, c[C_NINV], c[C_NINV_S], q), q);
        a[j + t] = cond_sub(
            mul_shoup(u - v + two_q, c[C_WNINV], c[C_WNINV_S], q), q);
    }
}

/*
 * NTT of `rows` polynomials under each of `rns` moduli, forward or inverse.
 *
 * src[r * src_row + m * src_mod + j] is any int64 (src_mod = 0 broadcasts one
 * coefficient row into every modulus); dst is dense (rows, rns, n).  `tw` is
 * (rns, 2, n): the twiddles of one direction and their Shoup companions;
 * `consts` is (rns, CONSTS).  A `partial` forward leaves [0, 2q).  `work`
 * holds n words.
 */
void ive_ntt(i64 *dst, const i64 *src, size_t rows, ptrdiff_t src_row,
             ptrdiff_t src_mod, size_t rns, size_t n, const u32 *tw,
             const u32 *consts, int inverse, int partial, u32 *work)
{
    for (size_t r = 0; r < rows; r++) {
        for (size_t m = 0; m < rns; m++) {
            const i64 *in = src + (ptrdiff_t)r * src_row + (ptrdiff_t)m * src_mod;
            i64 *out = dst + (r * rns + m) * n;
            const u32 *c = consts + m * CONSTS;
            const u32 *w = tw + m * 2 * n;
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
    }
}

/* Most moduli ive_decompose takes: their products below 2^62 sum in a uint64.
 * With q < 2^30, rns * Q then fits as many 32-bit limbs. */
#define MAX_RNS 4
/* Coefficients per pass of ive_decompose: every per-coefficient value is an
 * array over the tile, so each step below is a plain loop that vectorises. */
#define DIGIT_TILE 64

/*
 * Gadget digits of `rows` coefficient-domain polynomials by limb iCRT.
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
 * the limbs.  src is (rows, rns, n) by strides; digits is dense
 * (rows, length, n).
 */
void ive_decompose(i64 *digits, const i64 *src, size_t rows, ptrdiff_t src_row,
                   ptrdiff_t src_mod, size_t rns, size_t n, const u32 *consts,
                   const u32 *recip, unsigned recip_shift, const u32 *qhat,
                   const u32 *q_limbs, size_t limbs, unsigned base_log2,
                   size_t length)
{
    u64 mask = ((u64)1 << base_log2) - 1;
    for (size_t r = 0; r < rows; r++)
    for (size_t j0 = 0; j0 < n; j0 += DIGIT_TILE) {
        size_t len = n - j0 < DIGIT_TILE ? n - j0 : DIGIT_TILE;
        u32 t[MAX_RNS][DIGIT_TILE], k[DIGIT_TILE];
        u64 s[MAX_RNS + 1][DIGIT_TILE], less[MAX_RNS][DIGIT_TILE];
        u64 sum[DIGIT_TILE] = {0}, carry[DIGIT_TILE] = {0};
        for (size_t i = 0; i < rns; i++) {
            const u32 *c = consts + i * CONSTS;
            const i64 *in = src + (ptrdiff_t)r * src_row
                + (ptrdiff_t)i * src_mod + (ptrdiff_t)j0;
            u32 q = c[C_Q], w = c[C_QHATINV], ws = c[C_QHATINV_S];
            load_row(t[i], in, len, c);
            for (size_t j = 0; j < len; j++) {
                t[i][j] = cond_sub(mul_shoup(t[i][j], w, ws, q), q);
                sum[j] += (u64)t[i][j] * recip[i];
            }
        }
        for (size_t j = 0; j < len; j++)
            k[j] = (u32)(sum[j] >> recip_shift);
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
        for (size_t d = 0; d < length; d++) {
            /* Digits past the limbs (z^length far above Q) read the zero pad. */
            size_t l = d * base_log2 >> 5 < limbs ? d * base_log2 >> 5 : limbs;
            unsigned shift = d * base_log2 & 31;
            const u64 *low = s[l], *high = s[l < limbs ? l + 1 : l];
            i64 *out = digits + (r * length + d) * n + j0;
            for (size_t j = 0; j < len; j++)
                out[j] = (i64)(((low[j] | high[j] << 32) >> shift) & mask);
        }
    }
}

/* Coefficients per pass of ive_inner: its accumulators stay in L1. */
#define INNER_TILE 256

/*
 * Key-switch inner product out[g, b] = sum_k digits[g, b, k] * keys[g, k] mod q.
 *
 * digits is dense (groups, batch, k, rns, n), keys dense (groups, k, rns, n),
 * out dense (groups, batch, rns, n).  Operands must be below 2^digit_bits and
 * 2^key_bits (at most 32 each): `chunk` products of that size plus one residue
 * fit a uint64, and the sum is reduced every `chunk` terms.  Returns nonzero,
 * with `out` unspecified, when an operand was negative or out of range.
 */
int ive_inner(i64 *restrict out, const i64 *restrict digits,
              const i64 *restrict keys, size_t groups, size_t batch, size_t k,
              size_t rns, size_t n, const u32 *consts, unsigned digit_bits,
              unsigned key_bits, size_t chunk)
{
    u64 seen_digits = 0, seen_keys = 0;
    size_t step = rns * n;
    for (size_t g = 0; g < groups; g++)
    for (size_t b = 0; b < batch; b++)
    for (size_t m = 0; m < rns; m++)
    for (size_t j0 = 0; j0 < n; j0 += INNER_TILE) {
        const u32 *c = consts + m * CONSTS;
        const i64 *d = digits + ((g * batch + b) * k * rns + m) * n + j0;
        const i64 *key = keys + (g * k * rns + m) * n + j0;
        i64 *o = out + ((g * batch + b) * rns + m) * n + j0;
        size_t len = n - j0 < INNER_TILE ? n - j0 : INNER_TILE;
        u64 acc[INNER_TILE] = {0};
        for (size_t lo = 0; lo < k; lo += chunk) {
            size_t hi = lo + chunk < k ? lo + chunk : k;
            for (size_t kk = lo; kk < hi; kk++) {
                const i64 *x = d + kk * step, *y = key + kk * step;
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
            o[j] = (i64)acc[j];
    }
    return (seen_digits >> digit_bits) != 0 || (seen_keys >> key_bits) != 0;
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
 * out dense (halves, queries, cols, rns, n), halves <= 2.  Per coefficient
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
               size_t cols, size_t rows, size_t rns, size_t n, ptrdiff_t db_q,
               ptrdiff_t db_c, ptrdiff_t db_r, ptrdiff_t db_m,
               const u32 *consts, unsigned db_bits, unsigned query_bits,
               size_t chunk, u32 *restrict work)
{
    u64 seen_query = 0;
    u32 seen_db = 0;
    size_t poly = rns * n;
    for (size_t qi = 0; qi < queries; qi++)
    for (size_t m = 0; m < rns; m++)
    for (size_t j0 = 0; j0 < n; j0 += ROWSEL_TILE) {
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
        for (size_t col = 0; col < cols; col++) {
            const u32 *x0 = db + (ptrdiff_t)qi * db_q + (ptrdiff_t)col * db_c
                + (ptrdiff_t)m * db_m + (ptrdiff_t)j0;
            u64 acc[2][ROWSEL_TILE] = {{0}};
            for (size_t lo = 0; lo < rows; lo += chunk) {
                size_t hi = lo + chunk < rows ? lo + chunk : rows;
                for (size_t r = lo; r < hi; r++) {
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

/*
 * One ExpandQuery level over `groups` runs of `step` ciphertext polynomials:
 * even = v + s and odd = (v - s) * X^-step, mod q, for v = vec and s its
 * substituted twin (Fig. 2-(1)).  vec and swapped are dense
 * (groups, step, rns, n), out dense (groups, 2 * step, rns, n) with a group's
 * evens before its odds.  mono is (rns, 2, n): X^-step in NTT form and its
 * Shoup companions.  Returns nonzero, with `out` unspecified, when an operand
 * was not a canonical residue.
 */
int ive_butterfly(i64 *restrict out, const i64 *restrict vec,
                  const i64 *restrict swapped, size_t groups, size_t step,
                  size_t rns, size_t n, const u32 *mono, const u32 *consts)
{
    u64 wide = 0;
    u32 bad = 0;
    for (size_t g = 0; g < groups; g++)
    for (size_t s = 0; s < step; s++)
    for (size_t m = 0; m < rns; m++) {
        u32 q = consts[m * CONSTS + C_Q];
        size_t in = ((g * step + s) * rns + m) * n;
        const i64 *v = vec + in, *w = swapped + in;
        i64 *even = out + ((g * 2 * step + s) * rns + m) * n;
        i64 *odd = even + step * rns * n;
        const u32 *mw = mono + m * 2 * n, *ms = mw + n;
        for (size_t j = 0; j < n; j++) {
            u32 x = (u32)v[j], y = (u32)w[j];
            wide |= ((u64)v[j] | (u64)w[j]) >> 32;
            bad |= (u32)(x >= q) | (u32)(y >= q);
            even[j] = cond_sub(x + y, q);
            odd[j] = cond_sub(mul_shoup(x - y + q, mw[j], ms[j], q), q);
        }
    }
    return (wide | bad) != 0;
}

/*
 * out = a + b, or a - b when `subtract`, mod q over `rows` (rns, n) blocks at
 * the given element strides, each block contiguous.  Returns nonzero when an
 * operand was not a canonical residue; every operand is checked before
 * anything is written, so out may be a or b and both are intact then.
 */
int ive_mod_add(i64 *out, ptrdiff_t out_row, const i64 *a, ptrdiff_t a_row,
                const i64 *b, ptrdiff_t b_row, size_t rows, size_t rns,
                size_t n, const u32 *consts, int subtract)
{
    u64 wide = 0;
    u32 bad = 0;
    for (size_t r = 0; r < rows; r++)
    for (size_t m = 0; m < rns; m++) {
        u32 q = consts[m * CONSTS + C_Q];
        const i64 *x = a + (ptrdiff_t)r * a_row + m * n;
        const i64 *y = b + (ptrdiff_t)r * b_row + m * n;
        for (size_t j = 0; j < n; j++) {
            wide |= ((u64)x[j] | (u64)y[j]) >> 32;
            bad |= (u32)((u32)x[j] >= q) | (u32)((u32)y[j] >= q);
        }
    }
    if (wide | bad)
        return 1;
    for (size_t r = 0; r < rows; r++)
    for (size_t m = 0; m < rns; m++) {
        u32 q = consts[m * CONSTS + C_Q];
        const i64 *x = a + (ptrdiff_t)r * a_row + m * n;
        const i64 *y = b + (ptrdiff_t)r * b_row + m * n;
        i64 *o = out + (ptrdiff_t)r * out_row + m * n;
        if (subtract)
            for (size_t j = 0; j < n; j++)
                o[j] = cond_sub((u32)x[j] - (u32)y[j] + q, q);
        else
            for (size_t j = 0; j < n; j++)
                o[j] = cond_sub((u32)x[j] + (u32)y[j], q);
    }
    return 0;
}

/* Native kernel ops over packed little-endian 64-bit mask words.
 *
 * Compiled as a plain C shared library (no Python.h) and driven via
 * ctypes: every function works on raw buffers the caller owns --
 * array('Q') mask rows, array('d') float columns -- so the library
 * has no allocation or lifetime logic of its own (callers pass
 * scratch where an op needs it).
 *
 * The contract is bit-identity with the pure-python reference
 * backend: identical IEEE operation sequence per output position,
 * identical words.  Only IEEE-exact primitives are used (+, -, *,
 * fabs, sqrt, compares -- never libm pow, which is not correctly
 * rounded everywhere), and x86-64/AArch64 both evaluate double
 * arithmetic in 64-bit registers, so the C sequence reproduces the
 * CPython sequence exactly.
 */

#include <math.h>
#include <stdint.h>

#define API __attribute__((visibility("default")))

/* -- mask construction ------------------------------------------------- */

/* OR position bits into table rows.  Entries arrive flattened:
 * entry e owns rows rows_flat[row_off[e] .. row_off[e+1]) and
 * positions pos_flat[pos_off[e] .. pos_off[e+1]). */
API void prox_scatter(
    uint64_t *table, int64_t n_words,
    const int64_t *rows_flat, const int64_t *row_off,
    const int64_t *pos_flat, const int64_t *pos_off,
    int64_t n_entries)
{
    for (int64_t e = 0; e < n_entries; e++) {
        for (int64_t pi = pos_off[e]; pi < pos_off[e + 1]; pi++) {
            int64_t position = pos_flat[pi];
            uint64_t bit = 1ULL << (position & 63);
            int64_t offset = position >> 6;
            for (int64_t ri = row_off[e]; ri < row_off[e + 1]; ri++)
                table[rows_flat[ri] * n_words + offset] |= bit;
        }
    }
}

/* -- packed word-row algebra ------------------------------------------- */

API int64_t prox_popcount(const uint64_t *words, int64_t n_words)
{
    int64_t total = 0;
    int64_t w = 0;
    for (; w + 4 <= n_words; w += 4)
        total += __builtin_popcountll(words[w])
               + __builtin_popcountll(words[w + 1])
               + __builtin_popcountll(words[w + 2])
               + __builtin_popcountll(words[w + 3]);
    for (; w < n_words; w++)
        total += __builtin_popcountll(words[w]);
    return total;
}

API void prox_popcount_blocks(
    const uint64_t *words, int64_t n_words, int64_t *out)
{
    for (int64_t w = 0; w < n_words; w++)
        out[w] = __builtin_popcountll(words[w]);
}

/* -- grouped dead-mask folds by row index ------------------------------- */

/* The dead row a fold operand names: rows [0, n_base) of the base
 * table, then the override table (index n_base + j is its row j). */
static inline const uint64_t *row_at(
    const uint64_t *table, int64_t n_base, const uint64_t *over,
    int64_t n_words, int64_t index)
{
    if (index < n_base)
        return table + index * n_words;
    return over + (index - n_base) * n_words;
}

/* Several group folds in a single call.  Group g folds the rows
 * index_flat[group_off[g] .. group_off[g+1]) with the matching
 * values_flat entries and writes out[g * n_vals ..).  The caller
 * checks every index.
 *
 * MAX: out must arrive zeroed; remaining is n_words of caller scratch.
 * Each position takes the first value whose dead row leaves it alive
 * (operands arrive in descending value order); wanted may be NULL
 * (fold everything); tail_mask clamps the initial remaining row. */
API void prox_fold_max_indexed(
    double *out, const double *values_flat, const int64_t *index_flat,
    const int64_t *group_off, int64_t n_groups, int64_t n_vals,
    int64_t n_words, uint64_t tail_mask, const uint64_t *wanted,
    uint64_t *remaining, const uint64_t *table, int64_t n_base,
    const uint64_t *over)
{
    for (int64_t g = 0; g < n_groups; g++) {
        double *column = out + g * n_vals;
        int64_t alive_words = 0;
        for (int64_t w = 0; w < n_words; w++) {
            uint64_t word = wanted ? wanted[w] : ~0ULL;
            if (w == n_words - 1)
                word &= tail_mask;
            remaining[w] = word;
            if (word)
                alive_words++;
        }
        for (int64_t t = group_off[g]; t < group_off[g + 1] && alive_words;
             t++) {
            double value = values_flat[t];
            const uint64_t *row = row_at(table, n_base, over, n_words,
                                         index_flat[t]);
            for (int64_t w = 0; w < n_words; w++) {
                uint64_t rem = remaining[w];
                if (!rem)
                    continue;
                uint64_t alive = rem & ~row[w];
                int64_t base = w << 6;
                while (alive) {
                    column[base + __builtin_ctzll(alive)] = value;
                    alive &= alive - 1;
                }
                rem &= row[w];
                remaining[w] = rem;
                if (!rem)
                    alive_words--;
            }
        }
    }
}

/* SUM: every position starts from the group's left-to-right term
 * total; each term subtracts at its dead positions in term order.
 * limit is the wanted row (or the full row), already tail-clamped. */
API void prox_fold_sum_indexed(
    double *out, const double *values_flat, const int64_t *index_flat,
    const int64_t *group_off, int64_t n_groups, int64_t n_vals,
    int64_t n_words, const uint64_t *limit, const uint64_t *table,
    int64_t n_base, const uint64_t *over)
{
    for (int64_t g = 0; g < n_groups; g++) {
        double *column = out + g * n_vals;
        double total = 0.0;
        for (int64_t t = group_off[g]; t < group_off[g + 1]; t++)
            total += values_flat[t];
        for (int64_t i = 0; i < n_vals; i++)
            column[i] = total;
        for (int64_t t = group_off[g]; t < group_off[g + 1]; t++) {
            double value = values_flat[t];
            const uint64_t *row = row_at(table, n_base, over, n_words,
                                         index_flat[t]);
            for (int64_t w = 0; w < n_words; w++) {
                uint64_t bits = row[w] & limit[w];
                int64_t base = w << 6;
                while (bits) {
                    column[base + __builtin_ctzll(bits)] -= value;
                    bits &= bits - 1;
                }
            }
        }
    }
}

/* -- sparse candidate scoring ------------------------------------------- */

#define KIND_SQDIFF 0
#define KIND_ABSDIFF 1
#define KIND_ISCLOSE01 2

/* math.isclose(o, s, rel_tol=1e-9, abs_tol=0.0), branch-compatible
 * with CPython: equality first (covers inf == inf), infinite diffs
 * excluded, then the relative bound. */
static inline double contrib_isclose01(double o, double s)
{
    if (o == s)
        return 0.0;
    double diff = fabs(o - s);
    double ao = fabs(o);
    double as = fabs(s);
    double m = ao > as ? ao : as;
    if (isfinite(diff) && diff <= 1e-9 * m)
        return 0.0;
    return 1.0;
}

API double prox_sparse_scores(
    const double *base,
    const double *const *minus, int64_t n_minus,
    const double *const *origs, const double *const *vals,
    int64_t n_contrib,
    const double *weights, int64_t n_vals, int64_t kind)
{
    double total = 0.0;
    for (int64_t i = 0; i < n_vals; i++) {
        double acc = base[i];
        for (int64_t k = 0; k < n_minus; k++)
            acc -= minus[k][i];
        if (kind == KIND_SQDIFF) {
            for (int64_t k = 0; k < n_contrib; k++) {
                double delta = origs[k][i] - vals[k][i];
                acc += delta * delta;
            }
        } else if (kind == KIND_ABSDIFF) {
            for (int64_t k = 0; k < n_contrib; k++)
                acc += fabs(origs[k][i] - vals[k][i]);
        } else {
            for (int64_t k = 0; k < n_contrib; k++)
                acc += contrib_isclose01(origs[k][i], vals[k][i]);
        }
        double finished;
        if (kind == KIND_SQDIFF)
            finished = acc > 0.0 ? sqrt(acc) : 0.0;
        else if (kind == KIND_ABSDIFF)
            finished = acc > 0.0 ? acc : 0.0;
        else
            finished = acc == 0.0 ? 0.0 : 1.0;
        total += weights[i] * finished;
    }
    return total;
}

/* -- sampled batch statistics ------------------------------------------- */

/* (Σ w·v, Σ w, Σ w·v·v) accumulated in 64-element blocks, block sums
 * combined left to right -- the exact reference association. */
API void prox_weighted_moments(
    const double *values, const double *weights, int64_t n,
    double *out3)
{
    double succ = 0.0, weight_sum = 0.0, sumsq = 0.0;
    for (int64_t start = 0; start < n; start += 64) {
        int64_t stop = start + 64 < n ? start + 64 : n;
        double block_succ = 0.0, block_weight = 0.0, block_sumsq = 0.0;
        for (int64_t i = start; i < stop; i++) {
            double value = values[i];
            double weight = weights[i];
            block_succ += weight * value;
            block_weight += weight;
            block_sumsq += weight * value * value;
        }
        succ += block_succ;
        weight_sum += block_weight;
        sumsq += block_sumsq;
    }
    out3[0] = succ;
    out3[1] = weight_sum;
    out3[2] = sumsq;
}

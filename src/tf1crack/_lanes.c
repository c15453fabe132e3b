/* The TF-1 generator's three compiled paths: the standard generator's output
stream (tf1_stream), trivial-mode stage 1 of the attack, the lane-sliced
filter (tf1_lanes), and the attack's stage 2 for the standard generator
(tf1_complete), whose tail walk verify_state runs too, on one full-width
state.  All step the update rows of TF1_ROWS.  The stream and the walk
write and read a keystream's own words in place, in the narrowest unsigned
type that holds w bits: 1, 2, 4 or 8 bytes a word, as the caller says.

Stage 1 takes every k-column candidate (a, b, c, d), k = w/2 + 1, with
(a + c) mod 2^k = X, steps it once per observed tail bit with the update
truncated to k columns, and drops it at the first step whose predicted
output LSB, column k-1 of a + c, differs from the observed one.  The update
is a T-function, so the candidates that share the low L = k-2 columns of
(a, b, d), with c = X - a, share the trajectory of those columns, and their
top bits follow from it through a few xors and ands.  The kernel steps each
such lower prefix once and carries the settings of its top two columns,
U = k-2 and T = k-1, as the lanes of 32-bit masks.

The rules.  Step the lower columns alone, with columns U and T of every
word cleared, let a'_U, s_T and so on be the bits that this step leaves at
columns U and T, and write a candidate's true bits in capitals.  The
per-step word s = (C + p) ^ p loses p_U at column U and p_T at column T, so
S_U = s_U for every candidate, and p_U reaches column T only through the
carry of C + p: with P = A_U & B_U & C_U & D_U, S_T = s_T ^ (s_U & P).  A
doubled product reads an input's column U only at its output column T,
through terms such as C_U·(b | C1)_0 and c_0·(B_U | C1_U) in 2c·(b | C1).
With b1_0 = (b | C1)_0 and d3_0 = (d | C3)_0, and a_0, c_0, b1_0 and d3_0
read before the step:

    A_U' = A_U ^ a'_U
    B_U' = B_U ^ (s_U & A_U) ^ b'_U
    C_U' = C_U ^ (s_U & A_U & B_U) ^ c'_U
    D_U' = D_U ^ (s_U & A_U & B_U & C_U) ^ d'_U
    A_T' = A_T ^ (s_U & P) ^ a'_T ^ (C_U & b1_0) ^ (c_0 & B_U & ~C1_U)
    B_T' = B_T ^ (S_T & A_T) ^ b'_T ^ (C_U & d3_0) ^ (c_0 & D_U & ~C3_U)
    C_T' = C_T ^ (S_T & A_T & B_T) ^ c'_T ^ (A_U & d3_0) ^ (a_0 & D_U & ~C3_U)

D_T reaches nothing: it enters p_T, which cancels, and the products at
column T only through the zero column 0 of 2a and 2c.  So the 32 settings
of (a_T, b_T, a_U, b_U, d_U) are the lanes, lane bits 4, 3, 2, 1 and 0, and
each lane stands for 2 candidates, d_T = 0 and 1, which live and die
together.  A candidate's predicted output LSB is
A_T' ^ C_T' ^ maj(A_U', C_U', carry into U of a'_low + c'_low).

The start masks.  c = X - a subtracts a column at a time with borrows, so
with β = [a_low > X_low], the borrow out of the low L columns,
C_U = X_U ^ A_U ^ β, and C_T = X_T ^ A_T ^ (A_U & β if X_U else A_U | β),
the borrow out of column U.  At X = 0, β is set when the low columns of a
are not all 0.

The count.  Each step adds 2·popcount of the alive mask taken before it,
which is exactly what a filter that steps every candidate on its own
counts.  A prefix retires at the horizon, the number of tail bits; the
prefixes whose alive mask is then not 0 are the survivors.

Lower prefix i of 2^(3L) holds a = i >> 2L, b = (i >> L) & (2^L - 1) and
d = i & (2^L - 1).  The kernel steps LANES consecutive prefixes in
lockstep, one per element of a vector of uint32, and a block stops once all
of its lanes are dead.  Rows are uint32: bit j of every row reads only bits
<= j of its inputs, so the bits above T that wrap do not matter, and k <= 23
(w <= 44) keeps the index of 3L <= 63 bits in a uint64.  The popcount is a
SWAR one, so that the step stays in vector registers at any -march.

Stage 2 completes each survivor, an l-column prefix with t2 = X on its
columns, to the full width, in a depth-first search over the columns, and
keeps the completions that reproduce the tail.  Its rules:

  - column j = l .. w-1 keeps the 8 of a prefix's 16 one-bit extensions
    whose column j of a + c is X's: c_j = a_j ^ X_j ^ the carry into
    column j, for each a_j, b_j and d_j;
  - from column h = w/2 on, it steps each kept extension's rows mod
    2^(j+1) and keeps it while output columns 0..j-h of that step match
    the first tail word: output column t < h reads only columns h..h+t of
    a'+c' and b'+d'.  At j = w-1 the whole first tail word must match;
  - the rows need no step per extension.  Mod 2^(j+1), column j of the
    input reaches neither the step word s, whose column j is C_j xor the
    carry of C + p into it, nor a doubled product, whose even factor moves
    it past column j.  So with the prefix stepped once, column j clear,
    an extension's rows are those with a_j, b_j ^ (s_j & a_j),
    c_j ^ (s_j & a_j & b_j) and d_j ^ (s_j & a_j & b_j & c_j) xored in at
    column j;
  - a completion must emit the event word itself: t2 = X pins only the
    factor S(X) of it, and the other reads b and d;
  - each such walker then steps down the tail from the event word, and one
    that first mismatches at words[index + j] is charged j - 1 steps, the
    words after the first that it computed; one that matches the whole
    tail of n words is charged n - 1 and is found.  The caller adds the
    one step for the first tail word that each of the 8^(w-l) candidates
    of a survivor costs;
  - a prefix of l = w columns is a full state, which goes straight to the
    walk: verify_state's walk of one state is this call.  The search
    reads the event word and the first tail word once, so only the walk
    reads the tail by its word size.

Build: cc -O3 -march=native -shared -fPIC (see _native.py). */

#include <stdint.h>

#define LANES 16

/* The four update rows on words of type T, the one copy in this file:
   declares the step word s = (C + p) ^ p, p = a & b & c & d, and the next
   words na, nb, nc and nd, unreduced.  Every row is a T-function, so the
   rows on wider words, reduced, are the rows on narrower ones. */
#define TF1_ROWS(T, a, b, c, d, c1, c3, cc)                     \
    T p = a & b & c & d, s = (cc + p) ^ p;                      \
    T b1 = b | c1, d3 = d | c3, sa_ = s & a, sab_ = sa_ & b;    \
    T na = a ^ s ^ ((c << 1) * b1);                             \
    T nb = b ^ sa_ ^ ((c << 1) * d3);                           \
    T nc = c ^ sab_ ^ ((a << 1) * d3);                          \
    T nd = d ^ (sab_ & c) ^ ((a << 1) * b1)

typedef uint32_t vec __attribute__((vector_size(4 * LANES)));
typedef uint64_t vec64 __attribute__((vector_size(8 * LANES)));

/* column col of v, as 0 or all ones */
static inline vec bit(vec v, int col) { return -((v >> col) & 1); }

static inline vec splat(uint32_t s) { return (vec){0} + s; }

static inline vec popcount(vec v)
{
    v = v - ((v >> 1) & 0x55555555u);
    v = (v & 0x33333333u) + ((v >> 2) & 0x33333333u);
    v = (v + (v >> 4)) & 0x0f0f0f0fu;
    return (v * 0x01010101u) >> 24;
}

static inline uint64_t sum(vec v)
{
    uint64_t s = 0;
    for (int e = 0; e < LANES; e++)
        s += v[e];
    return s;
}

static inline int any(vec v)
{
    uint32_t r = 0;
    for (int e = 0; e < LANES; e++)
        r |= v[e];
    return r != 0;
}

/* Stage 1 over lower prefixes [lo, hi) at inner word x, on the tail bits
   bits[0 .. horizon).  Writes each survivor's index and alive mask to
   index[] and alive[], in ascending index order, which must hold hi - lo
   entries; stores the filter steps in *steps and returns the survivor
   count. */
uint64_t tf1_lanes(uint64_t lo, uint64_t hi, uint32_t k, uint32_t c1, uint32_t c3, uint32_t cc,
                   uint32_t x, const uint8_t *bits, uint64_t horizon, uint64_t *index,
                   uint32_t *alive, uint64_t *steps)
{
    const int low = k - 2, u = k - 2, t = k - 1;
    const uint32_t lm = (1u << low) - 1, x_low = x & lm;
    const uint32_t x_u = -(x >> u & 1), x_t = -(x >> t & 1);
    /* the lanes whose bit 2, 1, 0, 4 or 3 is set */
    const uint32_t au0 = 0xf0f0f0f0u, bu0 = 0xccccccccu, du0 = 0xaaaaaaaau;
    const uint32_t at0 = 0xffff0000u, bt0 = 0xff00ff00u;
    const uint32_t c1_0 = -(c1 & 1), c3_0 = -(c3 & 1);
    const uint32_t not_c1_u = (c1 >> u & 1) - 1, not_c3_u = (c3 >> u & 1) - 1;
    uint64_t n = 0, count = 0;
    vec64 iota;
    for (int e = 0; e < LANES; e++)
        iota[e] = e;
    for (uint64_t base = lo; base < hi; base += LANES) {
        vec64 i = base + iota;
        vec a = __builtin_convertvector((i >> 2 * low) & lm, vec);
        vec b = __builtin_convertvector((i >> low) & lm, vec);
        vec d = __builtin_convertvector(i & lm, vec);
        vec c = (x_low - a) & lm;
        vec beta = (vec)(a > x_low);
        vec live = (vec)__builtin_convertvector(i < hi, vec);
        vec au = splat(au0), bu = splat(bu0), du = splat(du0), at = splat(at0), bt = splat(bt0);
        vec cu = beta ^ au0 ^ x_u;
        vec ct = (x_u ? beta & au0 : beta | au0) ^ at0 ^ x_t;
        vec acc = splat(0);
        for (uint64_t j = 0; j < horizon && any(live); j++) {
            acc += popcount(live);
            /* an element of acc holds 2^26 steps of at most 32 each */
            if ((j & 0x3ffffff) == 0x3ffffff) {
                count += sum(acc);
                acc = splat(0);
            }
            vec a_0 = bit(a, 0), c_0 = bit(c, 0);
            vec cu_b1 = cu & (bit(b, 0) | c1_0);
            vec d3_0 = bit(d, 0) | c3_0;
            /* the update rows, on the low columns alone */
            TF1_ROWS(vec, a, b, c, d, c1, c3, cc);
            /* the lanes: the T masks first, as they read the U masks from
               before the step */
            vec s_u = bit(s, u);
            vec sa = s_u & au, sab = sa & bu, sp = sab & cu & du;
            vec sat = (bit(s, t) ^ sp) & at;
            ct ^= (sat & bt) ^ bit(nc, t) ^ (au & d3_0) ^ (a_0 & du & not_c3_u);
            bt ^= sat ^ bit(nb, t) ^ (cu & d3_0) ^ (c_0 & du & not_c3_u);
            at ^= sp ^ bit(na, t) ^ cu_b1 ^ (c_0 & bu & not_c1_u);
            du ^= (sab & cu) ^ bit(nd, u);
            cu ^= sab ^ bit(nc, u);
            bu ^= sa ^ bit(nb, u);
            au ^= bit(na, u);
            a = na & lm;
            b = nb & lm;
            c = nc & lm;
            d = nd & lm;
            /* the predicted output LSB, flipped where the observed one is 0 */
            vec pred = ((au ^ cu) & bit(a + c, u)) ^ (au & cu) ^ at ^ ct;
            live &= pred ^ (bits[j] ? 0 : 0xffffffffu);
        }
        count += sum(acc);
        for (int e = 0; e < LANES; e++) {
            if (live[e]) {
                index[n] = base + e;
                alive[n] = live[e];
                n++;
            }
        }
    }
    *steps = 2 * count;
    return n;
}

/* The output word S(a+c) * (S(b+d) | 1) mod 2^w, m = 2^w - 1 and h = w/2.
   Bits that x << h and y << h carry to column w and above vanish in the
   reduced product. */
static inline uint64_t out_word(uint64_t a, uint64_t b, uint64_t c, uint64_t d, int h, uint64_t m)
{
    uint64_t x = (a + c) & m, y = (b + d) & m;
    return ((x >> h | x << h) * (y >> h | y << h | 1)) & m;
}

/* Word i of an array of words of size bytes each, 1, 2, 4 or 8; a store
   keeps the low 8 * size bits of v. */
static inline uint64_t load(const void *p, uint64_t i, int size)
{
    return size == 1 ? ((const uint8_t *)p)[i] : size == 2 ? ((const uint16_t *)p)[i]
         : size == 4 ? ((const uint32_t *)p)[i] : ((const uint64_t *)p)[i];
}

static inline void store(void *p, uint64_t i, int size, uint64_t v)
{
    if (size == 1) ((uint8_t *)p)[i] = v; else if (size == 2) ((uint16_t *)p)[i] = v;
    else if (size == 4) ((uint32_t *)p)[i] = v; else ((uint64_t *)p)[i] = v;
}

/* The standard generator at width w (4 to 64), stepped n times from
   state[0..3]: writes the n output words S(a+c) * (S(b+d) | 1) to out[],
   words of size bytes each, the narrowest that holds w bits. */
void tf1_stream(uint64_t n, uint32_t w, uint64_t c1, uint64_t c3, uint64_t cc, const uint64_t *state,
                void *out, uint32_t size)
{
    const uint64_t m = ~0ull >> (64 - w);
    const int h = w / 2;
    uint64_t a = state[0], b = state[1], c = state[2], d = state[3];
    for (uint64_t i = 0; i < n; i++) {
        TF1_ROWS(uint64_t, a, b, c, d, c1, c3, cc);
        a = na & m;
        b = nb & m;
        c = nc & m;
        d = nd & m;
        store(out, i, size, out_word(a, b, c, d, h, m));
    }
}

/* One stage-2 search: the constants, the tail and what it found so far. */
struct search {
    int w, h, size;
    uint64_t c1, c3, cc, x, mask;
    const void *tail; /* the event word, then the n tail words, of size bytes each */
    uint64_t event, first; /* tail[0] and tail[1] */
    uint64_t n, *found, cap, count, charge;
};

/* A full-width completion: check the event word, then walk the tail. */
static void walk(struct search *q, uint64_t a, uint64_t b, uint64_t c, uint64_t d)
{
    const uint64_t m = q->mask, state[4] = {a, b, c, d};
    if (out_word(a, b, c, d, q->h, m) != q->event)
        return;
    for (uint64_t i = 1; i <= q->n; i++) {
        TF1_ROWS(uint64_t, a, b, c, d, q->c1, q->c3, q->cc);
        a = na & m;
        b = nb & m;
        c = nc & m;
        d = nd & m;
        if (out_word(a, b, c, d, q->h, m) != load(q->tail, i, q->size)) {
            q->charge += i - 1;
            return;
        }
    }
    q->charge += q->n - 1;
    for (int i = 0; i < 4 && q->count < q->cap; i++)
        q->found[4 * q->count + i] = state[i];
    q->count++;
}

/* Extend a prefix on columns 0..j-1 by column j, and on to the full width. */
static void extend(struct search *q, uint64_t a, uint64_t b, uint64_t c, uint64_t d, int j)
{
    if (j == q->w) {
        walk(q, a, b, c, d);
        return;
    }
    const uint64_t m = ~0ull >> (63 - j), bit = 1ull << j;
    /* the output columns that j + 1 columns pin: 0..j-h, none below h, all
       at full width */
    const uint64_t cols = j == q->w - 1 ? q->mask : j < q->h ? 0 : ~0ull >> (63 - j + q->h);
    /* the rows mod 2^(j+1) with column j clear; then the step word's column
       j, and c's, which is a's xored with X's and the carry into column j */
    TF1_ROWS(uint64_t, a, b, c, d, q->c1, q->c3, q->cc);
    const uint64_t sj = s & bit, flip = ((a + c) ^ q->x) & bit;
    for (int e = 0; e < 8; e++) {
        uint64_t aj = e & 4 ? bit : 0, bj = e & 2 ? bit : 0, cj = aj ^ flip, dj = e & 1 ? bit : 0;
        uint64_t ta = (na ^ aj) & m, tb = (nb ^ bj ^ (sj & aj)) & m;
        uint64_t tc = (nc ^ cj ^ (sj & aj & bj)) & m, td = (nd ^ dj ^ (sj & aj & bj & cj)) & m;
        if ((out_word(ta, tb, tc, td, q->h, q->mask) ^ q->first) & cols)
            continue;
        extend(q, a | aj, b | bj, c | cj, d | dj, j + 1);
    }
}

/* Stage 2 at width w and inner word x for the standard generator: completes
   the n_pre l-column prefixes prefixes[4i .. 4i+3] (a, b, c, d) by the rules
   above, against tail[0], the event word, and the n >= 1 words after it,
   words of size bytes each.  Writes the first cap states found to found[], four words each, in search
   order, stores the walks' charge in *charge and returns the number of
   states found, which may exceed cap. */
uint64_t tf1_complete(uint64_t n_pre, uint32_t l, uint32_t w, uint64_t c1, uint64_t c3, uint64_t cc,
                      uint64_t x, const uint64_t *prefixes, const void *tail, uint32_t size, uint64_t n,
                      uint64_t *found, uint64_t cap, uint64_t *charge)
{
    struct search q = {w, w / 2, size, c1, c3, cc, x, ~0ull >> (64 - w), tail, load(tail, 0, size),
                       load(tail, 1, size), n, found, cap, 0, 0};
    for (uint64_t i = 0; i < n_pre; i++)
        extend(&q, prefixes[4 * i], prefixes[4 * i + 1], prefixes[4 * i + 2], prefixes[4 * i + 3], l);
    *charge = q.charge;
    return q.count;
}

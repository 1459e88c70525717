/**
 * @file
 * The vector body of EvalProgram::runBlock, written once with GCC/Clang
 * vector extensions and compiled once per ISA: with -mavx2 and with
 * -mavx512f on x86-64 (each object is entered only when the CPU has the
 * ISA; see evalBodies()), and with baseline flags on aarch64, where
 * NEON is architectural. The macros the compiler predefines for the
 * target pick the native register width and the body's symbol, so the
 * source needs no definitions of its own.
 *
 * A full block is kEvalBlockLanes == 8 volleys, so a value row is
 * kRowVecs native vectors of uint64 times. Times are compared as raw
 * uint64s, where inf is the all-ones maximum: min, max and lt are
 * compare-and-select, and so is the saturating delay add, which picks
 * inf where the sum s = x + d wrapped below x: the branchless form of
 * the scalar body, exact for every bit pattern.
 *
 * The caller sizes the value rows, so this object instantiates none of
 * std::vector's out-of-line growth code: a copy built for the wider ISA
 * is one the linker could hand to baseline callers.
 */

#include "core/eval_plan.hpp"

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>

#include "core/network.hpp"

namespace st::detail {

namespace {

#if defined(__AVX512F__)
constexpr size_t kVecBytes = 64;
#define ST_EVAL_VECTOR_BODY runBlockAvx512
#elif defined(__AVX2__)
constexpr size_t kVecBytes = 32;
#define ST_EVAL_VECTOR_BODY runBlockAvx2
#elif defined(__aarch64__)
constexpr size_t kVecBytes = 16;
#define ST_EVAL_VECTOR_BODY runBlockNeon
#else
#error "eval_plan_simd.cpp is built with -mavx2 or -mavx512f, or for aarch64"
#endif

/** One native vector of raw times. */
typedef uint64_t Vec __attribute__((vector_size(kVecBytes)));
/** A vector compare result: all-ones lanes where it holds. */
typedef int64_t Mask __attribute__((vector_size(kVecBytes)));

constexpr size_t kVecLanes = kVecBytes / sizeof(uint64_t);
constexpr size_t kRowVecs = kEvalBlockLanes / kVecLanes;
static_assert(kRowVecs * kVecLanes == kEvalBlockLanes,
              "a row must be a whole number of native vectors");

#if defined(__x86_64__) && !defined(__AVX512F__)
// AVX2 has no unsigned 64-bit compare, and GCC's own lowering of a < b
// is slower than biasing both sides by the sign bit and comparing
// signed (one vpcmpgtq).
constexpr int64_t kSignBit = std::numeric_limits<int64_t>::min();
#define ST_VEC_LESS(a, b)                                               \
    ((reinterpret_cast<Mask>(a) ^ kSignBit) <                           \
     (reinterpret_cast<Mask>(b) ^ kSignBit))
#else
// A macro, not a function: GCC lowers a < b ? a : b to one vpminuq
// only when the compare is spelled inside the select.
#define ST_VEC_LESS(a, b) ((a) < (b))
#endif

[[gnu::always_inline]] inline Vec
vmin(Vec a, Vec b)
{
    return ST_VEC_LESS(a, b) ? a : b;
}

[[gnu::always_inline]] inline Vec
vmax(Vec a, Vec b)
{
    return ST_VEC_LESS(a, b) ? b : a;
}

/** a where a < b, inf elsewhere (the lt gate; ties block). */
[[gnu::always_inline]] inline Vec
vlt(Vec a, Vec b)
{
    return ST_VEC_LESS(a, b) ? a : ~Vec{};
}

/**
 * Saturating x + d: a sum that wrapped compares below x and becomes
 * inf. AVX2 and NEON turn the select into s | (s < x); AVX-512 merges
 * inf into s under the compare mask.
 */
[[gnu::always_inline]] inline Vec
vsat(Vec x, Vec d)
{
    const Vec s = x + d;
    return ST_VEC_LESS(s, x) ? ~Vec{} : s;
}

/** One value row of a full block. */
struct Row
{
    Vec v[kRowVecs];
};

/**
 * Load a row one native vector at a time: a single whole-row copy
 * makes GCC 12 route the row through the stack.
 */
[[gnu::always_inline]] inline Row
load(const Time *p)
{
    Row r;
    for (size_t k = 0; k < kRowVecs; ++k)
        std::memcpy(&r.v[k], p + k * kVecLanes, sizeof(Vec));
    return r;
}

[[gnu::always_inline]] inline void
store(Time *p, const Row &r)
{
    // Time is one trivially copyable uint64, so the byte copy is exact.
    for (size_t k = 0; k < kRowVecs; ++k)
        std::memcpy(static_cast<void *>(p + k * kVecLanes), &r.v[k],
                    sizeof(Vec));
}

/** Op over the matching native vectors of two rows. */
template <Vec (*Op)(Vec, Vec)>
[[gnu::always_inline]] inline Row
zip(const Row &a, const Row &b)
{
    Row r;
    for (size_t k = 0; k < kRowVecs; ++k)
        r.v[k] = Op(a.v[k], b.v[k]);
    return r;
}

/**
 * The arrays the body walks, read out of the program view once per
 * call: the row stores may alias anything, so a field read through the
 * view would be reloaded after every store.
 */
struct Arrays
{
    const uint32_t *argBeg;
    const uint32_t *argSlot;
    const Time::rep *argDelay;
    Time *v; //!< the value rows
};

/** The row of operand edge @p e, delayed by its edge delay if any. */
template <bool kDelayed>
[[gnu::always_inline]] inline Row
operand(const Arrays &a, uint32_t e)
{
    Row r = load(a.v + size_t{a.argSlot[e]} * kEvalBlockLanes);
    if (kDelayed) {
        const Vec d = Vec{} + a.argDelay[e];
        for (size_t k = 0; k < kRowVecs; ++k)
            r.v[k] = vsat(r.v[k], d);
    }
    return r;
}

/**
 * A run of two-edge instructions [i, end): the zero-delay binary forms
 * and the delayed lt gate. Their edges sit back to back, two apiece.
 */
template <Vec (*Op)(Vec, Vec), bool kDelayed>
[[gnu::always_inline]] inline void
runPairs(const Arrays &a, size_t i, size_t end)
{
    for (uint32_t e = a.argBeg[i]; i < end; ++i, e += 2) {
        store(a.v + i * kEvalBlockLanes,
              zip<Op>(operand<kDelayed>(a, e), operand<kDelayed>(a, e + 1)));
    }
}

/** A run of n-ary min or max instructions [i, end), edges delayed. */
template <Vec (*Op)(Vec, Vec)>
[[gnu::always_inline]] inline void
runFold(const Arrays &a, size_t i, size_t end)
{
    for (; i < end; ++i) {
        const uint32_t beg = a.argBeg[i];
        const uint32_t eend = a.argBeg[i + 1];
        Row m = operand<true>(a, beg);
        for (uint32_t e = beg + 1; e < eend; ++e)
            m = zip<Op>(m, operand<true>(a, e));
        store(a.v + i * kEvalBlockLanes, m);
    }
}

} // namespace

void
ST_EVAL_VECTOR_BODY(const EvalProgramView &prog, std::span<const Node> nodes,
                    std::span<const std::vector<Time>> batch, Time *v)
{
    constexpr size_t lanes = kEvalBlockLanes;
    const Arrays a{prog.argBeg.data(), prog.argSlot.data(),
                   prog.argDelay.data(), v};
    size_t i = 0;
    for (uint32_t runedge : prog.runEnd) {
        const size_t end = runedge;
        switch (static_cast<PlanOp>(prog.op[i])) {
          case PlanOp::Input:
            // Lanes live in separate volley vectors here, so this
            // stays a scalar gather. Unrolled, the eight volley
            // pointers stay in registers for the whole run.
            for (; i < end; ++i) {
                const uint32_t src = prog.extra[i];
#pragma GCC unroll lanes
                for (size_t l = 0; l < lanes; ++l)
                    v[i * lanes + l] = batch[l][src];
            }
            break;
          case PlanOp::Config:
            for (; i < end; ++i) {
                const Time c = nodes[prog.extra[i]].configValue;
                Row r;
                for (size_t k = 0; k < kRowVecs; ++k)
                    r.v[k] = Vec{} + std::bit_cast<Time::rep>(c);
                store(v + i * lanes, r);
            }
            break;
          case PlanOp::Min2:
            runPairs<vmin, false>(a, i, end);
            break;
          case PlanOp::Max2:
            runPairs<vmax, false>(a, i, end);
            break;
          case PlanOp::Lt2:
            runPairs<vlt, false>(a, i, end);
            break;
          case PlanOp::Lt:
            runPairs<vlt, true>(a, i, end);
            break;
          case PlanOp::Min:
            runFold<vmin>(a, i, end);
            break;
          case PlanOp::Max:
            runFold<vmax>(a, i, end);
            break;
        }
        i = end;
    }
}

} // namespace st::detail

#include "circuit/kernels.h"

#include <bit>
#include <cstdlib>

#include "common/logging.h"

#if defined(__x86_64__)
#define SPATIAL_KERNELS_X86 1
#include <immintrin.h>
#elif defined(__aarch64__)
#define SPATIAL_KERNELS_NEON 1
#include <arm_neon.h>
#endif

namespace spatial::circuit::kernels
{

namespace
{

// ---------------------------------------------------------------------
// Scalar reference kernel (always compiled, every architecture)
// ---------------------------------------------------------------------

template <unsigned W>
void
settleScalarT(const ExecPlan::CombOp *ops, std::size_t count,
              std::uint64_t *cur)
{
    for (std::size_t i = 0; i < count; ++i) {
        const auto &op = ops[i];
        const std::uint64_t *a = cur + std::size_t{op.a} * W;
        const std::uint64_t *b = cur + std::size_t{op.b} * W;
        std::uint64_t *__restrict dst = cur + std::size_t{op.dst} * W;
        for (unsigned w = 0; w < W; ++w)
            dst[w] = (a[w] & b[w]) ^ op.inv;
    }
}

void
settleScalarGeneric(const ExecPlan::CombOp *ops, std::size_t count,
                    std::uint64_t *cur, unsigned lane_words)
{
    for (std::size_t i = 0; i < count; ++i) {
        const auto &op = ops[i];
        const std::uint64_t *a = cur + std::size_t{op.a} * lane_words;
        const std::uint64_t *b = cur + std::size_t{op.b} * lane_words;
        std::uint64_t *__restrict dst =
            cur + std::size_t{op.dst} * lane_words;
        for (unsigned w = 0; w < lane_words; ++w)
            dst[w] = (a[w] & b[w]) ^ op.inv;
    }
}

void
settleScalar(const ExecPlan::CombOp *ops, std::size_t count,
             std::uint64_t *cur, unsigned lane_words)
{
    switch (lane_words) {
      case 1:
        return settleScalarT<1>(ops, count, cur);
      case 2:
        return settleScalarT<2>(ops, count, cur);
      case 4:
        return settleScalarT<4>(ops, count, cur);
      case 8:
        return settleScalarT<8>(ops, count, cur);
      default:
        return settleScalarGeneric(ops, count, cur, lane_words);
    }
}

template <unsigned W, bool Count, bool Reverse = false>
std::uint64_t
commitScalarT(const ExecPlan::RegOp *ops, std::size_t count,
              std::uint64_t *cur, std::uint64_t *carry)
{
    std::uint64_t toggles = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t k = Reverse ? count - 1 - i : i;
        const auto &op = ops[k];
        const std::uint64_t *a = cur + std::size_t{op.a} * W;
        const std::uint64_t *b_raw = cur + std::size_t{op.b} * W;
        std::uint64_t *cw = carry + k * W;
        std::uint64_t *__restrict dst = cur + std::size_t{op.dst} * W;
        for (unsigned w = 0; w < W; ++w) {
            const std::uint64_t b = b_raw[w] ^ op.bInv;
            const std::uint64_t c = cw[w];
            const std::uint64_t sum = a[w] ^ b ^ c;
            const std::uint64_t next_carry =
                (a[w] & b) | (a[w] & c) | (b & c);
            if constexpr (Count) {
                toggles += static_cast<std::uint64_t>(
                    std::popcount(dst[w] ^ sum));
                toggles += static_cast<std::uint64_t>(
                    std::popcount(c ^ next_carry));
            }
            dst[w] = sum;
            cw[w] = next_carry;
        }
    }
    return toggles;
}

template <bool Count, bool Reverse = false>
std::uint64_t
commitScalarGeneric(const ExecPlan::RegOp *ops, std::size_t count,
                    std::uint64_t *cur, std::uint64_t *carry,
                    unsigned lane_words)
{
    std::uint64_t toggles = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t k = Reverse ? count - 1 - i : i;
        const auto &op = ops[k];
        const std::uint64_t *a = cur + std::size_t{op.a} * lane_words;
        const std::uint64_t *b_raw = cur + std::size_t{op.b} * lane_words;
        std::uint64_t *cw = carry + k * lane_words;
        std::uint64_t *__restrict dst =
            cur + std::size_t{op.dst} * lane_words;
        for (unsigned w = 0; w < lane_words; ++w) {
            const std::uint64_t b = b_raw[w] ^ op.bInv;
            const std::uint64_t c = cw[w];
            const std::uint64_t sum = a[w] ^ b ^ c;
            const std::uint64_t next_carry =
                (a[w] & b) | (a[w] & c) | (b & c);
            if constexpr (Count) {
                toggles += static_cast<std::uint64_t>(
                    std::popcount(dst[w] ^ sum));
                toggles += static_cast<std::uint64_t>(
                    std::popcount(c ^ next_carry));
            }
            dst[w] = sum;
            cw[w] = next_carry;
        }
    }
    return toggles;
}

std::uint64_t
commitScalar(const ExecPlan::RegOp *ops, std::size_t count,
             std::uint64_t *cur, std::uint64_t *carry, unsigned lane_words,
             bool count_toggles)
{
    if (count_toggles) {
        switch (lane_words) {
          case 1:
            return commitScalarT<1, true>(ops, count, cur, carry);
          case 2:
            return commitScalarT<2, true>(ops, count, cur, carry);
          case 4:
            return commitScalarT<4, true>(ops, count, cur, carry);
          case 8:
            return commitScalarT<8, true>(ops, count, cur, carry);
          default:
            return commitScalarGeneric<true>(ops, count, cur, carry,
                                             lane_words);
        }
    }
    switch (lane_words) {
      case 1:
        return commitScalarT<1, false>(ops, count, cur, carry);
      case 2:
        return commitScalarT<2, false>(ops, count, cur, carry);
      case 4:
        return commitScalarT<4, false>(ops, count, cur, carry);
      case 8:
        return commitScalarT<8, false>(ops, count, cur, carry);
      default:
        return commitScalarGeneric<false>(ops, count, cur, carry,
                                          lane_words);
    }
}

std::uint64_t
commitReverseScalar(const ExecPlan::RegOp *ops, std::size_t count,
                    std::uint64_t *cur, std::uint64_t *carry,
                    unsigned lane_words, bool count_toggles)
{
    if (count_toggles) {
        switch (lane_words) {
          case 1:
            return commitScalarT<1, true, true>(ops, count, cur, carry);
          case 2:
            return commitScalarT<2, true, true>(ops, count, cur, carry);
          case 4:
            return commitScalarT<4, true, true>(ops, count, cur, carry);
          case 8:
            return commitScalarT<8, true, true>(ops, count, cur, carry);
          default:
            return commitScalarGeneric<true, true>(ops, count, cur,
                                                   carry, lane_words);
        }
    }
    switch (lane_words) {
      case 1:
        return commitScalarT<1, false, true>(ops, count, cur, carry);
      case 2:
        return commitScalarT<2, false, true>(ops, count, cur, carry);
      case 4:
        return commitScalarT<4, false, true>(ops, count, cur, carry);
      case 8:
        return commitScalarT<8, false, true>(ops, count, cur, carry);
      default:
        return commitScalarGeneric<false, true>(ops, count, cur, carry,
                                                lane_words);
    }
}

template <unsigned W>
std::uint64_t
settleMaskedScalarT(const ExecPlan::CombOp *ops, std::size_t count,
                    std::uint64_t *cur)
{
    std::uint64_t change = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const auto &op = ops[i];
        const std::uint64_t *a = cur + std::size_t{op.a} * W;
        const std::uint64_t *b = cur + std::size_t{op.b} * W;
        std::uint64_t *__restrict dst = cur + std::size_t{op.dst} * W;
        for (unsigned w = 0; w < W; ++w) {
            const std::uint64_t next = (a[w] & b[w]) ^ op.inv;
            change |= dst[w] ^ next;
            dst[w] = next;
        }
    }
    return change;
}

std::uint64_t
settleMaskedScalarGeneric(const ExecPlan::CombOp *ops, std::size_t count,
                          std::uint64_t *cur, unsigned lane_words)
{
    std::uint64_t change = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const auto &op = ops[i];
        const std::uint64_t *a = cur + std::size_t{op.a} * lane_words;
        const std::uint64_t *b = cur + std::size_t{op.b} * lane_words;
        std::uint64_t *__restrict dst =
            cur + std::size_t{op.dst} * lane_words;
        for (unsigned w = 0; w < lane_words; ++w) {
            const std::uint64_t next = (a[w] & b[w]) ^ op.inv;
            change |= dst[w] ^ next;
            dst[w] = next;
        }
    }
    return change;
}

std::uint64_t
settleMaskedScalar(const ExecPlan::CombOp *ops, std::size_t count,
                   std::uint64_t *cur, unsigned lane_words)
{
    switch (lane_words) {
      case 1:
        return settleMaskedScalarT<1>(ops, count, cur);
      case 2:
        return settleMaskedScalarT<2>(ops, count, cur);
      case 4:
        return settleMaskedScalarT<4>(ops, count, cur);
      case 8:
        return settleMaskedScalarT<8>(ops, count, cur);
      default:
        return settleMaskedScalarGeneric(ops, count, cur, lane_words);
    }
}

template <unsigned W, bool Count>
std::uint64_t
commitGatedScalarT(const ExecPlan::RegOp *ops, std::size_t count,
                   const std::uint64_t *cur, std::uint64_t *carry,
                   std::uint64_t *pending, std::uint64_t *toggles,
                   std::uint64_t *flip_cur)
{
    std::uint64_t change = 0;
    std::uint64_t local_toggles = 0;
    for (std::size_t k = 0; k < count; ++k) {
        const auto &op = ops[k];
        const std::uint64_t *a = cur + std::size_t{op.a} * W;
        const std::uint64_t *b_raw = cur + std::size_t{op.b} * W;
        std::uint64_t *cw = carry + k * W;
        std::uint64_t *__restrict pend = pending + k * W;
        std::uint64_t *fd = flip_cur == nullptr
                                ? nullptr
                                : flip_cur + std::size_t{op.dst} * W;
        for (unsigned w = 0; w < W; ++w) {
            const std::uint64_t b = b_raw[w] ^ op.bInv;
            const std::uint64_t c = cw[w];
            const std::uint64_t sum = a[w] ^ b ^ c;
            const std::uint64_t next_carry =
                (a[w] & b) | (a[w] & c) | (b & c);
            // pend[w] still holds the op's presented value (the flip
            // keeps cur[dst] equal to it), so the old state comes from
            // this sequential stream instead of a scattered load; an
            // owed flip stores it to the dst slot on the way.
            const std::uint64_t old = pend[w];
            if (fd != nullptr)
                fd[w] = old;
            const std::uint64_t dst_change = old ^ sum;
            const std::uint64_t carry_change = c ^ next_carry;
            change |= dst_change | carry_change;
            if constexpr (Count) {
                local_toggles += static_cast<std::uint64_t>(
                    std::popcount(dst_change) +
                    std::popcount(carry_change));
            }
            pend[w] = sum;
            cw[w] = next_carry;
        }
    }
    if constexpr (Count)
        *toggles += local_toggles;
    return change;
}

template <bool Count>
std::uint64_t
commitGatedScalarGeneric(const ExecPlan::RegOp *ops, std::size_t count,
                         const std::uint64_t *cur, std::uint64_t *carry,
                         std::uint64_t *pending, unsigned lane_words,
                         std::uint64_t *toggles, std::uint64_t *flip_cur)
{
    std::uint64_t change = 0;
    std::uint64_t local_toggles = 0;
    for (std::size_t k = 0; k < count; ++k) {
        const auto &op = ops[k];
        const std::uint64_t *a = cur + std::size_t{op.a} * lane_words;
        const std::uint64_t *b_raw = cur + std::size_t{op.b} * lane_words;
        std::uint64_t *cw = carry + k * lane_words;
        std::uint64_t *__restrict pend = pending + k * lane_words;
        std::uint64_t *fd =
            flip_cur == nullptr
                ? nullptr
                : flip_cur + std::size_t{op.dst} * lane_words;
        for (unsigned w = 0; w < lane_words; ++w) {
            const std::uint64_t b = b_raw[w] ^ op.bInv;
            const std::uint64_t c = cw[w];
            const std::uint64_t sum = a[w] ^ b ^ c;
            const std::uint64_t next_carry =
                (a[w] & b) | (a[w] & c) | (b & c);
            const std::uint64_t old = pend[w];
            if (fd != nullptr)
                fd[w] = old;
            const std::uint64_t dst_change = old ^ sum;
            const std::uint64_t carry_change = c ^ next_carry;
            change |= dst_change | carry_change;
            if constexpr (Count) {
                local_toggles += static_cast<std::uint64_t>(
                    std::popcount(dst_change) +
                    std::popcount(carry_change));
            }
            pend[w] = sum;
            cw[w] = next_carry;
        }
    }
    if constexpr (Count)
        *toggles += local_toggles;
    return change;
}

std::uint64_t
commitGatedScalar(const ExecPlan::RegOp *ops, std::size_t count,
                  const std::uint64_t *cur, std::uint64_t *carry,
                  std::uint64_t *pending, unsigned lane_words,
                  bool count_toggles, std::uint64_t *toggles,
                  std::uint64_t *flip_cur)
{
    if (count_toggles) {
        switch (lane_words) {
          case 1:
            return commitGatedScalarT<1, true>(ops, count, cur, carry,
                                               pending, toggles, flip_cur);
          case 2:
            return commitGatedScalarT<2, true>(ops, count, cur, carry,
                                               pending, toggles, flip_cur);
          case 4:
            return commitGatedScalarT<4, true>(ops, count, cur, carry,
                                               pending, toggles, flip_cur);
          case 8:
            return commitGatedScalarT<8, true>(ops, count, cur, carry,
                                               pending, toggles, flip_cur);
          default:
            return commitGatedScalarGeneric<true>(ops, count, cur, carry,
                                                  pending, lane_words,
                                                  toggles, flip_cur);
        }
    }
    switch (lane_words) {
      case 1:
        return commitGatedScalarT<1, false>(ops, count, cur, carry,
                                            pending, toggles, flip_cur);
      case 2:
        return commitGatedScalarT<2, false>(ops, count, cur, carry,
                                            pending, toggles, flip_cur);
      case 4:
        return commitGatedScalarT<4, false>(ops, count, cur, carry,
                                            pending, toggles, flip_cur);
      case 8:
        return commitGatedScalarT<8, false>(ops, count, cur, carry,
                                            pending, toggles, flip_cur);
      default:
        return commitGatedScalarGeneric<false>(ops, count, cur, carry,
                                               pending, lane_words,
                                               toggles, flip_cur);
    }
}

/** In-place 64x64 bit-matrix transpose (Hacker's Delight 7-3). */
void
transposeScalar(std::uint64_t a[64])
{
    std::uint64_t m = 0x00000000ffffffffull;
    for (unsigned j = 32; j != 0; j >>= 1, m ^= m << j) {
        for (unsigned k = 0; k < 64; k = (k + j + 1) & ~j) {
            const std::uint64_t t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k] ^= t << j;
            a[k + j] ^= t;
        }
    }
}

#if SPATIAL_KERNELS_X86

// ---------------------------------------------------------------------
// AVX2: 256-bit registers, 4 lane-words per vector op
// ---------------------------------------------------------------------

template <unsigned W>
__attribute__((target("avx2"))) void
settleAvx2T(const ExecPlan::CombOp *ops, std::size_t count,
            std::uint64_t *cur)
{
    static_assert(W % 4 == 0);
    for (std::size_t i = 0; i < count; ++i) {
        const auto &op = ops[i];
        const std::uint64_t *a = cur + std::size_t{op.a} * W;
        const std::uint64_t *b = cur + std::size_t{op.b} * W;
        std::uint64_t *dst = cur + std::size_t{op.dst} * W;
        const __m256i inv =
            _mm256_set1_epi64x(static_cast<long long>(op.inv));
        for (unsigned w = 0; w < W; w += 4) {
            const __m256i va = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(a + w));
            const __m256i vb = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(b + w));
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(dst + w),
                _mm256_xor_si256(_mm256_and_si256(va, vb), inv));
        }
    }
}

void
settleAvx2(const ExecPlan::CombOp *ops, std::size_t count,
           std::uint64_t *cur, unsigned lane_words)
{
    switch (lane_words) {
      case 4:
        return settleAvx2T<4>(ops, count, cur);
      case 8:
        return settleAvx2T<8>(ops, count, cur);
      default:
        // Narrower than one register: the scalar sweep is already
        // optimal (and bit-identical by construction).
        return settleScalar(ops, count, cur, lane_words);
    }
}

template <unsigned W, bool Count, bool Reverse = false>
__attribute__((target("avx2"))) std::uint64_t
commitAvx2T(const ExecPlan::RegOp *ops, std::size_t count,
            std::uint64_t *cur, std::uint64_t *carry)
{
    static_assert(W % 4 == 0);
    std::uint64_t toggles = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t k = Reverse ? count - 1 - i : i;
        const auto &op = ops[k];
        const std::uint64_t *a = cur + std::size_t{op.a} * W;
        const std::uint64_t *b_raw = cur + std::size_t{op.b} * W;
        std::uint64_t *cw = carry + k * W;
        std::uint64_t *dst = cur + std::size_t{op.dst} * W;
        const __m256i binv =
            _mm256_set1_epi64x(static_cast<long long>(op.bInv));
        for (unsigned w = 0; w < W; w += 4) {
            const __m256i va = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(a + w));
            const __m256i vb = _mm256_xor_si256(
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(b_raw + w)),
                binv);
            const __m256i vc = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(cw + w));
            const __m256i sum =
                _mm256_xor_si256(_mm256_xor_si256(va, vb), vc);
            const __m256i next = _mm256_or_si256(
                _mm256_or_si256(_mm256_and_si256(va, vb),
                                _mm256_and_si256(va, vc)),
                _mm256_and_si256(vb, vc));
            if constexpr (Count) {
                alignas(32) std::uint64_t dt[4];
                alignas(32) std::uint64_t ct[4];
                _mm256_store_si256(
                    reinterpret_cast<__m256i *>(dt),
                    _mm256_xor_si256(
                        _mm256_loadu_si256(
                            reinterpret_cast<const __m256i *>(dst + w)),
                        sum));
                _mm256_store_si256(reinterpret_cast<__m256i *>(ct),
                                   _mm256_xor_si256(vc, next));
                for (int i = 0; i < 4; ++i)
                    toggles += static_cast<std::uint64_t>(
                        std::popcount(dt[i]) + std::popcount(ct[i]));
            }
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + w),
                                sum);
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(cw + w),
                                next);
        }
    }
    return toggles;
}

std::uint64_t
commitAvx2(const ExecPlan::RegOp *ops, std::size_t count,
           std::uint64_t *cur, std::uint64_t *carry, unsigned lane_words,
           bool count_toggles)
{
    switch (lane_words) {
      case 4:
        return count_toggles
                   ? commitAvx2T<4, true>(ops, count, cur, carry)
                   : commitAvx2T<4, false>(ops, count, cur, carry);
      case 8:
        return count_toggles
                   ? commitAvx2T<8, true>(ops, count, cur, carry)
                   : commitAvx2T<8, false>(ops, count, cur, carry);
      default:
        return commitScalar(ops, count, cur, carry, lane_words,
                            count_toggles);
    }
}

std::uint64_t
commitReverseAvx2(const ExecPlan::RegOp *ops, std::size_t count,
                  std::uint64_t *cur, std::uint64_t *carry,
                  unsigned lane_words, bool count_toggles)
{
    switch (lane_words) {
      case 4:
        return count_toggles
                   ? commitAvx2T<4, true, true>(ops, count, cur, carry)
                   : commitAvx2T<4, false, true>(ops, count, cur, carry);
      case 8:
        return count_toggles
                   ? commitAvx2T<8, true, true>(ops, count, cur, carry)
                   : commitAvx2T<8, false, true>(ops, count, cur, carry);
      default:
        return commitReverseScalar(ops, count, cur, carry, lane_words,
                                   count_toggles);
    }
}

/** Horizontal OR of the four 64-bit lanes of a 256-bit register. */
__attribute__((target("avx2"))) inline std::uint64_t
reduceOrAvx2(__m256i v)
{
    const __m128i folded = _mm_or_si128(_mm256_castsi256_si128(v),
                                        _mm256_extracti128_si256(v, 1));
    return static_cast<std::uint64_t>(_mm_cvtsi128_si64(folded)) |
           static_cast<std::uint64_t>(
               _mm_cvtsi128_si64(_mm_unpackhi_epi64(folded, folded)));
}

template <unsigned W>
__attribute__((target("avx2"))) std::uint64_t
settleMaskedAvx2T(const ExecPlan::CombOp *ops, std::size_t count,
                  std::uint64_t *cur)
{
    static_assert(W % 4 == 0);
    __m256i change = _mm256_setzero_si256();
    for (std::size_t i = 0; i < count; ++i) {
        const auto &op = ops[i];
        const std::uint64_t *a = cur + std::size_t{op.a} * W;
        const std::uint64_t *b = cur + std::size_t{op.b} * W;
        std::uint64_t *dst = cur + std::size_t{op.dst} * W;
        const __m256i inv =
            _mm256_set1_epi64x(static_cast<long long>(op.inv));
        for (unsigned w = 0; w < W; w += 4) {
            const __m256i va = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(a + w));
            const __m256i vb = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(b + w));
            const __m256i next =
                _mm256_xor_si256(_mm256_and_si256(va, vb), inv);
            const __m256i old = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(dst + w));
            change = _mm256_or_si256(change,
                                     _mm256_xor_si256(old, next));
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + w),
                                next);
        }
    }
    return reduceOrAvx2(change);
}

std::uint64_t
settleMaskedAvx2(const ExecPlan::CombOp *ops, std::size_t count,
                 std::uint64_t *cur, unsigned lane_words)
{
    switch (lane_words) {
      case 4:
        return settleMaskedAvx2T<4>(ops, count, cur);
      case 8:
        return settleMaskedAvx2T<8>(ops, count, cur);
      default:
        return settleMaskedScalar(ops, count, cur, lane_words);
    }
}

template <unsigned W, bool Count>
__attribute__((target("avx2"))) std::uint64_t
commitGatedAvx2T(const ExecPlan::RegOp *ops, std::size_t count,
                 const std::uint64_t *cur, std::uint64_t *carry,
                 std::uint64_t *pending, std::uint64_t *toggles,
                 std::uint64_t *flip_cur)
{
    static_assert(W % 4 == 0);
    __m256i change = _mm256_setzero_si256();
    std::uint64_t local_toggles = 0;
    for (std::size_t k = 0; k < count; ++k) {
        const auto &op = ops[k];
        const std::uint64_t *a = cur + std::size_t{op.a} * W;
        const std::uint64_t *b_raw = cur + std::size_t{op.b} * W;
        std::uint64_t *cw = carry + k * W;
        std::uint64_t *pend = pending + k * W;
        std::uint64_t *fd = flip_cur == nullptr
                                ? nullptr
                                : flip_cur + std::size_t{op.dst} * W;
        const __m256i binv =
            _mm256_set1_epi64x(static_cast<long long>(op.bInv));
        for (unsigned w = 0; w < W; w += 4) {
            const __m256i va = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(a + w));
            const __m256i vb = _mm256_xor_si256(
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(b_raw + w)),
                binv);
            const __m256i vc = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(cw + w));
            const __m256i sum =
                _mm256_xor_si256(_mm256_xor_si256(va, vb), vc);
            const __m256i next = _mm256_or_si256(
                _mm256_or_si256(_mm256_and_si256(va, vb),
                                _mm256_and_si256(va, vc)),
                _mm256_and_si256(vb, vc));
            // pend still holds the presented value (see the scalar
            // reference): sequential reload, no scattered dst access;
            // an owed flip stores it to the dst slot on the way.
            const __m256i old = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(pend + w));
            if (fd != nullptr)
                _mm256_storeu_si256(reinterpret_cast<__m256i *>(fd + w),
                                    old);
            const __m256i dst_change = _mm256_xor_si256(old, sum);
            const __m256i carry_change = _mm256_xor_si256(vc, next);
            change = _mm256_or_si256(
                change, _mm256_or_si256(dst_change, carry_change));
            if constexpr (Count) {
                alignas(32) std::uint64_t dt[4];
                alignas(32) std::uint64_t ct[4];
                _mm256_store_si256(reinterpret_cast<__m256i *>(dt),
                                   dst_change);
                _mm256_store_si256(reinterpret_cast<__m256i *>(ct),
                                   carry_change);
                for (int i = 0; i < 4; ++i)
                    local_toggles += static_cast<std::uint64_t>(
                        std::popcount(dt[i]) + std::popcount(ct[i]));
            }
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(pend + w),
                                sum);
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(cw + w),
                                next);
        }
    }
    if constexpr (Count)
        *toggles += local_toggles;
    return reduceOrAvx2(change);
}

std::uint64_t
commitGatedAvx2(const ExecPlan::RegOp *ops, std::size_t count,
                const std::uint64_t *cur, std::uint64_t *carry,
                std::uint64_t *pending, unsigned lane_words,
                bool count_toggles, std::uint64_t *toggles,
                std::uint64_t *flip_cur)
{
    switch (lane_words) {
      case 4:
        return count_toggles
                   ? commitGatedAvx2T<4, true>(ops, count, cur, carry,
                                               pending, toggles, flip_cur)
                   : commitGatedAvx2T<4, false>(ops, count, cur, carry,
                                                pending, toggles,
                                                flip_cur);
      case 8:
        return count_toggles
                   ? commitGatedAvx2T<8, true>(ops, count, cur, carry,
                                               pending, toggles, flip_cur)
                   : commitGatedAvx2T<8, false>(ops, count, cur, carry,
                                                pending, toggles,
                                                flip_cur);
      default:
        return commitGatedScalar(ops, count, cur, carry, pending,
                                 lane_words, count_toggles, toggles,
                                 flip_cur);
    }
}

/**
 * Transpose with the j >= 4 butterfly passes on 256-bit registers (the
 * paired indices are contiguous runs of length j, so four consecutive k
 * fit one register); the j = 2, 1 passes pair within-register words and
 * stay scalar.
 */
__attribute__((target("avx2"))) void
transposeAvx2(std::uint64_t a[64])
{
    static constexpr std::uint64_t kMasks[4] = {
        0x00000000ffffffffull, 0x0000ffff0000ffffull,
        0x00ff00ff00ff00ffull, 0x0f0f0f0f0f0f0f0full};
    unsigned j = 32;
    for (int mi = 0; mi < 4; ++mi, j >>= 1) {
        const __m256i m =
            _mm256_set1_epi64x(static_cast<long long>(kMasks[mi]));
        for (unsigned k0 = 0; k0 < 64; k0 += 2 * j) {
            for (unsigned k = k0; k < k0 + j; k += 4) {
                __m256i lo = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(a + k));
                __m256i hi = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(a + k + j));
                const __m256i t = _mm256_and_si256(
                    _mm256_xor_si256(
                        _mm256_srli_epi64(lo, static_cast<int>(j)), hi),
                    m);
                lo = _mm256_xor_si256(
                    lo, _mm256_slli_epi64(t, static_cast<int>(j)));
                hi = _mm256_xor_si256(hi, t);
                _mm256_storeu_si256(reinterpret_cast<__m256i *>(a + k),
                                    lo);
                _mm256_storeu_si256(
                    reinterpret_cast<__m256i *>(a + k + j), hi);
            }
        }
    }
    std::uint64_t m = 0x3333333333333333ull;
    for (j = 2; j != 0; j >>= 1, m ^= m << j) {
        for (unsigned k = 0; k < 64; k = (k + j + 1) & ~j) {
            const std::uint64_t t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k] ^= t << j;
            a[k + j] ^= t;
        }
    }
}

#endif // SPATIAL_KERNELS_X86

#if SPATIAL_KERNELS_NEON

// ---------------------------------------------------------------------
// NEON: 128-bit registers, 2 lane-words per vector op (AArch64
// baseline, no runtime detection needed)
// ---------------------------------------------------------------------

template <unsigned W>
void
settleNeonT(const ExecPlan::CombOp *ops, std::size_t count,
            std::uint64_t *cur)
{
    static_assert(W % 2 == 0);
    for (std::size_t i = 0; i < count; ++i) {
        const auto &op = ops[i];
        const std::uint64_t *a = cur + std::size_t{op.a} * W;
        const std::uint64_t *b = cur + std::size_t{op.b} * W;
        std::uint64_t *dst = cur + std::size_t{op.dst} * W;
        const uint64x2_t inv = vdupq_n_u64(op.inv);
        for (unsigned w = 0; w < W; w += 2)
            vst1q_u64(dst + w,
                      veorq_u64(vandq_u64(vld1q_u64(a + w),
                                          vld1q_u64(b + w)),
                                inv));
    }
}

void
settleNeon(const ExecPlan::CombOp *ops, std::size_t count,
           std::uint64_t *cur, unsigned lane_words)
{
    switch (lane_words) {
      case 2:
        return settleNeonT<2>(ops, count, cur);
      case 4:
        return settleNeonT<4>(ops, count, cur);
      case 8:
        return settleNeonT<8>(ops, count, cur);
      default:
        return settleScalar(ops, count, cur, lane_words);
    }
}

template <unsigned W, bool Count, bool Reverse = false>
std::uint64_t
commitNeonT(const ExecPlan::RegOp *ops, std::size_t count,
            std::uint64_t *cur, std::uint64_t *carry)
{
    static_assert(W % 2 == 0);
    std::uint64_t toggles = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t k = Reverse ? count - 1 - i : i;
        const auto &op = ops[k];
        const std::uint64_t *a = cur + std::size_t{op.a} * W;
        const std::uint64_t *b_raw = cur + std::size_t{op.b} * W;
        std::uint64_t *cw = carry + k * W;
        std::uint64_t *dst = cur + std::size_t{op.dst} * W;
        const uint64x2_t binv = vdupq_n_u64(op.bInv);
        for (unsigned w = 0; w < W; w += 2) {
            const uint64x2_t va = vld1q_u64(a + w);
            const uint64x2_t vb = veorq_u64(vld1q_u64(b_raw + w), binv);
            const uint64x2_t vc = vld1q_u64(cw + w);
            const uint64x2_t sum = veorq_u64(veorq_u64(va, vb), vc);
            const uint64x2_t next =
                vorrq_u64(vorrq_u64(vandq_u64(va, vb), vandq_u64(va, vc)),
                          vandq_u64(vb, vc));
            if constexpr (Count) {
                std::uint64_t dt[2];
                std::uint64_t ct[2];
                vst1q_u64(dt, veorq_u64(vld1q_u64(dst + w), sum));
                vst1q_u64(ct, veorq_u64(vc, next));
                toggles += static_cast<std::uint64_t>(
                    std::popcount(dt[0]) + std::popcount(dt[1]) +
                    std::popcount(ct[0]) + std::popcount(ct[1]));
            }
            vst1q_u64(dst + w, sum);
            vst1q_u64(cw + w, next);
        }
    }
    return toggles;
}

std::uint64_t
commitNeon(const ExecPlan::RegOp *ops, std::size_t count,
           std::uint64_t *cur, std::uint64_t *carry, unsigned lane_words,
           bool count_toggles)
{
    switch (lane_words) {
      case 2:
        return count_toggles
                   ? commitNeonT<2, true>(ops, count, cur, carry)
                   : commitNeonT<2, false>(ops, count, cur, carry);
      case 4:
        return count_toggles
                   ? commitNeonT<4, true>(ops, count, cur, carry)
                   : commitNeonT<4, false>(ops, count, cur, carry);
      case 8:
        return count_toggles
                   ? commitNeonT<8, true>(ops, count, cur, carry)
                   : commitNeonT<8, false>(ops, count, cur, carry);
      default:
        return commitScalar(ops, count, cur, carry, lane_words,
                            count_toggles);
    }
}

std::uint64_t
commitReverseNeon(const ExecPlan::RegOp *ops, std::size_t count,
                  std::uint64_t *cur, std::uint64_t *carry,
                  unsigned lane_words, bool count_toggles)
{
    switch (lane_words) {
      case 2:
        return count_toggles
                   ? commitNeonT<2, true, true>(ops, count, cur, carry)
                   : commitNeonT<2, false, true>(ops, count, cur, carry);
      case 4:
        return count_toggles
                   ? commitNeonT<4, true, true>(ops, count, cur, carry)
                   : commitNeonT<4, false, true>(ops, count, cur, carry);
      case 8:
        return count_toggles
                   ? commitNeonT<8, true, true>(ops, count, cur, carry)
                   : commitNeonT<8, false, true>(ops, count, cur, carry);
      default:
        return commitReverseScalar(ops, count, cur, carry, lane_words,
                                   count_toggles);
    }
}

template <unsigned W>
std::uint64_t
settleMaskedNeonT(const ExecPlan::CombOp *ops, std::size_t count,
                  std::uint64_t *cur)
{
    static_assert(W % 2 == 0);
    uint64x2_t change = vdupq_n_u64(0);
    for (std::size_t i = 0; i < count; ++i) {
        const auto &op = ops[i];
        const std::uint64_t *a = cur + std::size_t{op.a} * W;
        const std::uint64_t *b = cur + std::size_t{op.b} * W;
        std::uint64_t *dst = cur + std::size_t{op.dst} * W;
        const uint64x2_t inv = vdupq_n_u64(op.inv);
        for (unsigned w = 0; w < W; w += 2) {
            const uint64x2_t next =
                veorq_u64(vandq_u64(vld1q_u64(a + w), vld1q_u64(b + w)),
                          inv);
            change = vorrq_u64(change,
                               veorq_u64(vld1q_u64(dst + w), next));
            vst1q_u64(dst + w, next);
        }
    }
    return vgetq_lane_u64(change, 0) | vgetq_lane_u64(change, 1);
}

std::uint64_t
settleMaskedNeon(const ExecPlan::CombOp *ops, std::size_t count,
                 std::uint64_t *cur, unsigned lane_words)
{
    switch (lane_words) {
      case 2:
        return settleMaskedNeonT<2>(ops, count, cur);
      case 4:
        return settleMaskedNeonT<4>(ops, count, cur);
      case 8:
        return settleMaskedNeonT<8>(ops, count, cur);
      default:
        return settleMaskedScalar(ops, count, cur, lane_words);
    }
}

template <unsigned W, bool Count>
std::uint64_t
commitGatedNeonT(const ExecPlan::RegOp *ops, std::size_t count,
                 const std::uint64_t *cur, std::uint64_t *carry,
                 std::uint64_t *pending, std::uint64_t *toggles,
                 std::uint64_t *flip_cur)
{
    static_assert(W % 2 == 0);
    uint64x2_t change = vdupq_n_u64(0);
    std::uint64_t local_toggles = 0;
    for (std::size_t k = 0; k < count; ++k) {
        const auto &op = ops[k];
        const std::uint64_t *a = cur + std::size_t{op.a} * W;
        const std::uint64_t *b_raw = cur + std::size_t{op.b} * W;
        std::uint64_t *cw = carry + k * W;
        std::uint64_t *pend = pending + k * W;
        std::uint64_t *fd = flip_cur == nullptr
                                ? nullptr
                                : flip_cur + std::size_t{op.dst} * W;
        const uint64x2_t binv = vdupq_n_u64(op.bInv);
        for (unsigned w = 0; w < W; w += 2) {
            const uint64x2_t va = vld1q_u64(a + w);
            const uint64x2_t vb = veorq_u64(vld1q_u64(b_raw + w), binv);
            const uint64x2_t vc = vld1q_u64(cw + w);
            const uint64x2_t sum = veorq_u64(veorq_u64(va, vb), vc);
            const uint64x2_t next =
                vorrq_u64(vorrq_u64(vandq_u64(va, vb), vandq_u64(va, vc)),
                          vandq_u64(vb, vc));
            const uint64x2_t old = vld1q_u64(pend + w);
            if (fd != nullptr)
                vst1q_u64(fd + w, old);
            const uint64x2_t dst_change = veorq_u64(old, sum);
            const uint64x2_t carry_change = veorq_u64(vc, next);
            change = vorrq_u64(change,
                               vorrq_u64(dst_change, carry_change));
            if constexpr (Count) {
                std::uint64_t dt[2];
                std::uint64_t ct[2];
                vst1q_u64(dt, dst_change);
                vst1q_u64(ct, carry_change);
                local_toggles += static_cast<std::uint64_t>(
                    std::popcount(dt[0]) + std::popcount(dt[1]) +
                    std::popcount(ct[0]) + std::popcount(ct[1]));
            }
            vst1q_u64(pend + w, sum);
            vst1q_u64(cw + w, next);
        }
    }
    if constexpr (Count)
        *toggles += local_toggles;
    return vgetq_lane_u64(change, 0) | vgetq_lane_u64(change, 1);
}

std::uint64_t
commitGatedNeon(const ExecPlan::RegOp *ops, std::size_t count,
                const std::uint64_t *cur, std::uint64_t *carry,
                std::uint64_t *pending, unsigned lane_words,
                bool count_toggles, std::uint64_t *toggles,
                std::uint64_t *flip_cur)
{
    switch (lane_words) {
      case 2:
        return count_toggles
                   ? commitGatedNeonT<2, true>(ops, count, cur, carry,
                                               pending, toggles, flip_cur)
                   : commitGatedNeonT<2, false>(ops, count, cur, carry,
                                                pending, toggles,
                                                flip_cur);
      case 4:
        return count_toggles
                   ? commitGatedNeonT<4, true>(ops, count, cur, carry,
                                               pending, toggles, flip_cur)
                   : commitGatedNeonT<4, false>(ops, count, cur, carry,
                                                pending, toggles,
                                                flip_cur);
      case 8:
        return count_toggles
                   ? commitGatedNeonT<8, true>(ops, count, cur, carry,
                                               pending, toggles, flip_cur)
                   : commitGatedNeonT<8, false>(ops, count, cur, carry,
                                                pending, toggles,
                                                flip_cur);
      default:
        return commitGatedScalar(ops, count, cur, carry, pending,
                                 lane_words, count_toggles, toggles,
                                 flip_cur);
    }
}

/** Transpose with the j >= 2 butterfly passes on 128-bit registers. */
void
transposeNeon(std::uint64_t a[64])
{
    static constexpr std::uint64_t kMasks[5] = {
        0x00000000ffffffffull, 0x0000ffff0000ffffull,
        0x00ff00ff00ff00ffull, 0x0f0f0f0f0f0f0f0full,
        0x3333333333333333ull};
    unsigned j = 32;
    for (int mi = 0; mi < 5; ++mi, j >>= 1) {
        const uint64x2_t m = vdupq_n_u64(kMasks[mi]);
        const int64x2_t sr = vdupq_n_s64(-static_cast<std::int64_t>(j));
        const int64x2_t sl = vdupq_n_s64(static_cast<std::int64_t>(j));
        for (unsigned k0 = 0; k0 < 64; k0 += 2 * j) {
            for (unsigned k = k0; k < k0 + j; k += 2) {
                uint64x2_t lo = vld1q_u64(a + k);
                uint64x2_t hi = vld1q_u64(a + k + j);
                const uint64x2_t t = vandq_u64(
                    veorq_u64(vshlq_u64(lo, sr), hi), m);
                lo = veorq_u64(lo, vshlq_u64(t, sl));
                hi = veorq_u64(hi, t);
                vst1q_u64(a + k, lo);
                vst1q_u64(a + k + j, hi);
            }
        }
    }
    constexpr std::uint64_t m1 = 0x5555555555555555ull;
    for (unsigned k = 0; k < 64; k += 2) {
        const std::uint64_t t = ((a[k] >> 1) ^ a[k + 1]) & m1;
        a[k] ^= t << 1;
        a[k + 1] ^= t;
    }
}

#endif // SPATIAL_KERNELS_NEON

#if SPATIAL_KERNELS_X86

const Kernel &
avx2Kernel()
{
    static const Kernel kernel{"avx2",         4,
                               settleAvx2,     commitAvx2,
                               commitReverseAvx2,
                               settleMaskedAvx2, commitGatedAvx2,
                               transposeAvx2};
    return kernel;
}

#endif

#if SPATIAL_KERNELS_NEON

const Kernel &
neonKernel()
{
    static const Kernel kernel{"neon",         2,
                               settleNeon,     commitNeon,
                               commitReverseNeon,
                               settleMaskedNeon, commitGatedNeon,
                               transposeNeon};
    return kernel;
}

#endif

} // namespace

const Kernel &
scalarKernel()
{
    static const Kernel kernel{"scalar",        1,
                               settleScalar,    commitScalar,
                               commitReverseScalar,
                               settleMaskedScalar, commitGatedScalar,
                               transposeScalar};
    return kernel;
}

const std::vector<const Kernel *> &
supportedKernels()
{
    static const std::vector<const Kernel *> kernels = [] {
        std::vector<const Kernel *> list;
#if SPATIAL_KERNELS_X86
        if (__builtin_cpu_supports("avx2"))
            list.push_back(&avx2Kernel());
#endif
#if SPATIAL_KERNELS_NEON
        list.push_back(&neonKernel());
#endif
        list.push_back(&scalarKernel());
        return list;
    }();
    return kernels;
}

const Kernel *
findKernel(const std::string &name)
{
    for (const Kernel *kernel : supportedKernels())
        if (name == kernel->name)
            return kernel;
    return nullptr;
}

const Kernel &
activeKernel()
{
    static const Kernel &active = []() -> const Kernel & {
        if (const char *env = std::getenv("SPATIAL_KERNEL");
            env != nullptr && *env != '\0') {
            if (const Kernel *forced = findKernel(env))
                return *forced;
            std::string have;
            for (const Kernel *kernel : supportedKernels()) {
                if (!have.empty())
                    have += ", ";
                have += kernel->name;
            }
            SPATIAL_FATAL("SPATIAL_KERNEL='", env,
                          "' is not a supported kernel on this machine "
                          "(supported: ",
                          have, ")");
        }
        return *supportedKernels().front();
    }();
    return active;
}

} // namespace spatial::circuit::kernels

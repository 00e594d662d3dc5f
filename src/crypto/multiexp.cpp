#include "crypto/multiexp.hpp"

#include <algorithm>

#include "common/thread_pool.hpp"

namespace veil::crypto {

namespace {

constexpr std::size_t kWindowBits = 4;

/// The j-th 4-bit digit of e (little-endian digit order). Window digits
/// never straddle a 32-bit limb because 32 is a multiple of 4.
std::uint32_t nibble(const BigInt& e, std::size_t j) {
  const std::size_t bit = j * kWindowBits;
  const std::size_t limb = bit / 32;
  const auto& limbs = e.limbs();
  if (limb >= limbs.size()) return 0;
  return (limbs[limb] >> (bit % 32)) & 0xF;
}

}  // namespace

BigInt multi_exp(const MontgomeryCtx& ctx, const std::vector<ExpTerm>& terms) {
  // Terms with a zero exponent contribute 1 and are skipped; a zero base
  // with a nonzero exponent zeroes the whole product.
  std::vector<std::size_t> active;
  std::size_t max_digits = 0;
  for (std::size_t t = 0; t < terms.size(); ++t) {
    const std::size_t digits =
        (terms[t].exponent.bit_length() + kWindowBits - 1) / kWindowBits;
    if (digits == 0) continue;
    if (terms[t].base.is_zero()) return BigInt(0);
    active.push_back(t);
    max_digits = std::max(max_digits, digits);
  }

  // One workspace for the chain: a flat [term][digit][limb] buffer with
  // base^d in Montgomery form for d = 1..15 per active term, then the
  // accumulator and the product scratch.
  using Limb = MontgomeryCtx::Limb;
  const std::size_t k = ctx.limbs();
  const std::size_t stride = 15 * k;
  std::vector<Limb> ws(active.size() * stride + k + ctx.scratch_limbs());
  Limb* acc = ws.data() + active.size() * stride;
  Limb* scratch = acc + k;
  for (std::size_t a = 0; a < active.size(); ++a) {
    Limb* table = ws.data() + a * stride;
    ctx.to_mont(table, terms[active[a]].base, scratch);
    for (std::size_t d = 1; d < 15; ++d) {
      ctx.mul(table + d * k, table + (d - 1) * k, table, scratch);
    }
  }

  // One shared squaring chain, most-significant digit first; every term
  // folds its digit into the accumulator between squarings.
  std::copy(ctx.one_limbs(), ctx.one_limbs() + k, acc);
  for (std::size_t j = max_digits; j-- > 0;) {
    if (j + 1 != max_digits) {
      for (std::size_t s = 0; s < kWindowBits; ++s) {
        ctx.mul(acc, acc, acc, scratch);
      }
    }
    for (std::size_t a = 0; a < active.size(); ++a) {
      const std::uint32_t d = nibble(terms[active[a]].exponent, j);
      if (d != 0) {
        ctx.mul(acc, acc, ws.data() + a * stride + (d - 1) * k, scratch);
      }
    }
  }
  return ctx.from_mont(acc, scratch);
}

BigInt multi_exp_parallel(const MontgomeryCtx& ctx,
                          const std::vector<ExpTerm>& terms) {
  // Below this the per-chunk squaring chains cost more than the pool
  // buys back; with an inline pool there is nothing to overlap at all.
  constexpr std::size_t kMinChunk = 8;
  common::ThreadPool& pool = common::ThreadPool::global();
  if (terms.size() < 2 * kMinChunk || pool.thread_count() == 1) {
    return multi_exp(ctx, terms);
  }
  std::size_t chunks = std::min(2 * pool.thread_count(),
                                terms.size() / kMinChunk);
  if (chunks < 2) chunks = 2;
  const std::size_t stride = (terms.size() + chunks - 1) / chunks;
  const std::size_t n = (terms.size() + stride - 1) / stride;
  // Each chunk is an independent multi_exp; the partial products then
  // recombine in chunk order. Regrouping a product is exact, so the
  // result does not depend on the chunk count (and therefore not on
  // VEIL_THREADS).
  auto partials = pool.parallel_map(n, [&](std::size_t c) {
    const std::size_t lo = c * stride;
    const std::size_t hi = std::min(terms.size(), lo + stride);
    return multi_exp(
        ctx, std::vector<ExpTerm>(terms.begin() + lo, terms.begin() + hi));
  });
  BigInt acc = ctx.to_mont(partials[0]);
  for (std::size_t c = 1; c < partials.size(); ++c) {
    acc = ctx.mul(acc, ctx.to_mont(partials[c]));
  }
  return ctx.from_mont(acc);
}

}  // namespace veil::crypto

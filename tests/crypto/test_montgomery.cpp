#include "crypto/montgomery.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "crypto/group.hpp"

namespace veil::crypto {
namespace {

BigInt naive_mod_pow(const BigInt& base, const BigInt& exp, const BigInt& mod) {
  BigInt result(1);
  BigInt b = base % mod;
  for (std::size_t i = 0; i < exp.bit_length(); ++i) {
    if (exp.bit(i)) result = (result * b) % mod;
    b = (b * b) % mod;
  }
  return result;
}

TEST(Montgomery, RejectsUnusableModuli) {
  EXPECT_EQ(MontgomeryCtx::create(BigInt(0)), nullptr);
  EXPECT_EQ(MontgomeryCtx::create(BigInt(1)), nullptr);
  EXPECT_EQ(MontgomeryCtx::create(BigInt(4096)), nullptr);
  EXPECT_EQ(MontgomeryCtx::shared(BigInt::from_hex("10000000000000000")),
            nullptr);
  EXPECT_NE(MontgomeryCtx::create(BigInt(3)), nullptr);
}

TEST(Montgomery, DomainRoundTrip) {
  common::Rng rng(1);
  for (std::size_t bits : {8u, 32u, 64u, 257u, 1024u}) {
    BigInt n = BigInt::random_bits(rng, bits);
    if (!n.is_odd()) n += BigInt(1);
    const auto ctx = MontgomeryCtx::create(n);
    ASSERT_NE(ctx, nullptr);
    for (int i = 0; i < 10; ++i) {
      const BigInt a = BigInt::random_below(rng, n);
      EXPECT_EQ(ctx->from_mont(ctx->to_mont(a)), a);
    }
    // to_mont reduces oversized inputs.
    const BigInt big = BigInt::random_bits(rng, bits + 40);
    EXPECT_EQ(ctx->from_mont(ctx->to_mont(big)), big % n);
    // one() is the Montgomery form of 1.
    EXPECT_EQ(ctx->from_mont(ctx->one()), BigInt(1));
  }
}

// The kernel works in 64-bit limbs, so R = 2^(64 * ceil(c / 2)) for a
// modulus of c 32-bit limbs: odd c leaves a half-empty top limb. Every
// limb count is checked against plain BigInt arithmetic, on random
// moduli, on n = 2^(32c) - 1 and on moduli with an all-ones top limb
// (the t[k+1] carry and the final subtraction), with the edge operands
// 0, 1 and n-1 next to random ones.
TEST(Montgomery, MulMatchesModularProduct) {
  common::Rng rng(2);
  for (std::size_t c = 1; c <= 64; ++c) {
    const BigInt r = BigInt(1) << (64 * ((c + 1) / 2));
    const BigInt all_ones = (BigInt(1) << (32 * c)) - BigInt(1);
    const BigInt low = BigInt(1) << (32 * (c - 1));
    const BigInt top_ones = (BigInt(0xffffffffu) << (32 * (c - 1))) +
                            BigInt::random_below(rng, low);
    const BigInt random = BigInt::random_bits(rng, 32 * c);
    for (BigInt n : {all_ones, top_ones, random}) {
      if (!n.is_odd()) n += BigInt(1);
      if (n == BigInt(1)) n = BigInt(3);
      const auto ctx = MontgomeryCtx::create(n);
      ASSERT_NE(ctx, nullptr) << c;
      std::vector<BigInt> operands = {BigInt(0), BigInt(1), n - BigInt(1)};
      for (int i = 0; i < 3; ++i) {
        operands.push_back(BigInt::random_below(rng, n));
      }
      // 3 divides 2^(32c) - 1: a zero-divisor pair whose raw product must
      // reduce to 0, never to n.
      if (n == all_ones && n > BigInt(3)) {
        operands.push_back(BigInt(3));
        operands.push_back(n / BigInt(3));
      }
      for (const BigInt& a : operands) {
        // mul(x, one()) == x for any residue x.
        EXPECT_EQ(ctx->mul(a, ctx->one()), a) << c;
        for (const BigInt& b : operands) {
          // The raw product is a*b*R^-1 mod n, fully reduced.
          const BigInt raw = ctx->mul(a, b);
          EXPECT_LT(raw, n) << c;
          EXPECT_EQ((raw * r) % n, (a * b) % n) << c;
          // And through the domain conversions it is the plain product.
          EXPECT_EQ(ctx->from_mont(ctx->mul(ctx->to_mont(a), ctx->to_mont(b))),
                    (a * b) % n)
              << c;
        }
      }
    }
  }
}

// Exponentiation chains multiply into their own accumulator, so the
// limb-level product must allow out to alias either input, or both.
TEST(Montgomery, LimbProductAllowsAliasing) {
  common::Rng rng(6);
  for (std::size_t bits : {30u, 64u, 97u, 1024u, 2048u}) {
    BigInt n = BigInt::random_bits(rng, bits);
    if (!n.is_odd()) n += BigInt(1);
    const auto ctx = MontgomeryCtx::create(n);
    ASSERT_NE(ctx, nullptr);
    const std::size_t k = ctx->limbs();
    std::vector<MontgomeryCtx::Limb> a(k), b(k), out(k),
        scratch(ctx->scratch_limbs());
    for (int i = 0; i < 5; ++i) {
      const BigInt x = BigInt::random_below(rng, n);
      const BigInt y = BigInt::random_below(rng, n);
      // out aliases a.
      ctx->to_mont(a.data(), x, scratch.data());
      ctx->to_mont(b.data(), y, scratch.data());
      ctx->mul(a.data(), a.data(), b.data(), scratch.data());
      EXPECT_EQ(ctx->from_mont(a.data(), scratch.data()), (x * y) % n) << bits;
      // out aliases b.
      ctx->to_mont(a.data(), x, scratch.data());
      ctx->mul(b.data(), a.data(), b.data(), scratch.data());
      EXPECT_EQ(ctx->from_mont(b.data(), scratch.data()), (x * y) % n) << bits;
      // a == b == out: in-place squaring, against a separate output.
      ctx->mul(out.data(), a.data(), a.data(), scratch.data());
      ctx->mul(a.data(), a.data(), a.data(), scratch.data());
      EXPECT_EQ(a, out) << bits;
      EXPECT_EQ(ctx->from_mont(a.data(), scratch.data()), (x * x) % n) << bits;
    }
  }
}

TEST(Montgomery, PowMatchesNaiveReference) {
  common::Rng rng(3);
  // {modulus bits, largest exponent bits}; the 4096-bit case keeps its
  // exponents short so the naive reference stays fast.
  const std::vector<std::pair<std::size_t, std::size_t>> cases = {
      {9, 9}, {33, 33}, {160, 160}, {768, 768}, {4096, 512}};
  for (const auto& [bits, exp_bits] : cases) {
    BigInt n = BigInt::random_bits(rng, bits);
    if (!n.is_odd()) n += BigInt(1);
    const auto ctx = MontgomeryCtx::create(n);
    for (int i = 0; i < 5; ++i) {
      const BigInt base = BigInt::random_bits(rng, bits + 11);
      const BigInt exp = BigInt::random_bits(rng, 1 + rng.next_below(exp_bits));
      EXPECT_EQ(ctx->pow(base, exp), naive_mod_pow(base, exp, n)) << bits;
    }
  }
}

TEST(Montgomery, PowEdgeCases) {
  const auto ctx = MontgomeryCtx::create(BigInt(1000003));
  EXPECT_EQ(ctx->pow(BigInt(0), BigInt(0)), BigInt(1));
  EXPECT_EQ(ctx->pow(BigInt(5), BigInt(0)), BigInt(1));
  EXPECT_TRUE(ctx->pow(BigInt(0), BigInt(77)).is_zero());
  EXPECT_EQ(ctx->pow(BigInt(5), BigInt(1)), BigInt(5));
  // Exponent with long zero runs (stresses the sliding-window scanner).
  const BigInt exp = BigInt(1) << 255;
  EXPECT_EQ(ctx->pow(BigInt(3), exp), naive_mod_pow(BigInt(3), exp, BigInt(1000003)));
  // All-ones exponent (maximal windows).
  const BigInt ones = (BigInt(1) << 128) - BigInt(1);
  EXPECT_EQ(ctx->pow(BigInt(3), ones), naive_mod_pow(BigInt(3), ones, BigInt(1000003)));
}

TEST(Montgomery, SharedCacheReturnsSameContext) {
  const BigInt n = BigInt::from_hex("c000000000000000000000000000000d");
  const auto a = MontgomeryCtx::shared(n);
  const auto b = MontgomeryCtx::shared(n);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(a->modulus(), n);
}

// The exponent whose comb column `col` is set in every one of the 8 rows
// (row i holds bits [i·a, (i+1)·a), a = ceil(bits/8)): it reads the
// all-ones pattern of its block.
BigInt comb_column(std::size_t bits, std::size_t col) {
  const std::size_t row_bits = (bits + 7) / 8;
  BigInt e(0);
  for (std::size_t i = 0; i < 8; ++i) {
    if (i * row_bits + col < bits) e += BigInt(1) << (i * row_bits + col);
  }
  return e;
}

TEST(FixedBaseTable, MatchesGenericPow) {
  common::Rng rng(4);
  for (const Group* group : {&Group::test_group(), &Group::default_group()}) {
    const auto ctx = MontgomeryCtx::create(group->p());
    const BigInt& q = group->q();
    const std::size_t bits = q.bit_length() + 1;
    const std::size_t row_bits = (bits + 7) / 8;
    const std::vector<BigInt> bases = {
        group->g(), group->hash_to_element(common::to_bytes("comb base"))};
    for (const BigInt& base : bases) {
      const FixedBaseTable table(ctx, base, bits);
      std::vector<BigInt> exps = {BigInt(0), BigInt(1), q - BigInt(1), q,
                                  (BigInt(1) << bits) - BigInt(1)};
      for (const std::size_t col : {std::size_t{0}, row_bits / 2,
                                    (row_bits + 1) / 2, row_bits - 1}) {
        exps.push_back(comb_column(bits, col));
      }
      for (int i = 0; i < 8; ++i) exps.push_back(BigInt::random_below(rng, q));
      // Wider than the table: 2^bits is one bit over, 2^(8a) is past every
      // comb row, and the random one is far past; all take the fallback.
      exps.push_back(BigInt(1) << bits);
      exps.push_back((BigInt(1) << (8 * row_bits)) + BigInt(1));
      exps.push_back(BigInt::random_bits(rng, bits + 64));
      for (const BigInt& e : exps) {
        EXPECT_EQ(table.pow(e), ctx->pow(base, e))
            << q.bit_length() << "-bit q, e = " << e.to_hex();
      }
      EXPECT_EQ(table.pow(BigInt(0)), BigInt(1));
      EXPECT_EQ(table.pow(BigInt(1)), base);
    }
  }

  // A 4096-bit modulus with exponents up to 512 bits, against the naive
  // reference.
  BigInt n = BigInt::random_bits(rng, 4096);
  if (!n.is_odd()) n += BigInt(1);
  const BigInt base = BigInt::random_below(rng, n);
  const FixedBaseTable big(MontgomeryCtx::create(n), base, 512);
  for (int i = 0; i < 3; ++i) {
    const BigInt e = BigInt::random_bits(rng, 1 + rng.next_below(512));
    EXPECT_EQ(big.pow(e), naive_mod_pow(base, e, n));
  }
  EXPECT_EQ(big.pow(comb_column(512, 63)),
            naive_mod_pow(base, comb_column(512, 63), n));
}

TEST(FixedBaseTable, GroupGeneratorsRouteThroughTables) {
  common::Rng rng(5);
  const Group& group = Group::default_group();
  for (int i = 0; i < 5; ++i) {
    const BigInt e = group.random_scalar(rng);
    EXPECT_EQ(group.pow_g(e), group.pow(group.g(), e));
    EXPECT_EQ(group.pow_h(e), group.pow(group.h(), e));
  }
}

}  // namespace
}  // namespace veil::crypto

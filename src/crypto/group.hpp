// Schnorr (prime-order subgroup) parameters over Z_p*.
//
// All discrete-log based primitives — Schnorr signatures, Pedersen
// commitments, sigma-protocol ZKPs, Idemix-style credentials — operate in
// a subgroup of order q inside Z_p* (DSA-style parameters, q | p-1).
// Fixed parameter sets were generated once with tools/gen_group_params and
// are compiled in, mirroring how production systems pin RFC 3526 groups.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "crypto/bigint.hpp"
#include "crypto/montgomery.hpp"
#include "crypto/sha256.hpp"

namespace veil::crypto {

/// Precomputed powers of a fixed base modulo an odd n, for the bases that
/// recur: the generators g and h (Pedersen commitments, Schnorr signing,
/// ElGamal keygen, the ZKP prover/verifier) and the recurring public keys
/// a BatchVerifier sees. The layout is a Lim-Lee comb with kRows = 8 rows
/// and kBlocks = 2 blocks: the exponent's bits are laid out as an 8-row
/// matrix of a = ceil(bits/8) columns, each row split into two blocks of
/// b = ceil(a/2) columns, and block j tabulates base^(Σ u_i·2^(i·a+j·b))
/// for every nonzero 8-bit column pattern u. An exponentiation reads one
/// column per block per step, so it costs b-1 squarings plus at most
/// 2·b products: ~16 + 33 for a 257-bit exponent, two tables of 255
/// entries (64 KB on a 1024-bit modulus).
class FixedBaseTable {
 public:
  /// Tabulates powers covering exponents up to `max_exp_bits` bits;
  /// longer exponents fall back to the generic windowed pow.
  FixedBaseTable(std::shared_ptr<const MontgomeryCtx> ctx, BigInt base,
                 std::size_t max_exp_bits);

  /// base^e mod n.
  BigInt pow(const BigInt& e) const;
  const BigInt& base() const { return base_; }

 private:
  static constexpr std::size_t kRows = 8;
  static constexpr std::size_t kBlocks = 2;
  static constexpr std::size_t kEntries = (std::size_t{1} << kRows) - 1;
  std::shared_ptr<const MontgomeryCtx> ctx_;
  BigInt base_;
  std::size_t bits_ = 0;      // widest exponent the comb serves
  std::size_t row_bits_ = 0;  // a: exponent bits per row
  std::size_t col_bits_ = 0;  // b: columns per block
  // One flat [block][pattern][limb] buffer: block j, nonzero column
  // pattern u (bit i = row i) at limb offset (j * kEntries + u - 1) * k
  // holds base^(Σ_i u_i · 2^(i·a + j·b)) in Montgomery form.
  std::vector<MontgomeryCtx::Limb> combs_;
};

class Group {
 public:
  /// p: field prime; q: subgroup order (q | p-1); g: generator of the
  /// order-q subgroup; h: second independent generator (for Pedersen),
  /// derived as SHA-based hash-to-group so log_g(h) is unknown.
  Group(BigInt p, BigInt q, BigInt g, BigInt h);

  /// 1024-bit p / 256-bit q production-style parameters.
  static const Group& default_group();

  /// 512-bit p / 160-bit q parameters for fast unit tests.
  static const Group& test_group();

  /// Generate fresh parameters (slow; used by the parameter tool and by
  /// property tests that should not depend on the pinned groups).
  static Group generate(common::Rng& rng, std::size_t p_bits,
                        std::size_t q_bits);

  const BigInt& p() const { return p_; }
  const BigInt& q() const { return q_; }
  const BigInt& g() const { return g_; }
  const BigInt& h() const { return h_; }

  /// g^e mod p (fixed-base table).
  BigInt pow_g(const BigInt& e) const {
    return g_table_ ? g_table_->pow(e) : g_.mod_pow(e, p_);
  }
  /// h^e mod p (fixed-base table).
  BigInt pow_h(const BigInt& e) const {
    return h_table_ ? h_table_->pow(e) : h_.mod_pow(e, p_);
  }
  /// a*b mod p.
  BigInt mul(const BigInt& a, const BigInt& b) const { return (a * b) % p_; }
  /// a^e mod p (Montgomery context cached in the group).
  BigInt pow(const BigInt& a, const BigInt& e) const {
    return mont_p_ ? mont_p_->pow(a, e) : a.mod_pow(e, p_);
  }
  /// Multiplicative inverse mod p.
  BigInt inv(const BigInt& a) const { return a.mod_inverse(p_); }

  /// The group's Montgomery context for Z_p* arithmetic.
  const std::shared_ptr<const MontgomeryCtx>& mont() const { return mont_p_; }

  /// Uniform scalar in [1, q).
  BigInt random_scalar(common::Rng& rng) const;

  /// True iff x is a member of the order-q subgroup (x^q == 1, x != 0).
  bool is_element(const BigInt& x) const;

  /// Map arbitrary bytes to a scalar mod q (for Fiat-Shamir challenges).
  BigInt hash_to_scalar(common::BytesView data) const;

  /// Map arbitrary bytes to a group element (hash-to-group via exponent).
  BigInt hash_to_element(common::BytesView data) const;

 private:
  BigInt p_, q_, g_, h_;
  // Shared so Group keeps value semantics: copies reuse the same
  // precomputation (all members above are immutable after construction).
  std::shared_ptr<const MontgomeryCtx> mont_p_;
  std::shared_ptr<const FixedBaseTable> g_table_, h_table_;
};

}  // namespace veil::crypto

// Montgomery-form modular arithmetic (REDC) for odd moduli.
//
// Every public-key mechanism in the framework — Schnorr, Pedersen, sigma
// ZKPs, Paillier, threshold ElGamal, Idemix credentials — bottoms out in
// modular exponentiation. The naive path reduces with a full Knuth
// division after every multiply; Montgomery form replaces that division
// with two multiplications and a shift (REDC), and the windowed
// exponentiation cuts the multiply count by ~4x on top. Contexts are
// cheap to build but not free (one R^2 mod n division), so callers with a
// long-lived modulus hold one context and reuse it; `shared()` provides a
// process-wide cache keyed by modulus for call sites that only see the
// modulus value (e.g. BigInt::mod_pow itself).
//
// The kernel works on residues of k 64-bit limbs (R = 2^(64k)), least
// significant first, with 128-bit partial products. Exponentiation chains
// (pow here, FixedBaseTable, multi_exp) keep their values as raw limb
// residues in one workspace allocated per chain, so the products inside a
// chain allocate nothing; the BigInt-facing calls convert at the edges.
//
// Only odd moduli are representable (REDC requires gcd(n, 2^64) == 1);
// `create`/`shared` return nullptr for even, zero, or unit moduli and
// callers fall back to the classic square-and-multiply path.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "crypto/bigint.hpp"

namespace veil::crypto {

class MontgomeryCtx {
 public:
  using Limb = std::uint64_t;

  /// Context for an odd modulus n > 1, or nullptr when n is unusable
  /// (zero, one, or even) and the caller must fall back.
  static std::shared_ptr<const MontgomeryCtx> create(const BigInt& n);

  /// Process-wide cache keyed by modulus value, so repeated mod_pow calls
  /// against the same group/key modulus reuse one context instead of
  /// recomputing R^2 mod n per call.
  static std::shared_ptr<const MontgomeryCtx> shared(const BigInt& n);

  const BigInt& modulus() const { return n_; }

  /// a*R mod n — bring a (any magnitude) into the Montgomery domain.
  BigInt to_mont(const BigInt& a) const;
  /// a*R^-1 mod n — leave the Montgomery domain.
  BigInt from_mont(const BigInt& a) const;
  /// Montgomery product: mul(aR, bR) = abR mod n. Inputs must be < n.
  BigInt mul(const BigInt& a, const BigInt& b) const;
  BigInt sqr(const BigInt& a) const { return mul(a, a); }
  /// Montgomery form of 1 (R mod n).
  const BigInt& one() const { return r_mod_n_; }

  /// (base ^ exponent) mod n, normal domain in and out. 4-bit sliding
  /// window over an odd-powers table.
  BigInt pow(const BigInt& base, const BigInt& exponent) const;

  // Limb-level interface for exponentiation chains. A residue is k =
  // limbs() limbs, value < n; `scratch` holds scratch_limbs() limbs.

  std::size_t limbs() const { return k_; }
  std::size_t scratch_limbs() const { return k_ + 2; }
  /// out = a*b*R^-1 mod n. `out` may alias `a`, `b` or both; `scratch`
  /// must not overlap any of them.
  void mul(Limb* out, const Limb* a, const Limb* b, Limb* scratch) const;
  /// out = a*R mod n (a of any magnitude).
  void to_mont(Limb* out, const BigInt& a, Limb* scratch) const;
  /// a*R^-1 mod n as a BigInt.
  BigInt from_mont(const Limb* a, Limb* scratch) const;
  /// R mod n as a k-limb residue.
  const Limb* one_limbs() const { return one_.data(); }

 private:
  explicit MontgomeryCtx(const BigInt& n);

  /// Packs x (< 2^(64k)) into k limbs.
  void load(Limb* out, const BigInt& x) const;
  BigInt store(const Limb* x) const;

  BigInt n_;
  std::size_t k_ = 0;    // 64-bit limb count of n_
  Limb n0inv_ = 0;       // -n^-1 mod 2^64
  BigInt r_mod_n_;       // R mod n, R = 2^(64k)
  std::vector<Limb> n_limbs_, one_, r2_, unit_;  // n, R, R^2 mod n, 1
};

}  // namespace veil::crypto

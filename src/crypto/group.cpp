#include "crypto/group.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"
#include "crypto/group_params.hpp"

namespace veil::crypto {

FixedBaseTable::FixedBaseTable(std::shared_ptr<const MontgomeryCtx> ctx,
                               BigInt base, std::size_t max_exp_bits)
    : ctx_(std::move(ctx)),
      base_(std::move(base)),
      bits_(max_exp_bits),
      row_bits_(std::max<std::size_t>(1, (max_exp_bits + kRows - 1) / kRows)),
      col_bits_((row_bits_ + kBlocks - 1) / kBlocks) {
  const std::size_t k = ctx_->limbs();
  combs_.resize(kBlocks * kEntries * k);
  std::vector<MontgomeryCtx::Limb> ws(k + ctx_->scratch_limbs());
  MontgomeryCtx::Limb* x = ws.data();
  MontgomeryCtx::Limb* scratch = x + k;
  // One squaring chain walks x = base^(2^(i·a + j·b)) through every row
  // and block start; each lands as the single-row pattern u = 2^i.
  ctx_->to_mont(x, base_, scratch);
  for (std::size_t i = 0; i < kRows; ++i) {
    for (std::size_t j = 0; j < kBlocks; ++j) {
      MontgomeryCtx::Limb* entry =
          combs_.data() + (j * kEntries + (std::size_t{1} << i) - 1) * k;
      std::copy(x, x + k, entry);
      if (i + 1 == kRows && j + 1 == kBlocks) break;
      const std::size_t next =
          j + 1 < kBlocks ? col_bits_ : row_bits_ - j * col_bits_;
      for (std::size_t s = 0; s < next; ++s) ctx_->mul(x, x, x, scratch);
    }
  }
  // Every other pattern is its lower rows' entry times its top row's.
  for (std::size_t j = 0; j < kBlocks; ++j) {
    MontgomeryCtx::Limb* block = combs_.data() + j * kEntries * k;
    for (std::size_t u = 3; u <= kEntries; ++u) {
      const std::size_t top = std::size_t{1} << (std::bit_width(u) - 1);
      if (u == top) continue;
      ctx_->mul(block + (u - 1) * k, block + (u - top - 1) * k,
                block + (top - 1) * k, scratch);
    }
  }
}

BigInt FixedBaseTable::pow(const BigInt& e) const {
  if (e.bit_length() > bits_) {
    return ctx_->pow(base_, e);
  }
  const std::vector<std::uint32_t>& limbs = e.limbs();
  const auto bit = [&](std::size_t pos) -> std::size_t {
    const std::size_t limb = pos / 32;
    return limb < limbs.size() ? (limbs[limb] >> (pos % 32)) & 1 : 0;
  };
  const std::size_t k = ctx_->limbs();
  std::vector<MontgomeryCtx::Limb> ws(k + ctx_->scratch_limbs());
  MontgomeryCtx::Limb* acc = ws.data();
  MontgomeryCtx::Limb* scratch = acc + k;
  std::copy(ctx_->one_limbs(), ctx_->one_limbs() + k, acc);
  // Column c of every block, most significant first: square once, then
  // multiply in each block's entry for the column's bit pattern. Nothing
  // is squared until the first entry lands.
  bool started = false;
  for (std::size_t c = col_bits_; c-- > 0;) {
    if (started) ctx_->mul(acc, acc, acc, scratch);
    for (std::size_t j = 0; j < kBlocks; ++j) {
      const std::size_t col = j * col_bits_ + c;
      if (col >= row_bits_) continue;
      std::size_t u = 0;
      for (std::size_t i = 0; i < kRows; ++i) {
        u |= bit(i * row_bits_ + col) << i;
      }
      if (u == 0) continue;
      const MontgomeryCtx::Limb* entry =
          combs_.data() + (j * kEntries + u - 1) * k;
      if (started) {
        ctx_->mul(acc, acc, entry, scratch);
      } else {
        std::copy(entry, entry + k, acc);
        started = true;
      }
    }
  }
  return ctx_->from_mont(acc, scratch);
}

Group::Group(BigInt p, BigInt q, BigInt g, BigInt h)
    : p_(std::move(p)), q_(std::move(q)), g_(std::move(g)), h_(std::move(h)) {
  // The Montgomery context must exist before the is_element checks below,
  // which route through pow().
  mont_p_ = MontgomeryCtx::shared(p_);
  if (((p_ - BigInt(1)) % q_) != BigInt()) {
    throw common::CryptoError("Group: q does not divide p-1");
  }
  if (!is_element(g_) || !is_element(h_)) {
    throw common::CryptoError("Group: generator not in subgroup");
  }
  if (mont_p_) {
    // Scalars are mod q; +1 covers hash_to_element's e+1 lift. Anything
    // longer falls back to the generic windowed pow inside the table.
    const std::size_t exp_bits = q_.bit_length() + 1;
    g_table_ = std::make_shared<const FixedBaseTable>(mont_p_, g_, exp_bits);
    h_table_ = std::make_shared<const FixedBaseTable>(mont_p_, h_, exp_bits);
  }
}

const Group& Group::default_group() {
  static const Group group(BigInt::from_hex(params::kDefaultP),
                           BigInt::from_hex(params::kDefaultQ),
                           BigInt::from_hex(params::kDefaultG),
                           BigInt::from_hex(params::kDefaultH));
  return group;
}

const Group& Group::test_group() {
  static const Group group(BigInt::from_hex(params::kTestP),
                           BigInt::from_hex(params::kTestQ),
                           BigInt::from_hex(params::kTestG),
                           BigInt::from_hex(params::kTestH));
  return group;
}

Group Group::generate(common::Rng& rng, std::size_t p_bits,
                      std::size_t q_bits) {
  const BigInt q = BigInt::generate_prime(rng, q_bits);
  // Find p = q*k + 1 prime.
  BigInt p, k;
  for (;;) {
    k = BigInt::random_bits(rng, p_bits - q_bits);
    if (k.is_odd()) k += BigInt(1);  // keep p odd: q odd, k even
    p = q * k + BigInt(1);
    if (p.bit_length() != p_bits) continue;
    if (p.is_probable_prime(rng)) break;
  }
  // Generators: random base lifted into the order-q subgroup.
  const BigInt exp = (p - BigInt(1)) / q;
  BigInt g;
  do {
    g = BigInt::random_below(rng, p).mod_pow(exp, p);
  } while (g == BigInt(1) || g.is_zero());
  BigInt h;
  do {
    h = BigInt::random_below(rng, p).mod_pow(exp, p);
  } while (h == BigInt(1) || h.is_zero() || h == g);
  return Group(p, q, g, h);
}

BigInt Group::random_scalar(common::Rng& rng) const {
  BigInt s;
  do {
    s = BigInt::random_below(rng, q_);
  } while (s.is_zero());
  return s;
}

bool Group::is_element(const BigInt& x) const {
  if (x.is_zero() || x >= p_) return false;
  return pow(x, q_) == BigInt(1);
}

BigInt Group::hash_to_scalar(common::BytesView data) const {
  // Two counter-separated digests give 512 bits, enough that reduction
  // mod a 256-bit q is statistically uniform.
  const Digest d0 = Sha256().update("veil.h2s.0").update(data).finalize();
  const Digest d1 = Sha256().update("veil.h2s.1").update(data).finalize();
  common::Bytes wide = digest_bytes(d0);
  const common::Bytes more = digest_bytes(d1);
  wide.insert(wide.end(), more.begin(), more.end());
  return BigInt::from_bytes_be(wide) % q_;
}

BigInt Group::hash_to_element(common::BytesView data) const {
  const BigInt e = hash_to_scalar(data);
  return pow_g(e + BigInt(1));  // never the identity
}

}  // namespace veil::crypto

#include "crypto/montgomery.hpp"

#include <algorithm>
#include <map>
#include <mutex>

namespace veil::crypto {

namespace {

using Limb = MontgomeryCtx::Limb;
using Wide = unsigned __int128;

// -x^-1 mod 2^64 for odd x, by Newton iteration: each step doubles the
// number of correct low bits, and x itself is already correct mod 8, so
// five steps take 3 bits to 96 >= 64.
Limb neg_inverse_u64(Limb x) {
  Limb inv = x;
  for (int i = 0; i < 5; ++i) inv *= 2u - x * inv;
  return ~inv + 1u;
}

}  // namespace

MontgomeryCtx::MontgomeryCtx(const BigInt& n) : n_(n) {
  k_ = (n_.limbs().size() + 1) / 2;
  n_limbs_.resize(k_);
  load(n_limbs_.data(), n_);
  n0inv_ = neg_inverse_u64(n_limbs_[0]);
  const BigInt r = BigInt(1) << (64 * k_);
  r_mod_n_ = r % n_;
  one_.resize(k_);
  load(one_.data(), r_mod_n_);
  r2_.resize(k_);
  load(r2_.data(), (r_mod_n_ * r_mod_n_) % n_);
  unit_.assign(k_, 0);
  unit_[0] = 1;
}

std::shared_ptr<const MontgomeryCtx> MontgomeryCtx::create(const BigInt& n) {
  if (n.is_zero() || !n.is_odd() || n == BigInt(1)) return nullptr;
  return std::shared_ptr<const MontgomeryCtx>(new MontgomeryCtx(n));
}

std::shared_ptr<const MontgomeryCtx> MontgomeryCtx::shared(const BigInt& n) {
  if (n.is_zero() || !n.is_odd() || n == BigInt(1)) return nullptr;
  static std::mutex mu;
  static std::map<BigInt, std::shared_ptr<const MontgomeryCtx>> cache;
  std::lock_guard<std::mutex> lock(mu);
  const auto it = cache.find(n);
  if (it != cache.end()) return it->second;
  auto ctx = create(n);
  // Transient moduli (e.g. prime-generation candidates) must not pin
  // memory forever; the working set of live groups/keys is tiny, so a
  // wholesale reset on overflow is enough.
  if (cache.size() >= 64) cache.clear();
  cache.emplace(n, ctx);
  return ctx;
}

void MontgomeryCtx::load(Limb* out, const BigInt& x) const {
  std::fill(out, out + k_, 0);
  const std::vector<std::uint32_t>& l = x.limbs();
  const std::size_t count = std::min(l.size(), 2 * k_);
  for (std::size_t i = 0; i < count; ++i) {
    out[i / 2] |= static_cast<Limb>(l[i]) << (32 * (i % 2));
  }
}

BigInt MontgomeryCtx::store(const Limb* x) const {
  std::vector<std::uint32_t> l(2 * k_);
  for (std::size_t i = 0; i < k_; ++i) {
    l[2 * i] = static_cast<std::uint32_t>(x[i]);
    l[2 * i + 1] = static_cast<std::uint32_t>(x[i] >> 32);
  }
  return BigInt::from_limbs(std::move(l));
}

// CIOS (coarsely integrated operand scanning) Montgomery multiplication:
// interleaves the a_i*b partial products with the REDC reduction so the
// working value t never grows past k+2 limbs, and stays below 2n. Result
// is a*b*R^-1 mod n. `out` is written only after a and b are consumed,
// so it may alias either.
void MontgomeryCtx::mul(Limb* out, const Limb* a, const Limb* b,
                        Limb* t) const {
  const std::size_t k = k_;
  const Limb* n = n_limbs_.data();
  std::fill(t, t + k + 2, 0);
  for (std::size_t i = 0; i < k; ++i) {
    // t += a_i * b
    const Limb ai = a[i];
    Limb carry = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const Wide cur = static_cast<Wide>(ai) * b[j] + t[j] + carry;
      t[j] = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> 64);
    }
    Wide cur = static_cast<Wide>(t[k]) + carry;
    t[k] = static_cast<Limb>(cur);
    t[k + 1] = static_cast<Limb>(cur >> 64);

    // t = (t + m*n) / 2^64 with m chosen so the low limb cancels.
    const Limb m = t[0] * n0inv_;
    cur = static_cast<Wide>(m) * n[0] + t[0];
    carry = static_cast<Limb>(cur >> 64);
    for (std::size_t j = 1; j < k; ++j) {
      cur = static_cast<Wide>(m) * n[j] + t[j] + carry;
      t[j - 1] = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> 64);
    }
    cur = static_cast<Wide>(t[k]) + carry;
    t[k - 1] = static_cast<Limb>(cur);
    t[k] = t[k + 1] + static_cast<Limb>(cur >> 64);
  }

  // t < 2n, so one conditional subtraction brings it below n.
  bool ge = t[k] != 0;
  if (!ge) {
    ge = true;  // equal counts as >=
    for (std::size_t j = k; j-- > 0;) {
      if (t[j] != n[j]) {
        ge = t[j] > n[j];
        break;
      }
    }
  }
  if (!ge) {
    std::copy(t, t + k, out);
    return;
  }
  Limb borrow = 0;
  for (std::size_t j = 0; j < k; ++j) {
    const Wide d = static_cast<Wide>(t[j]) - n[j] - borrow;
    out[j] = static_cast<Limb>(d);
    borrow = static_cast<Limb>(d >> 127);
  }
}

void MontgomeryCtx::to_mont(Limb* out, const BigInt& a, Limb* scratch) const {
  if (a < n_) {
    load(out, a);
  } else {
    load(out, a % n_);
  }
  mul(out, out, r2_.data(), scratch);
}

BigInt MontgomeryCtx::from_mont(const Limb* a, Limb* scratch) const {
  std::vector<Limb> out(k_);
  mul(out.data(), a, unit_.data(), scratch);
  return store(out.data());
}

BigInt MontgomeryCtx::mul(const BigInt& a, const BigInt& b) const {
  // Workspace: a, b (the product overwrites a), scratch.
  std::vector<Limb> ws(2 * k_ + scratch_limbs());
  Limb* al = ws.data();
  Limb* bl = al + k_;
  load(al, a);
  load(bl, b);
  mul(al, al, bl, bl + k_);
  return store(al);
}

BigInt MontgomeryCtx::to_mont(const BigInt& a) const {
  std::vector<Limb> ws(k_ + scratch_limbs());
  to_mont(ws.data(), a, ws.data() + k_);
  return store(ws.data());
}

BigInt MontgomeryCtx::from_mont(const BigInt& a) const {
  std::vector<Limb> ws(k_ + scratch_limbs());
  load(ws.data(), a);
  return from_mont(ws.data(), ws.data() + k_);
}

BigInt MontgomeryCtx::pow(const BigInt& base, const BigInt& exponent) const {
  const BigInt b = base < n_ ? base : base % n_;
  if (exponent.is_zero()) return BigInt(1);
  if (b.is_zero()) return BigInt();

  // One workspace for the whole chain: odd powers b^1, b^3, ..., b^15 in
  // Montgomery form, b^2, the accumulator and the product scratch.
  const std::size_t k = k_;
  std::vector<Limb> ws(10 * k + scratch_limbs());
  Limb* odd = ws.data();
  Limb* b2 = odd + 8 * k;
  Limb* acc = b2 + k;
  Limb* scratch = acc + k;
  to_mont(odd, b, scratch);
  mul(b2, odd, odd, scratch);
  for (std::size_t i = 1; i < 8; ++i) {
    mul(odd + i * k, odd + (i - 1) * k, b2, scratch);
  }

  // Sliding 4-bit window, most-significant bit first. Zero bits cost one
  // squaring; each window of up to 4 bits costs one table multiply.
  std::copy(one_.begin(), one_.end(), acc);
  std::ptrdiff_t i = static_cast<std::ptrdiff_t>(exponent.bit_length()) - 1;
  while (i >= 0) {
    if (!exponent.bit(static_cast<std::size_t>(i))) {
      mul(acc, acc, acc, scratch);
      --i;
      continue;
    }
    std::ptrdiff_t low = i - 3 > 0 ? i - 3 : 0;
    while (!exponent.bit(static_cast<std::size_t>(low))) ++low;
    std::uint32_t window = 0;
    for (std::ptrdiff_t j = i; j >= low; --j) {
      mul(acc, acc, acc, scratch);
      window = (window << 1) | exponent.bit(static_cast<std::size_t>(j));
    }
    mul(acc, acc, odd + (window >> 1) * k, scratch);
    i = low - 1;
  }
  return from_mont(acc, scratch);
}

}  // namespace veil::crypto

#include "crypto/batch_verify.hpp"

#include <algorithm>

#include "crypto/multiexp.hpp"

namespace veil::crypto {

BatchVerifier::BatchVerifier(const Group& group, std::uint64_t seed)
    : group_(&group), rng_(seed) {}

bool BatchVerifier::is_member_cached(const BigInt& x) {
  const auto it = member_cache_.find(x);
  if (it != member_cache_.end()) {
    ++stats_.key_cache_hits;
    return it->second.member;
  }
  ++stats_.key_cache_misses;
  KeyMemo memo{group_->is_element(x), nullptr};
  if (memo.member && stats_.key_tables < kMaxKeyTables) {
    memo.table = std::make_shared<const FixedBaseTable>(
        group_->mont(), x, group_->q().bit_length() + 1);
    ++stats_.key_tables;
  }
  return member_cache_.emplace(x, std::move(memo)).first->second.member;
}

const FixedBaseTable* BatchVerifier::key_table(const BigInt& base) const {
  const auto it = member_cache_.find(base);
  return it == member_cache_.end() ? nullptr : it->second.table.get();
}

std::size_t BatchVerifier::add_signature(const PublicKey& pub,
                                         common::BytesView message,
                                         const Signature& sig) {
  Item item;
  item.is_sig = true;
  item.y = pub.y;
  item.a = sig.response;
  item.b = sig.challenge;
  item.t = sig.commitment;
  item.pub = pub;
  item.message.assign(message.begin(), message.end());
  item.sig = sig;
  // Exact pre-checks: scalar ranges, key membership, and the Fiat-Shamir
  // binding e == H(R || y || m). The binding pins the commitment to the
  // transmitted bytes, so the RLC below only has to cover the response.
  if (sig.challenge >= group_->q() || sig.response >= group_->q() ||
      sig.commitment.is_zero() || sig.commitment >= group_->p() ||
      !is_member_cached(pub.y) ||
      schnorr_challenge(*group_, sig.commitment, pub.y, message) !=
          sig.challenge) {
    item.precheck_failed = true;
  }
  items_.push_back(std::move(item));
  return items_.size() - 1;
}

std::size_t BatchVerifier::add_dlog(const BigInt& base, const BigInt& y,
                                    const DlogProof& proof,
                                    common::BytesView context) {
  Item item;
  item.is_sig = false;
  item.base = base;
  item.y = y;
  item.a = proof.response;
  item.t = proof.commitment;
  item.proof = proof;
  item.context.assign(context.begin(), context.end());
  item.b = dlog_challenge(*group_, base, y, proof.commitment, context);
  if (proof.response >= group_->q() || proof.commitment.is_zero() ||
      proof.commitment >= group_->p() || !is_member_cached(y)) {
    item.precheck_failed = true;
  }
  items_.push_back(std::move(item));
  return items_.size() - 1;
}

bool BatchVerifier::verify_single(const Item& item) const {
  if (item.is_sig) {
    // Only items that passed the pre-checks get here, so the key is a
    // memoized member; the equation and hash binding run exactly.
    const auto memo = member_cache_.find(item.y);
    if (memo == member_cache_.end() || !memo->second.member) return false;
    return verify_member_key(*group_, item.pub, item.message, item.sig,
                             memo->second.table.get());
  }
  return verify_dlog(*group_, item.base, item.y, item.proof, item.context);
}

bool BatchVerifier::rlc_check(const std::vector<std::size_t>& indices,
                              BatchOutcome& outcome) {
  ++outcome.batch_checks;
  const BigInt& q = group_->q();
  // Fresh odd 64-bit randomizers per evaluation (odd kills the order-2
  // cofactor escape; see header). Repeated bases — endorser keys recur
  // across every wave — merge into a single term with their weighted
  // exponents summed: the regrouping is exact arithmetic. The sums stay
  // unreduced while they accumulate and each is reduced mod q once
  // before use, which is sound because every merged base passed the
  // order-q membership pre-check. Commitment terms are NOT merged and
  // keep their raw 64-bit z: the parity argument above needs the
  // unreduced odd exponent on each transmitted R.
  std::map<BigInt, BigInt> lhs_merged, rhs_merged;
  std::vector<ExpTerm> rhs;
  rhs.reserve(indices.size());
  BigInt g_exp(0), h_exp(0);
  for (const std::size_t i : indices) {
    const Item& item = items_[i];
    const BigInt z(rng_.next_u64() | 1);
    const BigInt za = z * item.a;
    const BigInt zb = z * item.b;
    if (item.is_sig) {
      // g^{z·s} · y^{z·e} on the left, R^{z} on the right.
      g_exp += za;
      lhs_merged[item.y] += zb;
    } else {
      // base^{z·s} on the left, t^{z} · y^{z·c} on the right.
      if (item.base == group_->g()) {
        g_exp += za;
      } else if (item.base == group_->h()) {
        h_exp += za;
      } else {
        lhs_merged[item.base] += za;
      }
      rhs_merged[item.y] += zb;
    }
    rhs.push_back({item.t, z});
  }
  const MontgomeryCtx& ctx = *group_->mont();
  // A merged base with a key table is evaluated through it; the rest go
  // into the side's multi-exponentiation. Table factors are kept in
  // Montgomery form until the end.
  const auto split = [&](const std::map<BigInt, BigInt>& merged,
                         std::vector<ExpTerm>& terms, BigInt& tabled) {
    for (const auto& [base, sum] : merged) {
      BigInt exp = sum % q;
      if (exp.is_zero()) continue;
      if (const FixedBaseTable* table = key_table(base)) {
        tabled = ctx.mul(tabled, ctx.to_mont(table->pow(exp)));
      } else {
        terms.push_back({base, std::move(exp)});
      }
    }
  };
  std::vector<ExpTerm> lhs;
  lhs.reserve(lhs_merged.size());
  BigInt left_tabled = ctx.one(), right_tabled = ctx.one();
  split(lhs_merged, lhs, left_tabled);
  split(rhs_merged, rhs, right_tabled);
  // The generator exponents ride the group's own tables.
  g_exp %= q;
  h_exp %= q;
  if (!g_exp.is_zero()) {
    left_tabled = ctx.mul(left_tabled, ctx.to_mont(group_->pow_g(g_exp)));
  }
  if (!h_exp.is_zero()) {
    left_tabled = ctx.mul(left_tabled, ctx.to_mont(group_->pow_h(h_exp)));
  }
  // lhs holds one term per distinct untabled key — the parallel path
  // degrades to the serial one there. rhs holds one commitment term per
  // item and dominates; chunking it across the pool is exact regrouping,
  // so the verdict is bit-identical at every thread count.
  const BigInt left = ctx.mul(left_tabled, multi_exp_parallel(ctx, lhs));
  const BigInt right = ctx.mul(right_tabled, multi_exp_parallel(ctx, rhs));
  return left == right;
}

void BatchVerifier::collect_invalid(const std::vector<std::size_t>& indices,
                                    BatchOutcome& outcome) {
  if (indices.empty()) return;
  if (indices.size() == 1) {
    ++outcome.single_fallbacks;
    if (!verify_single(items_[indices[0]])) {
      outcome.invalid.push_back(indices[0]);
    }
    return;
  }
  if (rlc_check(indices, outcome)) return;
  ++outcome.bisect_steps;
  const std::size_t mid = indices.size() / 2;
  collect_invalid({indices.begin(), indices.begin() + mid}, outcome);
  collect_invalid({indices.begin() + mid, indices.end()}, outcome);
}

BatchOutcome BatchVerifier::verify() {
  BatchOutcome outcome;
  std::vector<std::size_t> live;
  live.reserve(items_.size());
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (items_[i].precheck_failed) {
      outcome.invalid.push_back(i);
    } else {
      live.push_back(i);
    }
  }
  if (live.size() == 1) {
    // A batch of one takes the exact leaf: with memoized membership and
    // the key's table it is cheaper than the RLC's two multi-exps.
    collect_invalid(live, outcome);
  } else if (!live.empty()) {
    if (!rlc_check(live, outcome)) {
      const std::size_t before = outcome.invalid.size();
      ++outcome.bisect_steps;
      const std::size_t mid = live.size() / 2;
      collect_invalid({live.begin(), live.begin() + mid}, outcome);
      collect_invalid({live.begin() + mid, live.end()}, outcome);
      if (outcome.invalid.size() == before) {
        // Pathological: the halves pass individually but the whole batch
        // did not (cross-boundary cancellation under the fresh
        // randomizers). Fall back to exact per-item verification so the
        // answer is never probabilistic on the reject path.
        for (const std::size_t i : live) {
          ++outcome.single_fallbacks;
          if (!verify_single(items_[i])) outcome.invalid.push_back(i);
        }
      }
    }
  }
  std::sort(outcome.invalid.begin(), outcome.invalid.end());
  outcome.invalid.erase(
      std::unique(outcome.invalid.begin(), outcome.invalid.end()),
      outcome.invalid.end());
  outcome.all_valid = outcome.invalid.empty();
  stats_.items += items_.size();
  ++stats_.batches;
  stats_.rejected_items += outcome.invalid.size();
  items_.clear();
  return outcome;
}

}  // namespace veil::crypto

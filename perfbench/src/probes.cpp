// Timed probes of each layer's public functions. Inputs take their shape
// from the run (batch size, message size, body size, state size), so a
// probe moves when the run's shape moves. Each probe reports the median
// over several timed batches.
#include <algorithm>

#include "bench.hpp"
#include "crypto/aes.hpp"
#include "crypto/batch_verify.hpp"
#include "crypto/group.hpp"
#include "crypto/montgomery.hpp"
#include "crypto/sha256.hpp"
#include "crypto/signature.hpp"
#include "ledger/state_trie.hpp"
#include "ledger/transaction.hpp"
#include "ledger/wal.hpp"
#include "net/network.hpp"

namespace perfbench {

using namespace veil;

namespace {

constexpr int kBatches = 9;

/// Median over kBatches of the mean wall time per call, in µs.
template <typename Fn>
double time_us(std::size_t calls_per_batch, Fn&& fn) {
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    const std::int64_t start = now_ns();
    for (std::size_t i = 0; i < calls_per_batch; ++i) fn(i);
    per_call.push_back(static_cast<double>(now_ns() - start) / 1e3 /
                       static_cast<double>(calls_per_batch));
  }
  return median(per_call);
}

/// Keeps a computed value observable so the call is not optimized away.
volatile std::uint8_t g_sink = 0;
void sink(const common::Bytes& b) {
  if (!b.empty()) g_sink = g_sink ^ b[0];
}

}  // namespace

std::map<std::string, double> run_probes(const Shape& shape,
                                         std::uint64_t seed) {
  std::map<std::string, double> out;
  const crypto::Group& group = crypto::Group::default_group();
  common::Rng rng(seed ^ 0x9b0be5);
  const std::size_t body_bytes = std::max<std::size_t>(shape.tx_body_bytes, 32);
  const std::size_t msg_bytes =
      std::max<std::size_t>(static_cast<std::size_t>(shape.msg_mean_bytes), 32);

  {
    const auto ctx = crypto::MontgomeryCtx::shared(group.p());
    crypto::BigInt a = ctx->to_mont(crypto::BigInt::random_below(rng, group.p()));
    const crypto::BigInt b =
        ctx->to_mont(crypto::BigInt::random_below(rng, group.p()));
    out["crypto.modmul_ns"] =
        1e3 * time_us(2'000, [&](std::size_t) { a = ctx->mul(a, b); });
    sink(a.to_bytes_be());
  }

  const crypto::KeyPair key = crypto::KeyPair::generate(group, rng);
  const common::Bytes message = rng.next_bytes(body_bytes);
  const crypto::Signature sig = key.sign(message);
  out["crypto.sign_us"] =
      time_us(20, [&](std::size_t) { sink(key.sign(message).encode()); });
  out["crypto.verify_us"] = time_us(4, [&](std::size_t) {
    if (!crypto::verify(group, key.public_key(), message, sig)) g_sink = 1;
  });
  {
    const crypto::BigInt e = crypto::BigInt::random_below(rng, group.q());
    out["crypto.pow_g_us"] =
        time_us(20, [&](std::size_t) { sink(group.pow_g(e).to_bytes_be()); });
  }
  {
    const std::size_t n = std::max<std::size_t>(
        1, static_cast<std::size_t>(shape.batch_mean + 0.5));
    std::vector<common::Bytes> messages;
    std::vector<crypto::Signature> sigs;
    for (std::size_t i = 0; i < n; ++i) {
      messages.push_back(rng.next_bytes(body_bytes));
      sigs.push_back(key.sign(messages.back()));
    }
    crypto::BatchVerifier verifier(group, seed);
    out["crypto.batch_verify_us_per_item"] =
        time_us(1, [&](std::size_t) {
          for (std::size_t i = 0; i < n; ++i) {
            verifier.add_signature(key.public_key(), messages[i], sigs[i]);
          }
          if (!verifier.verify().all_valid) g_sink = 2;
        }) /
        static_cast<double>(n);
  }
  {
    const common::Bytes aes_key = rng.next_bytes(32);
    const common::Bytes nonce = rng.next_bytes(16);
    const common::Bytes plaintext =
        rng.next_bytes(std::max<std::size_t>(shape.payload_bytes, 16));
    out["crypto.aes_seal_us"] = time_us(200, [&](std::size_t) {
      sink(crypto::seal(aes_key, plaintext, nonce));
    });
  }
  {
    const common::Bytes data = rng.next_bytes(msg_bytes);
    out["crypto.sha256_us"] = time_us(500, [&](std::size_t) {
      g_sink = g_sink ^ crypto::sha256(data)[0];
    });
  }
  {
    ledger::Transaction tx;
    tx.channel = "bench";
    tx.timestamp = 1;
    tx.writes.push_back({"acct/12345", rng.next_bytes(8), false});
    const std::size_t bare = tx.body_encoding().size();
    if (body_bytes > bare) tx.payload = rng.next_bytes(body_bytes - bare);
    out["ledger.tx_encode_us"] =
        time_us(500, [&](std::size_t) { sink(tx.body_encoding()); });
  }
  {
    const std::size_t keys = std::max<std::size_t>(shape.state_keys, 16);
    std::vector<std::string> names;
    for (std::size_t i = 0; i < keys; ++i) names.push_back("acct/" + std::to_string(i));
    const common::Bytes value = rng.next_bytes(8);
    ledger::StateTrie trie;
    for (const std::string& k : names) trie.set(k, value, 1);
    std::uint64_t version = 2;
    out["ledger.trie_set_us"] = time_us(200, [&](std::size_t i) {
      trie.set(names[(i * 7919) % keys], value, version++);
    });
    // Root of the run's whole key set, built from scratch.
    out["ledger.trie_root_us"] = time_us(1, [&](std::size_t) {
      ledger::StateTrie fresh;
      for (const std::string& k : names) fresh.set(k, value, 1);
      g_sink = g_sink ^ fresh.root_hash()[0];
    });
  }
  {
    const common::Bytes record = rng.next_bytes(std::max<std::size_t>(
        static_cast<std::size_t>(shape.wal_record_bytes), 16));
    ledger::WriteAheadLog wal;
    out["ledger.wal_append_us"] = time_us(200, [&](std::size_t i) {
      if (i == 0) wal.clear();
      wal.append(1, record);
    });
  }
  {
    net::SimNetwork net{common::Rng(seed)};
    net.attach("a", [](const net::Message&) {});
    net.attach("b", [](const net::Message&) {});
    const common::Bytes payload = rng.next_bytes(msg_bytes);
    out["net.send_run_us"] = time_us(200, [&](std::size_t) {
      net.send("a", "b", "probe", payload);
      net.run();
    });
  }
  return out;
}

}  // namespace perfbench

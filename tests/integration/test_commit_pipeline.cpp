// Commit-path batching integration: a serial submit is a wave of one, so
// it must leave a transcript BIT-IDENTICAL to the same call made through
// the wave API; the pipelined paths must reach the serial state; batched
// RLC verdicts must match per-item verification computed here; and every
// Byzantine attack the Detect tier convicts must still be convicted
// (the bisection fallback makes convictions exact).
#include <gtest/gtest.h>

#include <map>

#include "common/thread_pool.hpp"
#include "platforms/corda/corda.hpp"
#include "platforms/fabric/fabric.hpp"
#include "platforms/quorum/quorum.hpp"

namespace veil {
namespace {

using common::Rng;
using common::to_bytes;

std::shared_ptr<contracts::FunctionContract> kv_chaincode() {
  return std::make_shared<contracts::FunctionContract>(
      "kv", 1,
      [](contracts::ContractContext& ctx, const std::string& action) {
        if (action.rfind("put:", 0) == 0) {
          ctx.put(action.substr(4),
                  common::Bytes(ctx.args().begin(), ctx.args().end()));
          return contracts::InvokeStatus::Ok;
        }
        if (action.rfind("get:", 0) == 0) {  // read-only: no write-set
          ctx.get(action.substr(4));
          return contracts::InvokeStatus::Ok;
        }
        return contracts::InvokeStatus::UnknownAction;
      });
}

// Fresh Fabric network with fixed seeds, so two rigs configured the same
// way replay the same transcript.
struct FabricRig {
  net::SimNetwork net;
  Rng rng;
  fabric::FabricNetwork fab;

  explicit FabricRig(fabric::FabricConfig config = {})
      : net(Rng(7)), rng(8), fab(net, crypto::Group::test_group(), rng,
                                 config) {
    for (const char* org : {"OrgA", "OrgB"}) fab.add_org(org);
    fab.create_channel("ch", {"OrgA", "OrgB"});
    fab.install_chaincode("ch", "OrgA", kv_chaincode(),
                          contracts::EndorsementPolicy::require("OrgA"));
    fab.set_validation_mode(fabric::FabricNetwork::ValidationMode::Validate);
  }
};

std::vector<fabric::FabricNetwork::SubmitRequest> fabric_wave(std::size_t n) {
  std::vector<fabric::FabricNetwork::SubmitRequest> wave;
  for (std::size_t i = 0; i < n; ++i) {
    wave.push_back({"ch", "OrgB", "kv", "put:k" + std::to_string(i),
                    to_bytes("v" + std::to_string(i)), {}, nullptr});
  }
  return wave;
}

TEST(CommitPipeline, FabricPipelinedMatchesSerialState) {
  FabricRig serial;
  FabricRig piped;
  const auto wave = fabric_wave(12);

  std::size_t serial_committed = 0;
  for (const auto& r : wave) {
    if (serial.fab.submit(r.channel, r.client_org, r.chaincode, r.action,
                          r.args).committed) {
      ++serial_committed;
    }
  }
  const auto receipts = piped.fab.submit_many(wave, /*pipeline_depth=*/8);
  std::size_t piped_committed = 0;
  for (const auto& r : receipts) piped_committed += r.committed ? 1 : 0;

  EXPECT_EQ(serial_committed, wave.size());
  EXPECT_EQ(piped_committed, wave.size());
  // Same transactions in the same order: the replicas end bit-identical
  // (block boundaries differ — each submit() is a wave of its own).
  EXPECT_EQ(serial.fab.state("ch", "OrgA").digest(),
            piped.fab.state("ch", "OrgA").digest());
  EXPECT_EQ(piped.fab.state("ch", "OrgA").digest(),
            piped.fab.state("ch", "OrgB").digest());
  // The pipeline actually exercised the new machinery.
  EXPECT_GT(piped.fab.mempool().stats().token_hits, 0u);
  EXPECT_GT(piped.fab.batch_verify_stats().items, 0u);
}

TEST(CommitPipeline, FabricPipelineDeterministicAcrossThreadCounts) {
  const auto run = [](std::size_t threads) {
    common::ThreadPool::set_global_threads(threads);
    FabricRig rig;
    const auto receipts = rig.fab.submit_many(fabric_wave(16), 8);
    common::ThreadPool::set_global_threads(1);
    std::vector<std::string> ids;
    for (const auto& r : receipts) {
      EXPECT_TRUE(r.committed) << r.reason;
      ids.push_back(r.tx_id);
    }
    return std::make_pair(ids, rig.fab.state("ch", "OrgA").digest());
  };
  const auto one = run(1);
  const auto eight = run(8);
  EXPECT_EQ(one.first, eight.first);    // same tx ids, same order
  EXPECT_EQ(one.second, eight.second);  // same final state
}

TEST(CommitPipeline, FabricBatchedVerdictsMatchPerItem) {
  FabricRig rig;
  std::vector<fabric::TxReceipt> receipts = rig.fab.submit_many(
      fabric_wave(8), 8);
  // A tampering orderer rewrites every write-bearing transaction after
  // endorsement; read-only ones pass through untouched. Each block of
  // this wave therefore mixes valid and forged endorsements.
  rig.fab.set_byzantine_orderer(true);
  std::vector<fabric::FabricNetwork::SubmitRequest> mixed;
  for (std::size_t i = 0; i < 8; ++i) {
    const std::string action = (i % 2 == 0 ? "put:m" : "get:k") +
                               std::to_string(i);
    mixed.push_back({"ch", "OrgB", "kv", action, to_bytes("x"), {}, nullptr});
  }
  for (const auto& r : rig.fab.submit_many(mixed, 8)) receipts.push_back(r);

  // One client, one channel: the chain holds the submissions in order.
  // The peers' batched verdict (committed or not) must equal per-item
  // verification of the transaction they actually received.
  std::vector<ledger::Transaction> on_chain;
  for (const ledger::Block& block : rig.fab.chain("ch", "OrgA").live_blocks()) {
    for (const ledger::Transaction& tx : block.transactions) {
      on_chain.push_back(tx);
    }
  }
  ASSERT_EQ(on_chain.size(), receipts.size());
  std::size_t valid = 0;
  std::size_t forged = 0;
  for (std::size_t i = 0; i < on_chain.size(); ++i) {
    const bool per_item = on_chain[i].endorsements_valid(rig.fab.group());
    EXPECT_EQ(receipts[i].committed, per_item) << "tx " << i;
    ++(per_item ? valid : forged);
  }
  EXPECT_EQ(valid, 12u);
  EXPECT_EQ(forged, 4u);
  EXPECT_GT(rig.fab.batch_verify_stats().items, 0u);

  // WAL replay after a crash re-verifies every block in one batch each —
  // no tokens survive the crash — and must land on the same state.
  rig.net.crash("peer.OrgB");
  rig.net.restart("peer.OrgB");
  EXPECT_EQ(rig.fab.state("ch", "OrgA").digest(),
            rig.fab.state("ch", "OrgB").digest());
}

TEST(CommitPipeline, FabricOrdererTamperingConvictedWithBatchingOn) {
  FabricRig rig;
  rig.fab.set_validation_mode(fabric::FabricNetwork::ValidationMode::Detect);
  rig.fab.set_byzantine_orderer(true);
  const auto receipts = rig.fab.submit_many(fabric_wave(6), 8);
  for (const auto& r : receipts) EXPECT_FALSE(r.committed);
  // The batch rejects, bisection pins the invalid endorsements, and the
  // conviction is exactly the one the serial path produces.
  ASSERT_GE(rig.fab.evidence().count(), 1u);
  EXPECT_EQ(rig.fab.evidence().entries().front().kind,
            audit::Misbehavior::OrdererTampering);
  EXPECT_TRUE(rig.net.is_quarantined(rig.fab.orderer_operator("ch")));
  EXPECT_EQ(rig.fab.state("ch", "OrgA").digest(),
            rig.fab.state("ch", "OrgB").digest());
}

TEST(CommitPipeline, FabricEndorserEquivocationConvictedWithBatchingOn) {
  FabricRig rig;
  rig.fab.set_validation_mode(fabric::FabricNetwork::ValidationMode::Detect);
  rig.fab.set_byzantine_endorser("OrgA");
  // The same proposal twice in one wave: each endorsement is validly
  // signed (the batch passes), but the Detect cross-check still sees the
  // conflicting write-sets.
  const fabric::FabricNetwork::SubmitRequest proposal{
      "ch", "OrgB", "kv", "put:deal", to_bytes("100"), {}, nullptr};
  std::vector<fabric::FabricNetwork::SubmitRequest> wave{proposal, proposal};
  rig.fab.submit_many(wave, 8);
  ASSERT_GE(rig.fab.evidence().count(), 1u);
  EXPECT_EQ(rig.fab.evidence().entries().front().kind,
            audit::Misbehavior::EndorserEquivocation);
  EXPECT_TRUE(rig.net.is_quarantined("peer.OrgA"));
}

// ---- Quorum ----------------------------------------------------------------

struct QuorumRig {
  net::SimNetwork net;
  Rng rng;
  quorum::QuorumNetwork quorum;

  explicit QuorumRig(std::uint64_t block_size = 4)
      : net(Rng(27)), rng(28), quorum(net, crypto::Group::test_group(), rng,
                                      block_size) {
    for (const char* n : {"NodeA", "NodeB", "NodeC"}) quorum.add_node(n);
    quorum.set_verify_commits(true);
  }
};

std::vector<quorum::QuorumNetwork::PrivateSubmission> quorum_wave(
    std::size_t n) {
  std::vector<quorum::QuorumNetwork::PrivateSubmission> wave;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string key = "asset/a" + std::to_string(i) + "/owner";
    wave.push_back({{"NodeB"},
                    {ledger::KvWrite{key, to_bytes("NodeB")}},
                    to_bytes("transfer " + std::to_string(i))});
  }
  return wave;
}

TEST(CommitPipeline, QuorumBatchedCommitVerificationMatchesPerItem) {
  QuorumRig rig(/*block_size=*/16);
  const auto wave = quorum_wave(8);
  const auto results = rig.quorum.submit_private_many("NodeA", wave, 8);
  // The block is not sealed yet, so every admission token — the batched
  // verdict for its transaction — is still resident.
  std::map<std::string, bool> verdicts;
  for (const auto& r : results) {
    ASSERT_TRUE(r.accepted) << r.reason;
    const ledger::ValidationToken* token = rig.quorum.mempool().token(r.tx_id);
    ASSERT_NE(token, nullptr);
    verdicts[r.tx_id] = token->verified;
  }
  EXPECT_EQ(rig.quorum.batch_verify_stats().batches, 1u);
  rig.quorum.seal_block();

  std::size_t checked = 0;
  const ledger::Chain& chain = rig.quorum.public_chain("NodeA");
  for (const ledger::Block& block : chain.live_blocks()) {
    for (const ledger::Transaction& tx : block.transactions) {
      ASSERT_TRUE(verdicts.contains(tx.id()));
      EXPECT_EQ(verdicts[tx.id()],
                tx.endorsements_valid(crypto::Group::test_group()));
      ++checked;
    }
  }
  EXPECT_EQ(checked, wave.size());
  for (const auto& sub : wave) {
    const auto entry =
        rig.quorum.private_state("NodeB").get(sub.writes.front().key);
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->value, to_bytes("NodeB"));
  }

  // WAL replay re-verifies the block through one batched check (the
  // crash wiped every token) and must rebuild the same replica.
  const auto before = rig.quorum.public_state("NodeC").digest();
  rig.net.crash("NodeC");
  rig.net.restart("NodeC");
  EXPECT_EQ(rig.quorum.public_state("NodeC").digest(), before);
  EXPECT_EQ(rig.quorum.batch_verify_stats().rejected_items, 0u);
}

TEST(CommitPipeline, QuorumReplayStillDetectedWithVerifiedBatching) {
  QuorumRig rig(/*block_size=*/1);
  rig.quorum.enable_detection();
  const auto tx1 = rig.quorum.submit_private(
      "NodeA", {"NodeB"},
      {{"asset/bond-7/owner", to_bytes("NodeB"), false}});
  ASSERT_TRUE(tx1.accepted) << tx1.reason;
  const auto replay = rig.quorum.replay_private("NodeB", tx1.tx_id, {"NodeC"});
  ASSERT_TRUE(replay.accepted) << replay.reason;
  rig.quorum.sync();
  ASSERT_GE(rig.quorum.evidence().count(), 1u);
  EXPECT_EQ(rig.quorum.evidence().entries().front().kind,
            audit::Misbehavior::PrivateReplay);
  EXPECT_TRUE(rig.net.is_quarantined("NodeB"));
}

TEST(CommitPipeline, QuorumMempoolIsVolatileCommittedBlocksAreNot) {
  QuorumRig rig(/*block_size=*/4);
  // Seal one full block, then leave a second wave pending: its tokens
  // are resident in the pool.
  const auto sealed = rig.quorum.submit_private_many("NodeA", quorum_wave(4),
                                                     4);
  for (const auto& r : sealed) ASSERT_TRUE(r.accepted) << r.reason;
  rig.quorum.seal_block();
  const auto committed_digest = rig.quorum.public_state("NodeA").digest();

  std::vector<quorum::QuorumNetwork::PrivateSubmission> pending_wave{
      {{"NodeB"}, {ledger::KvWrite{"asset/p/owner", to_bytes("NodeB")}},
       to_bytes("pending")}};
  rig.quorum.submit_private_many("NodeA", pending_wave, 1);
  EXPECT_GT(rig.quorum.mempool().size(), 0u);

  // Crash-stop: the pool is volatile and never WAL-logged, so every
  // token is gone; the committed block is durable and untouched.
  rig.net.crash("NodeB");
  EXPECT_EQ(rig.quorum.mempool().size(), 0u);
  rig.net.restart("NodeB");
  EXPECT_EQ(rig.quorum.public_state("NodeB").digest(), committed_digest);
  EXPECT_EQ(rig.quorum.public_state("NodeA").digest(), committed_digest);

  // The commit path still works after the wipe — transactions just go
  // back through full verification (token misses, not failures).
  const auto after = rig.quorum.submit_private_many(
      "NodeA", quorum_wave(4), 4);
  for (const auto& r : after) {
    // First four ids collide with the already-committed transfers only if
    // payloads matched; either way the calls must not crash and sealing
    // must keep replicas identical.
    (void)r;
  }
  rig.quorum.seal_block();
  EXPECT_EQ(rig.quorum.public_state("NodeA").digest(),
            rig.quorum.public_state("NodeC").digest());
}

// ---- One commit path -------------------------------------------------------

// A serial call is a wave of one: N serial calls and N single-item wave
// calls on identically seeded rigs must leave the same results, chain,
// state, network counters, mempool and batch-verifier accounting — plain,
// and with TTL + admission + capacity configured so gates refuse.
TEST(CommitPipeline, SerialCallIsWaveOfOne) {
  for (const bool overload : {false, true}) {
    SCOPED_TRACE(overload ? "overload tier configured" : "plain");

    fabric::FabricConfig config;
    if (overload) {
      config.admission_control = true;
      config.admission.target_delay_us = 2'000;
      config.admission.interval_us = 10'000;
      // Shorter than a private-data dissemination round: submissions
      // carrying a PDC payload are past their deadline by the time they
      // are offered as endorsed (Commit-class) work.
      config.default_ttl_us = 1'000;
      config.mempool.capacity = 4;
      config.orderer_pending_limit = 2;
    }
    FabricRig fs(config);
    FabricRig fw(config);
    for (FabricRig* rig : {&fs, &fw}) {
      rig->fab.define_collection("ch", {"pc", {"OrgA", "OrgB"}, 0, 0});
    }
    auto requests = fabric_wave(12);
    for (std::size_t i = 8; i < requests.size(); ++i) {
      requests[i].private_data =
          fabric::PrivatePayload{"pc", "p" + std::to_string(i), to_bytes("s")};
    }
    std::size_t shed = 0;
    for (const auto& r : requests) {
      const fabric::TxReceipt a = fs.fab.submit(
          r.channel, r.client_org, r.chaincode, r.action, r.args,
          r.private_data);
      const fabric::TxReceipt b = fw.fab.submit_many({r}, 1)[0];
      EXPECT_EQ(a.committed, b.committed);
      EXPECT_EQ(a.tx_id, b.tx_id);
      EXPECT_EQ(a.reason, b.reason);
      shed += a.reason.find("shed") != std::string::npos ? 1 : 0;
    }
    EXPECT_EQ(shed, overload ? 4u : 0u);
    for (const char* org : {"OrgA", "OrgB"}) {
      EXPECT_EQ(fs.fab.chain("ch", org).height(),
                fw.fab.chain("ch", org).height());
      EXPECT_EQ(fs.fab.chain("ch", org).tip_hash(),
                fw.fab.chain("ch", org).tip_hash());
      EXPECT_EQ(fs.fab.state("ch", org).digest(),
                fw.fab.state("ch", org).digest());
    }
    EXPECT_TRUE(fs.net.stats() == fw.net.stats());
    EXPECT_TRUE(fs.fab.mempool().stats() == fw.fab.mempool().stats());
    EXPECT_EQ(fs.fab.mempool().evictions(), fw.fab.mempool().evictions());
    EXPECT_TRUE(fs.fab.batch_verify_stats() == fw.fab.batch_verify_stats());

    QuorumRig qs;
    QuorumRig qw;
    for (QuorumRig* rig : {&qs, &qw}) {
      if (!overload) continue;
      rig->quorum.set_default_ttl(40'000);
      rig->quorum.set_admission({});
      rig->quorum.set_pending_capacity(2);
    }
    std::size_t busy = 0;
    std::size_t expired = 0;
    const auto subs = quorum_wave(12);
    for (std::size_t i = 0; i < subs.size(); ++i) {
      if (overload && i == 9) {
        // Shorter than a transaction-manager round trip: the rest expire
        // at the gate, after their push.
        qs.quorum.set_default_ttl(1'000);
        qw.quorum.set_default_ttl(1'000);
      }
      const quorum::TxResult a = qs.quorum.submit_private(
          "NodeA", subs[i].recipients, subs[i].writes, subs[i].payload);
      const quorum::TxResult b =
          qw.quorum.submit_private_many("NodeA", {subs[i]}, 1)[0];
      EXPECT_EQ(a.accepted, b.accepted);
      EXPECT_EQ(a.tx_id, b.tx_id);
      EXPECT_EQ(a.reason, b.reason);
      busy += a.reason.find("busy") != std::string::npos ? 1 : 0;
      expired += a.reason.find("expired") != std::string::npos ? 1 : 0;
      if (i % 3 == 2) {
        qs.quorum.seal_block();
        qw.quorum.seal_block();
      }
    }
    EXPECT_EQ(busy, overload ? 3u : 0u);
    EXPECT_EQ(expired, overload ? 3u : 0u);
    for (const char* node : {"NodeA", "NodeB", "NodeC"}) {
      EXPECT_EQ(qs.quorum.public_chain(node).tip_hash(),
                qw.quorum.public_chain(node).tip_hash());
      EXPECT_EQ(qs.quorum.public_state(node).digest(),
                qw.quorum.public_state(node).digest());
      EXPECT_EQ(qs.quorum.private_state(node).digest(),
                qw.quorum.private_state(node).digest());
    }
    EXPECT_TRUE(qs.net.stats() == qw.net.stats());
    EXPECT_TRUE(qs.quorum.mempool().stats() == qw.quorum.mempool().stats());
    EXPECT_EQ(qs.quorum.mempool().evictions(), qw.quorum.mempool().evictions());
    EXPECT_TRUE(qs.quorum.batch_verify_stats() ==
                qw.quorum.batch_verify_stats());
  }
}

// ---- Corda -----------------------------------------------------------------

struct CordaRig {
  net::SimNetwork net;
  Rng rng;
  corda::CordaNetwork corda;

  CordaRig() : net(Rng(17)), rng(18), corda(net, crypto::Group::test_group(),
                                            rng) {
    corda.add_party("Alice");
    corda.add_party("Bob");
    corda.add_party("Carol");
    corda.add_notary("Notary", /*validating=*/false);
  }

  corda::StateRef issue_cash(const std::string& owner,
                             const std::string& amount) {
    const auto r = corda.issue(owner, "Cash", to_bytes(amount), {owner},
                               "Notary");
    EXPECT_TRUE(r.success) << r.reason;
    return corda::StateRef{r.tx_id, 1};
  }
};

TEST(CommitPipeline, CordaWavePipelineCommitsDisjointFlows) {
  CordaRig rig;
  std::vector<corda::CordaNetwork::TransactRequest> wave;
  for (int i = 0; i < 4; ++i) {
    const auto ref = rig.issue_cash("Alice", std::to_string(10 + i));
    wave.push_back({"Alice",
                    {ref},
                    {corda::OutputSpec{"Cash", to_bytes(std::to_string(10 + i)),
                                       {"Bob"}}},
                    "Notary",
                    false,
                    {}});
  }
  const auto results = rig.corda.transact_many(wave, /*pipeline_depth=*/4);
  ASSERT_EQ(results.size(), 4u);
  for (const auto& r : results) EXPECT_TRUE(r.success) << r.reason;
  EXPECT_EQ(rig.corda.vault("Bob").size(), 4u);
  EXPECT_TRUE(rig.corda.vault("Alice").empty());
}

TEST(CommitPipeline, CordaWaveInputConflictArbitratedByNotary) {
  CordaRig rig;
  const auto ref = rig.issue_cash("Alice", "50");
  // Two flows in one wave spend the same state: the notary consumes it
  // for exactly one of them, the other gets a refusal — the same outcome
  // two concurrent submitters would see.
  std::vector<corda::CordaNetwork::TransactRequest> wave{
      {"Alice", {ref}, {corda::OutputSpec{"Cash", to_bytes("50"), {"Bob"}}},
       "Notary", false, {}},
      {"Alice", {ref}, {corda::OutputSpec{"Cash", to_bytes("50"), {"Carol"}}},
       "Notary", false, {}}};
  const auto results = rig.corda.transact_many(wave, 2);
  ASSERT_EQ(results.size(), 2u);
  const int successes = (results[0].success ? 1 : 0) +
                        (results[1].success ? 1 : 0);
  EXPECT_EQ(successes, 1);
  EXPECT_FALSE(results[0].success && results[1].success);
  EXPECT_EQ(rig.corda.vault("Bob").size() + rig.corda.vault("Carol").size(),
            1u);
}

TEST(CommitPipeline, CordaBackchainBatchedValidateOnce) {
  CordaRig rig;
  // Build a four-deep backchain: issue, then hop the state around.
  rig.issue_cash("Alice", "99");
  auto hop = [&](const std::string& from, const std::string& to) {
    const auto ref = rig.corda.vault(from).back().ref;
    const auto r = rig.corda.transact(
        from, {ref}, {corda::OutputSpec{"Cash", to_bytes("99"), {to}}},
        "Notary");
    ASSERT_TRUE(r.success) << r.reason;
  };
  hop("Alice", "Bob");
  hop("Bob", "Alice");
  hop("Alice", "Carol");

  const auto carol_ref = rig.corda.vault("Carol").front().ref;
  const auto first = rig.corda.resolve_backchain("Carol", carol_ref);
  ASSERT_TRUE(first.valid) << first.reason;
  EXPECT_EQ(first.depth, 4u);
  EXPECT_GT(rig.corda.verified_ancestor_count(), 0u);
  const std::uint64_t items_after_first =
      rig.corda.batch_verify_stats().items;
  EXPECT_GT(items_after_first, 0u);

  // Second resolution of the same chain: every ancestor is already in
  // the verified set, so no new crypto work happens (validate-once).
  const auto second = rig.corda.resolve_backchain("Bob", carol_ref);
  ASSERT_TRUE(second.valid) << second.reason;
  EXPECT_EQ(second.tx_ids, first.tx_ids);
  EXPECT_EQ(rig.corda.batch_verify_stats().items, items_after_first);

  // The batched verdict agrees with per-item verification of each
  // ancestor's notarization, computed here; the first walk queued each
  // ancestor exactly once.
  EXPECT_EQ(items_after_first, first.depth);
  for (const std::string& id : first.tx_ids) {
    const auto n = rig.corda.notarization(id);
    ASSERT_TRUE(n.has_value()) << id;
    EXPECT_TRUE(crypto::verify(rig.corda.group(), n->notary_key,
                               common::BytesView(n->root.data(),
                                                 n->root.size()),
                               n->signature))
        << id;
  }
  EXPECT_EQ(rig.corda.batch_verify_stats().rejected_items, 0u);
}

}  // namespace
}  // namespace veil

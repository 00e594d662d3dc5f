// Cross-shard atomic commit: protocol outcomes, the coordinator and
// participant crash-point sweeps (every 2PC step, before/after each WAL
// append), Byzantine coordinator equivocation, standby failover, and
// decode-fuzz over every cross-shard wire type. The invariant under all
// of it: no shard ever applies a cross-shard transaction another
// participant aborted.
#include "ledger/xshard.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "ledger/shard.hpp"

namespace veil::ledger {
namespace {

using common::to_bytes;

ShardConfig small_shards() {
  ShardConfig cfg;
  cfg.shard_count = 2;
  cfg.replicas_per_shard = 1;
  cfg.block_size = 1;
  return cfg;
}

/// One self-contained deployment: network, reliable channel, two shards
/// (primary + replica each), and a coordinator pair (primary + standby).
struct Rig {
  net::SimNetwork net;
  net::ReliableChannel channel;
  common::Rng rng;
  ShardMap shards;
  CrossShardCoordinator coord;

  explicit Rig(std::uint64_t seed, ShardConfig scfg = small_shards(),
               CoordinatorConfig ccfg = {})
      : net(common::Rng(seed)),
        channel(net),
        rng(seed + 1),
        shards(net, channel, crypto::Group::test_group(), rng, scfg),
        coord(net, channel, shards, crypto::Group::test_group(), rng, ccfg) {}

  /// A fresh key routed to `shard` (seq keeps keys distinct across txs).
  std::string key_on(std::uint64_t shard, int seq) const {
    for (int i = 0;; ++i) {
      const std::string k =
          "k/" + std::to_string(seq) + "/" + std::to_string(i);
      if (shards.shard_for_key(k) == shard) return k;
    }
  }

  /// A transaction writing one key on shard 0 and one on shard 1.
  Transaction cross_tx(int seq) const {
    Transaction tx;
    tx.channel = "scale";
    tx.contract = "pay";
    tx.action = "move";
    tx.timestamp = static_cast<common::SimTime>(seq);
    tx.writes.push_back({key_on(0, seq), to_bytes("a"), false});
    tx.writes.push_back({key_on(1, seq), to_bytes("b"), false});
    return tx;
  }

  /// Atomicity check: the two shards must never split commit/abort.
  void expect_consistent(const std::string& xid) {
    const auto o0 = shards.outcome(0, xid);
    const auto o1 = shards.outcome(1, xid);
    const bool c0 = o0 == ShardMap::Outcome::Committed;
    const bool c1 = o1 == ShardMap::Outcome::Committed;
    const bool a0 = o0 == ShardMap::Outcome::Aborted;
    const bool a1 = o1 == ShardMap::Outcome::Aborted;
    EXPECT_FALSE(c0 && a1) << xid << ": shard 0 committed, shard 1 aborted";
    EXPECT_FALSE(a0 && c1) << xid << ": shard 0 aborted, shard 1 committed";
  }
};

// ---- Happy path and plain aborts ------------------------------------------

TEST(XShard, CommitsAcrossTwoShards) {
  Rig rig(500);
  const Transaction tx = rig.cross_tx(1);
  const std::string xid = rig.coord.begin(tx);
  rig.net.run();

  EXPECT_EQ(rig.coord.outcome(xid), CrossShardCoordinator::Outcome::Committed);
  EXPECT_EQ(rig.shards.outcome(0, xid), ShardMap::Outcome::Committed);
  EXPECT_EQ(rig.shards.outcome(1, xid), ShardMap::Outcome::Committed);
  // Both writes landed in their owner shards.
  ASSERT_TRUE(rig.shards.get(tx.writes[0].key).has_value());
  ASSERT_TRUE(rig.shards.get(tx.writes[1].key).has_value());
  // Locks released: a local follow-up on the same key is admitted.
  Transaction local;
  local.channel = "scale";
  local.timestamp = 99;
  local.writes.push_back({tx.writes[0].key, to_bytes("later"), false});
  EXPECT_TRUE(rig.shards.submit(local).accepted);
  EXPECT_EQ(rig.net.stats().xshard_commits, 1u);
  EXPECT_EQ(rig.coord.stats().commits, 1u);
}

TEST(XShard, StaleReadVotesNoAndAbortsEverywhere) {
  Rig rig(501);
  // Bump a shard-0 key to version 1 via a local commit.
  const std::string hot = rig.key_on(0, 7);
  Transaction local;
  local.channel = "scale";
  local.timestamp = 1;
  local.writes.push_back({hot, to_bytes("v1"), false});
  ASSERT_TRUE(rig.shards.submit(local).accepted);
  rig.net.run();

  // Cross-shard tx reading the stale version 0 -> shard 0 votes no.
  Transaction tx = rig.cross_tx(2);
  tx.reads.push_back({hot, 0});
  const std::string xid = rig.coord.begin(tx);
  rig.net.run();

  EXPECT_EQ(rig.coord.outcome(xid), CrossShardCoordinator::Outcome::Aborted);
  EXPECT_EQ(rig.shards.outcome(1, xid), ShardMap::Outcome::Aborted);
  EXPECT_FALSE(rig.shards.get(tx.writes[1].key).has_value());
  EXPECT_EQ(rig.net.stats().xshard_aborts_voteno, 1u);
  EXPECT_GE(rig.shards.stats().votes_no, 1u);
}

TEST(XShard, SilentParticipantTimesOutToPresumedAbort) {
  Rig rig(502);
  rig.net.crash(rig.shards.primary(1));  // never sees the prepare
  const Transaction tx = rig.cross_tx(3);
  const std::string xid = rig.coord.begin(tx);
  rig.net.run();

  EXPECT_EQ(rig.coord.outcome(xid), CrossShardCoordinator::Outcome::Aborted);
  EXPECT_EQ(rig.shards.outcome(0, xid), ShardMap::Outcome::Aborted);
  EXPECT_EQ(rig.net.stats().xshard_aborts_timeout, 1u);
  rig.expect_consistent(xid);
}

TEST(XShard, SingleShardTransactionSkipsEchoWindow) {
  Rig rig(503);
  Transaction tx;
  tx.channel = "scale";
  tx.timestamp = 5;
  tx.writes.push_back({rig.key_on(0, 11), to_bytes("solo"), false});
  const std::string xid = rig.coord.begin(tx);
  rig.net.run();
  EXPECT_EQ(rig.coord.outcome(xid), CrossShardCoordinator::Outcome::Committed);
  EXPECT_EQ(rig.shards.outcome(0, xid), ShardMap::Outcome::Committed);
}

// Regression: the echo-window finalize hands apply_outcome the decision
// held inside the prepared entry that apply_outcome erases. The commit
// branch must still see the verdict after the erase (under
// -DVEIL_SANITIZE=address a dangling read here is a heap-use-after-free).
TEST(XShard, EchoWindowFinalizeCommitSealsBothShards) {
  Rig rig(504);
  const Transaction tx = rig.cross_tx(4);
  const std::string xid = rig.coord.begin(tx);
  rig.net.run();

  // The verdict was held for the echo window before it was applied.
  EXPECT_GE(rig.net.clock().now(), rig.shards.config().echo_window_us);
  EXPECT_EQ(rig.shards.outcome(0, xid), ShardMap::Outcome::Committed);
  EXPECT_EQ(rig.shards.outcome(1, xid), ShardMap::Outcome::Committed);
  EXPECT_EQ(rig.shards.stats().xcommitted, 2u);
  EXPECT_EQ(rig.shards.stats().xaborted, 0u);
  // The commit branch ran on each participant: one sealed block apiece.
  EXPECT_EQ(rig.shards.height(0), 1u);
  EXPECT_EQ(rig.shards.height(1), 1u);
  EXPECT_EQ(rig.shards.get(tx.writes[0].key)->value, to_bytes("a"));
  EXPECT_EQ(rig.shards.get(tx.writes[1].key)->value, to_bytes("b"));
}

// ---- Coordinator crash sweep ----------------------------------------------
// Kill the coordinator at every protocol step (before and after each WAL
// append) and restart it; the shards must converge to one outcome and the
// restarted coordinator must recover to the same verdict from its WAL.

class CoordinatorCrashSweep
    : public ::testing::TestWithParam<CrossShardCoordinator::CrashPoint> {};

TEST_P(CoordinatorCrashSweep, ShardsConvergeAfterRestart) {
  Rig rig(510);
  rig.coord.arm_crash(GetParam());
  const Transaction tx = rig.cross_tx(4);
  const std::string xid = rig.coord.begin(tx);
  // Prompt restart: before the vote timeout and the in-doubt window, so
  // the WAL replay (not the standby) resolves the outcome.
  rig.net.schedule(rig.net.clock().now() + 50'000,
                   [&] { rig.net.restart(rig.coord.name()); });
  rig.net.run();

  rig.expect_consistent(xid);
  const auto o0 = rig.shards.outcome(0, xid);
  switch (GetParam()) {
    case CrossShardCoordinator::CrashPoint::AfterBeginLog:
      // No prepare ever went out; restart presumes abort.
      EXPECT_EQ(rig.coord.outcome(xid),
                CrossShardCoordinator::Outcome::Aborted);
      EXPECT_NE(o0, ShardMap::Outcome::Committed);
      break;
    case CrossShardCoordinator::CrashPoint::BeforeDecisionLog:
      // Decision never durable -> presumed abort everywhere.
      EXPECT_EQ(rig.coord.outcome(xid),
                CrossShardCoordinator::Outcome::Aborted);
      EXPECT_EQ(o0, ShardMap::Outcome::Aborted);
      EXPECT_EQ(rig.shards.outcome(1, xid), ShardMap::Outcome::Aborted);
      EXPECT_GE(rig.coord.stats().recovery_aborts, 1u);
      break;
    case CrossShardCoordinator::CrashPoint::AfterDecisionLog:
      // Commit durable before the crash -> replayed and re-sent.
      EXPECT_EQ(rig.coord.outcome(xid),
                CrossShardCoordinator::Outcome::Committed);
      EXPECT_EQ(o0, ShardMap::Outcome::Committed);
      EXPECT_EQ(rig.shards.outcome(1, xid), ShardMap::Outcome::Committed);
      EXPECT_GE(rig.coord.stats().decisions_resent, 1u);
      break;
    case CrossShardCoordinator::CrashPoint::AfterFirstDecisionSend:
      // Partial broadcast: shard 0 got the commit, shard 1 did not. The
      // echo round (and the restart resend) completes it.
      EXPECT_EQ(rig.coord.outcome(xid),
                CrossShardCoordinator::Outcome::Committed);
      EXPECT_EQ(o0, ShardMap::Outcome::Committed);
      EXPECT_EQ(rig.shards.outcome(1, xid), ShardMap::Outcome::Committed);
      break;
    case CrossShardCoordinator::CrashPoint::None:
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPoints, CoordinatorCrashSweep,
    ::testing::Values(CrossShardCoordinator::CrashPoint::AfterBeginLog,
                      CrossShardCoordinator::CrashPoint::BeforeDecisionLog,
                      CrossShardCoordinator::CrashPoint::AfterDecisionLog,
                      CrossShardCoordinator::CrashPoint::AfterFirstDecisionSend));

// ---- Participant crash sweep ----------------------------------------------
// Kill the shard-1 primary at every participant step and restart it after
// the coordinator's vote timeout, so recovery exercises the WAL rebuild,
// the re-vote, and the in-doubt status query.

class ParticipantCrashSweep
    : public ::testing::TestWithParam<ShardMap::PCrashPoint> {};

TEST_P(ParticipantCrashSweep, ShardsConvergeAfterRestart) {
  Rig rig(520);
  rig.shards.arm_primary_crash(1, GetParam());
  const Transaction tx = rig.cross_tx(5);
  const std::string xid = rig.coord.begin(tx);
  rig.net.schedule(rig.net.clock().now() + 150'000,
                   [&] { rig.net.restart(rig.shards.primary(1)); });
  rig.net.run();

  rig.expect_consistent(xid);
  switch (GetParam()) {
    case ShardMap::PCrashPoint::AfterPrepareLog:
      // Yes-vote durable but never sent: the coordinator timed out to a
      // presumed abort; the restarted participant learns it via its
      // in-doubt status query and unlocks.
      EXPECT_EQ(rig.coord.outcome(xid),
                CrossShardCoordinator::Outcome::Aborted);
      EXPECT_EQ(rig.shards.outcome(0, xid), ShardMap::Outcome::Aborted);
      EXPECT_EQ(rig.shards.outcome(1, xid), ShardMap::Outcome::Aborted);
      break;
    case ShardMap::PCrashPoint::AfterVoteSend:
      // Vote reached the coordinator -> commit decided; the decision to
      // the crashed shard is recovered through the status query.
      EXPECT_EQ(rig.coord.outcome(xid),
                CrossShardCoordinator::Outcome::Committed);
      EXPECT_EQ(rig.shards.outcome(0, xid), ShardMap::Outcome::Committed);
      EXPECT_EQ(rig.shards.outcome(1, xid), ShardMap::Outcome::Committed);
      break;
    case ShardMap::PCrashPoint::AfterOutcomeLog:
      // Outcome durable, block not sealed: restart re-drives the apply.
      EXPECT_EQ(rig.shards.outcome(0, xid), ShardMap::Outcome::Committed);
      EXPECT_EQ(rig.shards.outcome(1, xid), ShardMap::Outcome::Committed);
      EXPECT_TRUE(rig.shards.get(tx.writes[1].key).has_value());
      break;
    case ShardMap::PCrashPoint::None:
      break;
  }
  // Whatever the verdict, no lock survives: a local write to the same
  // shard-1 key must be admitted.
  Transaction local;
  local.channel = "scale";
  local.timestamp = 77;
  local.writes.push_back({tx.writes[1].key, to_bytes("after"), false});
  EXPECT_TRUE(rig.shards.submit(local).accepted);
}

INSTANTIATE_TEST_SUITE_P(
    AllPoints, ParticipantCrashSweep,
    ::testing::Values(ShardMap::PCrashPoint::AfterPrepareLog,
                      ShardMap::PCrashPoint::AfterVoteSend,
                      ShardMap::PCrashPoint::AfterOutcomeLog));

// ---- Byzantine coordinator ------------------------------------------------

TEST(XShard, EquivocatingCoordinatorConvictedAndAllAbort) {
  Rig rig(530);
  rig.coord.set_equivocate(true);
  const Transaction tx = rig.cross_tx(6);
  const std::string xid = rig.coord.begin(tx);
  rig.net.run();

  // The echo round surfaced the conflicting signed decisions: conviction,
  // quarantine, and a unanimous fail-closed abort.
  EXPECT_GE(rig.shards.stats().echo_conflicts, 1u);
  ASSERT_GE(rig.shards.evidence().entries().size(), 1u);
  EXPECT_EQ(rig.shards.evidence().entries()[0].kind,
            audit::Misbehavior::CoordinatorEquivocation);
  EXPECT_EQ(rig.shards.evidence().entries()[0].accused, rig.coord.name());
  EXPECT_TRUE(rig.net.is_quarantined(rig.coord.name()));
  EXPECT_EQ(rig.net.stats().xshard_aborts_equivocation, 1u);
  EXPECT_NE(rig.shards.outcome(0, xid), ShardMap::Outcome::Committed);
  EXPECT_NE(rig.shards.outcome(1, xid), ShardMap::Outcome::Committed);
  rig.expect_consistent(xid);
  // Neither write applied.
  EXPECT_FALSE(rig.shards.get(tx.writes[0].key).has_value());
  EXPECT_FALSE(rig.shards.get(tx.writes[1].key).has_value());
}

TEST(XShard, CommitWithoutCertificateFailsClosed) {
  Rig rig(531);
  // Hand-build a "commit" with no vote certificate, signed by a key the
  // shards were told belongs to a coordinator.
  crypto::KeyPair rogue =
      crypto::KeyPair::generate(crypto::Group::test_group(), rig.rng);
  rig.shards.register_coordinator("rogue", rogue.public_key(), false);
  rig.channel.attach("rogue", nullptr);

  // Get shard 0 prepared first so the decision has something to bite on.
  XPrepare prep;
  prep.xid = "fake-xid";
  prep.shard = 0;
  prep.participants = {0, 1};
  prep.coordinator = "rogue";
  prep.subtx.channel = "scale";
  prep.subtx.writes.push_back({rig.key_on(0, 21), to_bytes("x"), false});
  prep.sig = rogue.sign(prep.to_be_signed());
  rig.channel.send("rogue", rig.shards.primary(0), "xshard.prepare",
                   prep.encode());
  // Deliver the certless commit mid-flight, before the participant's
  // in-doubt escalation kicks in (a run to quiescence would let the
  // standby resolve the silent "rogue" coordinator to abort first).
  rig.net.schedule(rig.net.clock().now() + 50'000, [&] {
    ASSERT_EQ(rig.shards.outcome(0, "fake-xid"), ShardMap::Outcome::Prepared);
    XDecision d;
    d.xid = "fake-xid";
    d.commit = true;  // no certificate attached
    d.decider = "rogue";
    d.sig = rogue.sign(d.to_be_signed());
    rig.channel.send("rogue", rig.shards.primary(0), "xshard.decision",
                     d.encode());
  });
  rig.net.run();

  // The bad commit was refused; the shard stayed prepared until the
  // in-doubt machinery resolved the dead coordinator to a safe abort.
  EXPECT_GE(rig.shards.stats().cert_rejected, 1u);
  EXPECT_NE(rig.shards.outcome(0, "fake-xid"), ShardMap::Outcome::Committed);
  EXPECT_FALSE(rig.shards.get(prep.subtx.writes[0].key).has_value());
}

// ---- Standby failover -----------------------------------------------------

TEST(XShard, StandbyResolvesInDoubtParticipantsToAbort) {
  Rig rig(540);
  // Decision durable but never sent; the coordinator stays down, so the
  // participants escalate to the standby, whose complete prepared-only
  // reply set resolves to abort (no shard applied anything).
  rig.coord.arm_crash(CrossShardCoordinator::CrashPoint::AfterDecisionLog);
  const Transaction tx = rig.cross_tx(8);
  const std::string xid = rig.coord.begin(tx);
  rig.net.run();

  EXPECT_GE(rig.coord.stats().failover_recoveries, 1u);
  EXPECT_GE(rig.net.stats().xshard_failovers, 1u);
  EXPECT_EQ(rig.shards.outcome(0, xid), ShardMap::Outcome::Aborted);
  EXPECT_EQ(rig.shards.outcome(1, xid), ShardMap::Outcome::Aborted);
  rig.expect_consistent(xid);
  // The fence did its job: both shards answered a standby query and then
  // only honoured the standby's verdict.
  EXPECT_GE(rig.coord.stats().status_replies + rig.shards.stats().fenced_refused,
            0u);  // (accounting smoke; the outcome assertions above are the invariant)
}

TEST(XShard, FencedParticipantRefusesLatePrimaryDecision) {
  Rig rig(541);
  rig.coord.arm_crash(CrossShardCoordinator::CrashPoint::AfterDecisionLog);
  const Transaction tx = rig.cross_tx(9);
  const std::string xid = rig.coord.begin(tx);
  rig.net.run();  // standby resolved both shards to abort (fenced path)
  ASSERT_EQ(rig.shards.outcome(0, xid), ShardMap::Outcome::Aborted);

  // Now the primary coordinator comes back holding its logged commit and
  // resends it. The shards already finalized the standby abort; the late
  // commit must be refused, not applied (shards are the source of truth).
  rig.net.restart(rig.coord.name());
  rig.net.run();
  EXPECT_EQ(rig.shards.outcome(0, xid), ShardMap::Outcome::Aborted);
  EXPECT_EQ(rig.shards.outcome(1, xid), ShardMap::Outcome::Aborted);
  EXPECT_GE(rig.shards.stats().signer_conflicts, 1u);
  EXPECT_FALSE(rig.shards.get(tx.writes[0].key).has_value());
  EXPECT_FALSE(rig.shards.get(tx.writes[1].key).has_value());
}

// ---- Malformed wire -------------------------------------------------------

TEST(XShard, MalformedPayloadsAreCountedNotFatal) {
  Rig rig(550);
  rig.channel.attach("fuzzer", nullptr);
  for (const char* topic :
       {"xshard.prepare", "xshard.decision", "xshard.echo", "xshard.query"}) {
    rig.channel.send("fuzzer", rig.shards.primary(0), topic,
                     to_bytes("garbage"));
  }
  rig.channel.send("fuzzer", rig.coord.name(), "xshard.vote",
                   to_bytes("junk"));
  rig.channel.send("fuzzer", rig.coord.name(), "xshard.status",
                   to_bytes("junk"));
  rig.channel.send("fuzzer", rig.coord.standby_name(), "xshard.recover",
                   to_bytes("junk"));
  rig.net.run();
  EXPECT_GE(rig.shards.stats().malformed, 4u);
  EXPECT_GE(rig.coord.stats().malformed, 3u);
  // And the deployment still works afterwards.
  const std::string xid = rig.coord.begin(rig.cross_tx(10));
  rig.net.run();
  EXPECT_EQ(rig.coord.outcome(xid), CrossShardCoordinator::Outcome::Committed);
}

TEST(XShard, CoordinatorNeverSignsForeignXids) {
  Rig rig(551);
  XStatus st;
  st.xid = "never-begun";
  st.shard = 0;
  st.requester = rig.shards.primary(0);
  rig.channel.attach("fuzzer", nullptr);
  rig.channel.send("fuzzer", rig.coord.name(), "xshard.status", st.encode());
  rig.net.run();
  EXPECT_EQ(rig.coord.stats().status_replies, 0u);
  EXPECT_EQ(rig.coord.outcome("never-begun"),
            CrossShardCoordinator::Outcome::Pending);
}

// ---- Decode fuzz over every cross-shard wire type -------------------------

template <typename T>
void fuzz_decode(const common::Bytes& good, std::uint64_t seed) {
  for (std::size_t len = 0; len < good.size(); ++len) {
    common::Bytes cut(good.begin(),
                      good.begin() + static_cast<std::ptrdiff_t>(len));
    try {
      (void)T::decode(cut);
    } catch (const common::Error&) {
    }
  }
  common::Rng rng(seed);
  for (int i = 0; i < 200; ++i) {
    common::Bytes mutated = good;
    const std::size_t pos = rng.next_below(mutated.size());
    mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    try {
      (void)T::decode(mutated);
    } catch (const common::Error&) {
    }
  }
}

TEST(XShardWire, RoundTripsExactly) {
  Rig rig(560);
  crypto::KeyPair key =
      crypto::KeyPair::generate(crypto::Group::test_group(), rig.rng);

  XPrepare prep;
  prep.xid = "x1";
  prep.shard = 1;
  prep.participants = {0, 1, 3};
  prep.coordinator = "xcoord";
  prep.deadline_us = 12345;
  prep.subtx = rig.cross_tx(1);
  prep.sig = key.sign(prep.to_be_signed());
  const XPrepare prep2 = XPrepare::decode(prep.encode());
  EXPECT_EQ(prep2.xid, "x1");
  EXPECT_EQ(prep2.participants, prep.participants);
  EXPECT_EQ(prep2.subtx.id(), prep.subtx.id());
  EXPECT_EQ(prep2.to_be_signed(), prep.to_be_signed());

  XVote vote;
  vote.xid = "x1";
  vote.shard = 1;
  vote.yes = true;
  vote.state_root = crypto::sha256(to_bytes("root"));
  vote.voter = "shard-1";
  vote.sig = key.sign(vote.to_be_signed());
  const XVote vote2 = XVote::decode(vote.encode());
  EXPECT_TRUE(vote2.yes);
  EXPECT_EQ(vote2.state_root, vote.state_root);
  EXPECT_EQ(vote2.to_be_signed(), vote.to_be_signed());

  XDecision d;
  d.xid = "x1";
  d.commit = true;
  d.cert = {vote};
  d.decider = "xcoord";
  d.sig = key.sign(d.to_be_signed());
  const XDecision d2 = XDecision::decode(d.encode());
  EXPECT_TRUE(d2.commit);
  ASSERT_EQ(d2.cert.size(), 1u);
  EXPECT_EQ(d2.cert[0].to_be_signed(), vote.to_be_signed());
  EXPECT_EQ(d2.to_be_signed(), d.to_be_signed());

  XStatus st;
  st.xid = "x1";
  st.shard = 2;
  st.requester = "shard-2";
  const XStatus st2 = XStatus::decode(st.encode());
  EXPECT_EQ(st2.requester, "shard-2");

  XQueryReply rep;
  rep.xid = "x1";
  rep.shard = 2;
  rep.prepared = true;
  rep.decided = true;
  rep.decision = d.encode();
  const XQueryReply rep2 = XQueryReply::decode(rep.encode());
  EXPECT_TRUE(rep2.prepared);
  EXPECT_EQ(rep2.decision, d.encode());
}

TEST(XShardWire, DecodeFuzzNeverCrashes) {
  Rig rig(561);
  crypto::KeyPair key =
      crypto::KeyPair::generate(crypto::Group::test_group(), rig.rng);

  XPrepare prep;
  prep.xid = "x1";
  prep.shard = 1;
  prep.participants = {0, 1};
  prep.coordinator = "xcoord";
  prep.subtx = rig.cross_tx(1);
  prep.sig = key.sign(prep.to_be_signed());
  fuzz_decode<XPrepare>(prep.encode(), 71);

  XVote vote;
  vote.xid = "x1";
  vote.shard = 1;
  vote.yes = true;
  vote.state_root = crypto::sha256(to_bytes("root"));
  vote.voter = "shard-1";
  vote.sig = key.sign(vote.to_be_signed());
  fuzz_decode<XVote>(vote.encode(), 72);

  XDecision d;
  d.xid = "x1";
  d.commit = true;
  d.cert = {vote};
  d.decider = "xcoord";
  d.sig = key.sign(d.to_be_signed());
  fuzz_decode<XDecision>(d.encode(), 73);

  XStatus st;
  st.xid = "x1";
  st.shard = 0;
  st.requester = "shard-0";
  fuzz_decode<XStatus>(st.encode(), 74);

  XQueryReply rep;
  rep.xid = "x1";
  rep.decided = true;
  rep.decision = d.encode();
  fuzz_decode<XQueryReply>(rep.encode(), 75);
}

}  // namespace
}  // namespace veil::ledger

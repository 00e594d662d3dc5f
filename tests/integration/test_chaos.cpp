// Chaos suite: the E9 cross-platform trade workload under scripted
// faults. At 20% uniform loss every platform still commits (reliable
// channel), replicas converge to bit-identical state, and the leakage
// auditor proves retransmissions added no new observers. Crash-stopped
// peers recover from their WAL and converge; partitions heal via the
// delivery-service catch-up paths.
#include <gtest/gtest.h>

#include <memory>

#include <cstdio>
#include <cstdlib>

#include "net/factory.hpp"
#include "net/fault.hpp"
#include "platforms/corda/corda.hpp"
#include "platforms/fabric/fabric.hpp"
#include "platforms/quorum/quorum.hpp"

namespace veil {
namespace {

using common::to_bytes;

std::shared_ptr<contracts::FunctionContract> trade_contract() {
  return std::make_shared<contracts::FunctionContract>(
      "trade", 1, [](contracts::ContractContext& ctx, const std::string& a) {
        ctx.put("trade/" + a,
                common::Bytes(ctx.args().begin(), ctx.args().end()));
        return contracts::InvokeStatus::Ok;
      });
}

// ---- Fabric ---------------------------------------------------------------

class FabricChaosTest : public ::testing::Test {
 protected:
  FabricChaosTest()
      : net_owner_(net::make_transport(common::Rng(901))),
        net_(*net_owner_),
        rng_(902),
        fab_(net_, crypto::Group::test_group(), rng_) {
    fab_.add_org("OrgA");
    fab_.add_org("OrgB");
    fab_.add_org("OrgC");  // never a channel member: the outsider
    fab_.create_channel("trade", {"OrgA", "OrgB"});
    fab_.install_chaincode("trade", "OrgA", trade_contract(),
                           contracts::EndorsementPolicy::require("OrgA"));
  }

  std::unique_ptr<net::Transport> net_owner_;
  net::Transport& net_;
  common::Rng rng_;
  fabric::FabricNetwork fab_;
};

TEST_F(FabricChaosTest, WorkloadCommitsAtTwentyPercentLoss) {
  net::FaultPlan plan;
  plan.drop_from(0, 0.2);
  net_.set_fault_plan(plan);

  std::vector<std::string> tx_ids;
  for (int i = 0; i < 10; ++i) {
    const auto r = fab_.submit("trade", "OrgA", "trade",
                               "lot" + std::to_string(i), to_bytes("qty"));
    EXPECT_TRUE(r.committed) << "tx " << i << ": " << r.reason;
    if (r.committed) tx_ids.push_back(r.tx_id);
  }
  ASSERT_FALSE(tx_ids.empty());

  // The reliable channel actually worked for a living.
  EXPECT_GT(net_.stats().retransmits, 0u);
  EXPECT_GT(net_.stats().dropped_random_loss, 0u);

  // Stragglers seek the delivery log, then replicas are bit-identical.
  fab_.resync("trade");
  EXPECT_EQ(fab_.chain("trade", "OrgA").height(),
            fab_.chain("trade", "OrgB").height());
  EXPECT_EQ(fab_.chain("trade", "OrgA").tip_hash(),
            fab_.chain("trade", "OrgB").tip_hash());
  EXPECT_EQ(fab_.state("trade", "OrgA").digest(),
            fab_.state("trade", "OrgB").digest());

  // Retransmissions leaked nothing extra: the outsider observed zero
  // bytes of anything, and each tx's observer set is exactly the
  // channel + orderer.
  EXPECT_FALSE(fab_.auditor().saw_any_form("peer.OrgC", "net/"));
  EXPECT_FALSE(fab_.auditor().saw_any_form("peer.OrgC", "tx/"));
  for (const std::string& tx_id : tx_ids) {
    for (const auto& observer :
         fab_.auditor().observers_of("tx/" + tx_id + "/data")) {
      EXPECT_TRUE(observer == "peer.OrgA" || observer == "peer.OrgB" ||
                  observer == "orderer-org")
          << observer << " saw tx data";
    }
  }
}

TEST_F(FabricChaosTest, CrashedPeerRecoversFromWalAndConverges) {
  ASSERT_TRUE(fab_.submit("trade", "OrgA", "trade", "pre1", to_bytes("v"))
                  .committed);
  ASSERT_TRUE(fab_.submit("trade", "OrgA", "trade", "pre2", to_bytes("v"))
                  .committed);

  // Crash-stop OrgB's peer mid-workload: volatile chain + state are lost.
  net_.crash("peer.OrgB");
  ASSERT_TRUE(fab_.submit("trade", "OrgA", "trade", "during", to_bytes("v"))
                  .committed);
  EXPECT_GT(net_.stats().dropped_crashed, 0u);

  // Restart: WAL replay rebuilds the pre-crash replica, then the
  // delivery log supplies the block it missed while down.
  net_.restart("peer.OrgB");
  EXPECT_EQ(fab_.chain("trade", "OrgB").height(),
            fab_.chain("trade", "OrgA").height());
  EXPECT_EQ(fab_.chain("trade", "OrgB").tip_hash(),
            fab_.chain("trade", "OrgA").tip_hash());
  EXPECT_EQ(fab_.state("trade", "OrgB").digest(),
            fab_.state("trade", "OrgA").digest());

  // And the recovered peer keeps participating.
  const auto r = fab_.submit("trade", "OrgA", "trade", "post", to_bytes("v"));
  EXPECT_TRUE(r.committed) << r.reason;
  EXPECT_EQ(fab_.state("trade", "OrgB").digest(),
            fab_.state("trade", "OrgA").digest());
}

TEST_F(FabricChaosTest, CrashDuringLossRecoversViaFaultPlan) {
  // The fully scripted variant: loss window + crash + restart all driven
  // by the fault plan, reproducible from the network seed alone.
  net::FaultPlan plan;
  plan.drop_from(0, 0.1).crash_at(40'000, "peer.OrgB");
  net_.set_fault_plan(plan);

  for (int i = 0; i < 6; ++i) {
    const auto r = fab_.submit("trade", "OrgA", "trade",
                               "w" + std::to_string(i), to_bytes("v"));
    EXPECT_TRUE(r.committed) << "tx " << i << ": " << r.reason;
  }
  // The crash fired somewhere inside the workload.
  ASSERT_TRUE(net_.crashed("peer.OrgB"));
  net_.restart("peer.OrgB");
  fab_.resync("trade");
  EXPECT_EQ(fab_.chain("trade", "OrgB").height(),
            fab_.chain("trade", "OrgA").height());
  EXPECT_EQ(fab_.state("trade", "OrgB").digest(),
            fab_.state("trade", "OrgA").digest());
}

// ---- Corda ----------------------------------------------------------------

class CordaChaosTest : public ::testing::Test {
 protected:
  CordaChaosTest()
      : net_owner_(net::make_transport(common::Rng(903))),
        net_(*net_owner_),
        rng_(904),
        corda_(net_, crypto::Group::test_group(), rng_) {
    corda_.add_party("A");
    corda_.add_party("B");
    corda_.add_party("C");  // uninvolved
    corda_.add_notary("Notary", /*validating=*/false);
  }

  std::unique_ptr<net::Transport> net_owner_;
  net::Transport& net_;
  common::Rng rng_;
  corda::CordaNetwork corda_;
};

TEST_F(CordaChaosTest, FlowCompletesAtTwentyPercentLoss) {
  net::FaultPlan plan;
  plan.drop_from(0, 0.2);
  net_.set_fault_plan(plan);

  const auto issued = corda_.issue("A", "Deal", to_bytes("1M"), {"A"}, "Notary");
  ASSERT_TRUE(issued.success) << issued.reason;
  const auto r = corda_.transact(
      "A", {corda_.vault("A").front().ref},
      {corda::OutputSpec{"Deal", to_bytes("1M"), {"A", "B"}}}, "Notary");
  ASSERT_TRUE(r.success) << r.reason;

  // Both participants hold the new state; the loss was absorbed below.
  EXPECT_EQ(corda_.vault("A").size(), 1u);
  EXPECT_EQ(corda_.vault("B").size(), 1u);
  EXPECT_GT(net_.stats().retransmits, 0u);

  // Retransmitted flow sessions still reach only the participants.
  EXPECT_FALSE(corda_.auditor().saw_any_form("C", "net/"));
  EXPECT_FALSE(corda_.auditor().saw("C", "tx/" + r.tx_id + "/data"));
  EXPECT_FALSE(corda_.auditor().saw("Notary", "tx/" + r.tx_id + "/data"));
}

TEST_F(CordaChaosTest, PartitionThenHeal) {
  // B is unreachable: the signature round cannot complete, the flow fails
  // CLOSED and nothing is consumed.
  const auto issued = corda_.issue("A", "Deal", to_bytes("1M"), {"A"}, "Notary");
  ASSERT_TRUE(issued.success);
  const corda::StateRef ref = corda_.vault("A").front().ref;

  net_.set_partitions({{"A", "C", "Notary"}, {"B"}});
  const auto failed = corda_.transact(
      "A", {ref}, {corda::OutputSpec{"Deal", to_bytes("1M"), {"A", "B"}}},
      "Notary");
  EXPECT_FALSE(failed.success);
  EXPECT_EQ(failed.reason, "signature round incomplete: B unreachable");
  EXPECT_EQ(corda_.vault("A").size(), 1u);  // input not consumed
  EXPECT_TRUE(corda_.vault("B").empty());

  // Heal: the same transaction goes through.
  net_.set_partitions({});
  const auto healed = corda_.transact(
      "A", {ref}, {corda::OutputSpec{"Deal", to_bytes("1M"), {"A", "B"}}},
      "Notary");
  EXPECT_TRUE(healed.success) << healed.reason;
  EXPECT_EQ(corda_.vault("B").size(), 1u);
}

TEST_F(CordaChaosTest, CrashedPartyRecoversVaultFromWal) {
  ASSERT_TRUE(
      corda_.issue("A", "Deal", to_bytes("1M"), {"A"}, "Notary").success);
  const auto r = corda_.transact(
      "A", {corda_.vault("A").front().ref},
      {corda::OutputSpec{"Deal", to_bytes("1M"), {"A", "B"}}}, "Notary");
  ASSERT_TRUE(r.success) << r.reason;
  const auto before = corda_.vault("B");
  ASSERT_EQ(before.size(), 1u);

  // Crash-stop B: its volatile vault is gone; the WAL survives.
  net_.crash("B");
  net_.restart("B");
  const auto after = corda_.vault("B");
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after.front().ref, before.front().ref);
  EXPECT_EQ(after.front().data, before.front().data);
  EXPECT_EQ(after.front().participants, before.front().participants);

  // The recovered vault is usable: B spends the state it re-learned.
  const auto spend = corda_.transact(
      "B", {after.front().ref},
      {corda::OutputSpec{"Deal", to_bytes("1M"), {"B"}}}, "Notary");
  EXPECT_TRUE(spend.success) << spend.reason;
}

// ---- Quorum ---------------------------------------------------------------

class QuorumChaosTest : public ::testing::Test {
 protected:
  QuorumChaosTest()
      : net_owner_(net::make_transport(common::Rng(905))),
        net_(*net_owner_),
        rng_(906),
        quorum_(net_, crypto::Group::test_group(), rng_, /*block_size=*/1) {
    quorum_.add_node("A");
    quorum_.add_node("B");
    quorum_.add_node("C");
    quorum_.add_node("D");  // never a recipient
  }

  void expect_converged() {
    const auto digest = quorum_.public_state("A").digest();
    for (const char* n : {"B", "C", "D"}) {
      EXPECT_EQ(quorum_.public_chain(n).height(),
                quorum_.public_chain("A").height())
          << n;
      EXPECT_EQ(quorum_.public_state(n).digest(), digest) << n;
    }
  }

  std::unique_ptr<net::Transport> net_owner_;
  net::Transport& net_;
  common::Rng rng_;
  quorum::QuorumNetwork quorum_;
};

TEST_F(QuorumChaosTest, WorkloadCommitsAtTwentyPercentLoss) {
  net::FaultPlan plan;
  plan.drop_from(0, 0.2);
  net_.set_fault_plan(plan);

  std::vector<std::string> private_ids;
  for (int i = 0; i < 4; ++i) {
    const auto pub = quorum_.submit_public(
        "A", {{"pub" + std::to_string(i), to_bytes("v"), false}});
    EXPECT_TRUE(pub.accepted) << pub.reason;
    const auto priv = quorum_.submit_private(
        "A", {"B"}, {{"deal" + std::to_string(i), to_bytes("1M"), false}},
        to_bytes("terms"));
    EXPECT_TRUE(priv.accepted) << priv.reason;
    if (priv.accepted) private_ids.push_back(priv.tx_id);
  }
  EXPECT_GT(net_.stats().retransmits, 0u);

  quorum_.sync();
  expect_converged();

  // Private payloads reached exactly sender + recipient, loss or not.
  for (const std::string& tx_id : private_ids) {
    EXPECT_TRUE(quorum_.private_payload("A", tx_id).has_value());
    EXPECT_TRUE(quorum_.private_payload("B", tx_id).has_value());
    EXPECT_FALSE(quorum_.private_payload("C", tx_id).has_value());
    EXPECT_FALSE(quorum_.private_payload("D", tx_id).has_value());
    EXPECT_FALSE(quorum_.auditor().saw("C", "tx/" + tx_id + "/data"));
    EXPECT_FALSE(quorum_.auditor().saw("D", "tx/" + tx_id + "/data"));
  }
}

TEST_F(QuorumChaosTest, PartitionThenHeal) {
  // C and D are cut off from block dissemination; the involved pair keeps
  // working, the others fall behind but never diverge.
  net_.set_partitions({{"A", "B"}, {"C", "D"}});
  const auto r = quorum_.submit_private(
      "A", {"B"}, {{"deal", to_bytes("1M"), false}}, to_bytes("terms"));
  ASSERT_TRUE(r.accepted) << r.reason;
  EXPECT_EQ(quorum_.public_chain("A").height(), 1u);
  EXPECT_EQ(quorum_.public_chain("C").height(), 0u);

  // Heal, then the delivery catch-up converges everyone.
  net_.set_partitions({});
  quorum_.sync();
  expect_converged();
  // The healed outsiders still only ever see the payload hash.
  EXPECT_FALSE(quorum_.private_payload("C", r.tx_id).has_value());
  EXPECT_FALSE(quorum_.auditor().saw("C", "tx/" + r.tx_id + "/data"));
}

TEST_F(QuorumChaosTest, CrashedNodeRecoversFromWalAndConverges) {
  ASSERT_TRUE(
      quorum_.submit_public("A", {{"k1", to_bytes("v1"), false}}).accepted);

  net_.crash("C");
  ASSERT_TRUE(
      quorum_.submit_public("A", {{"k2", to_bytes("v2"), false}}).accepted);
  ASSERT_TRUE(quorum_
                  .submit_private("A", {"B"}, {{"deal", to_bytes("1M"), false}},
                                  to_bytes("terms"))
                  .accepted);
  // The crash-stop wiped C's volatile replica entirely.
  EXPECT_EQ(quorum_.public_chain("C").height(), 0u);

  // Restart: WAL replay restores block 1, the shared delivery log
  // supplies the rest.
  net_.restart("C");
  expect_converged();
}

// ---------------------------------------------------------------------------
// Randomized chaos: the CI cron job drives this with VEIL_CHAOS_SEED.
// ---------------------------------------------------------------------------

TEST(RandomizedChaos, CrashMidStateTransferResumesAndConverges) {
  std::uint64_t seed = 4242;
  if (const char* env = std::getenv("VEIL_CHAOS_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  // Echoed so a failing cron run is reproducible locally.
  std::printf("[chaos] VEIL_CHAOS_SEED=%llu\n",
              static_cast<unsigned long long>(seed));

  auto net_owner = net::make_transport(common::Rng(seed));
  net::Transport& net = *net_owner;
  common::Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  quorum::QuorumNetwork quorum(net, crypto::Group::test_group(), rng,
                               /*block_size=*/1,
                               ledger::SnapshotConfig{.interval = 4});
  for (const char* n : {"NodeA", "NodeB", "NodeC"}) quorum.add_node(n);

  common::Rng driver(seed + 1);
  int counter = 0;
  const auto advance = [&](std::uint64_t blocks) {
    for (std::uint64_t i = 0; i < blocks; ++i) {
      ASSERT_TRUE(quorum
                      .submit_public("NodeA",
                                     {{"chaos/" + std::to_string(counter++),
                                       to_bytes("v"), false}})
                      .accepted);
    }
  };

  // NodeC falls behind by a random lag spanning at least one checkpoint.
  advance(2);
  net.quarantine("NodeC");
  advance(8 + driver.next_below(8));
  net.release("NodeC");

  // Stall the state transfer mid-flight with total loss, then crash a
  // random DONOR mid-transfer and bring it back: its WAL (including the
  // sealed checkpoint) must make it servable again, and the nodes the
  // joiner already verified must survive the donor outage.
  net.set_drop_probability(1.0);
  quorum.rejoin("NodeC");
  const char* victim = driver.next_below(2) == 0 ? "NodeA" : "NodeB";
  net.crash(victim);
  net.restart(victim);

  // Heal to a random chaos loss rate and resume until converged; drop
  // loss entirely near the end so the run always terminates.
  net.set_drop_probability(0.05 * static_cast<double>(driver.next_below(5)));
  for (int round = 0;
       round < 60 &&
       quorum.public_chain("NodeC").height() < quorum.sealed_height();
       ++round) {
    if (round == 40) net.set_drop_probability(0.0);
    quorum.resume_rejoin("NodeC");
  }

  EXPECT_EQ(quorum.public_chain("NodeC").height(), quorum.sealed_height());
  EXPECT_EQ(quorum.public_chain("NodeC").tip_hash(),
            quorum.public_chain("NodeA").tip_hash());
  EXPECT_EQ(quorum.public_state("NodeC").digest(),
            quorum.public_state("NodeA").digest());
  // Stats ledger self-consistency under the whole episode.
  const net::NetworkStats& s = net.stats();
  EXPECT_EQ(s.messages_dropped,
            s.dropped_random_loss + s.dropped_partition + s.dropped_crashed +
                s.dropped_detached + s.dropped_silenced +
                s.dropped_quarantined);
}

}  // namespace
}  // namespace veil

// Unit tests for the trie-node state-transfer engine, driven by scripted
// providers over a raw ReliableChannel — no platform above it. The
// platform wiring (Fabric and Quorum rejoin, evidence, quarantine, the
// post-checkpoint replay) is covered in tests/integration/test_recovery.cpp
// and tests/integration/test_chaos.cpp.
#include "ledger/triesync.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/error.hpp"
#include "net/reliable.hpp"

namespace veil::ledger {
namespace {

using common::Bytes;
using common::Rng;
using common::to_bytes;

WorldState sample_state(int keys = 50) {
  WorldState state;
  for (int i = 0; i < keys; ++i) {
    state.put("key/" + std::to_string(i),
              to_bytes("value-" + std::to_string(i)));
  }
  return state;
}

/// A joiner, three peers, one shared engine keyed by `self` (exactly how
/// the platforms use it). Every peer serves whatever `donors_[peer]`
/// holds; `intercept_` lets a test play a Byzantine donor on the wire.
class TrieSyncTest : public ::testing::Test {
 protected:
  struct Holder {
    WorldState state;
    std::uint64_t height = 0;
    crypto::Digest tip{};
    bool tamper = false;  // serve every node with a flipped byte
  };

  TrieSyncTest()
      : net_(Rng(41), net::LatencyModel{100, 0, 0.0}), channel_(net_) {
    engine_.emplace(
        channel_,
        TrieSync::Callbacks{
            .provider = [this](const net::Principal& self, const std::string&)
                -> std::optional<TrieSync::DonorState> {
              auto it = donors_.find(self);
              if (it == donors_.end()) return std::nullopt;
              const Holder& h = it->second;
              return TrieSync::DonorState{&h.state, h.height, h.tip,
                                          h.tamper};
            },
            .offer_check = [this](const net::Principal&, const std::string&,
                                  std::uint64_t height,
                                  const crypto::Digest& tip) {
              return !offer_check_ || offer_check_(height, tip);
            },
            .on_complete = [this](const net::Principal&, const std::string&,
                                  std::uint64_t height, const crypto::Digest&,
                                  WorldState state) {
              completed_height_ = height;
              completed_state_ = std::move(state);
            },
            .on_reject = [this](const net::Principal&, const std::string&,
                                const net::Principal& donor,
                                TransferReject reason, common::BytesView,
                                common::BytesView) {
              rejects_.emplace_back(donor, reason);
            },
            .on_fail = [this](const net::Principal&, const std::string&) {
              ++failed_;
            },
        });
    for (const char* p : {"joiner", "peer1", "peer2", "peer3"}) {
      channel_.attach(p, [this, p = std::string(p)](const net::Message& msg) {
        if (!TrieSync::owns_topic(msg.topic)) return;
        if (intercept_ && intercept_(p, msg)) return;
        engine_->handle(p, msg);
      });
    }
  }

  void seed_donor(const net::Principal& peer, WorldState state,
                  std::uint64_t height) {
    donors_[peer] =
        Holder{std::move(state), height, crypto::sha256(to_bytes("tip"))};
  }

  /// Start a fetch with peer1/peer2 as donors and peer2/peer3 as voters,
  /// from `prior` (the joiner's lagging state).
  void fetch(const WorldState& prior, std::uint64_t min_height = 1) {
    engine_->fetch("joiner", "scope", {"peer1", "peer2"}, {"peer2", "peer3"},
                   min_height, prior);
  }

  net::SimNetwork net_;
  net::ReliableChannel channel_;
  std::optional<TrieSync> engine_;
  std::map<net::Principal, Holder> donors_;
  /// Returns true to swallow the message instead of handing it to the
  /// engine (Byzantine donor scripting).
  std::function<bool(const std::string& self, const net::Message&)> intercept_;
  /// Joiner-side delivery-log check (unset = accept every offer).
  std::function<bool(std::uint64_t height, const crypto::Digest& tip)>
      offer_check_;
  std::optional<std::uint64_t> completed_height_;
  std::optional<WorldState> completed_state_;
  std::vector<std::pair<net::Principal, TransferReject>> rejects_;
  int failed_ = 0;
};

TEST_F(TrieSyncTest, OwnsExactlyTheTsyncTopics) {
  EXPECT_TRUE(TrieSync::owns_topic("tsync.req"));
  EXPECT_TRUE(TrieSync::owns_topic("tsync.nodes"));
  EXPECT_FALSE(TrieSync::owns_topic("fabric.block"));
  EXPECT_FALSE(TrieSync::owns_topic("tsyncX"));
}

TEST_F(TrieSyncTest, BootstrapFromEmptyPriorShipsTheWholeImage) {
  const WorldState state = sample_state();
  seed_donor("peer1", state, 8);
  seed_donor("peer2", state, 8);
  seed_donor("peer3", state, 8);

  fetch(WorldState{});
  net_.run();

  ASSERT_TRUE(completed_state_.has_value());
  EXPECT_EQ(*completed_height_, 8u);
  EXPECT_EQ(completed_state_->digest(), state.digest());
  EXPECT_EQ(completed_state_->size(), state.size());
  std::unordered_set<crypto::Digest, DigestHash> all;
  state.trie().node_hashes(all);
  // Nothing to dedup against: every node of the image moved.
  EXPECT_EQ(engine_->stats().nodes_received, all.size());
  EXPECT_FALSE(engine_->active("joiner", "scope"));
  EXPECT_EQ(engine_->stats().transfers_completed, 1u);
  EXPECT_EQ(engine_->stats().nodes_rejected, 0u);
  EXPECT_TRUE(rejects_.empty());
}

TEST_F(TrieSyncTest, OneBlockLagShipsOnlyTouchedPaths) {
  // The delta story the whole engine exists for: a joiner that missed
  // one block's worth of writes fetches O(touched keys x depth) nodes,
  // not O(state).
  const WorldState prior = sample_state(400);
  WorldState next = prior;  // COW copy
  for (int i = 0; i < 5; ++i) {
    next.put("key/" + std::to_string(i * 80), to_bytes("touched"));
  }
  seed_donor("peer1", next, 9);
  seed_donor("peer2", next, 9);
  seed_donor("peer3", next, 9);

  fetch(prior);
  net_.run();

  ASSERT_TRUE(completed_state_.has_value());
  EXPECT_EQ(completed_state_->digest(), next.digest());
  NodeStore image;
  next.trie().collect_nodes(image);
  std::size_t image_bytes = 0;
  for (const auto& [hash, bytes] : image) {
    (void)hash;
    image_bytes += bytes.size();
  }
  // 5 touched keys out of 400: the shipped slice is a small fraction of
  // the full node image a bootstrap would have transferred.
  EXPECT_GT(engine_->stats().nodes_received, 0u);
  EXPECT_LT(engine_->stats().nodes_received, image.size() / 4);
  EXPECT_LT(engine_->stats().node_bytes_received, image_bytes / 4);
}

TEST_F(TrieSyncTest, AlreadyCurrentJoinerFetchesNothing) {
  const WorldState state = sample_state();
  seed_donor("peer1", state, 5);
  seed_donor("peer2", state, 5);
  seed_donor("peer3", state, 5);

  fetch(state);  // prior == donor state: the root is already held
  net_.run();

  ASSERT_TRUE(completed_state_.has_value());
  EXPECT_EQ(completed_state_->digest(), state.digest());
  EXPECT_EQ(engine_->stats().nodes_received, 0u);
  EXPECT_EQ(engine_->stats().node_bytes_received, 0u);
}

TEST_F(TrieSyncTest, EmptyStateTransfersWithoutAnyNodes) {
  seed_donor("peer1", WorldState{}, 3);
  seed_donor("peer2", WorldState{}, 3);
  seed_donor("peer3", WorldState{}, 3);

  fetch(WorldState{});
  net_.run();

  ASSERT_TRUE(completed_state_.has_value());
  EXPECT_TRUE(completed_state_->empty());
  EXPECT_EQ(engine_->stats().nodes_received, 0u);
}

TEST_F(TrieSyncTest, EmptyHandedDonorIsBenignFailover) {
  // peer1 has nothing to offer; peer2 completes. DonorGone carries no
  // evidence and costs no conviction.
  const WorldState state = sample_state();
  seed_donor("peer2", state, 5);
  seed_donor("peer3", state, 5);

  fetch(WorldState{});
  net_.run();

  ASSERT_TRUE(completed_state_.has_value());
  ASSERT_EQ(rejects_.size(), 1u);
  EXPECT_EQ(rejects_[0].first, "peer1");
  EXPECT_EQ(rejects_[0].second, TransferReject::DonorGone);
  EXPECT_FALSE(is_misbehavior(rejects_[0].second));
  EXPECT_EQ(engine_->stats().donors_rejected, 0u);
  EXPECT_EQ(engine_->stats().transfers_completed, 1u);
}

TEST_F(TrieSyncTest, NoDonorHasAnythingFailsClosed) {
  fetch(WorldState{});
  net_.run();
  EXPECT_FALSE(completed_state_.has_value());
  EXPECT_EQ(failed_, 1);
  EXPECT_EQ(engine_->stats().transfers_failed, 1u);
  EXPECT_FALSE(engine_->active("joiner", "scope"));
}

TEST_F(TrieSyncTest, EquivocatedRootRejectedByVoteQuorumBeforeFetch) {
  // peer1 offers a self-consistent state nobody else computed. Only the
  // vote quorum can expose it — and must, before any node is fetched.
  const WorldState honest = sample_state();
  WorldState forged = sample_state();
  forged.put("key/0", to_bytes("forged"));
  seed_donor("peer1", forged, 7);
  seed_donor("peer2", honest, 7);
  seed_donor("peer3", honest, 7);
  int fetches_to_peer1 = 0;
  intercept_ = [&fetches_to_peer1](const std::string& self,
                                   const net::Message& msg) {
    if (self == "peer1" && msg.topic == "tsync.fetch") ++fetches_to_peer1;
    return false;
  };

  fetch(WorldState{});
  net_.run();

  ASSERT_GE(rejects_.size(), 1u);
  EXPECT_EQ(rejects_[0].first, "peer1");
  EXPECT_EQ(rejects_[0].second, TransferReject::EquivocatedRoot);
  EXPECT_TRUE(is_misbehavior(rejects_[0].second));
  EXPECT_EQ(engine_->stats().donors_rejected, 1u);
  // Rejected before fetch: beyond the top nodes its offer carried, none
  // of the forgery's nodes moved, and the honest fallback completed.
  EXPECT_EQ(fetches_to_peer1, 0);
  ASSERT_TRUE(completed_state_.has_value());
  EXPECT_EQ(completed_state_->digest(), honest.digest());
}

TEST_F(TrieSyncTest, OfferFailingOfferCheckRejectedBeforeAnyNodeMoves) {
  // peer1 announces a head the joiner's sealed delivery log never held.
  // The offer check convicts it before a vote is asked or a node moves;
  // peer2's honest offer then completes the transfer.
  const WorldState state = sample_state();
  seed_donor("peer1", state, 7);
  seed_donor("peer2", state, 7);
  seed_donor("peer3", state, 7);
  const crypto::Digest sealed_tip = donors_["peer2"].tip;
  donors_["peer1"].tip = crypto::sha256(to_bytes("forged tip"));
  offer_check_ = [sealed_tip](std::uint64_t, const crypto::Digest& tip) {
    return tip == sealed_tip;
  };
  int fetches_to_peer1 = 0;
  intercept_ = [&fetches_to_peer1](const std::string& self,
                                   const net::Message& msg) {
    if (self == "peer1" && msg.topic == "tsync.fetch") ++fetches_to_peer1;
    return false;
  };

  fetch(WorldState{});
  net_.run();

  ASSERT_GE(rejects_.size(), 1u);
  EXPECT_EQ(rejects_[0].first, "peer1");
  EXPECT_EQ(rejects_[0].second, TransferReject::OfferCheckFailed);
  EXPECT_TRUE(is_misbehavior(rejects_[0].second));
  EXPECT_EQ(engine_->stats().donors_rejected, 1u);
  EXPECT_EQ(fetches_to_peer1, 0);
  ASSERT_TRUE(completed_state_.has_value());
  EXPECT_EQ(completed_state_->digest(), state.digest());
}

TEST_F(TrieSyncTest, TamperedNodeConvictsDonorAndVerifiedNodesSurvive) {
  // peer1 passes the offer/vote phases honestly, then answers fetches
  // with garbage. Bytes that do not hash to a requested node convict it;
  // peer2 (same root) supplies the real nodes.
  const WorldState state = sample_state(200);
  seed_donor("peer1", state, 6);
  seed_donor("peer2", state, 6);
  seed_donor("peer3", state, 6);
  intercept_ = [this](const std::string& self, const net::Message& msg) {
    if (self != "peer1" || msg.topic != "tsync.fetch") return false;
    const NodeRequest req = NodeRequest::decode(msg.payload);
    NodeBatch batch;
    batch.scope = req.scope;
    batch.state_root = req.state_root;
    batch.ok = true;
    batch.nodes.push_back(to_bytes("garbage that hashes to nothing asked"));
    channel_.send(self, msg.from, "tsync.nodes", batch.encode());
    return true;
  };

  fetch(WorldState{});
  net_.run();

  ASSERT_TRUE(completed_state_.has_value());
  EXPECT_EQ(completed_state_->digest(), state.digest());
  ASSERT_GE(rejects_.size(), 1u);
  EXPECT_EQ(rejects_[0].first, "peer1");
  EXPECT_EQ(rejects_[0].second, TransferReject::TamperedNode);
  EXPECT_TRUE(is_misbehavior(rejects_[0].second));
  EXPECT_GE(engine_->stats().nodes_rejected, 1u);
  EXPECT_EQ(engine_->stats().donors_rejected, 1u);
}

TEST_F(TrieSyncTest, DonorWhoseCheckpointMovedOnIsBenignFailover) {
  // peer1's checkpoint advances between its offer and the fetch: it no
  // longer serves the agreed root and answers ok=false. That is DonorGone
  // (benign), not misbehavior, and peer2 still holds the agreed root.
  const WorldState state = sample_state();
  seed_donor("peer1", state, 5);
  seed_donor("peer2", state, 5);
  seed_donor("peer3", state, 5);
  bool advanced = false;
  intercept_ = [this, &advanced](const std::string& self,
                                 const net::Message& msg) {
    if (self == "peer1" && msg.topic == "tsync.fetch" && !advanced) {
      advanced = true;
      donors_["peer1"].state.put("key/0", to_bytes("newer"));
      donors_["peer1"].height = 6;
    }
    return false;  // engine still handles the message
  };

  fetch(WorldState{});
  net_.run();

  ASSERT_TRUE(completed_state_.has_value());
  EXPECT_EQ(completed_state_->digest(), state.digest());
  ASSERT_GE(rejects_.size(), 1u);
  EXPECT_EQ(rejects_[0].first, "peer1");
  EXPECT_EQ(rejects_[0].second, TransferReject::DonorGone);
  EXPECT_EQ(engine_->stats().donors_rejected, 0u);
}

TEST_F(TrieSyncTest, StalledTransferResumesAfterTotalLoss) {
  const WorldState state = sample_state(150);
  seed_donor("peer1", state, 6);
  seed_donor("peer2", state, 6);
  seed_donor("peer3", state, 6);

  // Dead network past the reliable channel's whole retry budget: the
  // transfer stalls (it must NOT fail — loss is not a donor fault).
  net_.set_drop_probability(1.0);
  fetch(WorldState{});
  net_.run();
  ASSERT_FALSE(completed_state_.has_value());
  ASSERT_TRUE(engine_->active("joiner", "scope"));
  EXPECT_EQ(failed_, 0);

  net_.set_drop_probability(0.0);
  engine_->resume("joiner", "scope");
  net_.run();

  ASSERT_TRUE(completed_state_.has_value());
  EXPECT_EQ(completed_state_->digest(), state.digest());
  EXPECT_GE(engine_->stats().resumes, 1u);
}

TEST_F(TrieSyncTest, AbortDropsVolatileTransferState) {
  const WorldState state = sample_state();
  seed_donor("peer1", state, 4);
  seed_donor("peer2", state, 4);

  fetch(WorldState{});
  ASSERT_TRUE(engine_->active("joiner", "scope"));
  engine_->abort("joiner", "scope");
  EXPECT_FALSE(engine_->active("joiner", "scope"));
  // Late messages for the aborted transfer are ignored, not crashed on.
  net_.run();
  EXPECT_FALSE(completed_state_.has_value());
  EXPECT_EQ(engine_->stats().transfers_completed, 0u);
}

TEST_F(TrieSyncTest, TamperingDonorFlagConvictsAndFailsOver) {
  // The provider-side adversary the platforms script: honest offer and
  // votes, then every served node carries a flipped byte.
  const WorldState state = sample_state(120);
  seed_donor("peer1", state, 6);
  seed_donor("peer2", state, 6);
  seed_donor("peer3", state, 6);
  donors_["peer1"].tamper = true;

  fetch(WorldState{});
  net_.run();

  ASSERT_EQ(rejects_.size(), 1u);
  EXPECT_EQ(rejects_[0].first, "peer1");
  EXPECT_EQ(rejects_[0].second, TransferReject::TamperedNode);
  EXPECT_GE(engine_->stats().nodes_rejected, 1u);
  ASSERT_TRUE(completed_state_.has_value());
  EXPECT_EQ(completed_state_->digest(), state.digest());
}

TEST_F(TrieSyncTest, MalformedWirePayloadsCountedAndDropped) {
  for (const char* topic : {"tsync.req", "tsync.offer", "tsync.vote-req",
                            "tsync.vote", "tsync.fetch", "tsync.nodes"}) {
    channel_.send("peer1", "joiner", topic, to_bytes("junk"));
  }
  net_.run();
  EXPECT_EQ(engine_->stats().malformed, 6u);
}

TEST_F(TrieSyncTest, RejectReasonStringsAreDistinct) {
  const TransferReject all[] = {
      TransferReject::MalformedOffer,  TransferReject::OfferCheckFailed,
      TransferReject::EquivocatedRoot, TransferReject::TamperedNode,
      TransferReject::InconsistentBody, TransferReject::DonorGone,
  };
  std::set<std::string> names;
  for (TransferReject r : all) {
    names.insert(to_string(r));
    // Only a donor that refused or lost the root goes unconvicted.
    EXPECT_EQ(is_misbehavior(r), r != TransferReject::DonorGone);
  }
  EXPECT_EQ(names.size(), std::size(all));
}

// ---- Wire-type decode fuzz -------------------------------------------------

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

TEST(TrieSyncWire, DecodeFuzzNeverCrashes) {
  const WorldState state = sample_state(8);
  NodeStore store;
  state.trie().collect_nodes(store);
  TrieSyncRequest treq{.scope = "ch", .min_height = 42,
                       .have = {state.digest(), crypto::sha256(to_bytes("c"))}};
  fuzz_decode<TrieSyncRequest>(treq.encode(), 10);

  RootVote vote{.scope = "ch", .height = 3, .known = true,
                .root = state.digest()};
  fuzz_decode<RootVote>(vote.encode(), 14);

  TrieSyncOffer offer{.scope = "ch", .available = true, .height = 4,
                      .tip_hash = crypto::sha256(to_bytes("t")),
                      .state_root = state.digest(),
                      .nodes = {store.at(state.digest())}};
  fuzz_decode<TrieSyncOffer>(offer.encode(), 11);

  NodeRequest req{.scope = "ch", .state_root = state.digest(),
                  .wanted = {state.digest(), crypto::sha256(to_bytes("x"))}};
  fuzz_decode<NodeRequest>(req.encode(), 12);

  NodeBatch batch{.scope = "ch", .state_root = state.digest(), .ok = true};
  for (const auto& [hash, bytes] : store) {
    (void)hash;
    batch.nodes.push_back(bytes);
  }
  fuzz_decode<NodeBatch>(batch.encode(), 13);
}

TEST(TrieSyncWire, RoundTripsExactly) {
  const WorldState state = sample_state(8);
  TrieSyncRequest treq{.scope = "ch", .min_height = 42,
                       .have = {state.digest()}};
  const TrieSyncRequest treq2 = TrieSyncRequest::decode(treq.encode());
  EXPECT_EQ(treq2.scope, "ch");
  EXPECT_EQ(treq2.min_height, 42u);
  EXPECT_EQ(treq2.have, treq.have);

  RootVote vote{.scope = "ch", .height = 3, .known = true,
                .root = state.digest()};
  const RootVote vote2 = RootVote::decode(vote.encode());
  EXPECT_EQ(vote2.height, 3u);
  EXPECT_TRUE(vote2.known);
  EXPECT_EQ(vote2.root, state.digest());

  TrieSyncOffer offer{.scope = "ch", .available = true, .height = 4,
                      .tip_hash = crypto::sha256(to_bytes("t")),
                      .state_root = state.digest(),
                      .nodes = {to_bytes("root"), to_bytes("child")}};
  const TrieSyncOffer offer2 = TrieSyncOffer::decode(offer.encode());
  EXPECT_TRUE(offer2.available);
  EXPECT_EQ(offer2.height, 4u);
  EXPECT_EQ(offer2.state_root, state.digest());
  EXPECT_EQ(offer2.nodes, offer.nodes);

  TrieSyncOffer refusal;
  refusal.scope = "ch";
  EXPECT_FALSE(TrieSyncOffer::decode(refusal.encode()).available);

  NodeRequest req{.scope = "ch", .state_root = state.digest(),
                  .wanted = {crypto::sha256(to_bytes("a")),
                             crypto::sha256(to_bytes("b"))}};
  const NodeRequest req2 = NodeRequest::decode(req.encode());
  EXPECT_EQ(req2.wanted, req.wanted);

  NodeBatch batch{.scope = "ch", .state_root = state.digest(), .ok = true,
                  .nodes = {to_bytes("n1"), to_bytes("n2")}};
  const NodeBatch batch2 = NodeBatch::decode(batch.encode());
  EXPECT_TRUE(batch2.ok);
  EXPECT_EQ(batch2.nodes, batch.nodes);
}

}  // namespace
}  // namespace veil::ledger

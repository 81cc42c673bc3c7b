// ShardRing property tests: ownership determinism, distribution balance,
// and the smooth-resharding property the cluster layer leans on (a member
// joining or leaving moves only the ranges its own ring points cover).
// These properties are claimed in docs/serving.md and cluster.hpp; the
// cluster failover path silently degrades to "reshuffle everything" if
// they regress, so they are pinned here directly.
#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.hpp"
#include "serve/cluster.hpp"

namespace {

using warp::common::Digest;
using warp::common::Hasher;
using warp::serve::ShardRing;

// A deterministic spread of keys: hashed, so they land uniformly on the
// ring the way real kernel content digests do.
std::vector<Digest> make_keys(std::size_t count) {
  std::vector<Digest> keys;
  keys.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Hasher hasher;
    hasher.str("shard_ring_test.key").u64(i);
    keys.push_back(hasher.finish());
  }
  return keys;
}

TEST(ShardRingTest, OwnershipIsDeterministic) {
  const auto keys = make_keys(2048);
  const ShardRing a({0, 1, 2, 3}, 16);
  const ShardRing b({0, 1, 2, 3}, 16);
  for (const auto& key : keys) {
    EXPECT_EQ(a.owner(key), b.owner(key));
  }
}

TEST(ShardRingTest, OwnerIsAlwaysAMember) {
  const std::vector<unsigned> ids = {3, 7, 42};  // sparse, non-contiguous
  const ShardRing ring(ids, 16);
  const std::set<unsigned> member_set(ids.begin(), ids.end());
  for (const auto& key : make_keys(2048)) {
    EXPECT_TRUE(member_set.count(ring.owner(key))) << ring.owner(key);
  }
}

TEST(ShardRingTest, EmptyRingFallsBackToZero) {
  const ShardRing ring(std::vector<unsigned>{}, 16);
  for (const auto& key : make_keys(16)) {
    EXPECT_EQ(ring.owner(key), 0u);
  }
}

TEST(ShardRingTest, DistributionIsRoughlyBalanced) {
  // 16 points per member is a coarse ring, so the bounds are loose — the
  // gate is "no member is starved or dominant", not statistical perfection.
  // Everything is deterministic (hashed keys, hashed points), so a pass is
  // a permanent pass.
  const std::size_t kKeys = 20000;
  const unsigned kMembers = 4;
  const ShardRing ring({0, 1, 2, 3}, 16);
  std::map<unsigned, std::size_t> counts;
  for (const auto& key : make_keys(kKeys)) ++counts[ring.owner(key)];
  EXPECT_EQ(counts.size(), kMembers);
  for (const auto& [member, count] : counts) {
    EXPECT_GE(count, kKeys / (kMembers * 4)) << "member " << member << " starved";
    EXPECT_LE(count, kKeys / 2) << "member " << member << " dominant";
  }
}

TEST(ShardRingTest, MemberLeaveMovesOnlyItsOwnKeys) {
  const auto keys = make_keys(8192);
  const std::vector<unsigned> before_ids = {0, 1, 2, 3, 4};
  const unsigned departed = 2;
  std::vector<unsigned> after_ids;
  for (unsigned id : before_ids) {
    if (id != departed) after_ids.push_back(id);
  }
  const ShardRing before(before_ids, 16);
  const ShardRing after(after_ids, 16);
  std::size_t moved = 0;
  for (const auto& key : keys) {
    const unsigned owner_before = before.owner(key);
    const unsigned owner_after = after.owner(key);
    if (owner_before == departed) {
      // The departed member's keys must land somewhere that still exists.
      EXPECT_NE(owner_after, departed);
      ++moved;
    } else {
      // Every other key keeps its owner: this is the smooth-resharding
      // property — failover reassigns one node's share, not the cluster's.
      EXPECT_EQ(owner_after, owner_before);
    }
  }
  EXPECT_GT(moved, 0u);  // the departed member actually owned something
}

TEST(ShardRingTest, MemberJoinStealsOnlyForItself) {
  const auto keys = make_keys(8192);
  const ShardRing before({0, 1, 2}, 16);
  const unsigned joined = 3;
  const ShardRing after({0, 1, 2, 3}, 16);
  std::size_t stolen = 0;
  for (const auto& key : keys) {
    const unsigned owner_before = before.owner(key);
    const unsigned owner_after = after.owner(key);
    if (owner_after != owner_before) {
      // A key may only change owner by moving TO the new member.
      EXPECT_EQ(owner_after, joined);
      ++stolen;
    }
  }
  EXPECT_GT(stolen, 0u);  // the new member took a share
}

TEST(ShardRingTest, LeaveThenRejoinRestoresTheOriginalMap) {
  // Failover is symmetric: a peer flapping down and back up must restore
  // exactly the pre-failure routing, or a revived node would permanently
  // fragment the cluster-wide once-per-kernel cache.
  const auto keys = make_keys(4096);
  const ShardRing original({0, 1, 2}, 16);
  const ShardRing rejoined({0, 1, 2}, 16);
  for (const auto& key : keys) {
    EXPECT_EQ(original.owner(key), rejoined.owner(key));
  }
}

}  // namespace

// Model tests for the open-addressing tables (util/flat_table.hpp):
// FlatMap64 and InsertOnlyMap64 churned against std::unordered_map references,
// plus the guarantees the routing protocols lean on — stable value
// addresses across inserts and rehashes, deterministic iteration, and
// tombstone recycling after erase-heavy workloads.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/random.hpp"
#include "util/flat_table.hpp"

namespace rica::util {
namespace {

TEST(FlatMap64, BasicInsertFindErase) {
  FlatMap64<int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(7), m.end());

  auto [it, inserted] = m.try_emplace(7, 70);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(it->first, 7u);
  EXPECT_EQ(it->second, 70);
  EXPECT_FALSE(m.try_emplace(7, 71).second);  // no overwrite
  EXPECT_EQ(m.at(7), 70);

  m[9] = 90;  // operator[] default-constructs then assigns
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.erase(7), 1u);
  EXPECT_EQ(m.erase(7), 0u);
  EXPECT_EQ(m.find(7), m.end());
  EXPECT_EQ(m.at(9), 90);
  m.clear();
  EXPECT_TRUE(m.empty());
}

TEST(FlatMap64, ValueAddressesSurviveRehashes) {
  // The protocols hold `auto& e = entries_[k]` across later inserts; the
  // slab must never move a live value.
  FlatMap64<std::string> m;
  std::vector<const std::string*> addr;
  for (std::uint64_t k = 0; k < 500; ++k) {
    addr.push_back(&m.try_emplace(k, std::to_string(k)).first->second);
  }
  for (std::uint64_t k = 0; k < 500; ++k) {
    EXPECT_EQ(&m.at(k), addr[k]);
    EXPECT_EQ(*addr[k], std::to_string(k));
  }
}

TEST(FlatMap64, MoveOnlyAndNonDefaultConstructibleValues) {
  struct NoDefault {
    explicit NoDefault(int x) : v(x) {}
    NoDefault(const NoDefault&) = delete;
    NoDefault& operator=(const NoDefault&) = delete;
    int v;
  };
  FlatMap64<NoDefault> m;
  m.try_emplace(1, 10);
  m.try_emplace(2, 20);
  EXPECT_EQ(m.at(1).v, 10);
  EXPECT_EQ(m.at(2).v, 20);
}

TEST(FlatMap64, IterationIsInsertionOrdered) {
  FlatMap64<int> m;
  const std::uint64_t keys[] = {42, 7, 19, 3, 88};
  for (std::size_t i = 0; i < 5; ++i) {
    m.try_emplace(keys[i], static_cast<int>(i));
  }
  std::size_t pos = 0;
  for (const auto& [k, v] : m) {
    EXPECT_EQ(k, keys[pos]);
    EXPECT_EQ(v, static_cast<int>(pos));
    ++pos;
  }
  EXPECT_EQ(pos, 5u);
}

TEST(FlatMap64, RandomizedChurnMatchesUnorderedMapReference) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    sim::RandomStream rng(seed);
    FlatMap64<std::uint64_t> m;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    for (int op = 0; op < 30000; ++op) {
      // Small key space forces heavy insert/erase/reinsert collisions —
      // the tombstone and node-recycling paths.
      const auto key = static_cast<std::uint64_t>(rng.uniform_int(0, 300));
      const auto roll = rng.uniform_int(0, 99);
      if (roll < 50) {
        const auto val = static_cast<std::uint64_t>(op);
        EXPECT_EQ(m.try_emplace(key, val).second, ref.try_emplace(key, val).second);
      } else if (roll < 75) {
        EXPECT_EQ(m.erase(key), ref.erase(key));
      } else {
        const auto it = m.find(key);
        const auto rit = ref.find(key);
        ASSERT_EQ(it == m.end(), rit == ref.end());
        if (it != m.end()) {
          EXPECT_EQ(it->first, rit->first);
          EXPECT_EQ(it->second, rit->second);
        }
      }
      ASSERT_EQ(m.size(), ref.size());
    }
    // Full-content sweep both ways.
    std::size_t seen = 0;
    for (const auto& [k, v] : m) {
      const auto rit = ref.find(k);
      ASSERT_NE(rit, ref.end());
      EXPECT_EQ(v, rit->second);
      ++seen;
    }
    EXPECT_EQ(seen, ref.size());
    EXPECT_LE(m.load_factor(), 0.76);
  }
}

TEST(InsertOnlyMap64, RandomizedChurnMatchesFirstInsertWinsReference) {
  sim::RandomStream rng(99);
  InsertOnlyMap64 m;
  // try_emplace keeps the first value, like the table under test.
  std::unordered_map<std::uint64_t, std::uint32_t> ref;
  for (int op = 0; op < 20000; ++op) {
    const auto key = static_cast<std::uint64_t>(rng.uniform_int(0, 5000));
    const auto value = static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 20));
    EXPECT_EQ(m.insert(key, value), ref.try_emplace(key, value).second);
    const auto probe = static_cast<std::uint64_t>(rng.uniform_int(0, 5000));
    const auto rit = ref.find(probe);
    EXPECT_EQ(m.contains(probe), rit != ref.end());
    EXPECT_EQ(m.find(probe), rit == ref.end()
                                 ? std::nullopt
                                 : std::optional<std::uint32_t>{rit->second});
    ASSERT_EQ(m.size(), ref.size());
  }
  // Every stored value survived the rehashes unchanged.
  for (const auto& [k, v] : ref) EXPECT_EQ(m.find(k), v);
  EXPECT_LE(m.load_factor(), 0.76);
}

}  // namespace
}  // namespace rica::util

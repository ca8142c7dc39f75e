// Property/model tests for FlatMap/FlatSet/StringInterner
// (common/hash_index.h).
//
// The FlatMap is pinned by seeded randomized operation sequences replayed
// against std::unordered_map, with greedy minimization on failure. A
// degenerate hash functor forces long probe chains so backward-shift
// deletion is exercised on every wrap case.
#include "common/hash_index.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"

namespace lachesis {
namespace {

struct Op {
  enum Kind { kInsert, kErase, kFind, kEraseAbsent, kClear } kind;
  std::uint64_t key = 0;
  std::uint64_t value = 0;
};

std::string OpName(const Op& op) {
  switch (op.kind) {
    case Op::kInsert:
      return "Insert(" + std::to_string(op.key) + ", " +
             std::to_string(op.value) + ")";
    case Op::kErase: return "Erase(" + std::to_string(op.key) + ")";
    case Op::kFind: return "Find(" + std::to_string(op.key) + ")";
    case Op::kEraseAbsent: return "EraseAbsent(" + std::to_string(op.key) + ")";
    case Op::kClear: return "Clear()";
  }
  return "?";
}

// Degenerate hash: collapses keys onto 8 home slots so probe chains are
// long and deletions constantly shift across the wrap boundary.
struct AwfulHash {
  std::uint64_t operator()(const std::uint64_t& key) const { return key % 8; }
};

template <typename Hash>
std::optional<std::string> Replay(const std::vector<Op>& ops) {
  FlatMap<std::uint64_t, std::uint64_t, Hash> map;
  std::unordered_map<std::uint64_t, std::uint64_t> model;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const std::string at = "op " + std::to_string(i) + " " + OpName(op);
    switch (op.kind) {
      case Op::kInsert:
        map.Insert(op.key, op.value);
        model[op.key] = op.value;
        break;
      case Op::kErase: {
        const bool erased = map.Erase(op.key);
        const bool expected = model.erase(op.key) > 0;
        if (erased != expected) return at + ": erase result diverged";
        break;
      }
      case Op::kFind: {
        const std::uint64_t* found = map.Find(op.key);
        const auto it = model.find(op.key);
        if ((found != nullptr) != (it != model.end())) {
          return at + ": presence diverged";
        }
        if (found != nullptr && *found != it->second) {
          return at + ": value diverged (" + std::to_string(*found) + ")";
        }
        break;
      }
      case Op::kEraseAbsent: {
        // Probe a key well outside the generator's key universe.
        const std::uint64_t key = op.key + (1ULL << 40);
        if (map.Erase(key) != (model.erase(key) > 0)) {
          return at + ": absent erase diverged";
        }
        break;
      }
      case Op::kClear:
        map.Clear();
        model.clear();
        break;
    }
    if (map.size() != model.size()) {
      return at + ": size " + std::to_string(map.size()) +
             " != " + std::to_string(model.size());
    }
  }
  // Full table sweep both ways: every model entry is found, every table
  // entry is in the model.
  for (const auto& [key, value] : model) {
    const std::uint64_t* found = map.Find(key);
    if (found == nullptr || *found != value) return "final sweep: model miss";
  }
  std::size_t visited = 0;
  bool sweep_ok = true;
  map.ForEach([&](const std::uint64_t& key, const std::uint64_t& value) {
    ++visited;
    const auto it = model.find(key);
    if (it == model.end() || it->second != value) sweep_ok = false;
  });
  if (!sweep_ok || visited != model.size()) return "final sweep: table extra";
  return std::nullopt;
}

template <typename Hash>
std::vector<Op> Minimize(std::vector<Op> ops) {
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    for (std::size_t chunk = ops.size() / 2; chunk >= 1; chunk /= 2) {
      for (std::size_t start = 0; start + chunk <= ops.size();) {
        std::vector<Op> candidate = ops;
        candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(start),
                        candidate.begin() +
                            static_cast<std::ptrdiff_t>(start + chunk));
        if (Replay<Hash>(candidate).has_value()) {
          ops = std::move(candidate);
          shrunk = true;
        } else {
          start += chunk;
        }
      }
      if (chunk == 1) break;
    }
  }
  return ops;
}

template <typename Hash>
void RunModelSweep(std::uint64_t key_universe, int seeds) {
  for (std::uint64_t seed = 1; seed <= static_cast<std::uint64_t>(seeds);
       ++seed) {
    Rng rng(seed * 7919);
    std::vector<Op> ops;
    const int steps = 300 + static_cast<int>(rng.NextU64() % 700);
    for (int i = 0; i < steps; ++i) {
      const std::uint64_t roll = rng.NextU64() % 100;
      Op op;
      if (roll < 40) op.kind = Op::kInsert;
      else if (roll < 70) op.kind = Op::kErase;
      else if (roll < 90) op.kind = Op::kFind;
      else if (roll < 98) op.kind = Op::kEraseAbsent;
      else op.kind = Op::kClear;
      op.key = rng.NextU64() % key_universe;
      op.value = rng.NextU64();
      ops.push_back(op);
    }
    if (Replay<Hash>(ops).has_value()) {
      const std::vector<Op> minimal = Minimize<Hash>(ops);
      std::string dump;
      for (const Op& op : minimal) dump += "  " + OpName(op) + "\n";
      FAIL() << "seed " << seed << ": " << *Replay<Hash>(minimal)
             << "\nminimized to " << minimal.size() << " ops:\n" << dump;
    }
  }
}

TEST(FlatMapModelTest, RandomizedSequencesMatchReferenceModel) {
  RunModelSweep<PodHash<std::uint64_t>>(/*key_universe=*/512, /*seeds=*/25);
}

TEST(FlatMapModelTest, DegenerateHashStillMatchesModel) {
  // Every key collides onto 8 home slots: probe chains span the table and
  // backward-shift deletion constantly crosses the wrap boundary.
  RunModelSweep<AwfulHash>(/*key_universe=*/64, /*seeds=*/25);
}

TEST(FlatMapTest, FindOrInsertDefaultConstructsOnce) {
  FlatMap<std::uint32_t, int> map;
  int* slot = map.FindOrInsert(7);
  EXPECT_EQ(*slot, 0);
  *slot = 41;
  EXPECT_EQ(*map.FindOrInsert(7), 41) << "second lookup must not reset";
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMapTest, ClearKeepsCapacityAndReserveGrowsOnce) {
  FlatMap<std::uint64_t, std::uint64_t> map;
  map.Reserve(1000);
  const std::size_t cap = map.capacity();
  EXPECT_GE(cap * 3, 1000u * 4) << "reserve must satisfy the load factor";
  for (std::uint64_t i = 0; i < 1000; ++i) map.Insert(i, i);
  EXPECT_EQ(map.capacity(), cap) << "reserved table must not rehash";
  map.Clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.capacity(), cap) << "Clear must keep the table memory";
  for (std::uint64_t i = 0; i < 1000; ++i) map.Insert(i, i + 1);
  EXPECT_EQ(map.capacity(), cap);
}

TEST(FlatMapTest, IterationIsDeterministicForIdenticalOpSequences) {
  const auto build = [] {
    FlatMap<std::uint64_t, std::uint64_t> map;
    Rng rng(99);
    for (int i = 0; i < 500; ++i) {
      const std::uint64_t key = rng.NextU64() % 128;
      if (rng.NextU64() % 3 == 0) {
        map.Erase(key);
      } else {
        map.Insert(key, rng.NextU64());
      }
    }
    return map;
  };
  std::vector<std::pair<std::uint64_t, std::uint64_t>> a, b;
  build().ForEach([&](auto k, auto v) { a.push_back({k, v}); });
  build().ForEach([&](auto k, auto v) { b.push_back({k, v}); });
  EXPECT_EQ(a, b);
}

TEST(FlatSetTest, InsertReportsNovelty) {
  FlatSet<std::uint32_t> set;
  EXPECT_TRUE(set.Insert(5));
  EXPECT_FALSE(set.Insert(5));
  EXPECT_TRUE(set.Contains(5));
  EXPECT_FALSE(set.Contains(6));
  EXPECT_TRUE(set.Erase(5));
  EXPECT_FALSE(set.Erase(5));
  EXPECT_TRUE(set.empty());
}

// --- StringInterner ----------------------------------------------------------

TEST(StringInternerTest, EmptyStringIsIdZeroAndIdsAreDense) {
  StringInterner interner;
  EXPECT_EQ(interner.Intern(""), 0u);
  EXPECT_EQ(interner.Intern("a"), 1u);
  EXPECT_EQ(interner.Intern("b"), 2u);
  EXPECT_EQ(interner.Intern("a"), 1u) << "re-intern must return the same id";
  EXPECT_EQ(interner.size(), 3u);
  EXPECT_EQ(interner.View(1), "a");
  EXPECT_EQ(interner.View(999), "") << "unknown ids resolve to empty";
}

TEST(StringInternerTest, LookupNeverInserts) {
  StringInterner interner;
  EXPECT_EQ(interner.Lookup("never-seen"), 0u);
  EXPECT_EQ(interner.size(), 1u);
  const std::uint32_t id = interner.Intern("seen");
  EXPECT_EQ(interner.Lookup("seen"), id);
}

TEST(StringInternerTest, ViewsStayStableAcrossGrowth) {
  StringInterner interner;
  std::vector<std::pair<std::uint32_t, std::string_view>> early;
  for (int i = 0; i < 50; ++i) {
    const std::string s = "t:" + std::to_string(i) + "/" + std::to_string(i);
    const std::uint32_t id = interner.Intern(s);
    early.push_back({id, interner.View(id)});
  }
  // Force many index rehashes and new byte blocks.
  for (int i = 0; i < 20000; ++i) {
    interner.Intern("grow-" + std::to_string(i));
  }
  for (const auto& [id, view] : early) {
    EXPECT_EQ(interner.View(id).data(), view.data())
        << "interned bytes moved for id " << id;
    EXPECT_EQ(interner.View(id), view);
  }
}

// Strings are copied into 64 KiB blocks; one longer than a block gets a
// block of its own. Sizes around the block size land on every boundary
// case, and no copy may overlap another.
TEST(StringInternerTest, StringsAroundTheBlockSizeKeepTheirBytes) {
  StringInterner interner;
  const std::size_t sizes[] = {1, 100, 65535, 65536, 65537,
                               3, 65534, 2, 200000, 7};
  std::vector<std::pair<std::uint32_t, std::string>> interned;
  char fill = 'a';
  for (const std::size_t size : sizes) {
    std::string s(size, fill++);
    interned.push_back({interner.Intern(s), std::move(s)});
  }
  for (const auto& [id, s] : interned) {
    EXPECT_EQ(interner.View(id), s) << "the copy of a " << s.size()
                                    << "-byte string was overwritten";
    EXPECT_EQ(interner.Lookup(s), id);
  }
}

TEST(StringInternerTest, DistinctStringsNeverShareIds) {
  StringInterner interner;
  std::unordered_map<std::uint32_t, std::string> seen;
  Rng rng(17);
  for (int i = 0; i < 5000; ++i) {
    const std::string s = "k" + std::to_string(rng.NextU64() % 2000);
    const std::uint32_t id = interner.Intern(s);
    const auto it = seen.find(id);
    if (it != seen.end()) {
      ASSERT_EQ(it->second, s) << "id " << id << " aliased two strings";
    } else {
      seen[id] = s;
    }
    ASSERT_EQ(interner.View(id), s);
  }
}

}  // namespace
}  // namespace lachesis

#include "common/node_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"

namespace scoop {
namespace {

using Form = NodeSet::Form;

std::vector<NodeId> Ids(std::initializer_list<int> ids) {
  std::vector<NodeId> out;
  for (int id : ids) out.push_back(static_cast<NodeId>(id));
  return out;
}

/// The adversarial set shapes the codec must handle, over [0, universe).
std::vector<std::vector<NodeId>> ShapeCorpus(int universe) {
  std::vector<std::vector<NodeId>> shapes;
  shapes.push_back({});                                     // Empty.
  shapes.push_back({0});                                    // Singleton low.
  shapes.push_back({static_cast<NodeId>(universe - 1)});    // Singleton high.
  std::vector<NodeId> all, alternating, run, two_runs, spread;
  for (int id = 0; id < universe; ++id) {
    all.push_back(static_cast<NodeId>(id));
    if (id % 2 == 0) alternating.push_back(static_cast<NodeId>(id));
  }
  for (int id = universe / 4; id < universe / 2; ++id) {
    run.push_back(static_cast<NodeId>(id));  // One long run.
  }
  for (int id = 0; id < universe / 8; ++id) {
    two_runs.push_back(static_cast<NodeId>(id));
    two_runs.push_back(static_cast<NodeId>(universe - 1 - id));
  }
  std::sort(two_runs.begin(), two_runs.end());
  for (int id = 0; id < universe; id += 7) {
    spread.push_back(static_cast<NodeId>(id));  // Scattered, constant gaps.
  }
  shapes.push_back(all);
  shapes.push_back(alternating);
  shapes.push_back(run);
  shapes.push_back(two_runs);
  shapes.push_back(spread);
  return shapes;
}

TEST(NodeSetTest, SetTestCountClear) {
  NodeSet set(1000);
  EXPECT_TRUE(set.Empty());
  set.Set(999);
  set.Set(3);
  set.Set(3);  // Duplicates collapse.
  EXPECT_EQ(set.Count(), 2);
  EXPECT_TRUE(set.Test(3));
  EXPECT_TRUE(set.Test(999));
  EXPECT_FALSE(set.Test(4));
  EXPECT_FALSE(set.Test(kInvalidNodeId));
  EXPECT_EQ(set.ToVector(), Ids({3, 999}));
  set.Clear(3);
  EXPECT_FALSE(set.Test(3));
  EXPECT_EQ(set.Count(), 1);
}

TEST(NodeSetTest, AnyOfVisitsAscendingAndStopsEarly) {
  NodeSet set = NodeSet::Of(Ids({40, 7, 200}), 1000);
  std::vector<NodeId> visited;
  bool hit = set.AnyOf([&](NodeId id) {
    visited.push_back(id);
    return id == 40;
  });
  EXPECT_TRUE(hit);
  EXPECT_EQ(visited, Ids({7, 40}));
}

TEST(NodeSetTest, LegacyUniverseEncodesAsFixedBitmapBytes) {
  // The backward-compatibility pin: at N <= 128 the encoding must be the
  // paper's fixed 16-byte bitmap -- bit (id % 8) of byte (id / 8), no form
  // tag -- so packet sizes (and airtime) match the old NodeBitmap exactly.
  for (int universe : {1, 2, 50, 128}) {
    for (const auto& ids : ShapeCorpus(universe)) {
      NodeSet set = NodeSet::Of(ids, universe);
      EXPECT_EQ(set.WireSize(), NodeSet::kLegacyWireSize);
      std::vector<uint8_t> encoded = set.Encode();
      ASSERT_EQ(encoded.size(), 16u);
      std::vector<uint8_t> expected(16, 0);
      for (NodeId id : ids) expected[id / 8] |= static_cast<uint8_t>(1u << (id % 8));
      EXPECT_EQ(encoded, expected) << "universe=" << universe;
      auto decoded = NodeSet::Decode(encoded.data(), encoded.size(), universe);
      ASSERT_TRUE(decoded.has_value());
      EXPECT_EQ(decoded->ToVector(), set.ToVector());
    }
  }
}

TEST(NodeSetTest, DefaultConstructedMatchesLegacyEmptyBitmap) {
  NodeSet set;
  EXPECT_EQ(set.universe(), NodeSet::kLegacyUniverse);
  EXPECT_EQ(set.Encode(), std::vector<uint8_t>(16, 0));
}

TEST(NodeSetTest, ShapeCorpusRoundTripsInEveryForm) {
  for (int universe : {129, 500, 1024, 65534}) {
    for (const auto& ids : ShapeCorpus(universe)) {
      NodeSet set = NodeSet::Of(ids, universe);
      // The picked (smallest) form round-trips...
      std::vector<uint8_t> encoded = set.Encode();
      EXPECT_EQ(static_cast<int>(encoded.size()), set.WireSize());
      auto decoded = NodeSet::Decode(encoded.data(), encoded.size(), universe);
      ASSERT_TRUE(decoded.has_value()) << "universe=" << universe;
      EXPECT_TRUE(*decoded == set);
      // ...and so does every form individually (cross-form equality).
      for (Form form : {Form::kDense, Form::kDeltaList, Form::kRuns}) {
        std::vector<uint8_t> as_form;
        set.EncodeAs(form, &as_form);
        EXPECT_EQ(static_cast<int>(as_form.size()), set.EncodedSizeAs(form));
        auto from_form = NodeSet::Decode(as_form.data(), as_form.size(), universe);
        ASSERT_TRUE(from_form.has_value());
        EXPECT_TRUE(*from_form == set)
            << "universe=" << universe << " form=" << static_cast<int>(form);
      }
    }
  }
}

TEST(NodeSetTest, RandomSetsRoundTripAndFormsAgree) {
  Rng rng(0xC0DEC, 0);
  for (int trial = 0; trial < 200; ++trial) {
    int universe = 129 + static_cast<int>(rng.NextU64() % 4000);
    double density = rng.UniformDouble() * rng.UniformDouble();  // Skew sparse.
    NodeSet set(universe);
    for (int id = 0; id < universe; ++id) {
      if (rng.UniformDouble() < density) set.Set(static_cast<NodeId>(id));
    }
    std::vector<uint8_t> encoded = set.Encode();
    EXPECT_EQ(static_cast<int>(encoded.size()), set.WireSize());
    auto decoded = NodeSet::Decode(encoded.data(), encoded.size(), universe);
    ASSERT_TRUE(decoded.has_value());
    ASSERT_TRUE(*decoded == set);
    // The picked form is never beaten by another form.
    for (Form form : {Form::kDense, Form::kDeltaList, Form::kRuns}) {
      EXPECT_LE(set.WireSize(), set.EncodedSizeAs(form));
    }
  }
}

TEST(NodeSetTest, PicksRunsForContiguousOwnersAndDenseForAlternating) {
  // Scoop's common case: a contiguous owner range compresses to a handful
  // of bytes instead of the 128-byte bitmap a 1024-node universe would need.
  NodeSet owners(1024);
  for (int id = 300; id < 600; ++id) owners.Set(static_cast<NodeId>(id));
  EXPECT_EQ(owners.WireForm(), Form::kRuns);
  EXPECT_LE(owners.WireSize(), 8);

  NodeSet alternating(1024);
  for (int id = 0; id < 1024; id += 2) alternating.Set(static_cast<NodeId>(id));
  EXPECT_EQ(alternating.WireForm(), Form::kDense);

  NodeSet scattered(4096);
  for (int id = 0; id < 4096; id += 97) scattered.Set(static_cast<NodeId>(id));
  EXPECT_EQ(scattered.WireForm(), Form::kDeltaList);
}

TEST(NodeSetTest, DecodeRejectsMalformedInput) {
  const int kUniverse = 1024;
  NodeSet set = NodeSet::Of(Ids({5, 6, 7, 500}), kUniverse);
  std::vector<uint8_t> good = set.Encode();

  // Truncated and padded payloads.
  auto truncated = NodeSet::Decode(good.data(), good.size() - 1, kUniverse);
  EXPECT_FALSE(truncated.has_value());
  std::vector<uint8_t> padded = good;
  padded.push_back(0);
  EXPECT_FALSE(NodeSet::Decode(padded.data(), padded.size(), kUniverse).has_value());

  // Unknown form tag.
  std::vector<uint8_t> bad_tag = good;
  bad_tag[0] = 9;
  EXPECT_FALSE(NodeSet::Decode(bad_tag.data(), bad_tag.size(), kUniverse).has_value());

  // Ids past the universe: an all-nodes set of a larger universe.
  NodeSet bigger(2048);
  for (int id = 2000; id < 2048; ++id) bigger.Set(static_cast<NodeId>(id));
  for (Form form : {Form::kDense, Form::kDeltaList, Form::kRuns}) {
    std::vector<uint8_t> overflow;
    bigger.EncodeAs(form, &overflow);
    EXPECT_FALSE(NodeSet::Decode(overflow.data(), overflow.size(), kUniverse).has_value());
  }

  // A dense-form chunk delta crafted to wrap a 32-bit accumulator back to
  // a small chunk index: chunk0 = 1, then delta = 0xFFFFFFFF. The decoder
  // must reject it (the wrapped id would alias into the universe).
  std::vector<uint8_t> wrap_chunk = {static_cast<uint8_t>(Form::kDense),
                                     2,                             // nchunks
                                     1,                             // chunk 1
                                     1, 0, 0, 0, 0, 0, 0, 0,        // bits
                                     0xFF, 0xFF, 0xFF, 0xFF, 0x0F,  // delta 2^32-1
                                     1, 0, 0, 0, 0, 0, 0, 0};       // bits
  EXPECT_FALSE(NodeSet::Decode(wrap_chunk.data(), wrap_chunk.size(), kUniverse).has_value());

  // A varint whose 5th byte carries bits past bit 31 (encodes 2^32): it
  // would wrap to 0 if accepted, so the decoder must reject it.
  std::vector<uint8_t> overflow_count = {
      static_cast<uint8_t>(Form::kDeltaList), 0x80, 0x80, 0x80, 0x80, 0x10};
  EXPECT_FALSE(NodeSet::Decode(overflow_count.data(), overflow_count.size(), kUniverse)
                   .has_value());

  // Empty input and a legacy payload of the wrong size.
  EXPECT_FALSE(NodeSet::Decode(good.data(), 0, kUniverse).has_value());
  std::vector<uint8_t> short_legacy(15, 0);
  EXPECT_FALSE(NodeSet::Decode(short_legacy.data(), short_legacy.size(), 128).has_value());
}

TEST(NodeSetTest, DecodeSurvivesSeededMutations) {
  // Deterministic mutation fuzzing of the decoder: byte flips,
  // truncations and extensions of the round-trip corpus (every shape, in
  // every form, at legacy and tagged universes). Each mutant must either
  // be rejected, or decode to a set whose re-encoding decodes back to the
  // same set. Run it under the asan preset to catch out-of-bounds reads.
  struct Input {
    int universe;
    std::vector<uint8_t> bytes;
  };
  std::vector<Input> corpus;
  for (int universe : {64, 128, 129, 500, 1024, 4096}) {
    for (const auto& ids : ShapeCorpus(universe)) {
      NodeSet set = NodeSet::Of(ids, universe);
      corpus.push_back({universe, set.Encode()});
      if (universe <= NodeSet::kLegacyUniverse) continue;
      for (Form form : {Form::kDense, Form::kDeltaList, Form::kRuns}) {
        std::vector<uint8_t> bytes;
        set.EncodeAs(form, &bytes);
        corpus.push_back({universe, std::move(bytes)});
      }
    }
  }

  Rng rng(0xF022, 0);
  auto below = [&rng](size_t n) { return static_cast<size_t>(rng.NextU64() % n); };
  constexpr int kMutants = 120000;
  int accepted = 0;
  for (int i = 0; i < kMutants; ++i) {
    const Input& seed = corpus[below(corpus.size())];
    std::vector<uint8_t> bytes = seed.bytes;
    for (size_t n = 1 + below(3); n > 0; --n) {
      switch (below(4)) {
        case 0:  // Flip one bit.
          if (!bytes.empty()) bytes[below(bytes.size())] ^= uint8_t{1} << below(8);
          break;
        case 1:  // Overwrite one byte.
          if (!bytes.empty()) {
            bytes[below(bytes.size())] = static_cast<uint8_t>(rng.NextU32());
          }
          break;
        case 2:  // Truncate.
          bytes.resize(below(bytes.size() + 1));
          break;
        default:  // Extend with random bytes.
          for (size_t k = 1 + below(8); k > 0; --k) {
            bytes.push_back(static_cast<uint8_t>(rng.NextU32()));
          }
          break;
      }
    }
    auto decoded = NodeSet::Decode(bytes.data(), bytes.size(), seed.universe);
    if (!decoded.has_value()) continue;
    ++accepted;
    ASSERT_EQ(decoded->universe(), seed.universe) << "mutant " << i;
    std::vector<uint8_t> again = decoded->Encode();
    auto redecoded = NodeSet::Decode(again.data(), again.size(), seed.universe);
    ASSERT_TRUE(redecoded.has_value()) << "mutant " << i;
    ASSERT_TRUE(*redecoded == *decoded) << "mutant " << i;
  }
  // Both outcomes occur, so the pass condition is not vacuous.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kMutants);
}

TEST(NodeSetTest, CoarsenedToFitCoversOriginalWithinBudget) {
  Rng rng(0xF17, 0);
  for (int trial = 0; trial < 100; ++trial) {
    int universe = 256 + static_cast<int>(rng.NextU64() % 4000);
    NodeSet set(universe);
    for (int id = 1; id < universe; ++id) {
      if (rng.UniformDouble() < 0.2) set.Set(static_cast<NodeId>(id));
    }
    int budget = 8 + static_cast<int>(rng.NextU64() % 40);
    NodeSet coarse = set.CoarsenedToFit(budget, /*exclude=*/0);
    EXPECT_LE(coarse.WireSize(), budget);
    // A superset of the original that never admits the excluded id.
    EXPECT_FALSE(coarse.Test(0));
    bool missing = set.AnyOf([&](NodeId id) { return !coarse.Test(id); });
    EXPECT_FALSE(missing);
  }
}

TEST(NodeSetTest, CoarsenedToFitTinyBudgetIsBestEffortNotFatal) {
  // A budget below what even one run needs: the result is the single
  // covering run (best effort, caller re-checks), never a crash.
  NodeSet set = NodeSet::Of(Ids({200, 900, 3000}), 4096);
  NodeSet coarse = set.CoarsenedToFit(/*max_bytes=*/3);
  EXPECT_EQ(coarse.Count(), 3000 - 200 + 1);
  bool missing = set.AnyOf([&](NodeId id) { return !coarse.Test(id); });
  EXPECT_FALSE(missing);
}

TEST(NodeSetTest, CoarsenedToFitReturnsFittingSetUnchanged) {
  NodeSet set = NodeSet::Of(Ids({10, 11, 12}), 1024);
  NodeSet coarse = set.CoarsenedToFit(64);
  EXPECT_TRUE(coarse == set);
}

}  // namespace
}  // namespace scoop

// Rules of the base's query ledger: dense ids, re-issue wire ids crediting
// their original, each requested responder counted once, and nothing
// credited after close.
#include "core/query_ledger.h"

#include <gtest/gtest.h>

#include <vector>

namespace scoop::core {
namespace {

constexpr int kNodes = 8;

DynamicNodeBitmap Requested(const std::vector<NodeId>& ids) {
  DynamicNodeBitmap set(kNodes);
  for (NodeId id : ids) set.Set(id);
  return set;
}

TEST(QueryLedgerTest, IdsAreDenseAcrossQueriesAliasesAndImmediateOutcomes) {
  QueryLedger ledger(kNodes);
  EXPECT_EQ(ledger.Open(Query{}, Requested({1}), 0), 1u);
  EXPECT_EQ(ledger.Alias(1), 2u);
  EXPECT_EQ(ledger.Record(QueryOutcome{}), 3u);
  EXPECT_EQ(ledger.Open(Query{}, Requested({2}), 0), 4u);
  EXPECT_EQ(ledger.open(1)->reissues, 1);
  EXPECT_EQ(ledger.open(3)->outcome.query_id, 3u);
  EXPECT_FALSE(ledger.open(3)->flooded);
  EXPECT_TRUE(ledger.open(4)->flooded);
}

TEST(QueryLedgerTest, ReissueWireIdCreditsItsOriginal) {
  QueryLedger ledger(kNodes);
  uint32_t id = ledger.Open(Query{}, Requested({2, 3}), 0);
  uint32_t wire = ledger.Alias(id);
  ASSERT_NE(wire, id);
  EXPECT_EQ(ledger.open(wire), nullptr);  // An alias is not a query.

  bool first = false;
  QueryLedger::Entry* entry = ledger.Credit(wire, 3, &first);
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(first);
  EXPECT_EQ(entry, ledger.open(id));
  EXPECT_EQ(entry->outcome.query_id, id);
  EXPECT_EQ(entry->outcome.responders, 1);
  EXPECT_TRUE(entry->responded.Test(3));

  // A second alias of the same query credits the same entry.
  uint32_t wire2 = ledger.Alias(id);
  EXPECT_EQ(ledger.Credit(wire2, 2, &first), ledger.open(id));
  EXPECT_EQ(ledger.open(id)->outcome.responders, 2);
  EXPECT_EQ(ledger.open(id)->reissues, 2);

  const QueryOutcome& outcome = ledger.Close(id, Seconds(5));
  EXPECT_EQ(outcome.query_id, id);
  EXPECT_TRUE(outcome.complete);
  EXPECT_EQ(ledger.outcome(wire), nullptr);
  EXPECT_EQ(ledger.outcome(wire2), nullptr);
}

TEST(QueryLedgerTest, ResponderIsCountedOnce) {
  QueryLedger ledger(kNodes);
  uint32_t id = ledger.Open(Query{}, Requested({2, 3}), 0);
  uint32_t wire = ledger.Alias(id);
  bool first = false;
  ASSERT_NE(ledger.Credit(id, 2, &first), nullptr);
  EXPECT_TRUE(first);
  // A second chunk, and the same node answering the re-issue, still count
  // one responder (their tuples are the caller's to keep).
  ASSERT_NE(ledger.Credit(id, 2, &first), nullptr);
  EXPECT_FALSE(first);
  ASSERT_NE(ledger.Credit(wire, 2, &first), nullptr);
  EXPECT_FALSE(first);
  EXPECT_EQ(ledger.open(id)->outcome.responders, 1);
  EXPECT_FALSE(ledger.Close(id, 0).complete);
}

TEST(QueryLedgerTest, ReplyFromUnrequestedResponderIsDropped) {
  QueryLedger ledger(kNodes);
  // Node 4 is in the coarsened wire set [2, 6] but was never requested.
  uint32_t id = ledger.Open(Query{}, Requested({2, 6}), 0);
  bool first = false;
  EXPECT_EQ(ledger.Credit(id, 4, &first), nullptr);
  EXPECT_EQ(ledger.Credit(id, 200, &first), nullptr);  // Past num_nodes.
  EXPECT_EQ(ledger.open(id)->outcome.responders, 0);
  EXPECT_FALSE(ledger.open(id)->responded.Test(4));
  EXPECT_EQ(ledger.open(id)->outcome.targets, 2);
}

TEST(QueryLedgerTest, RepliesAfterCloseAreDropped) {
  QueryLedger ledger(kNodes);
  uint32_t id = ledger.Open(Query{}, Requested({2, 3}), 0);
  uint32_t wire = ledger.Alias(id);
  ledger.Close(id, Seconds(24));
  bool first = false;
  EXPECT_EQ(ledger.Credit(id, 2, &first), nullptr);
  EXPECT_EQ(ledger.Credit(wire, 3, &first), nullptr);
  EXPECT_EQ(ledger.open(id), nullptr);
  const QueryOutcome* outcome = ledger.outcome(id);
  ASSERT_NE(outcome, nullptr);
  EXPECT_EQ(outcome->responders, 0);
  EXPECT_FALSE(outcome->complete);
  // Unknown ids are dropped too.
  EXPECT_EQ(ledger.Credit(0, 2, &first), nullptr);
  EXPECT_EQ(ledger.Credit(99, 2, &first), nullptr);
}

TEST(QueryLedgerTest, OutcomeIsNullUntilClose) {
  QueryLedger ledger(kNodes);
  uint32_t id = ledger.Open(Query{}, Requested({1}), Seconds(3));
  uint32_t immediate = ledger.Record(QueryOutcome{});
  EXPECT_EQ(ledger.outcome(id), nullptr);
  EXPECT_EQ(ledger.outcome(immediate), nullptr);
  EXPECT_EQ(ledger.outcome(0), nullptr);
  EXPECT_EQ(ledger.outcome(42), nullptr);

  bool first = false;
  ASSERT_NE(ledger.Credit(id, 1, &first), nullptr);
  EXPECT_EQ(ledger.outcome(id), nullptr);  // Complete is not closed.
  ledger.Close(id, Seconds(4));
  const QueryOutcome* outcome = ledger.outcome(id);
  ASSERT_NE(outcome, nullptr);
  EXPECT_TRUE(outcome->closed);
  EXPECT_TRUE(outcome->complete);
  EXPECT_EQ(outcome->closed_at, Seconds(4));
  EXPECT_EQ(ledger.open(immediate)->issued_at, 0);

  // An immediate outcome has no targets, so it closes complete.
  ledger.Close(immediate, Seconds(5));
  ASSERT_NE(ledger.outcome(immediate), nullptr);
  EXPECT_TRUE(ledger.outcome(immediate)->complete);
}

}  // namespace
}  // namespace scoop::core

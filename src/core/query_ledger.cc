#include "core/query_ledger.h"

#include <utility>

#include "common/check.h"

namespace scoop::core {

QueryLedger::Entry& QueryLedger::Add() {
  Entry& entry = entries_.emplace_back();
  entry.credits = entry.outcome.query_id = static_cast<uint32_t>(entries_.size());
  return entry;
}

uint32_t QueryLedger::Open(const Query& query, DynamicNodeBitmap requested, SimTime now) {
  Entry& entry = Add();
  entry.flooded = true;
  entry.issued_at = now;
  entry.outcome.query = query;
  entry.outcome.targets = requested.Count();
  entry.requested = std::move(requested);
  entry.responded = DynamicNodeBitmap(num_nodes_);
  return entry.credits;
}

uint32_t QueryLedger::Record(QueryOutcome outcome) {
  Entry& entry = Add();
  outcome.query_id = entry.credits;
  entry.outcome = std::move(outcome);
  return entry.credits;
}

uint32_t QueryLedger::Alias(uint32_t id) {
  Entry* original = open(id);
  SCOOP_CHECK(original != nullptr);
  ++original->reissues;
  Entry& wire = Add();
  wire.credits = id;
  return wire.outcome.query_id;
}

QueryLedger::Entry* QueryLedger::open(uint32_t id) {
  if (id == 0 || id > entries_.size()) return nullptr;
  Entry& entry = entries_[id - 1];
  return entry.credits == id && !entry.outcome.closed ? &entry : nullptr;
}

QueryLedger::Entry* QueryLedger::Credit(uint32_t wire_id, NodeId responder, bool* first) {
  if (wire_id == 0 || wire_id > entries_.size()) return nullptr;
  Entry* entry = open(entries_[wire_id - 1].credits);
  // Test() past num_nodes is false, which also bounds `responder`.
  if (entry == nullptr || !entry->requested.Test(responder)) return nullptr;
  *first = !entry->responded.Test(responder);
  if (*first) {
    entry->responded.Set(responder);
    ++entry->outcome.responders;
  }
  return entry;
}

const QueryOutcome& QueryLedger::Close(uint32_t id, SimTime now) {
  Entry* entry = open(id);
  SCOOP_CHECK(entry != nullptr);
  QueryOutcome& outcome = entry->outcome;
  outcome.closed = true;
  outcome.complete = outcome.responders >= outcome.targets;
  outcome.closed_at = now;
  return outcome;
}

const QueryOutcome* QueryLedger::outcome(uint32_t id) const {
  if (id == 0 || id > entries_.size()) return nullptr;
  const Entry& entry = entries_[id - 1];
  return entry.credits == id && entry.outcome.closed ? &entry.outcome : nullptr;
}

}  // namespace scoop::core

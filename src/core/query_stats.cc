#include "core/query_stats.h"

namespace scoop::core {

namespace {

/// Sliding window over which rates and value popularity are computed.
constexpr SimTime kWindow = Minutes(10);

}  // namespace

void QueryStats::Prune(SimTime now) const {
  SimTime cutoff = now - kWindow;
  while (!recent_.empty() && recent_.front().first < cutoff) {
    recent_.pop_front();
  }
}

void QueryStats::RecordQuery(const std::vector<ValueRange>& ranges, SimTime now) {
  Prune(now);
  recent_.emplace_back(now, ranges);
  ++total_;
}

double QueryStats::QueryRate(SimTime now) const {
  Prune(now);
  if (recent_.empty()) return 0.0;
  // Early in a run the window has not filled yet; dividing by the full
  // window would under-estimate the rate, so use the observed span.
  SimTime span = std::min<SimTime>(kWindow, now - recent_.front().first);
  if (span <= 0) span = kSecond;
  return static_cast<double>(recent_.size()) / ToSeconds(span);
}

double QueryStats::ProbQueries(Value v, SimTime now) const {
  Prune(now);
  if (recent_.empty()) return 0.0;
  int hits = 0;
  for (const auto& [time, ranges] : recent_) {
    if (ranges.empty()) {
      ++hits;  // Whole-domain query.
      continue;
    }
    for (const ValueRange& r : ranges) {
      if (r.Contains(v)) {
        ++hits;
        break;
      }
    }
  }
  return static_cast<double>(hits) / static_cast<double>(recent_.size());
}

int QueryStats::WindowCount(SimTime now) const {
  Prune(now);
  return static_cast<int>(recent_.size());
}

}  // namespace scoop::core

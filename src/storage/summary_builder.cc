#include "storage/summary_builder.h"

#include "storage/histogram.h"

namespace scoop::storage {

namespace {

/// Histogram bins (paper: 10).
constexpr int kNumBins = 10;
/// Best-connected neighbors reported (paper: 12).
constexpr int kMaxNeighbors = 12;

}  // namespace

SummaryPayload BuildSummary(AttrId attr, const RingBuffer<Reading>& recent_readings,
                            uint16_t sample_count, const net::NeighborTable& neighbors,
                            IndexId last_complete_index) {
  SummaryPayload summary;
  summary.attr = attr;
  summary.sample_count = sample_count;
  summary.last_index_id = last_complete_index;

  std::vector<Value> values;
  values.reserve(recent_readings.size());
  int64_t sum = 0;
  recent_readings.ForEach([&](const Reading& r) {
    values.push_back(r.value);
    sum += r.value;
  });

  if (!values.empty()) {
    ValueHistogram hist = ValueHistogram::Build(values, kNumBins);
    summary.vmin = hist.vmin();
    summary.vmax = hist.vmax();
    summary.sum = sum;
    summary.bins = hist.WireBins();
  }

  summary.neighbors = neighbors.BestNeighbors(kMaxNeighbors);
  return summary;
}

}  // namespace scoop::storage

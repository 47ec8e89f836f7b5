#include "workload/data_source.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace scoop::workload {

const char* DataSourceKindName(DataSourceKind kind) {
  switch (kind) {
    case DataSourceKind::kReal:
      return "real";
    case DataSourceKind::kUnique:
      return "unique";
    case DataSourceKind::kEqual:
      return "equal";
    case DataSourceKind::kRandom:
      return "random";
    case DataSourceKind::kGaussian:
      return "gaussian";
  }
  return "?";
}

namespace {

/// One ephemeral generator per (base key, node, time): stateless between
/// calls, so Next() is const-correct in spirit, thread-safe, and returns
/// the same value for the same arguments under any shard interleaving.
Rng KeyedRng(uint64_t base, NodeId node, SimTime now) {
  return Rng(MixSeed(MixSeed(base, node), static_cast<uint64_t>(now)), /*stream=*/node);
}

/// Pure function of the node id: needs no draws at all.
class UniqueSource final : public DataSource {
 public:
  explicit UniqueSource(int num_nodes) : num_nodes_(num_nodes) {}
  Value Next(NodeId node, SimTime now) override {
    (void)now;
    return static_cast<Value>(node);
  }
  ValueRange domain() const override { return ValueRange{0, num_nodes_ - 1}; }

 private:
  Value num_nodes_;
};

class EqualSource final : public DataSource {
 public:
  explicit EqualSource(const DataSourceOptions& options) : options_(options) {}
  Value Next(NodeId node, SimTime now) override {
    (void)node;
    (void)now;
    return options_.equal_value;
  }
  ValueRange domain() const override {
    return ValueRange{options_.domain_lo, options_.domain_hi};
  }

 private:
  DataSourceOptions options_;
};

class RandomSource final : public DataSource {
 public:
  RandomSource(const DataSourceOptions& options, uint64_t seed)
      : options_(options), key_(MixSeed(seed, 0x5EED)) {}
  Value Next(NodeId node, SimTime now) override {
    Rng rng = KeyedRng(key_, node, now);
    return static_cast<Value>(rng.UniformInt(options_.domain_lo, options_.domain_hi));
  }
  ValueRange domain() const override {
    return ValueRange{options_.domain_lo, options_.domain_hi};
  }

 private:
  DataSourceOptions options_;
  uint64_t key_;
};

class GaussianSource final : public DataSource {
 public:
  GaussianSource(const DataSourceOptions& options, int num_nodes, uint64_t seed)
      : options_(options), key_(MixSeed(seed, 0x6A05)) {
    // Each sensor i picks mean mu_i from the domain for the whole
    // experiment (§6: uniform; skew != 1 warps the draw toward one end).
    Rng rng(MixSeed(seed, 0x6A05), /*stream=*/4);
    means_.reserve(static_cast<size_t>(num_nodes));
    for (int i = 0; i < num_nodes; ++i) {
      if (options_.gaussian_mean_skew == 1.0) {
        means_.push_back(static_cast<double>(
            rng.UniformInt(options_.domain_lo, options_.domain_hi)));
      } else {
        double u = std::pow(rng.UniformDouble(), options_.gaussian_mean_skew);
        // Subtract in double: the domain can span more than INT32_MAX.
        double span = static_cast<double>(options_.domain_hi) -
                      static_cast<double>(options_.domain_lo);
        means_.push_back(
            std::round(static_cast<double>(options_.domain_lo) + u * span));
      }
    }
    stddev_ = std::sqrt(options_.gaussian_variance);
  }

  Value Next(NodeId node, SimTime now) override {
    SCOOP_CHECK_LT(static_cast<size_t>(node), means_.size());
    Rng rng = KeyedRng(key_, node, now);
    double v = rng.Gaussian(means_[node], stddev_);
    return std::clamp(static_cast<Value>(std::lround(v)), options_.domain_lo,
                      options_.domain_hi);
  }
  ValueRange domain() const override {
    return ValueRange{options_.domain_lo, options_.domain_hi};
  }

 private:
  DataSourceOptions options_;
  uint64_t key_;
  std::vector<double> means_;
  double stddev_ = 1.0;
};

/// Synthetic Intel-Lab-style light trace (see header). The value a node
/// reads is
///   clamp( shared(t) * brightness_i + offset_i + noise )
/// where shared(t) is a building-wide lighting signal (slow sinusoid plus
/// lights-on/off steps), and brightness_i/offset_i are smooth functions of
/// node position (a few Gaussian "window" bumps), so nearby nodes produce
/// correlated, temporally stable readings. Only the per-reading noise is
/// keyed; the bumps are drawn once at construction.
class RealTraceSource final : public DataSource {
 public:
  RealTraceSource(const DataSourceOptions& options,
                  const std::vector<sim::Point>& positions, uint64_t seed)
      : options_(options), key_(MixSeed(seed, 0x4EA1)) {
    SCOOP_CHECK(!positions.empty());
    Rng rng(MixSeed(seed, 0x4EA1), /*stream=*/5);
    double max_x = 1, max_y = 1;
    for (const sim::Point& p : positions) {
      max_x = std::max(max_x, p.x);
      max_y = std::max(max_y, p.y);
    }
    // Three light sources ("windows"/lamps) at deterministic random spots.
    struct Bump {
      double x, y, strength;
    };
    std::vector<Bump> bumps;
    for (int b = 0; b < 3; ++b) {
      bumps.push_back(Bump{rng.UniformDouble() * max_x, rng.UniformDouble() * max_y,
                           0.5 + rng.UniformDouble()});
    }
    double sigma = options_.real_correlation_meters;
    brightness_.reserve(positions.size());
    offset_.reserve(positions.size());
    for (const sim::Point& p : positions) {
      double bump_light = 0;
      for (const Bump& b : bumps) {
        double d2 = (p.x - b.x) * (p.x - b.x) + (p.y - b.y) * (p.y - b.y);
        bump_light += b.strength * std::exp(-d2 / (2 * sigma * sigma));
      }
      // brightness in [0.4, 1.6]-ish, offset adds a spatially smooth floor.
      brightness_.push_back(0.4 + 0.8 * bump_light);
      offset_.push_back(10.0 * bump_light + 4.0 * (p.x / max_x));
    }
    // Lights toggle a couple of times over a 40-minute run (step changes,
    // like office lights in the Intel Lab trace); daylight drifts over
    // hours, i.e. it is nearly constant within one run. Between events a
    // node's readings are stationary -- exactly the temporal correlation
    // Scoop exploits (§4).
    lights_period_ = Minutes(13);
    day_period_ = Minutes(600);
  }

  Value Next(NodeId node, SimTime now) override {
    SCOOP_CHECK_LT(static_cast<size_t>(node), brightness_.size());
    double t = ToSeconds(now);
    // Slow "daylight" component plus square-wave "room lights".
    double daylight =
        0.5 + 0.35 * std::sin(2 * M_PI * t / ToSeconds(day_period_));
    bool lights_on =
        (static_cast<int64_t>(now / lights_period_) % 3) != 0;  // On 2/3 of the time.
    double shared = 55.0 * daylight + (lights_on ? 45.0 : 0.0);
    double w = options_.real_shared_weight;
    Rng rng = KeyedRng(key_, node, now);
    double v = w * shared * brightness_[node] + (1 - w) * (offset_[node] * 6.0) +
               rng.Gaussian(0, options_.real_noise);
    return std::clamp(static_cast<Value>(std::lround(v)), options_.domain_lo,
                      options_.real_domain_hi);
  }

  ValueRange domain() const override {
    return ValueRange{options_.domain_lo, options_.real_domain_hi};
  }

 private:
  DataSourceOptions options_;
  uint64_t key_;
  std::vector<double> brightness_;
  std::vector<double> offset_;
  SimTime lights_period_ = 0;
  SimTime day_period_ = 0;
};

}  // namespace

std::unique_ptr<DataSource> MakeDataSource(DataSourceKind kind,
                                           const DataSourceOptions& options,
                                           const std::vector<sim::Point>& positions,
                                           uint64_t seed) {
  int num_nodes = static_cast<int>(positions.size());
  switch (kind) {
    case DataSourceKind::kReal:
      return std::make_unique<RealTraceSource>(options, positions, seed);
    case DataSourceKind::kUnique:
      return std::make_unique<UniqueSource>(num_nodes);
    case DataSourceKind::kEqual:
      return std::make_unique<EqualSource>(options);
    case DataSourceKind::kRandom:
      return std::make_unique<RandomSource>(options, seed);
    case DataSourceKind::kGaussian:
      return std::make_unique<GaussianSource>(options, num_nodes, seed);
  }
  return nullptr;
}

}  // namespace scoop::workload

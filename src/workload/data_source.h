// Sensor-data generators for the five workloads of §6: REAL, UNIQUE,
// EQUAL, RANDOM, GAUSSIAN.
//
// REAL substitutes the Intel Lab light trace (which we cannot ship) with a
// synthetic trace that reproduces the two properties Scoop exploits in it:
// per-node temporal stationarity (a node's light changes only when the
// building's lights toggle, so its successive readings batch well, §5.4)
// and cross-node spatial correlation (nearby sensors see the same windows
// and lamps, so neighbouring nodes read similar values).
//
// Every random draw in Next() is keyed on (seed, node, now) rather than
// consumed from one sequential stream. Shards sample concurrently and in a
// K-dependent interleaving, so a shared stream would be both racy and
// non-reproducible; keyed draws are thread-safe and identical for every
// shard count. Per-node constants (Gaussian means, the REAL trace's light
// bumps) are drawn once at construction, before any concurrency exists.
#ifndef SCOOP_WORKLOAD_DATA_SOURCE_H_
#define SCOOP_WORKLOAD_DATA_SOURCE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/sim_time.h"
#include "common/types.h"
#include "net/wire.h"
#include "sim/topology.h"

namespace scoop::workload {

/// The data distributions evaluated in §6.
enum class DataSourceKind {
  kReal,      ///< Correlated synthetic light trace (Intel-Lab substitute).
  kUnique,    ///< Each node always produces its own id.
  kEqual,     ///< Every node always produces the same constant.
  kRandom,    ///< Uniform random in [0, 100].
  kGaussian,  ///< Per-node mean in [0, 100], variance 10.
};

/// Parses/prints workload names ("real", "unique", ...).
const char* DataSourceKindName(DataSourceKind kind);

/// Tunables shared by the generators.
struct DataSourceOptions {
  /// Domain for RANDOM/EQUAL/GAUSSIAN (paper: [0, 100]).
  Value domain_lo = 0;
  Value domain_hi = 100;
  /// EQUAL's constant.
  Value equal_value = 42;
  /// GAUSSIAN per-node variance (paper: 10).
  double gaussian_variance = 10.0;
  /// GAUSSIAN mean-placement skew: 1.0 draws per-node means uniformly from
  /// the domain (the paper's setup); >1 biases means toward domain_lo as
  /// pow(u, skew), concentrating load on the low-value owners; <1 biases
  /// toward domain_hi.
  double gaussian_mean_skew = 1.0;
  /// REAL: domain size (paper: V was about 150).
  Value real_domain_hi = 149;
  /// REAL: weight of the building-wide shared signal vs node-local offsets.
  double real_shared_weight = 0.55;
  /// REAL: spatial correlation length in meters (nearby nodes see similar
  /// light).
  double real_correlation_meters = 15.0;
  /// REAL: stddev of per-reading sensor noise. Light sensors under steady
  /// illumination report nearly constant quantized values, so this is
  /// small; Scoop's batching (§5.4) depends on that stability.
  double real_noise = 0.8;
};

/// A deterministic per-run generator of sensor readings.
class DataSource {
 public:
  virtual ~DataSource() = default;

  /// The reading `node` produces at time `now`: a pure function of
  /// (seed, node, now), whatever order or how often it is called in.
  virtual Value Next(NodeId node, SimTime now) = 0;

  /// The attribute's value domain (what the basestation would configure).
  virtual ValueRange domain() const = 0;
};

/// Creates the generator for `kind`. `positions` (from the topology) feed
/// the REAL trace's spatial correlation; other kinds ignore them.
std::unique_ptr<DataSource> MakeDataSource(DataSourceKind kind,
                                           const DataSourceOptions& options,
                                           const std::vector<sim::Point>& positions,
                                           uint64_t seed);

}  // namespace scoop::workload

#endif  // SCOOP_WORKLOAD_DATA_SOURCE_H_

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

/// The one generator tunable a scenario sets (`gaussian_mean_skew`). The
/// rest of each workload's shape is fixed in data_source.cc at the §6
/// values: the [0, 100] domain of RANDOM/EQUAL/GAUSSIAN, EQUAL's constant
/// 42, GAUSSIAN's per-node variance 10, and the REAL trace's [0, 149]
/// domain (the Intel Lab light attribute spans about 150 values) with its
/// spatial-correlation and noise parameters.
struct DataSourceOptions {
  /// GAUSSIAN mean-placement skew: 1.0 draws per-node means uniformly from
  /// the domain (the paper's setup); >1 biases means toward the low end as
  /// pow(u, skew), concentrating load on the low-value owners; <1 biases
  /// toward the high end.
  double gaussian_mean_skew = 1.0;
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

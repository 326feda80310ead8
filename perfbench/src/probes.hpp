#pragma once
// Layer probes for the traced run: the same pinned job identity timed at
// each layer boundary, from the SIMD kernels up to a worker process.

#include <map>
#include <string>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

struct LinalgProbe {
  double gemm_gflops = 0.0;   ///< 2·m·n·k per linalg::gemm call
  double sq_l2_gelems = 0.0;  ///< elements per sq_l2_f32 call
};
/// Pinned shapes on the active SIMD backend; medians of repeated calls.
[[nodiscard]] LinalgProbe probe_linalg();

struct ModelProbe {
  double load_ms = 0.0;          ///< load_model_file of the archive
  double clone_ms = 0.0;         ///< clone() of the loaded model
  double sample_chunk_ms = 0.0;  ///< one chunk of chunk_rows rows
  double sample_into_ms = 0.0;   ///< the whole identity, pool-parallel
};
/// Medians over `reps` calls each.
[[nodiscard]] ModelProbe probe_model(const Identity& id,
                                     const std::string& archive,
                                     std::uint64_t seed, int reps);

/// The serving rungs of the ladder, one client, jobs run one at a time.
struct Ladder {
  /// SampleService job latency per key, at that key's probe identity.
  std::map<std::string, std::vector<double>> service_ms;
  /// The same jobs on a host with room for one model, serving the keys in
  /// turn: every job misses, loads its archive and evicts the previous
  /// model.
  std::map<std::string, std::vector<double>> miss_ms;
  std::vector<double> socket_ms;  ///< loopback HTTP, first probe identity
  /// ShardPool over one worker process: latency − worker total_seconds.
  std::vector<double> hop_ms;
  double boot_s = 0.0;            ///< WorkerFleet::start of that worker
  double worker_rss_mb = 0.0;
};
/// Service and churn rungs for every probe identity; socket and remote
/// rungs for the first.
[[nodiscard]] Ladder run_ladder(const std::vector<Identity>& ids,
                                const Fixture& fixture, std::uint64_t seed,
                                int reps, const std::string& scratch,
                                Tracer& tracer);

/// Job indices the ladder uses; traffic stays below this.
inline constexpr std::int64_t kLadderBase = std::int64_t{1} << 40;

}  // namespace perfbench

#pragma once
// The benchmark's workloads and the serving stacks they drive, built only
// from the public surface of models, serve and net.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "models/generator.hpp"
#include "net/rest.hpp"
#include "net/server.hpp"
#include "serve/sample_service.hpp"
#include "trace.hpp"

namespace perfbench {

namespace net = surro::net;
namespace serve = surro::serve;

/// A job's determinism identity, minus the seed.
struct Identity {
  std::string key;
  std::size_t rows = 0;
  std::size_t chunk_rows = 0;
};

struct WorkloadSpec {
  std::string name;
  /// The mix; every block of cycle.size() jobs is a seeded shuffle of it.
  std::vector<Identity> cycle;
  std::size_t clients = 4;  ///< closed-loop client threads
  bool http = false;        ///< clients reach the service over loopback
};

/// Rows per result page on every HTTP path (a 1000-row job is one page).
inline constexpr std::size_t kPageRows = 1000;

/// The two workloads; throws std::invalid_argument for an unknown name.
[[nodiscard]] WorkloadSpec workload(const std::string& name);

/// The identity the layer probes use for every model key: the workload's
/// own identity where it sends that key, its first identity's size
/// otherwise.
[[nodiscard]] std::vector<Identity> probe_identities(const WorkloadSpec& w);

/// Seed of job `index` — distinct per index, a pure function of the
/// workload seed.
[[nodiscard]] std::uint64_t job_seed(std::uint64_t workload_seed,
                                     std::int64_t index);

/// Bind a job's seed and chunk seeds to its index, so layers that see only
/// seeds can name the job their spans belong to (no-op while not tracing).
void bind_job(Tracer& tracer, std::int64_t index, std::uint64_t seed,
              const Identity& id);

/// Training data, fitted archives and fit times for one set-up.
struct Fixture {
  std::map<std::string, std::string> archives;  ///< key -> archive path
  std::map<std::string, double> fit_s;
};

/// Generate PanDA job records (a fixed data seed), fit each key, save its
/// archive under `dir`.
[[nodiscard]] Fixture build_fixture(const std::vector<std::string>& keys,
                                    const std::string& dir);

/// One finished (or failed) job as the client saw it.
struct JobRecord {
  std::int64_t index = 0;
  std::size_t identity = 0;  ///< index into WorkloadSpec::cycle
  std::uint64_t seed = 0;
  bool ok = false;
  double latency_ms = 0.0;   ///< from send to the whole table in hand
  std::size_t rows = 0;
  std::uint64_t digest = 0;  ///< serve::hash_table of the returned table
  // Service-side timings reported with the result.
  double queue_ms = 0.0;
  double sample_ms = 0.0;
  double service_ms = 0.0;
  std::size_t batch_jobs = 0;
};

/// In-process serving stack: one ModelHost with room for every key, one
/// SampleService, optionally RestApi behind an HttpServer. Untraced, the
/// host serves the archives (register_archive, as `surro_cli serve` does).
/// With a tracer, it serves fitted models wrapped in a TabularGenerator
/// decorator, the service sits behind a SampleBackend decorator and the
/// HttpServer handler records spans around RestApi::handle.
class LocalStack {
 public:
  LocalStack(const Fixture& fixture, const std::vector<std::string>& keys,
             Tracer* tracer, bool http);

  [[nodiscard]] serve::SampleBackend& backend() noexcept { return *backend_; }
  [[nodiscard]] std::uint16_t port() const noexcept;

 private:
  // Destroyed bottom-up: the server stops before the API it calls, the
  // service drains before the host it samples from.
  serve::ModelHost host_;
  serve::SampleService service_;
  std::unique_ptr<serve::SampleBackend> traced_;
  serve::SampleBackend* backend_ = nullptr;
  std::unique_ptr<net::RestApi> api_;
  std::unique_ptr<net::HttpServer> server_;
};

struct Window {
  std::vector<JobRecord> jobs;
  double elapsed_s = 0.0;  ///< window start to the last job's completion
};

/// Closed loop: `clients` threads, each submitting its next job when the
/// previous one returns, until `seconds` pass. Over loopback HTTP when the
/// stack has an endpoint (one keep-alive ApiClient per thread), otherwise
/// straight into its backend. Job indices start at `first_index`.
[[nodiscard]] Window run_closed(const WorkloadSpec& w, LocalStack& stack,
                                std::uint64_t seed, std::int64_t first_index,
                                double seconds, Tracer& tracer);

/// Byte gate: re-sample every successful job with a direct sample_into on
/// separately loaded archives and compare digests. Returns mismatches.
[[nodiscard]] std::size_t verify_bytes(const WorkloadSpec& w,
                                       const Fixture& fixture,
                                       const std::vector<JobRecord>& jobs);

/// Peak resident set (VmHWM) of a process in MiB; 0 when unreadable.
[[nodiscard]] double peak_rss_mb(const std::string& pid = "self");
/// Reset this process's VmHWM to its current RSS.
void reset_peak_rss();

}  // namespace perfbench

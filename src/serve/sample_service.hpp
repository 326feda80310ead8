#pragma once
// SampleService: the asynchronous, batched consumption API of the serving
// layer. Callers submit SampleJobs (model key, rows, seed, priority) and get
// futures back; a dispatcher thread coalesces compatible jobs — same model
// key — into batches, acquires the model once per batch from the ModelHost,
// and fans every batch's chunks out over util::ThreadPool, every worker
// sampling the one shared instance. ServiceStats reports qps, p50/p95 latency, rows/sec,
// queue depth, batching effectiveness, and the host's cache hit rate.
//
// Determinism contract (inherited from TabularGenerator::sample_into and
// preserved end to end): a job's output bytes depend only on
// (model, rows, seed, chunk_rows). The chunk partition is computed per job
// — chunk c draws from models::derive_chunk_seed(seed, c) — so batching,
// client concurrency, worker count, priority order, and cache
// eviction/reload cycles never change what a given job returns.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "serve/latency_window.hpp"
#include "serve/model_host.hpp"
#include "tabular/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace surro::util {
class JsonWriter;
}

namespace surro::serve {

/// Typed failure surfaced by the overload-control layer: thrown
/// synchronously from submit() on admission rejection, or set on a job's
/// future when the job was shed, missed its deadline, or was cancelled.
/// Execution errors (unknown key, archive load failure) keep their original
/// exception types — ServiceError is strictly "the service chose not to
/// finish this job", never "the job broke".
class ServiceError : public std::runtime_error {
 public:
  enum class Code {
    kOverloaded,  ///< admission rejected the submit (reject policy)
    kShed,        ///< queued job dropped to admit higher-priority work
    kDeadline,    ///< deadline passed while queued or at a chunk boundary
    kCancelled,   ///< cancelled via SampleService::cancel()
  };
  ServiceError(Code code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  [[nodiscard]] Code code() const noexcept { return code_; }

 private:
  Code code_;
};

/// What submit() does when the admission queue is at its configured bound.
enum class AdmissionPolicy {
  /// Block the submitting thread until space frees (backpressure). The
  /// default: no job is ever dropped, clients are simply slowed to the
  /// service's pace.
  kBlock,
  /// Fail fast: submit() throws ServiceError{kOverloaded} and the job
  /// never enters the queue.
  kReject,
  /// Admit the new job by dropping the lowest-priority queued job (ties
  /// drop the newest). When the *incoming* job is the weakest, it is the
  /// one refused — submit() throws ServiceError{kShed}, counted under
  /// `rejected` (it was never admitted). Shed *queued* jobs fail their
  /// futures with ServiceError{kShed} and count under `shed`.
  kShed,
};

[[nodiscard]] const char* admission_policy_name(
    AdmissionPolicy policy) noexcept;
/// Parse "block" | "reject" | "shed"; throws std::invalid_argument.
[[nodiscard]] AdmissionPolicy parse_admission_policy(const std::string& name);

struct ServiceConfig {
  /// Worker fan-out per batch (0 = every pool worker). Scheduling only:
  /// output bytes are identical for any value.
  std::size_t sample_threads = 0;
  /// Default chunk grain for jobs that leave SampleJob::chunk_rows at 0.
  /// Part of the determinism key — changing it changes the chunk partition.
  std::size_t chunk_rows = 4096;
  /// Maximum jobs coalesced into one batch.
  std::size_t max_batch = 8;
  /// Completed-job latencies retained for the percentile window.
  std::size_t latency_window = 4096;
  /// Admission control. Bounds apply to the *queued* backlog (jobs not yet
  /// dispatched); 0 = unbounded, which preserves the pre-overload-control
  /// behavior. An empty queue always admits — even a job larger than
  /// max_queued_rows — so no job is unserveable by configuration.
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  std::size_t max_queue_depth = 0;  ///< max queued jobs (0 = unbounded)
  std::size_t max_queued_rows = 0;  ///< max queued rows (0 = unbounded)
};

/// One sampling request. Higher `priority` dispatches first; ties dispatch
/// in submission order.
struct SampleJob {
  std::string model_key;
  std::size_t rows = 0;
  std::uint64_t seed = 1234;
  /// 0 = ServiceConfig::chunk_rows. Determines the chunk partition (and
  /// therefore the output bytes), exactly like SampleRequest::chunk_rows.
  std::size_t chunk_rows = 0;
  /// 0 = ServiceConfig::sample_threads. Scheduling only. When jobs with
  /// different values share a batch, the largest request wins.
  std::size_t threads = 0;
  int priority = 0;
  /// Soft deadline in milliseconds from submission (0 = none). Checked
  /// when the job is dispatched and again at every chunk boundary: a job
  /// whose deadline passes while queued or mid-sampling fails its future
  /// with ServiceError{kDeadline} and its partial chunks are discarded. A
  /// job whose final chunk finishes before the check is delivered — the
  /// deadline bounds *work spent past the limit*, not delivery time.
  double deadline_ms = 0.0;
  /// Called after each completed chunk with (rows_done, rows_total) for
  /// this job. Invoked under a lock from a worker thread — keep it cheap.
  std::function<void(std::size_t, std::size_t)> on_progress;
};

/// What a fulfilled future carries back.
struct SampleResult {
  tabular::Table table;
  std::string model_key;
  double queue_seconds = 0.0;   ///< submit → batch dispatch
  double sample_seconds = 0.0;  ///< batch dispatch → job assembled
  double total_seconds = 0.0;   ///< submit → job assembled
  std::size_t batch_jobs = 0;   ///< jobs coalesced into this job's batch
  std::uint64_t batch_index = 0;  ///< dispatch sequence number of the batch
  bool cache_hit = false;       ///< model was resident when dispatched
};

/// Rolled-up service health, cheap enough to poll every request.
/// Every admitted job resolves to exactly one of completed / failed /
/// shed / cancelled / deadline_missed; `rejected` counts submits the
/// admission gate refused outright (those never increment `submitted`).
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;   ///< futures fulfilled with a table
  std::uint64_t failed = 0;      ///< futures failed with an execution error
  std::size_t queue_depth = 0;   ///< submitted jobs not yet finished
  std::size_t queued_rows = 0;   ///< rows in not-yet-dispatched jobs
  std::uint64_t batches = 0;     ///< batches dispatched
  double mean_batch_jobs = 0.0;  ///< completed jobs per batch
  double uptime_seconds = 0.0;
  double qps = 0.0;              ///< completed / uptime
  double rows_per_sec = 0.0;     ///< rows emitted / uptime
  // Overload-control outcomes.
  std::uint64_t rejected = 0;  ///< submits refused at admission (reject
                               ///< policy, or an incoming job the shed
                               ///< policy declined to admit)
  std::uint64_t shed = 0;      ///< admitted jobs dropped by the shed policy
  std::uint64_t cancelled = 0;        ///< jobs cancelled via cancel()
  std::uint64_t deadline_missed = 0;  ///< jobs that blew their deadline
  std::uint64_t blocked = 0;          ///< submits that had to wait for space
  /// Percentiles over the latency window; +infinity when no job completed
  /// yet (degrades to null in the JSON artifact).
  double p50_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  HostStats host;                ///< cache hit rate & friends
  util::PoolCounters pool;       ///< thread-pool load underneath the service
};

/// A submitted job's handle: the future plus the id cancel() takes.
struct Submitted {
  std::uint64_t job_id = 0;
  std::future<SampleResult> future;
};

/// The abstract submission surface of the serving tier. SampleService is
/// the single-worker implementation; ShardPool routes over many of them.
/// Everything above this layer — the REST API, the replay/soak harnesses,
/// the CLI — programs against SampleBackend, so a sharded tier drops in
/// wherever a single service used to sit. The determinism contract is part
/// of the interface: a job's bytes depend only on
/// (model, rows, seed, chunk_rows), never on which backend ran it.
class SampleBackend {
 public:
  virtual ~SampleBackend() = default;

  /// Enqueue a job through the admission gate. Execution errors (unknown
  /// model key, archive load failure) surface on the future; submitting
  /// after shutdown throws std::logic_error immediately. When the queue is
  /// at its configured bound, the admission policy decides: block (wait
  /// for space), reject (throw ServiceError{kOverloaded}), or shed (drop
  /// the lowest-priority queued job; ServiceError{kShed} if that is this
  /// one). A rows == 0 job is valid and resolves to an empty table
  /// (mirroring sample_into, which leaves its output untouched).
  [[nodiscard]] virtual Submitted submit_job(SampleJob job) = 0;

  /// Cooperatively cancel a job by id. A still-queued job is removed
  /// immediately; an in-flight job stops at its next chunk boundary and
  /// its partial chunks are discarded. Either way its future fails with
  /// ServiceError{kCancelled}. Returns false when the id is unknown or the
  /// job already resolved (cancellation raced completion — the future then
  /// holds whatever outcome won).
  virtual bool cancel(std::uint64_t job_id) = 0;

  /// Block until every submitted job has been fulfilled.
  virtual void drain() = 0;

  [[nodiscard]] virtual ServiceStats stats() const = 0;
  /// Cheap depth poll — no percentile sort (see SampleService::queue_depth).
  [[nodiscard]] virtual std::size_t queue_depth() const = 0;
  /// The effective service configuration (per-shard config for a pool).
  [[nodiscard]] virtual const ServiceConfig& config() const noexcept = 0;

  /// Model registry surface (what /v1/models renders).
  [[nodiscard]] virtual std::vector<std::string> model_keys() const = 0;
  [[nodiscard]] virtual bool has_model(const std::string& key) const = 0;
  /// True when at least one replica of `key` is resident in memory.
  [[nodiscard]] virtual bool model_resident(const std::string& key) const = 0;

  /// Append backend-specific keys to a stats JSON object (the REST layer
  /// calls this inside its /v1/stats object). Default: nothing.
  virtual void append_stats_json(util::JsonWriter& w) const;

  /// submit_job without the cancellation handle.
  [[nodiscard]] std::future<SampleResult> submit(SampleJob job) {
    return submit_job(std::move(job)).future;
  }

  /// Blocking convenience: submit + wait, returning just the table.
  [[nodiscard]] tabular::Table sample(SampleJob job) {
    return submit(std::move(job)).get().table;
  }
};

class SampleService : public SampleBackend {
 public:
  /// The host must outlive the service.
  explicit SampleService(ModelHost& host, ServiceConfig cfg = {});
  /// Drains already-queued jobs, then stops the dispatcher.
  ~SampleService() override;

  SampleService(const SampleService&) = delete;
  SampleService& operator=(const SampleService&) = delete;

  /// Kept as a nested alias — call sites predating SampleBackend spell
  /// this SampleService::Submitted.
  using Submitted = serve::Submitted;

  [[nodiscard]] Submitted submit_job(SampleJob job) override;
  bool cancel(std::uint64_t job_id) override;
  void drain() override;

  /// Hold/resume dispatching. While paused, submit() still queues; used to
  /// stage a burst so batching and priority order are deterministic (tests,
  /// replay warm-up).
  void pause();
  void resume();

  [[nodiscard]] ServiceStats stats() const override;
  /// Just queue_.size() + in-flight jobs — for hot pollers (the soak
  /// queue-depth monitor) that must not pay stats()'s percentile sort.
  [[nodiscard]] std::size_t queue_depth() const override;
  [[nodiscard]] ModelHost& host() noexcept { return host_; }
  [[nodiscard]] const ServiceConfig& config() const noexcept override {
    return cfg_;
  }
  [[nodiscard]] std::vector<std::string> model_keys() const override {
    return host_.keys();
  }
  [[nodiscard]] bool has_model(const std::string& key) const override {
    return host_.contains(key);
  }
  [[nodiscard]] bool model_resident(const std::string& key) const override {
    return host_.resident(key);
  }
  /// Unsorted copy of the completed-latency window, so an aggregator (the
  /// shard pool) can merge windows before computing percentiles.
  [[nodiscard]] std::vector<double> latency_snapshot() const;

 private:
  struct Pending {
    SampleJob job;
    std::promise<SampleResult> promise;
    std::uint64_t seq = 0;      // doubles as the public job id
    double submitted_at = 0.0;  // seconds on the service clock
    double deadline_at = 0.0;   // service-clock seconds; +inf = none
    /// Set by cancel(); chunk workers poll it at chunk boundaries.
    std::shared_ptr<std::atomic<bool>> cancel_flag;
  };
  /// One job's slice of a dispatched batch.
  struct BatchItem {
    Pending pending;
    std::size_t chunk_rows = 0;           // resolved grain
    std::vector<tabular::Table> chunks;   // per-chunk outputs, in order
    std::size_t rows_done = 0;            // progress accounting
  };
  /// How an admitted job resolved (record_done_locked bookkeeping).
  enum class Outcome { kOk, kFailed, kCancelled, kDeadline };

  void dispatcher_loop();
  /// Pop the next batch (caller holds the lock): the highest-priority job
  /// plus up to max_batch-1 more jobs with the same model key.
  [[nodiscard]] std::vector<Pending> pop_batch_locked();
  void run_batch(std::vector<Pending> batch);
  void record_done_locked(const BatchItem& item, Outcome outcome);
  /// True when the queued backlog is at a configured bound for a job of
  /// `rows` more rows (caller holds the lock; empty queue always admits).
  [[nodiscard]] bool over_bounds_locked(std::size_t rows) const;

  ModelHost& host_;
  ServiceConfig cfg_;
  util::Stopwatch clock_;

  mutable std::mutex mutex_;
  std::condition_variable cv_work_;   // dispatcher: job queued / stop
  std::condition_variable cv_idle_;   // drain(): a job finished
  std::condition_variable cv_space_;  // blocked submit(): queue shrank
  std::deque<Pending> queue_;
  std::size_t queued_rows_ = 0;  // rows in queue_ (admission accounting)
  std::size_t in_flight_ = 0;  // jobs popped but not yet fulfilled
  std::size_t submit_waiters_ = 0;  // submits parked on backpressure
  bool paused_ = false;
  bool stop_ = false;
  /// Cancel flags of every unresolved job (queued or in flight), by id;
  /// entries are erased when the job resolves.
  std::map<std::uint64_t, std::shared_ptr<std::atomic<bool>>> live_;

  // Tallies (guarded by mutex_).
  std::uint64_t seq_ = 1;  // job ids start at 1 so 0 can be a sentinel
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t deadline_missed_ = 0;
  std::uint64_t blocked_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t batched_jobs_ = 0;
  std::uint64_t rows_emitted_ = 0;
  LatencyWindow latency_;

  std::thread dispatcher_;  // last member: starts after everything exists
};

/// The process-wide serving stack: one ModelHost + one SampleService over
/// the global ThreadPool, shared by every core::SurrogatePipeline (which
/// registers its fitted model here and samples through the service).
/// Constructed lazily on first use; the global ThreadPool is constructed
/// first so it outlives the service's dispatcher.
struct ServingStack {
  ServingStack();
  ModelHost host;
  SampleService service;
};
[[nodiscard]] ServingStack& global_serving();

}  // namespace surro::serve

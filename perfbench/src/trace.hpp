#pragma once
// In-memory spans for the traced run. Spans are recorded only from the
// benchmark's own files — around client calls, in an HttpServer handler
// that wraps RestApi::handle, in a SampleBackend decorator, and in a
// TabularGenerator decorator — and written out when the run ends.
//
// Calls into a layer cross threads (an HTTP request is served on a server
// worker, a chunk is sampled on a pool worker), so the caller publishes
// its open span per job id and the callee reads it as its parent: the job
// id plays the part a trace header would on a real wire.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/timer.hpp"

namespace perfbench {

/// Job id of spans that belong to no single job (a replica clone serves a
/// whole batch).
inline constexpr std::int64_t kNoJob = -1;

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::int64_t job = kNoJob;
  std::string name;  ///< "<layer>.<what>", e.g. "net.handle"
  double start = 0.0;  ///< seconds on the tracer clock
  double end = 0.0;
};

/// Each span's self time: its duration minus the part of its interval
/// covered by the union of its children's intervals. Indexed like `spans`.
[[nodiscard]] std::vector<double> self_times(const std::vector<Span>& spans);

/// Self time summed per layer (the span name up to its last '.').
[[nodiscard]] std::map<std::string, double> self_time_by_layer(
    const std::vector<Span>& spans);

class Tracer {
 public:
  /// Per-job context slots a callee on another thread reads its parent
  /// from.
  enum class Slot { kCurrent, kRoot, kServeJob };
  /// Reverse maps from what a layer sees back to the benchmark's job id.
  enum class Key { kJobSeed, kChunkSeed, kServiceId };

  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// Spans and counters are recorded only while enabled.
  void enable(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] double now() const noexcept { return clock_.seconds(); }

  /// Opens a span; returns its id, 0 when tracing is off.
  std::uint64_t open(std::int64_t job, const char* name,
                     std::uint64_t parent);
  void close(std::uint64_t id);

  void set(std::int64_t job, Slot slot, std::uint64_t span);
  [[nodiscard]] std::uint64_t get(std::int64_t job, Slot slot) const;

  void bind(Key key, std::uint64_t value, std::int64_t job);
  [[nodiscard]] std::int64_t lookup(Key key, std::uint64_t value) const;

  /// Named counters recorded at the same boundaries as the spans.
  void count(const char* name, double amount = 1.0);
  [[nodiscard]] double counter(const std::string& name) const;

  [[nodiscard]] std::vector<Span> spans() const;
  /// One JSON object per span.
  void write_jsonl(const std::string& path) const;

 private:
  static std::uint64_t slot_key(std::int64_t job, Slot slot) noexcept;

  std::atomic<bool> enabled_{false};  // toggled only between windows
  surro::util::Stopwatch clock_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // span id = index + 1
  std::unordered_map<std::uint64_t, std::uint64_t> slots_;
  std::unordered_map<std::uint64_t, std::int64_t> keys_[3];
  std::map<std::string, double> counters_;
};

/// A span open for one scope; publishes itself as the job's current span
/// and restores the previous one on exit.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::int64_t job, const char* name)
      : tracer_(tracer), job_(job) {
    if (!tracer_.enabled()) return;
    previous_ = tracer_.get(job_, Tracer::Slot::kCurrent);
    id_ = tracer_.open(job_, name, previous_);
    tracer_.set(job_, Tracer::Slot::kCurrent, id_);
  }
  ~ScopedSpan() {
    if (id_ == 0) return;
    tracer_.close(id_);
    tracer_.set(job_, Tracer::Slot::kCurrent, previous_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  std::int64_t job_;
  std::uint64_t previous_ = 0;
  std::uint64_t id_ = 0;
};

}  // namespace perfbench

// perfbench: one workload of the surro benchmark, end to end or traced.
//
//   perfbench --workload wire_small|model_mix --seed N --seconds S
//             --trace 0|1 --out DIR
//
// --trace 0 sets the stack up five times (setup_s is the median), runs one
// timed window of S with tracing off and prints the end-to-end metrics.
// --trace 1 runs two windows of S/2, untraced then traced, then the layer
// probes, and prints the per-layer metrics and the tracing overhead.
// Either way every returned table's digest is checked against a direct
// sample_into afterwards; a mismatch exits 1. The last stdout line
// is one JSON object; perfbench/run.py turns it into the reported result.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <malloc.h>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "linalg/simd.hpp"
#include "probes.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

constexpr int kSetupReps = 5;
constexpr int kProbeReps = 11;
constexpr std::size_t kFoldJobs = 64;  ///< jobs in the pinned digest
constexpr double kWarmSeconds = 2.0;
constexpr std::uint64_t kWarmSeedMask = 0x3A3A;
constexpr std::int64_t kWarmFirst = -(std::int64_t{1} << 41);
constexpr double kTailQ = 0.99;
constexpr std::size_t kTailParts = 3;
constexpr std::size_t kTailBeyond = 10;
const std::vector<std::string> kAllKeys = {"smote", "tvae", "ctabgan",
                                           "tabddpm"};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".bench_build/perfbench-out";
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") o.workload = value;
    else if (flag == "--seed") o.seed = std::stoull(value);
    else if (flag == "--seconds") o.seconds = std::stod(value);
    else if (flag == "--trace") o.trace = value == "1";
    else if (flag == "--out") o.out = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload required");
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

std::vector<std::string> keys_of(const WorkloadSpec& w) {
  std::vector<std::string> keys;
  for (const auto& id : w.cycle) {
    if (std::find(keys.begin(), keys.end(), id.key) == keys.end()) {
      keys.push_back(id.key);
    }
  }
  return keys;
}

/// The serving stack of one workload, set up and warmed.
std::unique_ptr<LocalStack> start(const WorkloadSpec& w, const Fixture& fx,
                                  Tracer* tracer, std::uint64_t seed) {
  auto stack = std::make_unique<LocalStack>(fx, keys_of(w), tracer, w.http);
  // Warm-up: every identity through the whole path, so lazy state (pool
  // threads, connections, resident models) exists before timing.
  Tracer off;
  WorkloadSpec warm = w;
  warm.clients = std::min<std::size_t>(w.clients, 2);
  const auto win =
      run_closed(warm, *stack, seed ^ kWarmSeedMask, kWarmFirst, 0.3, off);
  for (const auto& j : win.jobs) {
    if (!j.ok) throw std::runtime_error("warm-up job failed");
  }
  return stack;
}

struct Summary {
  Tally tally;
  std::vector<double> latency;
  double rows = 0.0;
  double rows_per_s = 0.0;
};

Summary summarize(const Window& win) {
  Summary s;
  for (const auto& j : win.jobs) {
    s.tally.add(j.ok);
    s.latency.push_back(j.latency_ms);
    if (j.ok) s.rows += static_cast<double>(j.rows);
  }
  s.rows_per_s = win.elapsed_s > 0.0 ? s.rows / win.elapsed_s : 0.0;
  return s;
}

/// FNV-1a over (index, digest) of jobs 0 .. kFoldJobs-1: the value
/// perfbench/pins.json pins for seed 1.
std::string folded_digest(const std::vector<JobRecord>& jobs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::size_t folded = 0;
  for (const auto& j : jobs) {
    if (j.index < 0 || j.index >= static_cast<std::int64_t>(kFoldJobs)) {
      continue;
    }
    if (!j.ok) return "incomplete";
    for (const std::uint64_t v : {static_cast<std::uint64_t>(j.index),
                                  j.digest}) {
      h ^= v;
      h *= 0x100000001b3ULL;
    }
    ++folded;
  }
  if (folded != kFoldJobs) return "incomplete";
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, const Tally& tally,
                  const std::vector<Metric>& metrics,
                  const std::string& digest) {
  for (const auto& m : metrics) {
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    // A latency made infinite by failed jobs prints as the largest double:
    // it misses every limit.
    const double v = std::isfinite(metrics[i].value)
                         ? metrics[i].value
                         : std::numeric_limits<double>::max();
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}, \"folded_digest\": \"%s\", \"simd\": \"%s\"}\n",
              digest.c_str(), surro::linalg::simd::active_backend_name());
  std::fflush(stdout);
}

/// Checks the bytes of every job; prints and reports the verdict.
bool byte_gate(const WorkloadSpec& w, const Fixture& fx,
               const std::vector<JobRecord>& jobs) {
  surro::util::Stopwatch sw;
  const std::size_t bad = verify_bytes(w, fx, jobs);
  std::printf("byte gate: %zu jobs re-sampled directly, %zu mismatches "
              "(%.1fs)\n",
              jobs.size(), bad, sw.seconds());
  return bad == 0;
}

double p50_of(const std::vector<double>& v) { return quantile(v, 0.5); }

int run_e2e(const Options& o, const WorkloadSpec& w) {
  std::vector<double> setup;
  std::unique_ptr<LocalStack> stack;
  Fixture fx;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stack.reset();
    surro::util::Stopwatch sw;
    fx = build_fixture(keys_of(w),
                       o.out + "/fixture" + std::to_string(rep));
    stack = start(w, fx, nullptr, o.seed);
    setup.push_back(sw.seconds());
  }
  Tracer off;
#ifdef __GLIBC__
  // Hand memory freed by the set-ups (training buffers) back to the OS, so
  // the window's resident set is the serving stack's, not what the
  // allocator happened to retain from fitting.
  malloc_trim(0);
#endif
  // Full load before the window, so allocator arenas and caches reach
  // their steady state before memory and latency are measured.
  (void)run_closed(w, *stack, o.seed ^ kWarmSeedMask, kWarmFirst,
                   kWarmSeconds, off);
  reset_peak_rss();
  const Window win = run_closed(w, *stack, o.seed, 0, o.seconds, off);
  const double rss_mb = peak_rss_mb();
  stack.reset();

  const Summary s = summarize(win);
  const PartedQuantile p99 = parted_quantile(s.latency, kTailQ, kTailParts);
  std::printf("%s seed %llu: %llu jobs attempted, %llu failed "
              "(fail_ratio %.6f); %zu latency samples in %zu parts, fewest "
              "beyond a part's p99 %zu (need %zu, so >= %zu samples a "
              "part)\n",
              w.name.c_str(), static_cast<unsigned long long>(o.seed),
              static_cast<unsigned long long>(s.tally.attempted),
              static_cast<unsigned long long>(s.tally.failed),
              s.tally.fail_ratio(), s.latency.size(), kTailParts,
              p99.fewest_beyond, kTailBeyond,
              samples_needed(kTailQ, kTailBeyond));
  const bool valid = p99.fewest_beyond >= kTailBeyond;
  const bool bytes_ok = byte_gate(w, fx, win.jobs);
  print_result(bytes_ok && valid, s.tally,
               {{"setup_s", median(setup), "s"},
                {"rows_per_s", s.rows_per_s, "rows/s"},
                {"job_p50_ms", quantile(s.latency, 0.5), "ms"},
                {"job_p99_ms", p99.value, "ms"},
                {"peak_rss_mb", rss_mb, "MiB"}},
               folded_digest(win.jobs));
  return bytes_ok ? 0 : 1;
}

int run_traced(const Options& o, const WorkloadSpec& w) {
  Tracer tracer;
  const Fixture fx = build_fixture(kAllKeys, o.out + "/fixture");
  auto stack = start(w, fx, &tracer, o.seed);
  const double window_s = o.seconds / 2;

  const Window plain = run_closed(w, *stack, o.seed, 0, window_s, tracer);
  const std::int64_t traced_first = std::int64_t{1} << 32;

  const serve::ServiceStats svc0 = stack->backend().stats();
  tracer.enable(true);
  const Window traced =
      run_closed(w, *stack, o.seed, traced_first, window_s, tracer);
  tracer.enable(false);
  const auto traffic_spans = tracer.spans();
  const serve::ServiceStats svc1 = stack->backend().stats();
  stack.reset();

  tracer.enable(true);
  const auto ids = probe_identities(w);
  const LinalgProbe lin = probe_linalg();
  std::map<std::string, ModelProbe> mp;
  for (const auto& id : ids) {
    mp[id.key] = probe_model(id, fx.archives.at(id.key), o.seed, kProbeReps);
  }
  const Ladder ladder =
      run_ladder(ids, fx, o.seed, kProbeReps, o.out + "/ladder-fleet", tracer);
  tracer.enable(false);
  const auto all_spans = tracer.spans();
  std::filesystem::create_directories(o.out);
  tracer.write_jsonl(o.out + "/spans-" + w.name + ".jsonl");

  // ---- per-layer metrics
  std::vector<Metric> m;
  const auto add = [&m](std::string name, double v, std::string unit) {
    m.push_back({std::move(name), v, std::move(unit)});
  };
  add("linalg.gemm_gflops", lin.gemm_gflops, "GFLOP/s");
  add("linalg.sq_l2_gelems", lin.sq_l2_gelems, "Gelem/s");

  std::map<std::string, std::vector<double>> per_key_latency = ladder.service_ms;
  for (const auto& j : traced.jobs) {
    per_key_latency[w.cycle[j.identity].key].push_back(j.latency_ms);
  }
  for (const auto& id : ids) {
    const auto& p = mp.at(id.key);
    const std::string k = "models." + id.key;
    add(k + ".sample_chunk_ms", p.sample_chunk_ms, "ms");
    add(k + ".sample_into_ms", p.sample_into_ms, "ms");
    add(k + ".clone_ms", p.clone_ms, "ms");
    add(k + ".load_ms", p.load_ms, "ms");
    add(k + ".fit_s", fx.fit_s.at(id.key), "s");
    add(k + ".job_p50_ms", p50_of(per_key_latency[id.key]), "ms");
  }

  std::vector<double> queue, sample;
  for (const auto& j : traced.jobs) {
    queue.push_back(j.queue_ms);
    sample.push_back(j.sample_ms);
  }
  const std::string first_key = ids.front().key;
  const double service_p50 = p50_of(ladder.service_ms.at(first_key));
  add("serve.queue_ms_p50", p50_of(queue), "ms");
  add("serve.sample_ms_p50", p50_of(sample), "ms");
  add("serve.tax", service_p50 / mp.at(first_key).sample_into_ms, "x");
  const double jobs = static_cast<double>(svc1.completed - svc0.completed);
  add("serve.batch_jobs_mean",
      jobs / std::max(1.0, static_cast<double>(svc1.batches - svc0.batches)),
      "jobs");
  add("serve.pool_tasks_per_job",
      static_cast<double>(svc1.pool.completed - svc0.pool.completed) /
          std::max(1.0, jobs),
      "tasks");
  for (const auto& id : ids) {
    add("serve.host." + id.key + ".miss_job_ms",
        p50_of(ladder.miss_ms.at(id.key)), "ms");
  }

  // net: spans from the HTTP traffic and the ladder's socket rung.
  std::vector<double> submit, wait, handle;
  const auto self = self_times(all_spans);
  for (std::size_t i = 0; i < all_spans.size(); ++i) {
    const auto& s = all_spans[i];
    const double ms = (s.end - s.start) * 1e3;
    if (s.name == "net.submit") submit.push_back(ms);
    if (s.name == "net.wait") wait.push_back(ms);
    if (s.name == "net.handle") handle.push_back(self[i] * 1e3);
  }
  const double net_jobs = std::max(1.0, tracer.counter("net.jobs"));
  add("net.submit_ms_p50", p50_of(submit), "ms");
  add("net.wait_ms_p50", p50_of(wait), "ms");
  add("net.handle_ms_p50", p50_of(handle), "ms");
  add("net.requests_per_job", tracer.counter("net.requests") / net_jobs, "count");
  add("net.resp_bytes_per_job", tracer.counter("net.resp_bytes") / net_jobs, "B");
  add("net.wire_tax", p50_of(ladder.socket_ms) / service_p50, "x");

  add("shard.hop_ms_p50", p50_of(ladder.hop_ms), "ms");
  add("fleet.boot_s", ladder.boot_s, "s");
  add("fleet.worker_rss_mb", ladder.worker_rss_mb, "MiB");

  // Where the traced window's time went: self time per layer per job.
  const double traced_jobs = std::max<double>(1.0, traced.jobs.size());
  std::printf("self time per job over the traced window (%zu jobs):",
              traced.jobs.size());
  for (const auto& [layer, seconds] : self_time_by_layer(traffic_spans)) {
    std::printf(" %s %.3f ms", layer.c_str(), seconds * 1e3 / traced_jobs);
  }
  std::printf("\n");
  const Summary plain_s = summarize(plain);
  const Summary traced_s = summarize(traced);
  add("trace.overhead_pct",
      (plain_s.rows_per_s / std::max(1e-9, traced_s.rows_per_s) - 1.0) * 100.0,
      "%");
  add("trace.spans", static_cast<double>(all_spans.size()), "count");

  std::vector<JobRecord> all_jobs = plain.jobs;
  all_jobs.insert(all_jobs.end(), traced.jobs.begin(), traced.jobs.end());
  Tally tally = plain_s.tally;
  tally.attempted += traced_s.tally.attempted;
  tally.failed += traced_s.tally.failed;
  std::printf("%s seed %llu (traced): %llu jobs, %llu failed, %zu spans\n",
              w.name.c_str(), static_cast<unsigned long long>(o.seed),
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed), all_spans.size());
  const bool bytes_ok = byte_gate(w, fx, all_jobs);
  print_result(bytes_ok, tally, m, folded_digest(plain.jobs));
  return bytes_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    const WorkloadSpec w = workload(o.workload);
    return o.trace ? run_traced(o, w) : run_e2e(o, w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}

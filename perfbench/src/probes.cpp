#include "probes.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "linalg/ops.hpp"
#include "linalg/simd.hpp"
#include "net/client.hpp"
#include "serve/shard_pool.hpp"
#include "serve/worker_fleet.hpp"
#include "stats.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace perfbench {
namespace {

/// Keeps probe results observable so the timed calls are not elided.
volatile double g_sink = 0.0;

template <typename F>
double median_seconds(int reps, F&& call) {
  call();  // warm caches and lazy state
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    surro::util::Stopwatch sw;
    call();
    t.push_back(sw.seconds());
  }
  return median(t);
}

}  // namespace

LinalgProbe probe_linalg() {
  constexpr std::size_t kN = 256;
  constexpr std::size_t kLen = 4096;
  constexpr int kCallsPerSample = 2000;
  surro::util::Rng rng(7);
  surro::linalg::Matrix a(kN, kN), b(kN, kN), c(kN, kN);
  for (std::size_t i = 0; i < kN * kN; ++i) {
    a.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    b.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  std::vector<float> x(kLen), y(kLen);
  for (std::size_t i = 0; i < kLen; ++i) {
    x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    y[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  LinalgProbe out;
  const double gemm_s = median_seconds(15, [&] {
    surro::linalg::gemm(a, b, c);
    g_sink = g_sink + c.data()[0];
  });
  out.gemm_gflops = 2.0 * kN * kN * kN / gemm_s / 1e9;
  const auto& k = surro::linalg::simd::kernels();
  const double l2_s = median_seconds(15, [&] {
    float acc = 0.0f;
    for (int r = 0; r < kCallsPerSample; ++r) {
      acc += k.sq_l2_f32(x.data(), y.data(), kLen);
      y[static_cast<std::size_t>(r) % kLen] += 1e-7f;
    }
    g_sink = g_sink + acc;
  });
  out.sq_l2_gelems = static_cast<double>(kLen) * kCallsPerSample / l2_s / 1e9;
  return out;
}

ModelProbe probe_model(const Identity& id, const std::string& archive,
                       std::uint64_t seed, int reps) {
  ModelProbe out;
  std::unique_ptr<surro::models::TabularGenerator> model;
  out.load_ms = median_seconds(reps, [&] {
                  model = surro::models::load_model_file(archive);
                }) * 1e3;
  out.clone_ms = median_seconds(reps, [&] {
                   auto copy = model->clone();
                   g_sink = g_sink + static_cast<double>(copy->fitted());
                 }) * 1e3;
  std::uint64_t chunk = 0;
  out.sample_chunk_ms =
      median_seconds(reps, [&] {
        const auto t = model->sample_chunk(
            std::min(id.chunk_rows, id.rows),
            surro::models::derive_chunk_seed(seed, chunk++));
        g_sink = g_sink + static_cast<double>(t.num_rows());
      }) * 1e3;
  std::uint64_t job = 0;
  out.sample_into_ms =
      median_seconds(reps, [&] {
        surro::models::SampleRequest req;
        req.rows = id.rows;
        req.seed = seed + job++;
        req.chunk_rows = id.chunk_rows;
        req.threads = 0;
        surro::tabular::Table t;
        model->sample_into(t, req);
        g_sink = g_sink + static_cast<double>(t.num_rows());
      }) * 1e3;
  return out;
}

Ladder run_ladder(const std::vector<Identity>& ids, const Fixture& fixture,
                  std::uint64_t seed, int reps, const std::string& scratch,
                  Tracer& tracer) {
  constexpr int kWarmup = 2;
  Ladder out;
  std::vector<std::string> keys;
  for (const auto& id : ids) keys.push_back(id.key);
  std::int64_t index = kLadderBase;
  // One traced job: client.job root, the call, latency in ms.
  const auto timed_job = [&](const Identity& id, auto&& call) {
    const std::int64_t j = index++;
    const std::uint64_t s = job_seed(seed, j);
    bind_job(tracer, j, s, id);
    const auto root = tracer.open(j, "client.job", 0);
    tracer.set(j, Tracer::Slot::kRoot, root);
    tracer.set(j, Tracer::Slot::kCurrent, root);
    surro::util::Stopwatch sw;
    call(j, s);
    const double ms = sw.millis();
    tracer.close(root);
    return ms;
  };

  const auto service_job = [](surro::serve::SampleBackend& backend,
                               const Identity& id, std::uint64_t s) {
    surro::serve::SampleJob job;
    job.model_key = id.key;
    job.rows = id.rows;
    job.seed = s;
    job.chunk_rows = id.chunk_rows;
    if (backend.submit(std::move(job)).get().table.num_rows() != id.rows) {
      throw std::runtime_error("ladder: short service result");
    }
  };

  LocalStack stack(fixture, keys, &tracer, /*http=*/true);
  for (const auto& id : ids) {
    for (int r = 0; r < reps + kWarmup; ++r) {
      const double ms = timed_job(id, [&](std::int64_t, std::uint64_t s) {
        service_job(stack.backend(), id, s);
      });
      if (r >= kWarmup) out.service_ms[id.key].push_back(ms);
    }
  }

  {  // The churn rung (Ladder::miss_ms).
    surro::serve::ModelHost host(surro::serve::HostConfig{1, 0.0});
    for (const auto& id : ids) {
      host.register_archive(id.key, fixture.archives.at(id.key));
    }
    surro::serve::SampleService service(host);
    for (int r = 0; r < reps + kWarmup; ++r) {
      for (const auto& id : ids) {
        const double ms = timed_job(id, [&](std::int64_t, std::uint64_t s) {
          service_job(service, id, s);
        });
        if (r >= kWarmup) out.miss_ms[id.key].push_back(ms);
      }
    }
    const auto loads = service.stats().host.loads;
    if (loads != static_cast<std::size_t>(reps + kWarmup) * ids.size()) {
      throw std::runtime_error("ladder: a churn-rung job hit the cache");
    }
  }

  const Identity& first = ids.front();
  surro::net::ApiClient api("127.0.0.1", stack.port());
  for (int r = 0; r < reps + kWarmup; ++r) {
    const double ms = timed_job(first, [&](std::int64_t j, std::uint64_t s) {
      std::uint64_t service_id = 0;
      {
        ScopedSpan span(tracer, j, "net.submit");
        service_id = api.submit(first.key, first.rows, s, first.chunk_rows);
      }
      ScopedSpan span(tracer, j, "net.wait");
      if (api.wait_result(service_id, kPageRows).table.num_rows() !=
          first.rows) {
        throw std::runtime_error("ladder: short socket result");
      }
    });
    if (r >= kWarmup) out.socket_ms.push_back(ms);
  }

  // One `surro_cli serve --worker` process behind a remote-only ShardPool.
  surro::serve::WorkerFleetConfig fc;
  fc.cli_path = SURRO_CLI_PATH;
  fc.workers = 1;
  fc.scratch_dir = scratch;
  fc.serve_args = {"--models",
                   first.key + "=" + fixture.archives.at(first.key),
                   "--capacity", "1", "--threads", "2", "--page-rows",
                   std::to_string(kPageRows), "--serve-seconds", "170"};
  std::filesystem::create_directories(scratch);
  surro::serve::WorkerFleet fleet(fc);
  surro::util::Stopwatch boot;
  fleet.start();
  out.boot_s = boot.seconds();
  {
    surro::serve::ShardPoolConfig pc;
    pc.shards = 0;
    surro::serve::RemoteShardConfig rc;
    rc.port = fleet.port(0);
    rc.page_rows = kPageRows;
    pc.remotes.push_back(rc);
    surro::serve::ShardPool pool(pc);
    pool.register_archive(first.key, fixture.archives.at(first.key));
    for (int r = 0; r < reps + kWarmup; ++r) {
      double service_ms = 0.0;
      const double ms = timed_job(first, [&](std::int64_t j, std::uint64_t s) {
        surro::serve::SampleJob job;
        job.model_key = first.key;
        job.rows = first.rows;
        job.seed = s;
        job.chunk_rows = first.chunk_rows;
        std::future<surro::serve::SampleResult> future;
        {
          ScopedSpan span(tracer, j, "shard.submit");
          future = pool.submit(std::move(job));
        }
        ScopedSpan span(tracer, j, "shard.wait");
        const auto res = future.get();
        if (res.table.num_rows() != first.rows) {
          throw std::runtime_error("ladder: short remote result");
        }
        service_ms = res.total_seconds * 1e3;
      });
      if (r >= kWarmup) out.hop_ms.push_back(ms - service_ms);
    }
    pool.drain();
  }
  out.worker_rss_mb = peak_rss_mb(std::to_string(fleet.pid(0)));
  if (fleet.shutdown() != 0) {
    throw std::runtime_error("ladder: worker did not shut down cleanly");
  }
  return out;
}

}  // namespace perfbench

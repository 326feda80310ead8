#include "workloads.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "eval/experiment.hpp"
#include "net/client.hpp"
#include "serve/replay.hpp"
#include "util/json_parse.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace perfbench {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------- decorators --

/// Records a span around every sample_chunk and clone of a fitted model.
class TracedGenerator : public surro::models::TabularGenerator {
 public:
  TracedGenerator(std::unique_ptr<surro::models::TabularGenerator> inner,
                  Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  void fit(const surro::tabular::Table& train,
           const surro::models::FitOptions& opts) override {
    inner_->fit(train, opts);
  }
  [[nodiscard]] bool fitted() const noexcept override {
    return inner_->fitted();
  }
  [[nodiscard]] std::string key() const override { return inner_->key(); }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] surro::tabular::Table sample_chunk(
      std::size_t n, std::uint64_t seed) override {
    if (!tracer_.enabled()) return inner_->sample_chunk(n, seed);
    const auto job = tracer_.lookup(Tracer::Key::kChunkSeed, seed);
    const auto id = tracer_.open(job, "models.sample_chunk",
                                 tracer_.get(job, Tracer::Slot::kServeJob));
    auto out = inner_->sample_chunk(n, seed);
    tracer_.close(id);
    tracer_.count("models.chunks");
    return out;
  }
  void save(std::ostream& os) const override { inner_->save(os); }
  void load(std::istream& is) override { inner_->load(is); }
  [[nodiscard]] std::unique_ptr<surro::models::TabularGenerator> clone()
      const override {
    const auto id = tracer_.open(kNoJob, "models.clone", 0);
    auto copy = inner_->clone();
    tracer_.close(id);
    tracer_.count("models.clones");
    return std::make_unique<TracedGenerator>(std::move(copy), tracer_);
  }
  [[nodiscard]] bool concurrent_sampling() const noexcept override {
    return inner_->concurrent_sampling();
  }

 private:
  std::unique_ptr<surro::models::TabularGenerator> inner_;
  Tracer& tracer_;
};

/// Records the admission call ("serve.submit") and the job's life in the
/// service, submit to last chunk ("serve.job").
class TracedBackend : public surro::serve::SampleBackend {
 public:
  TracedBackend(surro::serve::SampleBackend& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] surro::serve::Submitted submit_job(
      surro::serve::SampleJob job) override {
    if (!tracer_.enabled()) return inner_.submit_job(std::move(job));
    const auto j = tracer_.lookup(Tracer::Key::kJobSeed, job.seed);
    const auto life = tracer_.open(j, "serve.job",
                                   tracer_.get(j, Tracer::Slot::kRoot));
    tracer_.set(j, Tracer::Slot::kServeJob, life);
    job.on_progress = [&tracer = tracer_, life,
                       next = std::move(job.on_progress)](
                          std::size_t done, std::size_t total) {
      if (done == total) tracer.close(life);
      if (next) next(done, total);
    };
    ScopedSpan submit(tracer_, j, "serve.submit");
    return inner_.submit_job(std::move(job));
  }
  bool cancel(std::uint64_t job_id) override { return inner_.cancel(job_id); }
  void drain() override { inner_.drain(); }
  [[nodiscard]] surro::serve::ServiceStats stats() const override {
    return inner_.stats();
  }
  [[nodiscard]] std::size_t queue_depth() const override {
    return inner_.queue_depth();
  }
  [[nodiscard]] const surro::serve::ServiceConfig& config()
      const noexcept override {
    return inner_.config();
  }
  [[nodiscard]] std::vector<std::string> model_keys() const override {
    return inner_.model_keys();
  }
  [[nodiscard]] bool has_model(const std::string& key) const override {
    return inner_.has_model(key);
  }
  [[nodiscard]] bool model_resident(const std::string& key) const override {
    return inner_.model_resident(key);
  }

 private:
  surro::serve::SampleBackend& inner_;
  Tracer& tracer_;
};

/// The HttpServer handler: RestApi::handle, with a "net.handle" span and
/// request/byte counters while tracing.
surro::net::HttpServer::Handler traced_handler(surro::net::RestApi& api,
                                               Tracer* tracer) {
  return [&api, tracer](const surro::net::HttpRequest& req) {
    if (tracer == nullptr || !tracer->enabled()) return api.handle(req);
    const bool post = req.method == "POST";
    std::int64_t job = kNoJob;
    try {
      if (post) {
        job = tracer->lookup(
            Tracer::Key::kJobSeed,
            std::stoull(surro::util::parse_json(req.body).at("seed")
                            .as_string()));
      } else if (req.path.rfind("/v1/jobs/", 0) == 0) {
        job = tracer->lookup(Tracer::Key::kServiceId,
                             std::stoull(req.path.substr(9)));
      }
    } catch (const std::exception&) {
      job = kNoJob;  // not a job request the benchmark issued
    }
    surro::net::HttpResponse resp;
    {
      ScopedSpan span(*tracer, job, "net.handle");
      resp = api.handle(req);
    }
    if (post && resp.status == 202) {
      tracer->bind(Tracer::Key::kServiceId,
                   std::stoull(surro::util::parse_json(resp.body)
                                   .at("job_id").as_string()),
                   job);
      tracer->count("net.jobs");
    }
    tracer->count("net.requests");
    tracer->count("net.resp_bytes", static_cast<double>(resp.body.size()));
    return resp;
  };
}

/// Job `index` takes one entry of the mix. Consecutive blocks of
/// mix-size jobs are each a seeded shuffle of the whole mix: every window
/// holds the mix in its exact proportions (the pooled p50 of a mix moves
/// with its composition), and the order is not a fixed cycle (a strict
/// round-robin let the closed loop lock into one of several periodic
/// batching patterns, a different one from run to run).
std::size_t identity_of(const WorkloadSpec& w, std::uint64_t seed,
                        std::int64_t index) {
  const auto n = static_cast<std::int64_t>(w.cycle.size());
  const std::int64_t block = index >= 0 ? index / n : -((-index - 1) / n) - 1;
  std::vector<std::size_t> order(w.cycle.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  surro::util::Rng rng(job_seed(seed, block));
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform_index(i)]);
  }
  return order[static_cast<std::size_t>(index - block * n)];
}

void fill_service_times(JobRecord& r, double queue_s, double sample_s,
                        double total_s) {
  r.queue_ms = queue_s * 1e3;
  r.sample_ms = sample_s * 1e3;
  r.service_ms = total_s * 1e3;
}

}  // namespace

void bind_job(Tracer& tracer, std::int64_t index, std::uint64_t seed,
              const Identity& id) {
  if (!tracer.enabled()) return;
  tracer.bind(Tracer::Key::kJobSeed, seed, index);
  const std::size_t chunks = (id.rows + id.chunk_rows - 1) / id.chunk_rows;
  for (std::size_t c = 0; c < chunks; ++c) {
    tracer.bind(Tracer::Key::kChunkSeed,
                surro::models::derive_chunk_seed(seed, c), index);
  }
}

// ----------------------------------------------------------- workloads --

WorkloadSpec workload(const std::string& name) {
  WorkloadSpec w;
  w.name = name;
  if (name == "wire_small") {
    w.cycle = {{"smote", 1000, 512}};
    w.http = true;
  } else if (name == "model_mix") {
    w.cycle = {{"smote", 1024, 256},
               {"tvae", 512, 128},
               {"ctabgan", 512, 128},
               {"tabddpm", 32, 8}};
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

std::vector<Identity> probe_identities(const WorkloadSpec& w) {
  std::vector<Identity> out;
  for (const char* key : {"smote", "tvae", "ctabgan", "tabddpm"}) {
    const auto it = std::find_if(w.cycle.begin(), w.cycle.end(),
                                 [&](const Identity& i) { return i.key == key; });
    out.push_back(it != w.cycle.end()
                      ? *it
                      : Identity{key, w.cycle.front().rows,
                                 w.cycle.front().chunk_rows});
  }
  return out;
}

std::uint64_t job_seed(std::uint64_t workload_seed, std::int64_t index) {
  std::uint64_t state = workload_seed * 0x9E3779B97F4A7C15ULL +
                        static_cast<std::uint64_t>(index);
  return surro::util::splitmix64(state);
}

// ------------------------------------------------------------- fixture --

Fixture build_fixture(const std::vector<std::string>& keys,
                      const std::string& dir) {
  // The served models are the same in every run; the workload seed varies
  // the traffic. Training data drawn per seed would move every model's
  // sampling cost (encoded widths, neighbour sets) from run to run.
  constexpr std::uint64_t kDataSeed = 42;
  std::filesystem::create_directories(dir);
  auto cfg = surro::eval::quick_experiment_config();
  cfg.seed = kDataSeed;
  cfg.data.seed = kDataSeed;
  cfg.data.model.days = 6.0;
  cfg.budget.epochs = 2;
  const auto data = surro::eval::prepare_data(cfg);
  Fixture fx;
  for (const auto& key : keys) {
    surro::util::Stopwatch sw;
    auto model = surro::models::make_generator(key, cfg.budget, kDataSeed);
    model->fit(data.train);
    fx.fit_s[key] = sw.seconds();
    const std::string path = dir + "/" + key + ".bin";
    surro::models::save_model_file(*model, path);
    fx.archives[key] = path;
  }
  return fx;
}

// -------------------------------------------------------------- stacks --

LocalStack::LocalStack(const Fixture& fixture,
                       const std::vector<std::string>& keys, Tracer* tracer,
                       bool http)
    : host_(surro::serve::HostConfig{std::max<std::size_t>(keys.size(), 1),
                                     0.0}),
      service_(host_) {
  for (const auto& key : keys) {
    if (tracer == nullptr) {
      host_.register_archive(key, fixture.archives.at(key));
    } else {
      host_.register_fitted(
          key, std::make_shared<TracedGenerator>(
                   surro::models::load_model_file(fixture.archives.at(key)),
                   *tracer));
    }
  }
  backend_ = &service_;
  if (tracer != nullptr) {
    traced_ = std::make_unique<TracedBackend>(service_, *tracer);
    backend_ = traced_.get();
  }
  if (http) {
    surro::net::RestConfig rest;
    rest.page_rows = kPageRows;
    api_ = std::make_unique<surro::net::RestApi>(*backend_, rest);
    server_ = std::make_unique<surro::net::HttpServer>(
        surro::net::ServerConfig{}, traced_handler(*api_, tracer));
    server_->start();
  }
}

std::uint16_t LocalStack::port() const noexcept {
  return server_ ? server_->port() : 0;
}

// --------------------------------------------------------------- loops --

Window run_closed(const WorkloadSpec& w, LocalStack& stack, std::uint64_t seed,
                  std::int64_t first_index, double seconds, Tracer& tracer) {
  const std::uint16_t port = stack.port();
  std::mutex mutex;
  std::int64_t next = first_index;
  Window out;
  surro::util::Stopwatch clock;
  double last_done = 0.0;
  const auto client = [&] {
    std::optional<surro::net::ApiClient> api;
    if (port != 0) api.emplace("127.0.0.1", port);
    std::vector<JobRecord> mine;
    double my_last = 0.0;
    for (;;) {
      std::int64_t index = 0;
      {
        const std::lock_guard lock(mutex);
        if (clock.seconds() >= seconds) break;
        index = next++;
      }
      JobRecord r;
      r.index = index;
      r.seed = job_seed(seed, index);
      r.identity = identity_of(w, seed, index);
      const Identity& id = w.cycle[r.identity];
      bind_job(tracer, index, r.seed, id);
      const double t0 = clock.seconds();
      const auto root = tracer.open(index, "client.job", 0);
      tracer.set(index, Tracer::Slot::kRoot, root);
      tracer.set(index, Tracer::Slot::kCurrent, root);
      surro::tabular::Table table;
      try {
        if (api) {
          std::uint64_t service_id = 0;
          {
            ScopedSpan span(tracer, index, "net.submit");
            service_id = api->submit(id.key, id.rows, r.seed, id.chunk_rows);
          }
          ScopedSpan span(tracer, index, "net.wait");
          auto res = api->wait_result(service_id, kPageRows);
          fill_service_times(r, res.queue_seconds, res.sample_seconds,
                             res.total_seconds);
          table = std::move(res.table);
        } else {
          surro::serve::SampleJob job;
          job.model_key = id.key;
          job.rows = id.rows;
          job.seed = r.seed;
          job.chunk_rows = id.chunk_rows;
          auto res = stack.backend().submit(std::move(job)).get();
          fill_service_times(r, res.queue_seconds, res.sample_seconds,
                             res.total_seconds);
          r.batch_jobs = res.batch_jobs;
          table = std::move(res.table);
        }
        r.ok = table.num_rows() == id.rows;
      } catch (const std::exception&) {
        r.ok = false;
      }
      const double t1 = clock.seconds();
      tracer.close(root);
      r.latency_ms = r.ok ? (t1 - t0) * 1e3 : kInf;
      if (r.ok) {
        r.rows = table.num_rows();
        r.digest = surro::serve::hash_table(table);
      }
      my_last = std::max(my_last, t1);
      mine.push_back(r);
    }
    const std::lock_guard lock(mutex);
    out.jobs.insert(out.jobs.end(), mine.begin(), mine.end());
    last_done = std::max(last_done, my_last);
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < w.clients; ++c) threads.emplace_back(client);
  for (auto& t : threads) t.join();
  out.elapsed_s = last_done;
  std::sort(out.jobs.begin(), out.jobs.end(),
            [](const JobRecord& a, const JobRecord& b) {
              return a.index < b.index;
            });
  return out;
}

// ----------------------------------------------------------- byte gate --

std::size_t verify_bytes(const WorkloadSpec& w, const Fixture& fixture,
                         const std::vector<JobRecord>& jobs) {
  std::map<std::string, std::unique_ptr<surro::models::TabularGenerator>>
      reference;
  for (const auto& id : w.cycle) {
    if (!reference.count(id.key)) {
      reference[id.key] =
          surro::models::load_model_file(fixture.archives.at(id.key));
    }
  }
  std::mutex mutex;
  std::size_t mismatches = 0;
  std::size_t next = 0;
  const auto worker = [&] {
    std::map<std::string, std::unique_ptr<surro::models::TabularGenerator>>
        replicas;
    std::size_t mine = 0;
    for (;;) {
      std::size_t k = 0;
      {
        const std::lock_guard lock(mutex);
        if (next >= jobs.size()) break;
        k = next++;
      }
      const JobRecord& r = jobs[k];
      if (!r.ok) continue;
      const Identity& id = w.cycle[r.identity];
      auto& model = *reference.at(id.key);
      surro::models::TabularGenerator* sampler = &model;
      if (!model.concurrent_sampling()) {
        auto& replica = replicas[id.key];
        if (!replica) replica = model.clone();
        sampler = replica.get();
      }
      surro::models::SampleRequest req;
      req.rows = id.rows;
      req.seed = r.seed;
      req.chunk_rows = id.chunk_rows;
      req.threads = 1;
      surro::tabular::Table table;
      sampler->sample_into(table, req);
      if (surro::serve::hash_table(table) != r.digest) ++mine;
    }
    const std::lock_guard lock(mutex);
    mismatches += mine;
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) threads.emplace_back(worker);
  for (auto& t : threads) t.join();
  return mismatches;
}

// ----------------------------------------------------------------- rss --

double peak_rss_mb(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

}  // namespace perfbench

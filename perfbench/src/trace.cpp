#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const auto& s : spans) {
    const auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end()) continue;
    const Span& p = spans[it->second];
    const double lo = std::max(s.start, p.start);
    const double hi = std::min(s.end, p.end);
    if (hi > lo) children[it->second].emplace_back(lo, hi);
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double run_lo = 0.0;
    double run_hi = -1.0;
    for (const auto& [lo, hi] : iv) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    out[i] = std::max(0.0, (spans[i].end - spans[i].start) - covered);
  }
  return out;
}

std::map<std::string, double> self_time_by_layer(
    const std::vector<Span>& spans) {
  const auto self = self_times(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto dot = spans[i].name.rfind('.');
    out[spans[i].name.substr(0, dot)] += self[i];
  }
  return out;
}

std::uint64_t Tracer::open(std::int64_t job, const char* name,
                           std::uint64_t parent) {
  if (!enabled()) return 0;
  const double t = now();
  const std::lock_guard lock(mutex_);
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.job = job;
  s.name = name;
  s.start = t;
  s.end = t;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::close(std::uint64_t id) {
  if (id == 0) return;
  const double t = now();
  const std::lock_guard lock(mutex_);
  spans_.at(id - 1).end = t;
}

std::uint64_t Tracer::slot_key(std::int64_t job, Slot slot) noexcept {
  return (static_cast<std::uint64_t>(job) << 2) |
         static_cast<std::uint64_t>(slot);
}

void Tracer::set(std::int64_t job, Slot slot, std::uint64_t span) {
  const std::lock_guard lock(mutex_);
  slots_[slot_key(job, slot)] = span;
}

std::uint64_t Tracer::get(std::int64_t job, Slot slot) const {
  const std::lock_guard lock(mutex_);
  const auto it = slots_.find(slot_key(job, slot));
  return it == slots_.end() ? 0 : it->second;
}

void Tracer::bind(Key key, std::uint64_t value, std::int64_t job) {
  const std::lock_guard lock(mutex_);
  keys_[static_cast<int>(key)][value] = job;
}

std::int64_t Tracer::lookup(Key key, std::uint64_t value) const {
  const std::lock_guard lock(mutex_);
  const auto& map = keys_[static_cast<int>(key)];
  const auto it = map.find(value);
  return it == map.end() ? kNoJob : it->second;
}

void Tracer::count(const char* name, double amount) {
  if (!enabled()) return;
  const std::lock_guard lock(mutex_);
  counters_[name] += amount;
}

double Tracer::counter(const std::string& name) const {
  const std::lock_guard lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard lock(mutex_);
  return spans_;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  for (const auto& s : spans()) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"job\":" << s.job << ",\"name\":\"" << s.name
        << "\",\"start\":" << s.start << ",\"end\":" << s.end << "}\n";
  }
}

}  // namespace perfbench

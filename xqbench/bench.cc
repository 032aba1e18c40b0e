#include "xqbench/bench.h"

#include <pthread.h>
#include <sched.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/base/hash.h"

namespace xqbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double rank = std::ceil(q * static_cast<double>(v.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += std::log(std::max(x, 1e-9));
  return std::exp(s / static_cast<double>(v.size()));
}

double SlicedQuantile(const std::vector<std::vector<double>>& slices,
                      double q) {
  std::vector<double> per_slice;
  for (const std::vector<double>& s : slices) {
    if (!s.empty()) per_slice.push_back(Quantile(s, q));
  }
  return Median(per_slice);
}

void Tracer::Append(const Tracer& other) {
  const int base = static_cast<int>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(std::move(s));
  }
}

std::map<std::string, Tracer::NameTotals> Tracer::Totals() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
    }
  }
  std::map<std::string, NameTotals> out;
  for (size_t i = 0; i < spans_.size(); i++) {
    const Span& s = spans_[i];
    const int64_t dur = s.end_ns - s.start_ns;
    // Union of child intervals clipped to the parent.
    auto& ch = children[i];
    std::sort(ch.begin(), ch.end());
    int64_t covered = 0, cur_lo = 0, cur_hi = -1;
    for (auto [lo, hi] : ch) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    NameTotals& t = out[s.name];
    t.count++;
    t.total_us += static_cast<double>(dur) / 1e3;
    t.self_us += static_cast<double>(dur - covered) / 1e3;
  }
  return out;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "id\tparent\trequest\tname\tstart_ns\tend_ns\n";
  for (size_t i = 0; i < spans_.size(); i++) {
    const Span& s = spans_[i];
    out << i << '\t' << s.parent << '\t' << s.request << '\t' << s.name
        << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

namespace {

std::string RefKey(const std::string& workload, int variant,
                   const std::string& kind) {
  return workload + "\t" + std::to_string(variant) + "\t" + kind;
}

}  // namespace

uint64_t Digest(const std::string& s) { return xqc::Hash64(s); }

bool RefTable::Load(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read " + path;
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, kind, digest;
    int variant = -1;
    size_t bytes = 0;
    if (!(fields >> workload >> variant >> kind >> digest >> bytes)) {
      *error = "malformed line in " + path + ": " + line;
      return false;
    }
    map_[RefKey(workload, variant, kind)] =
        RefEntry{std::stoull(digest, nullptr, 16), bytes};
  }
  return true;
}

const RefEntry* RefTable::Find(const std::string& workload, int variant,
                               const std::string& kind) const {
  auto it = map_.find(RefKey(workload, variant, kind));
  return it == map_.end() ? nullptr : &it->second;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

KeepAwake::KeepAwake() {
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned i = 0; i < cpus; i++) {
    threads_.emplace_back([this, i] {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(i, &set);
      pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
      sched_param param{};
      if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) {
        return;
      }
      while (!stop_.load(std::memory_order_relaxed)) {
        __builtin_ia32_pause();
      }
    });
  }
}

KeepAwake::~KeepAwake() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads_) t.join();
}

}  // namespace xqbench

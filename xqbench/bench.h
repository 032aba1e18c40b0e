// xqbench shared pieces: clocks, order statistics, the seeded RNG, the
// in-memory span recorder, the interpreter reference table, and the CPU
// keep-awake used by the multi-threaded workloads.
#ifndef XQBENCH_BENCH_H_
#define XQBENCH_BENCH_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace xqbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}
inline double MsSince(Clock::time_point t0) {
  return MsSince(t0, Clock::now());
}
inline int64_t NsOf(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

/// Nearest-rank quantile (q in (0,1]): the smallest sample with at least
/// q*n samples at or below it. Unlike interpolation it never mixes two
/// clusters, which matters when one query kind is 5% of all ops.
double Quantile(std::vector<double> v, double q);
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }
double GeoMean(const std::vector<double>& v);
/// Median over consecutive slices of a run of each slice's quantile. Host
/// stalls on a shared machine come in bursts; a burst moves one slice's
/// tail, not the median slice's, so run-to-run spread of tail latencies
/// drops while a lasting slowdown still shows in every slice.
double SlicedQuantile(const std::vector<std::vector<double>>& slices,
                      double q);

/// SplitMix64: the benchmark's only source of randomness, so a seed fixes
/// every input (document variant, op order, arrivals, drawn ids).
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Exponential with the given mean (Poisson arrivals).
  double Exp(double mean) { return -mean * std::log(1.0 - Uniform()); }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; i--) {
      std::swap((*v)[i - 1], (*v)[Next() % i]);
    }
  }

 private:
  uint64_t s_;
};

/// Bench-side spans around public calls into each layer. Recording is a
/// vector push; nothing is written until the run ends. One Tracer per
/// thread; merge with Append.
struct Span {
  std::string name;
  int parent = -1;     // index into the same tracer, -1 = root
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool on = false) : on_(on) {}
  bool on() const { return on_; }
  /// Returns the span id (or -1 when tracing is off).
  int Begin(const std::string& name, int parent, uint64_t request) {
    if (!on_) return -1;
    spans_.push_back(Span{name, parent, request, NsOf(Clock::now()), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = NsOf(Clock::now());
  }
  /// Records an already-timed interval.
  int Add(const std::string& name, int parent, uint64_t request,
          Clock::time_point t0, Clock::time_point t1) {
    if (!on_) return -1;
    spans_.push_back(Span{name, parent, request, NsOf(t0), NsOf(t1)});
    return static_cast<int>(spans_.size()) - 1;
  }
  void Append(const Tracer& other);
  const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: {count, total duration us, total self time us}. Self
  /// time is the duration minus the union of its children's intervals.
  struct NameTotals {
    int64_t count = 0;
    double total_us = 0;
    double self_us = 0;
  };
  std::map<std::string, NameTotals> Totals() const;
  /// Writes one tab-separated line per span.
  bool WriteTsv(const std::string& path) const;

 private:
  bool on_;
  std::vector<Span> spans_;
};

/// Interpreter reference digests (refs.tsv): workload, variant, kind ->
/// XXH64 of the serialized result and its length.
struct RefEntry {
  uint64_t digest = 0;
  size_t bytes = 0;
};
class RefTable {
 public:
  bool Load(const std::string& path, std::string* error);
  const RefEntry* Find(const std::string& workload, int variant,
                       const std::string& kind) const;

 private:
  std::map<std::string, RefEntry> map_;
};
uint64_t Digest(const std::string& s);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Peak resident set size of this process (VmHWM), in MB.
double PeakRssMb();

/// Keeps every CPU out of idle while alive: one SCHED_IDLE spinner per CPU,
/// which the kernel preempts the moment any normal thread wants the CPU
/// (the in-guest equivalent of idle=poll). On a virtualized host a halted
/// vCPU can take milliseconds to wake, which made cross-thread handoff
/// latencies (client -> event loop -> worker -> event loop -> client) swing
/// tenfold with host load; the spinners remove that host artifact. They
/// never compete with the program's threads. If SCHED_IDLE is refused the
/// spinner exits instead of spinning at normal priority.
class KeepAwake {
 public:
  KeepAwake();
  ~KeepAwake();
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

}  // namespace xqbench

#endif  // XQBENCH_BENCH_H_

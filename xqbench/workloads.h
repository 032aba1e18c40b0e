// The four xqbench workloads and the metric catalogue they report into.
#ifndef XQBENCH_WORKLOADS_H_
#define XQBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/engine/engine.h"
#include "xqbench/bench.h"

namespace xqbench {

/// Every run uses all of a fixed pool of document variants, so the work a
/// run measures does not depend on its seed (which orders ops and draws
/// ids and arrivals); refs.tsv holds the interpreter's digests for every
/// variant, so every op is checked without running the (minutes-slow)
/// interpreter per run.
constexpr int kVariants = 4;

struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;          // scratch space inside the checkout
  std::string trace_out;         // span dump path ("" = none)
  const RefTable* refs = nullptr;
};

struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Measured values by metric name; Finish() orders them against the
  /// catalogue and fills inapplicable per-layer metrics with 0.
  std::map<std::string, double> values;
  /// Per query kind median latency (ms), printed for compare.py.
  std::map<std::string, double> kind_ms;
  /// Human-readable lines (trace checks, notes), printed before the JSON.
  std::vector<std::string> notes;
};

/// "Q" + 9 -> "Q9": XMark and Clio kind names.
inline std::string KindName(char prefix, int number) {
  std::string name(1, prefix);
  name += std::to_string(number);
  return name;
}

/// One query kind: a name (Q1, N2, flat_scan, http_person, ...) and text.
struct Kind {
  std::string name;
  std::string text;
};

/// The catalogue: every end-to-end and per-layer metric with its unit, in
/// report order. run.py checks it against BENCHMARK.json.
const std::vector<std::pair<std::string, std::string>>& EndToEndCatalogue();
const std::vector<std::pair<std::string, std::string>>& PerLayerCatalogue();
std::vector<Metric> Finish(const RunResult& r, bool trace);

/// Notes the sliced p95 and p99 latency. They are printed for reading but
/// are not BENCHMARK.json metrics: on a shared host they move with the
/// host far more than with the program (see README.md).
void TailNotes(const std::vector<std::vector<double>>& slices, RunResult* r);

/// xmark_table3, clio_table5 and collection_scan (inprocess.cc).
RunResult RunInProcess(const RunConfig& cfg);
RunResult RunHttpPoint(const RunConfig& cfg);

/// Interpreter reference outputs (use_algebra=false) for one workload
/// variant: kind -> serialized result. `work_dir` hosts on-disk corpora.
std::vector<std::pair<std::string, std::string>> InProcessReferences(
    const std::string& workload, int variant, const std::string& work_dir);
std::vector<std::pair<std::string, std::string>> HttpReferences(int variant);

// ---- shared by the workload files ----

/// Re-runs Engine::Prepare's phases through their public entry points, in
/// Prepare's order, under one "prepare.phases" span (child of `parent`)
/// with a child span per phase. Adds plan sizes and rewrite counts to
/// *sums.
void ReplayPreparePhases(const std::string& text,
                         const xqc::EngineOptions& opts, Tracer* tracer,
                         uint64_t request, int parent,
                         std::map<std::string, double>* sums);

/// Folds one execution's ExecStats into per-layer sums.
void AddExecStats(const xqc::ExecStats& s, int64_t result_items,
                  std::map<std::string, double>* sums);

/// Turns the spans into the prepare-phase timing metrics, the prepare-span
/// check, and a self-time line per span name. `request_kind` maps each
/// traced request id to its query kind.
void PrepareSpanMetrics(const Tracer& tracer,
                        const std::map<uint64_t, std::string>& request_kind,
                        RunResult* r);

/// Prepares, runs and serializes `text` with the interpreter
/// (use_algebra=false); failures come back as "ERROR <status>".
std::string InterpretToString(const std::string& text,
                              xqc::DynamicContext* ctx);

}  // namespace xqbench

#endif  // XQBENCH_WORKLOADS_H_

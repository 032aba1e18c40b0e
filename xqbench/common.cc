// Metric catalogue and the helpers every workload shares: the prepare-phase
// replay, ExecStats folding, plan sizes, and interpreter reference runs.
#include <cstdio>
#include <functional>

#include "src/algebra/op.h"
#include "src/compile/compiler.h"
#include "src/opt/ddo_infer.h"
#include "src/opt/optimizer.h"
#include "src/opt/parallel_infer.h"
#include "src/xml/serializer.h"
#include "src/xquery/normalize.h"
#include "src/xquery/parser.h"
#include "xqbench/workloads.h"

namespace xqbench {

namespace {

using Catalogue = std::vector<std::pair<std::string, std::string>>;

/// Every query kind of the BENCHMARK.json workloads, for
/// runtime.execute_ms.<kind>. xmark_table3 is not one of them (see
/// README.md); its per-kind times are in the `xqbench kinds` line.
std::vector<std::string> AllKindNames() {
  std::vector<std::string> out;
  for (int n = 2; n <= 4; n++) out.push_back(KindName('N', n));
  for (const char* k : {"flat_scan", "predicate_scan", "range_split",
                        "http_person", "http_item", "http_auction",
                        "http_bidders", "http_buyer"}) {
    out.push_back(k);
  }
  return out;
}

}  // namespace

const Catalogue& EndToEndCatalogue() {
  static const Catalogue kE2e = {
      {"setup_s", "s"},
      {"throughput_qps", "1/s"},
      {"latency_p50_ms", "ms"},
      {"query_geomean_ms", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return kE2e;
}

const Catalogue& PerLayerCatalogue() {
  static const Catalogue* kLayer = [] {
    auto* c = new Catalogue{
        {"xquery.parse_us", "us"},
        {"xquery.normalize_us", "us"},
        {"compile.compile_us", "us"},
        {"opt.optimize_us", "us"},
        {"opt.ddo_infer_us", "us"},
        {"opt.parallel_infer_us", "us"},
        {"prepare.total_us", "us"},
        {"compile.plan_ops", "count"},
        {"opt.plan_ops", "count"},
        {"opt.rewrites", "count"},
    };
    for (const std::string& k : AllKindNames()) {
      c->push_back({"runtime.execute_ms." + k, "ms"});
    }
    const Catalogue rest = {
        {"runtime.source_tuples", "count"},
        {"runtime.source_tuples_per_item", "ratio"},
        {"runtime.hash_joins", "count"},
        {"runtime.nested_loop_joins", "count"},
        {"runtime.range_joins", "count"},
        {"runtime.join_index_reuses", "count"},
        {"runtime.early_stops", "count"},
        {"runtime.guard_checks", "count"},
        {"runtime.peak_memory_mb", "MB"},
        {"xml.ddo_sorts", "count"},
        {"xml.index_lookups", "count"},
        {"xml.parse_mb_per_s", "MB/s"},
        {"xml.serialize_us", "us"},
        {"xml.serialize_mb_per_s", "MB/s"},
        {"xml.result_bytes", "bytes"},
        {"store.hit_ratio", "ratio"},
        {"store.misses", "count"},
        {"store.snapshot_hits", "count"},
        {"store.evictions", "count"},
        {"store.snapshot_mb_read", "MB"},
        {"parallel.partitions", "count"},
        {"parallel.range_splits", "count"},
        {"parallel.steals", "count"},
        {"parallel.fallbacks", "count"},
        {"parallel.speedup", "x"},
        {"service.latency_p50_us", "us"},
        {"service.overhead_p50_us", "us"},
        {"service.queue_wait_p99_ms", "ms"},
        {"service.retries", "count"},
        {"service.rejected", "count"},
        {"plan_cache.hit_ratio", "ratio"},
        {"plan_cache.compiles", "count"},
        {"plan_cache.evictions", "count"},
        {"plan_cache.coalesced", "count"},
        {"plan_cache.invalidations", "count"},
        {"net.overhead_p50_us", "us"},
        {"net.responses_4xx", "count"},
        {"net.responses_5xx", "count"},
        {"net.accept_paused", "count"},
        {"loadgen.lag_p99_ms", "ms"},
        {"trace.overhead_frac", "frac"},
        {"trace.prepare_span_ratio", "ratio"},
    };
    c->insert(c->end(), rest.begin(), rest.end());
    return c;
  }();
  return *kLayer;
}

void TailNotes(const std::vector<std::vector<double>>& slices,
               RunResult* r) {
  char line[160];
  std::snprintf(line, sizeof(line),
                "tail (not a contract metric): p95 %.4g ms, p99 %.4g ms",
                SlicedQuantile(slices, 0.95), SlicedQuantile(slices, 0.99));
  r->notes.push_back(line);
}

std::vector<Metric> Finish(const RunResult& r, bool trace) {
  std::vector<Metric> m;
  for (const auto& [name, unit] :
       trace ? PerLayerCatalogue() : EndToEndCatalogue()) {
    auto it = r.values.find(name);
    m.push_back({name, it == r.values.end() ? 0.0 : it->second, unit});
  }
  return m;
}

namespace {

/// Number of operators in a compiled module (main plan, globals,
/// functions).
int64_t CountPlanOps(const xqc::CompiledQuery& q) {
  std::function<int64_t(const xqc::Op&)> count = [&](const xqc::Op& op) {
    int64_t n = 1;
    for (const auto& d : op.deps) n += d ? count(*d) : 0;
    for (const auto& i : op.inputs) n += i ? count(*i) : 0;
    for (const auto& s : op.specs) n += s.key ? count(*s.key) : 0;
    return n;
  };
  int64_t n = q.plan ? count(*q.plan) : 0;
  for (const auto& [name, plan] : q.globals) n += plan ? count(*plan) : 0;
  for (const auto& [name, fn] : q.functions) n += fn.plan ? count(*fn.plan) : 0;
  return n;
}

}  // namespace

void ReplayPreparePhases(const std::string& text,
                         const xqc::EngineOptions& opts, Tracer* tracer,
                         uint64_t request, int parent,
                         std::map<std::string, double>* sums) {
  // The same calls, in the same order, as Engine::Prepare (engine.cc).
  const int root = tracer->Begin("prepare.phases", parent, request);
  int s = tracer->Begin("xquery.parse", root, request);
  xqc::QueryGuard parse_guard(opts.limits, opts.cancel);
  xqc::Result<xqc::Query> parsed = xqc::ParseXQuery(text, &parse_guard);
  tracer->End(s);
  if (!parsed.ok()) {
    tracer->End(root);
    return;
  }
  s = tracer->Begin("xquery.normalize", root, request);
  xqc::Result<xqc::Query> core = xqc::NormalizeQuery(parsed.value());
  if (core.ok()) {
    xqc::HoistLeadingLets(&core.value());
    if (opts.optimize) xqc::HoistNestedReturnBlocks(&core.value());
  }
  tracer->End(s);
  if (!core.ok()) {
    tracer->End(root);
    return;
  }
  s = tracer->Begin("compile.compile", root, request);
  xqc::Result<xqc::CompiledQuery> compiled = xqc::CompileQuery(core.value());
  tracer->End(s);
  if (!compiled.ok()) {
    tracer->End(root);
    return;
  }
  // The deep copy Prepare makes before rewriting is charged to the
  // optimizer phase, which it exists for.
  s = tracer->Begin("opt.optimize", root, request);
  xqc::CompiledQuery opt;
  opt.plan = xqc::CloneOp(*compiled.value().plan);
  for (const auto& [name, plan] : compiled.value().globals) {
    opt.globals.emplace_back(name,
                             plan == nullptr ? nullptr : xqc::CloneOp(*plan));
  }
  for (const auto& [name, fn] : compiled.value().functions) {
    xqc::CompiledFunction f = fn;
    f.plan = xqc::CloneOp(*fn.plan);
    opt.functions.emplace(name, std::move(f));
  }
  xqc::OptimizerStats ostats;
  if (opts.optimize) xqc::OptimizeQuery(&opt, &ostats);
  tracer->End(s);
  s = tracer->Begin("opt.ddo_infer", root, request);
  xqc::AnnotateDdoQuery(&opt);
  tracer->End(s);
  s = tracer->Begin("opt.parallel_infer", root, request);
  xqc::AnalyzeParallel(&opt);
  tracer->End(s);
  tracer->End(root);

  (*sums)["compile.plan_ops"] +=
      static_cast<double>(CountPlanOps(compiled.value()));
  (*sums)["opt.plan_ops"] += static_cast<double>(CountPlanOps(opt));
  (*sums)["opt.rewrites"] += ostats.remove_map + ostats.insert_product +
                             ostats.insert_join + ostats.insert_group_by +
                             ostats.map_through_group_by +
                             ostats.remove_duplicate_null +
                             ostats.insert_outer_join + ostats.split_select +
                             ostats.index_to_index_step +
                             ostats.fuse_path_step +
                             ostats.collapse_descendant;
}

void AddExecStats(const xqc::ExecStats& s, int64_t result_items,
                  std::map<std::string, double>* sums) {
  auto add = [&](const char* k, int64_t v) {
    (*sums)[k] += static_cast<double>(v);
  };
  add("runtime.source_tuples", s.source_tuples);
  add("runtime.result_items", result_items);
  add("runtime.hash_joins", s.hash_joins);
  add("runtime.nested_loop_joins", s.nested_loop_joins);
  add("runtime.range_joins", s.range_joins);
  add("runtime.join_index_reuses", s.join_index_reuses);
  add("runtime.early_stops", s.streaming_early_stops);
  add("runtime.guard_checks", s.guard_checks);
  add("xml.ddo_sorts", s.tree_join.ddo_sorts);
  add("xml.index_lookups", s.tree_join.index_lookups);
  add("store.hits", s.doc_store.hits);
  add("store.misses", s.doc_store.misses);
  add("store.snapshot_hits", s.doc_store.snapshot_hits);
  add("store.evictions", s.doc_store.evictions);
  add("store.snapshot_bytes_read", s.doc_store.snapshot_bytes_read);
  add("parallel.partitions", s.parallel_partitions);
  add("parallel.range_splits", s.parallel_range_splits);
  add("parallel.steals", s.parallel_steals);
  add("parallel.fallbacks", s.parallel_fallbacks);
  double& peak = (*sums)["runtime.peak_memory_mb"];
  peak = std::max(peak, static_cast<double>(s.peak_memory_bytes) / 1048576.0);
}

void PrepareSpanMetrics(const Tracer& tracer,
                        const std::map<uint64_t, std::string>& request_kind,
                        RunResult* r) {
  // Whatever runs second finds the front end's caches warm (the same text
  // was just parsed): a replay placed beside a Prepare runs up to twice as
  // fast as a cold one, or makes the Prepare after it that much faster. So
  // odd requests replay the phases first and even requests run Prepare
  // alone, each right after another op's execution; the check compares,
  // per kind, the median replayed phase sum of the odd requests with the
  // median Prepare of the even ones — both cold — and takes the geometric
  // mean over kinds. Medians, not sums: one host stall inside a 100 us
  // phase would otherwise dominate a run's total.
  static const char* const kPhases[] = {
      "xquery.parse",  "xquery.normalize", "compile.compile",
      "opt.optimize",  "opt.ddo_infer",    "opt.parallel_infer"};
  std::map<uint64_t, double> replay_us;  // requests that replayed
  std::map<uint64_t, double> prepare_us;
  std::map<std::string, std::vector<double>> phase_us;
  for (const Span& s : tracer.spans()) {
    const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    if (s.name == "engine.prepare") prepare_us[s.request] = us;
    for (const char* phase : kPhases) {
      if (s.name == phase) {
        replay_us[s.request] += us;
        phase_us[phase].push_back(us);
      }
    }
  }
  std::map<std::string, std::vector<double>> cold_replay, cold_prepare;
  for (const auto& [request, kind] : request_kind) {
    auto replayed = replay_us.find(request);
    if (replayed != replay_us.end()) {
      cold_replay[kind].push_back(replayed->second);
    } else if (prepare_us.count(request)) {
      cold_prepare[kind].push_back(prepare_us[request]);
    }
  }
  std::vector<double> ratios, prepares;
  for (const auto& [kind, v] : cold_prepare) {
    prepares.insert(prepares.end(), v.begin(), v.end());
    auto it = cold_replay.find(kind);
    if (it != cold_replay.end()) ratios.push_back(Median(it->second) / Median(v));
  }
  if (ratios.empty()) return;
  for (const char* phase : kPhases) {
    r->values[std::string(phase) + "_us"] = Median(phase_us[phase]);
  }
  r->values["prepare.total_us"] = Median(prepares);
  const double ratio = GeoMean(ratios);
  r->values["trace.prepare_span_ratio"] = ratio;
  // 25% covers host noise and timer granularity on phases of a few
  // microseconds.
  constexpr double kTolerance = 0.25;
  char line[200];
  std::snprintf(line, sizeof(line),
                "prepare-span check: replayed phases / Engine::Prepare = "
                "%.3f (geometric mean over %zu kinds of cold medians; "
                "tolerance +-%.2f): %s",
                ratio, ratios.size(), kTolerance,
                std::abs(ratio - 1) <= kTolerance ? "PASS" : "FAIL");
  r->notes.push_back(line);
  for (const auto& [name, t] : tracer.Totals()) {
    std::snprintf(line, sizeof(line),
                  "span %-22s n=%-7lld total=%12.1f us self=%12.1f us",
                  name.c_str(), static_cast<long long>(t.count), t.total_us,
                  t.self_us);
    r->notes.push_back(line);
  }
}

std::string InterpretToString(const std::string& text,
                              xqc::DynamicContext* ctx) {
  xqc::EngineOptions opts;
  opts.use_algebra = false;
  xqc::Engine engine(opts);
  xqc::Result<xqc::PreparedQuery> q = engine.Prepare(text);
  if (!q.ok()) return "ERROR " + q.status().ToString();
  xqc::Result<xqc::Sequence> r = q.value().Execute(ctx);
  if (!r.ok()) return "ERROR " + r.status().ToString();
  return xqc::SerializeSequence(r.value());
}

}  // namespace xqbench

// Guard-check overhead: guarded (generous limits armed) vs unguarded
// (default options) execution of a join-heavy query whose head pulls ~20k
// tuples through the iterator pipeline.
//
// The guard fast path is a single counter decrement per checkpoint, with a
// full check (clock read, flag load, quota compares) every 256 steps, so
// the expected shape is parity: guarded overhead under ~3% of the
// unguarded time. Both variants must also agree on the query result
// (checked outside the timed region).
#include <benchmark/benchmark.h>

#include <string>

#include "bench/bench_util.h"
#include "src/xml/xml_parser.h"

namespace xqc {
namespace {

constexpr size_t kDefaultItems = 20000;

const std::string& DocXml() {
  static const std::string* xml = [] {
    std::string* s = new std::string("<doc>");
    for (size_t i = 1; i <= bench::Scaled(kDefaultItems); i++) {
      std::string id = std::to_string(i);
      *s += "<item><id>" + id + "</id><grp>" + std::to_string(i % 7) +
            "</grp></item>";
    }
    *s += "</doc>";
    return s;
  }();
  return *xml;
}

NodePtr ParsedDoc() {
  static const NodePtr doc = [] {
    Result<NodePtr> r = ParseXml(DocXml());
    if (!r.ok()) std::abort();
    return r.value();
  }();
  return doc;
}

// A hash join over the full document: 20k-tuple build side, 20k-tuple
// probe side, one match per probe.
const char* kJoinQuery =
    "declare variable $D external; "
    "count(for $x in $D//item, $y in $D//item "
    "where $x/id = $y/id return 1)";

EngineOptions MakeOptions(bool guarded) {
  EngineOptions options;
  if (guarded) {
    // Generous limits: every guard subsystem is armed (deadline clock,
    // memory budget, step quota, output cap) but none should trip.
    options.limits.deadline_ms = 10 * 60 * 1000;
    options.limits.max_memory_bytes = int64_t{16} << 30;
    options.limits.max_eval_steps = int64_t{1} << 40;
    options.limits.max_output_items = int64_t{1} << 30;
  }
  return options;
}

void BM_JoinHead(benchmark::State& state, bool guarded) {
  Engine engine;
  Result<PreparedQuery> q = engine.Prepare(kJoinQuery, MakeOptions(guarded));
  if (!q.ok()) {
    state.SkipWithError(q.status().ToString().c_str());
    return;
  }
  DynamicContext ctx;
  ctx.BindVariable(Symbol("D"), {Item(ParsedDoc())});
  int64_t checks = 0;
  for (auto _ : state) {
    Result<std::string> r = q.value().ExecuteToString(&ctx);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r.value().size());
    checks = q.value().last_exec_stats().guard_checks;
  }
  state.counters["guard_checks"] =
      benchmark::Counter(static_cast<double>(checks));
}

// Outside the timed region: guarded and unguarded runs agree, and the
// guarded run neither trips a limit nor skips the slow-path checks.
bool VerifyGuardIsTransparent() {
  Engine engine;
  std::string results[2];
  for (int g = 0; g < 2; g++) {
    Result<PreparedQuery> q = engine.Prepare(kJoinQuery, MakeOptions(g == 1));
    if (!q.ok()) return false;
    DynamicContext ctx;
    ctx.BindVariable(Symbol("D"), {Item(ParsedDoc())});
    Result<std::string> r = q.value().ExecuteToString(&ctx);
    if (!r.ok()) {
      fprintf(stderr, "guard tripped unexpectedly: %s\n",
              r.status().ToString().c_str());
      return false;
    }
    results[g] = r.value();
    if (g == 1 && q.value().last_exec_stats().guard_checks == 0) {
      fprintf(stderr, "guarded run performed no slow-path checks\n");
      return false;
    }
  }
  if (results[0] != results[1]) {
    fprintf(stderr, "GUARD MISMATCH:\n  unguarded: %s\n  guarded:   %s\n",
            results[0].c_str(), results[1].c_str());
    return false;
  }
  return true;
}

void RegisterAll() {
  for (bool guarded : {false, true}) {
    benchmark::RegisterBenchmark(
        (std::string("GuardOverhead/JoinHead/") +
         (guarded ? "Guarded" : "Unguarded"))
            .c_str(),
        [guarded](benchmark::State& st) { BM_JoinHead(st, guarded); })
        ->Unit(benchmark::kMicrosecond);
  }
}

}  // namespace
}  // namespace xqc

int main(int argc, char** argv) {
  if (!xqc::VerifyGuardIsTransparent()) return 1;
  xqc::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

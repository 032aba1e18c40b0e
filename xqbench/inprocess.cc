// The three in-process closed-loop workloads: xmark_table3, clio_table5 and
// collection_scan. One caller runs seeded-shuffled whole rounds of every
// query kind on every document variant; each op is Engine::Prepare +
// Execute + SerializeSequence, and every output is checked against the
// interpreter's digest.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>

#include "src/clio/clio.h"
#include "src/store/document_store.h"
#include "src/xmark/xmark.h"
#include "src/xml/serializer.h"
#include "src/xml/xml_parser.h"
#include "xqbench/workloads.h"

namespace xqbench {

namespace {

constexpr int kSetupReps = 9;
constexpr size_t kXmarkBytes = 1 << 20;      // the paper's Table 3 size
constexpr size_t kClioBytes = 250 * 1024;    // the paper's Table 5 size
constexpr int kMembers = 8;                  // collection members
constexpr size_t kMemberBytes = 256 * 1024;
constexpr size_t kBigDocBytes = 1 << 20;     // the range-split document
/// Latency quantiles are medians over this many slices of whole rounds.
constexpr int kSlices = 5;

/// One document variant: its query kinds and the context they run in.
struct Variant {
  int id = 0;
  std::vector<Kind> kinds;
  xqc::DynamicContext ctx;
};

/// What one set-up produces: every document variant, so that every run
/// does the same work whatever its seed. Destroyed (corpus removed) before
/// the next.
struct Env {
  std::vector<std::unique_ptr<Variant>> variants;
  xqc::EngineOptions opts;
  std::vector<std::string> texts;  // generated documents (parse-rate probe)
  std::unique_ptr<xqc::DocumentStore> store;
  std::string dir;
  ~Env() {
    if (!dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }
};

bool AddXmark(int variant, Env* env) {
  xqc::XMarkOptions xo;
  xo.seed = 1000 + static_cast<uint64_t>(variant);
  xo.target_bytes = kXmarkBytes;
  env->texts.push_back(xqc::GenerateXMarkXml(xo));
  xqc::Result<xqc::NodePtr> doc = xqc::ParseXml(env->texts.back());
  if (!doc.ok()) return false;
  auto v = std::make_unique<Variant>();
  v->id = variant;
  v->ctx.BindVariable(xqc::Symbol("auction"), {xqc::Item(doc.value())});
  for (int q = 1; q <= 20; q++) {
    v->kinds.push_back({KindName('Q', q), xqc::XMarkQuery(q)});
  }
  env->variants.push_back(std::move(v));
  return true;
}

bool AddClio(int variant, Env* env) {
  xqc::ClioOptions co;
  co.seed = 2000 + static_cast<uint64_t>(variant);
  co.target_bytes = kClioBytes;
  env->texts.push_back(xqc::GenerateDblpXml(co));
  xqc::Result<xqc::NodePtr> doc = xqc::ParseXml(env->texts.back());
  if (!doc.ok()) return false;
  auto v = std::make_unique<Variant>();
  v->id = variant;
  v->ctx.BindVariable(xqc::Symbol("dblp"), {xqc::Item(doc.value())});
  for (int n = 2; n <= 4; n++) {
    v->kinds.push_back({KindName('N', n), xqc::ClioQuery(n)});
  }
  env->variants.push_back(std::move(v));
  return true;
}

std::string QuoteLiteral(const std::string& s) {
  std::string out = "\"";
  for (char c : s) out += c == '"' ? std::string("\"\"") : std::string(1, c);
  return out + "\"";
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << text;
  return static_cast<bool>(out);
}

/// Writes one variant's collection corpus under `dir` (kMembers members
/// plus one large document in its own directory) and adds the variant
/// with the kinds that scan it. The store is not touched.
bool AddCorpus(int variant, const std::string& dir, Env* env) {
  const std::string members = dir + "/members", big = dir + "/big";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(members);
  std::filesystem::create_directories(big);
  const uint64_t base = 40000 + 100 * static_cast<uint64_t>(variant);
  for (int i = 0; i < kMembers; i++) {
    xqc::XMarkOptions xo;
    xo.seed = base + static_cast<uint64_t>(i);
    xo.target_bytes = kMemberBytes;
    env->texts.push_back(xqc::GenerateXMarkXml(xo));
    char name[32];
    std::snprintf(name, sizeof(name), "/m%02d.xml", i);
    if (!WriteFile(members + name, env->texts.back())) return false;
  }
  xqc::XMarkOptions xo;
  xo.seed = base + 99;
  xo.target_bytes = kBigDocBytes;
  env->texts.push_back(xqc::GenerateXMarkXml(xo));
  if (!WriteFile(big + "/big.xml", env->texts.back())) return false;
  auto v = std::make_unique<Variant>();
  v->id = variant;
  v->kinds = {
      {"flat_scan", "for $i in fn:collection(" + QuoteLiteral(members) +
                        ")//item return string($i/@id)"},
      {"predicate_scan",
       "for $b in fn:collection(" + QuoteLiteral(members) +
           ")//bidder where number($b/increase) > 10 "
           "return string($b/date)"},
      {"range_split", "for $p in fn:collection(" + QuoteLiteral(big) +
                          ")//person return string($p/name)"},
  };
  env->variants.push_back(std::move(v));
  return true;
}

/// collection_scan set-up: every variant's corpus on disk, one private
/// store with a snapshot dir, one pass to parse every member and publish
/// its snapshot, then a byte budget of half the corpus (so a cyclic scan
/// misses in memory and loads snapshots).
std::unique_ptr<Env> SetupCollection(const std::string& dir) {
  auto env = std::make_unique<Env>();
  env->dir = dir;
  std::filesystem::create_directories(dir + "/snapshots");
  xqc::DocumentStoreOptions so;
  so.snapshot_dir = dir + "/snapshots";
  so.max_bytes = int64_t{1} << 40;
  env->store = std::make_unique<xqc::DocumentStore>(so);
  env->opts.parallelism = 4;
  xqc::Engine engine;
  for (int variant = 0; variant < kVariants; variant++) {
    if (!AddCorpus(variant, dir + "/v" + std::to_string(variant),
                   env.get())) {
      return nullptr;
    }
    Variant& v = *env->variants.back();
    v.ctx.set_document_store(env->store.get());
    for (const Kind& k : v.kinds) {
      xqc::Result<xqc::PreparedQuery> q = engine.Prepare(k.text, env->opts);
      if (!q.ok() || !q.value().Execute(&v.ctx).ok()) return nullptr;
    }
  }
  env->store->set_max_bytes(env->store->counters().bytes_cached / 2);
  return env;
}

std::unique_ptr<Env> Setup(const RunConfig& cfg, int rep) {
  if (cfg.workload == "collection_scan") {
    return SetupCollection(cfg.work_dir + "/corpus" + std::to_string(rep));
  }
  auto env = std::make_unique<Env>();
  for (int variant = 0; variant < kVariants; variant++) {
    const bool ok = cfg.workload == "xmark_table3"
                        ? AddXmark(variant, env.get())
                        : AddClio(variant, env.get());
    if (!ok) return nullptr;
  }
  return env;
}

/// Samples of one phase of rounds.
struct Phase {
  std::vector<std::vector<double>> round_ms;  // correct ops, per round
  std::map<std::string, std::vector<double>> by_kind;
  std::map<std::string, std::vector<double>> exec_by_kind;
  std::map<std::string, std::vector<double>> serial_by_kind;
  int64_t attempted = 0, failed = 0, rounds = 0;
  double elapsed_s = 0;
  double serialize_us = 0;
  double result_bytes = 0;
  int64_t ops = 0;
  std::map<std::string, double> sums;
  std::map<uint64_t, std::string> request_kind;  // traced requests
};

struct OpOutcome {
  bool correct = false;
  double ms = 0;
  double exec_ms = 0;
  double serialize_us = 0;
  std::string error;
};

/// One timed op. When tracing, odd requests replay the prepare phases just
/// before the real Prepare (children of the op span); see
/// PrepareSpanMetrics for why. The op's latency excludes the replay, so
/// traced and untraced ops time the same calls.
OpOutcome RunOp(const xqc::Engine& engine, const xqc::EngineOptions& opts,
                const Kind& kind, xqc::DynamicContext* ctx,
                const RefEntry* ref, Tracer* tracer, uint64_t request,
                Phase* phase) {
  OpOutcome o;
  const int op = tracer->Begin("op", -1, request);
  if (tracer->on()) {
    phase->request_kind[request] = kind.name;
    if (request % 2 == 1) {
      ReplayPreparePhases(kind.text, opts, tracer, request, op, &phase->sums);
    }
  }
  const Clock::time_point t0 = Clock::now();
  xqc::Result<xqc::PreparedQuery> q = engine.Prepare(kind.text, opts);
  const Clock::time_point t1 = Clock::now();
  if (!q.ok()) {
    tracer->End(op);
    o.error = q.status().ToString();
    return o;
  }
  tracer->Add("engine.prepare", op, request, t0, t1);
  const Clock::time_point t2 = Clock::now();
  xqc::Result<xqc::Sequence> r = q.value().Execute(ctx);
  const Clock::time_point t3 = Clock::now();
  if (!r.ok()) {
    tracer->End(op);
    o.error = r.status().ToString();
    return o;
  }
  const std::string out = xqc::SerializeSequence(r.value());
  const Clock::time_point t4 = Clock::now();
  tracer->End(op);
  o.ms = MsSince(t0, t1) + MsSince(t2, t4);
  o.exec_ms = MsSince(t2, t3);
  o.serialize_us = MsSince(t3, t4) * 1e3;
  o.correct = ref != nullptr && ref->bytes == out.size() &&
              ref->digest == Digest(out);
  if (!o.correct) {
    o.error = ref == nullptr ? "no reference digest" : "output differs";
  }
  if (tracer->on()) {
    tracer->Add("engine.execute", op, request, t2, t3);
    tracer->Add("xml.serialize", op, request, t3, t4);
    AddExecStats(q.value().last_exec_stats(),
                 static_cast<int64_t>(r.value().size()), &phase->sums);
    phase->serialize_us += o.serialize_us;
    phase->result_bytes += static_cast<double>(out.size());
  }
  return o;
}

/// Runs whole seeded-shuffled rounds until `seconds` have passed (at least
/// one round). A round is every kind of every variant once. With
/// `serial_opts`, every round is followed by a serial replay of the same
/// order (parallel.speedup): both then start from the store state the same
/// order left behind, so neither side inherits the other's cached
/// documents.
void RunRounds(const RunConfig& cfg, Env* env, Rng* rng, double seconds,
               Tracer* tracer, const xqc::EngineOptions* serial_opts,
               uint64_t* request, Phase* phase) {
  const xqc::Engine engine;
  std::vector<std::pair<Variant*, const Kind*>> order;
  for (const std::unique_ptr<Variant>& v : env->variants) {
    for (const Kind& k : v->kinds) order.push_back({v.get(), &k});
  }
  auto run = [&](Variant* v, const Kind& kind, const xqc::EngineOptions& opts,
                 Tracer* tr, uint64_t req, Phase* into) {
    const RefEntry* ref = cfg.refs->Find(cfg.workload, v->id, kind.name);
    OpOutcome o = RunOp(engine, opts, kind, &v->ctx, ref, tr, req, into);
    phase->attempted++;
    if (!o.correct) {
      phase->failed++;
      std::fprintf(stderr, "xqbench: %s %s variant %d: %s\n",
                   cfg.workload.c_str(), kind.name.c_str(), v->id,
                   o.error.c_str());
    }
    return o;
  };
  // Per-kind medians are kept per variant: the variants' documents differ,
  // and pooling them would let a median jump between variants.
  auto key = [](const Variant* v, const Kind* k) {
    return k->name + "/v" + std::to_string(v->id);
  };
  const Clock::time_point start = Clock::now();
  do {
    rng->Shuffle(&order);
    phase->round_ms.emplace_back();
    for (const auto& [v, k] : order) {
      const OpOutcome o = run(v, *k, env->opts, tracer, ++*request, phase);
      if (!o.correct) continue;
      phase->ops++;
      phase->round_ms.back().push_back(o.ms);
      phase->by_kind[key(v, k)].push_back(o.ms);
      phase->exec_by_kind[k->name].push_back(o.exec_ms);
    }
    if (serial_opts != nullptr) {
      Tracer off;
      Phase scratch;
      for (const auto& [v, k] : order) {
        const OpOutcome o = run(v, *k, *serial_opts, &off, 0, &scratch);
        if (o.correct) phase->serial_by_kind[key(v, k)].push_back(o.ms);
      }
    }
    phase->rounds++;
  } while (MsSince(start) < seconds * 1e3);
  phase->elapsed_s = MsSince(start) / 1e3;
}

/// Groups whole rounds into kSlices consecutive slices, so every slice
/// holds the same mix of kinds (XMark Q9 is exactly 4 ops in 80 of each).
std::vector<std::vector<double>> RoundSlices(const Phase& p) {
  const size_t rounds = p.round_ms.size();
  const size_t slices = std::min<size_t>(kSlices, rounds);
  std::vector<std::vector<double>> out(slices);
  for (size_t i = 0; i < rounds; i++) {
    std::vector<double>& slice = out[i * slices / rounds];
    slice.insert(slice.end(), p.round_ms[i].begin(), p.round_ms[i].end());
  }
  return out;
}

std::vector<double> KindMedians(
    const std::map<std::string, std::vector<double>>& by_kind) {
  std::vector<double> out;
  for (const auto& [k, v] : by_kind) out.push_back(Median(v));
  return out;
}

/// Median over three passes of parsing the workload's documents.
double ParseMbPerS(const Env& env) {
  double bytes = 0;
  for (const std::string& t : env.texts) bytes += static_cast<double>(t.size());
  std::vector<double> rates;
  for (int pass = 0; pass < 3; pass++) {
    const Clock::time_point t0 = Clock::now();
    for (const std::string& t : env.texts) {
      if (!xqc::ParseXml(t).ok()) return 0;
    }
    rates.push_back(bytes / 1048576.0 / (MsSince(t0) / 1e3));
  }
  return Median(rates);
}

/// Per-layer metrics of the traced phase, counts per pass (one op of every
/// kind, averaged over the variants).
void LayerMetrics(const Env& env, const Phase& untraced, const Phase& traced,
                  const Tracer& tracer, RunResult* r) {
  const double rounds = std::max<double>(
      1, static_cast<double>(traced.rounds * env.variants.size()));
  std::map<std::string, double> s = traced.sums;
  for (const char* k :
       {"compile.plan_ops", "opt.plan_ops", "opt.rewrites",
        "runtime.source_tuples", "runtime.hash_joins",
        "runtime.nested_loop_joins", "runtime.range_joins",
        "runtime.join_index_reuses", "runtime.early_stops",
        "runtime.guard_checks", "xml.ddo_sorts", "xml.index_lookups",
        "store.misses", "store.snapshot_hits", "store.evictions",
        "parallel.partitions", "parallel.range_splits", "parallel.steals",
        "parallel.fallbacks"}) {
    r->values[k] = s[k] / rounds;
  }
  r->values["runtime.source_tuples_per_item"] =
      s["runtime.result_items"] > 0
          ? s["runtime.source_tuples"] / s["runtime.result_items"]
          : 0;
  r->values["runtime.peak_memory_mb"] = s["runtime.peak_memory_mb"];
  const double lookups = s["store.hits"] + s["store.misses"];
  r->values["store.hit_ratio"] = lookups > 0 ? s["store.hits"] / lookups : 0;
  r->values["store.snapshot_mb_read"] =
      s["store.snapshot_bytes_read"] / 1048576.0 / rounds;
  for (const auto& [kind, v] : traced.exec_by_kind) {
    r->values["runtime.execute_ms." + kind] = Median(v);
  }
  r->values["xml.parse_mb_per_s"] = ParseMbPerS(env);
  const double ops = std::max<double>(1, static_cast<double>(traced.ops));
  r->values["xml.serialize_us"] = traced.serialize_us / ops;
  r->values["xml.serialize_mb_per_s"] =
      traced.serialize_us > 0
          ? traced.result_bytes / 1048576.0 / (traced.serialize_us / 1e6)
          : 0;
  r->values["xml.result_bytes"] = traced.result_bytes / rounds;
  if (!traced.serial_by_kind.empty()) {
    std::vector<double> ratios;
    for (const auto& [kind, v] : traced.serial_by_kind) {
      auto it = traced.by_kind.find(kind);
      if (it != traced.by_kind.end()) {
        ratios.push_back(Median(v) / Median(it->second));
        char line[160];
        std::snprintf(line, sizeof(line),
                      "%s: median %.3f ms at parallelism %d, %.3f ms serial",
                      kind.c_str(), Median(it->second), env.opts.parallelism,
                      Median(v));
        r->notes.push_back(line);
      }
    }
    r->values["parallel.speedup"] = GeoMean(ratios);
  }
  r->values["trace.overhead_frac"] = GeoMean(KindMedians(traced.by_kind)) /
                                         GeoMean(KindMedians(untraced.by_kind)) -
                                     1;
  PrepareSpanMetrics(tracer, traced.request_kind, r);
}

}  // namespace

RunResult RunInProcess(const RunConfig& cfg) {
  // collection_scan's partitions run on the TaskPool: cross-thread
  // handoffs, like HTTP (see KeepAwake).
  std::unique_ptr<KeepAwake> awake;
  if (cfg.workload == "collection_scan") awake = std::make_unique<KeepAwake>();
  RunResult r;
  Rng rng(cfg.seed);
  // Set-up, repeated; the median is setup_s and the last one is measured.
  std::vector<double> setup_s;
  std::unique_ptr<Env> env;
  for (int rep = 0; rep < kSetupReps; rep++) {
    env.reset();
    const Clock::time_point t0 = Clock::now();
    env = Setup(cfg, rep);
    if (env == nullptr) {
      r.notes.push_back("set-up failed");
      r.attempted = 1;
      r.failed = 1;
      return r;
    }
    // Warm-up: one Prepare per kind (front end, interner).
    const xqc::Engine engine;
    for (const std::unique_ptr<Variant>& v : env->variants) {
      for (const Kind& k : v->kinds) (void)engine.Prepare(k.text, env->opts);
    }
    setup_s.push_back(MsSince(t0) / 1e3);
  }
  uint64_t request = 0;
  Tracer off;
  if (!cfg.trace) {
    Phase p;
    RunRounds(cfg, env.get(), &rng, cfg.seconds, &off, nullptr, &request, &p);
    r.attempted = p.attempted;
    r.failed = p.failed;
    const std::vector<std::vector<double>> slices = RoundSlices(p);
    r.values["setup_s"] = Median(setup_s);
    r.values["throughput_qps"] = static_cast<double>(p.ops) / p.elapsed_s;
    r.values["latency_p50_ms"] = SlicedQuantile(slices, 0.50);
    r.values["query_geomean_ms"] = GeoMean(KindMedians(p.by_kind));
    TailNotes(slices, &r);
    r.values["peak_rss_mb"] = PeakRssMb();
    for (const auto& [k, v] : p.by_kind) r.kind_ms[k] = Median(v);
    r.notes.push_back("rounds " + std::to_string(p.rounds) + ", ops " +
                      std::to_string(p.ops));
    return r;
  }
  // Traced run: half the time untraced, half traced (+ serial replay for
  // the parallel workload), so trace.overhead_frac compares like with like.
  Phase untraced, traced;
  RunRounds(cfg, env.get(), &rng, cfg.seconds / 2, &off, nullptr, &request,
            &untraced);
  Tracer tracer(true);
  xqc::EngineOptions serial = env->opts;
  serial.parallelism = 1;
  RunRounds(cfg, env.get(), &rng, cfg.seconds / 2, &tracer,
            env->opts.parallelism > 1 ? &serial : nullptr, &request, &traced);
  r.attempted = untraced.attempted + traced.attempted;
  r.failed = untraced.failed + traced.failed;
  LayerMetrics(*env, untraced, traced, tracer, &r);
  for (const auto& [k, v] : traced.by_kind) r.kind_ms[k] = Median(v);
  if (!cfg.trace_out.empty() && !tracer.WriteTsv(cfg.trace_out)) {
    r.notes.push_back("could not write " + cfg.trace_out);
  }
  return r;
}


std::vector<std::pair<std::string, std::string>> InProcessReferences(
    const std::string& workload, int variant, const std::string& work_dir) {
  std::vector<std::pair<std::string, std::string>> out;
  Env env;
  bool ok;
  if (workload == "collection_scan") {
    env.dir = work_dir + "/refcorpus" + std::to_string(variant);
    ok = AddCorpus(variant, env.dir, &env);
  } else {
    ok = workload == "xmark_table3" ? AddXmark(variant, &env)
                                    : AddClio(variant, &env);
  }
  if (!ok) return out;
  Variant& v = *env.variants.back();
  for (const Kind& k : v.kinds) {
    out.push_back({k.name, InterpretToString(k.text, &v.ctx)});
  }
  return out;
}

}  // namespace xqbench

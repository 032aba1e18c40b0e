// xqbench: the layered benchmark for xqc. See xqbench/README.md.
//
//   xqbench --workload W --seed N --seconds S --trace 0|1 --refs FILE
//           --work-dir DIR [--trace-out FILE]
//           [--git-commit C] [--source-digest D]
//   xqbench --make-refs FILE --work-dir DIR
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (end-to-end metrics with --trace 0, per-layer metrics
// with --trace 1).
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "xqbench/workloads.h"

namespace xqbench {

namespace {

const char* const kWorkloads[] = {"xmark_table3", "clio_table5", "http_point",
                                  "collection_scan"};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string CpuInfoField(const std::string& key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t b = line.find_first_not_of(" \t", colon + 1);
        return b == std::string::npos ? "" : line.substr(b);
      }
    }
  }
  return "unknown";
}

/// Everything a result needs to be compared only with like results.
std::string HostJson(const std::string& git_commit,
                     const std::string& source_digest) {
  std::ostringstream o;
  o << "{\"nproc\": " << std::thread::hardware_concurrency()
    << ", \"cpu_model\": " << JsonString(CpuInfoField("model name"))
    << ", \"cpu_mhz\": " << JsonString(CpuInfoField("cpu MHz"))
    << ", \"compiler\": " << JsonString("gcc " __VERSION__)
    << ", \"build_type\": " << JsonString(XQBENCH_BUILD_TYPE)
    << ", \"git_commit\": " << JsonString(git_commit)
    << ", \"source_digest\": " << JsonString(source_digest) << "}";
  return o.str();
}

bool OptimizedBuild() {
#if defined(__OPTIMIZE__)
  const std::string type = XQBENCH_BUILD_TYPE;
  return type == "Release" || type == "RelWithDebInfo";
#else
  return false;
#endif
}

int MakeRefs(const std::string& path, const std::string& work_dir) {
  struct Job {
    std::string workload;
    int variant;
    std::vector<std::pair<std::string, std::string>> outputs;
  };
  std::vector<Job> jobs;
  for (const char* w : kWorkloads) {
    for (int v = 0; v < kVariants; v++) jobs.push_back({w, v, {}});
  }
  // The interpreter needs minutes on XMark Q9 at 1 MB; run jobs on up to
  // four threads, longest (XMark) first.
  std::mutex mu;
  size_t next = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; t++) {
    threads.emplace_back([&] {
      while (true) {
        size_t i;
        {
          std::lock_guard<std::mutex> lock(mu);
          if (next == jobs.size()) return;
          i = next++;
        }
        Job& job = jobs[i];
        job.outputs =
            job.workload == "http_point"
                ? HttpReferences(job.variant)
                : InProcessReferences(job.workload, job.variant, work_dir);
        std::lock_guard<std::mutex> lock(mu);
        std::fprintf(stderr, "xqbench: references for %s variant %d done\n",
                     job.workload.c_str(), job.variant);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::ofstream out(path, std::ios::trunc);
  out << "# Interpreter (use_algebra=false) reference digests: workload, "
         "variant, kind, XXH64 of the\n# serialized result, its length in "
         "bytes. Regenerate with: python3 xqbench/run.py --make-refs\n";
  int errors = 0;
  for (const Job& job : jobs) {
    if (job.outputs.empty()) errors++;
    for (const auto& [kind, text] : job.outputs) {
      if (text.rfind("ERROR ", 0) == 0) {
        std::fprintf(stderr, "xqbench: %s/%d/%s: %s\n", job.workload.c_str(),
                     job.variant, kind.c_str(), text.c_str());
        errors++;
      }
      char digest[20];
      std::snprintf(digest, sizeof(digest), "%016llx",
                    static_cast<unsigned long long>(Digest(text)));
      out << job.workload << '\t' << job.variant << '\t' << kind << '\t'
          << digest << '\t' << text.size() << '\n';
    }
  }
  return errors == 0 && out ? 0 : 1;
}

int Usage(const char* msg) {
  std::fprintf(stderr, "xqbench: %s\n", msg);
  return 2;
}

}  // namespace

int Main(int argc, char** argv) {
  RunConfig cfg;
  std::string refs_path, make_refs, git_commit = "unknown",
                                    source_digest = "unknown";
  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      cfg.workload = v;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      cfg.trace = v == "1";
    } else if (a == "--refs") {
      refs_path = v;
    } else if (a == "--work-dir") {
      cfg.work_dir = v;
    } else if (a == "--trace-out") {
      cfg.trace_out = v;
    } else if (a == "--git-commit") {
      git_commit = v;
    } else if (a == "--source-digest") {
      source_digest = v;
    } else if (a == "--make-refs") {
      make_refs = v;
    } else {
      return Usage(("unknown flag " + a).c_str());
    }
  }
  if (!OptimizedBuild()) {
    return Usage("refusing to run: not an optimized (Release/RelWithDebInfo) "
                 "build; timings would be meaningless");
  }
  if (cfg.work_dir.empty()) return Usage("--work-dir is required");
  std::error_code ec;
  std::filesystem::create_directories(cfg.work_dir, ec);
  if (!make_refs.empty()) return MakeRefs(make_refs, cfg.work_dir);

  bool known = false;
  for (const char* w : kWorkloads) known |= cfg.workload == w;
  if (!known) return Usage("unknown --workload");
  if (cfg.seconds <= 0) return Usage("--seconds must be positive");
  RefTable refs;
  std::string error;
  if (!refs.Load(refs_path, &error)) return Usage(error.c_str());
  cfg.refs = &refs;

  std::printf("xqbench host %s\n", HostJson(git_commit, source_digest).c_str());
  std::printf("xqbench workload %s seed %llu seconds %g trace %d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0);
  std::fflush(stdout);
  const RunResult r = cfg.workload == "http_point" ? RunHttpPoint(cfg)
                                                   : RunInProcess(cfg);
  const std::vector<Metric> metrics = Finish(r, cfg.trace);
  for (const std::string& note : r.notes) std::printf("  %s\n", note.c_str());
  for (const Metric& x : metrics) {
    std::printf("  %-36s %14.6g %s\n", x.name.c_str(), x.value,
                x.unit.c_str());
  }
  const double failed_frac =
      r.attempted > 0 ? static_cast<double>(r.failed) /
                            static_cast<double>(r.attempted)
                      : 1.0;
  std::printf("  %-36s %14.6g %s (%lld of %lld ops)\n", "failed_frac",
              failed_frac, "frac", static_cast<long long>(r.failed),
              static_cast<long long>(r.attempted));
  std::string kinds = "{";
  for (const auto& [k, v] : r.kind_ms) {
    if (kinds.size() > 1) kinds += ", ";
    kinds += JsonString(k) + ": " + JsonNumber(v);
  }
  std::printf("xqbench kinds %s}\n", kinds.c_str());
  const bool correct = r.failed == 0 && r.attempted > 0;
  std::string json = "{";
  for (const Metric& x : metrics) {
    if (json.size() > 1) json += ", ";
    json += JsonString(x.name) + ": {\"value\": " + JsonNumber(x.value) +
            ", \"unit\": " + JsonString(x.unit) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}}\n",
              correct ? "true" : "false",
              static_cast<long long>(std::max<int64_t>(1, r.attempted)),
              static_cast<long long>(r.failed), json.c_str());
  return 0;
}

}  // namespace xqbench

int main(int argc, char** argv) { return xqbench::Main(argc, argv); }

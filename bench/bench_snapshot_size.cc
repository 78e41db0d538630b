// Memory-scale gate for the microrec.snap/2 snapshot format and mmap
// serving (DESIGN.md §16): measures each family's snapshot size against a
// byte ceiling, proves the two serving residencies rank identically, and
// (via a child re-exec) compares peak RSS of resident vs mmap warm starts.
//
// For each family (bag TN, graph TNG, topic LDA; select with
// MICROREC_SNAPSHOT_MODELS="TN,LDA"):
//   1. train + build every cohort user + rank every test set once (this
//      populates the topic inference cache, which is part of saved state);
//   2. save the engine and record bytes/model and bytes/user;
//   3. warm-start two fresh engines — resident and mmap — and fold every
//      ranking (user, candidate, score bits) into an FNV fingerprint: all
//      three fingerprints (including the trainer's) must be equal, or the
//      bench exits 1;
//   4. gate: at MICROREC_SCALE=small, each family with a ceiling in
//      kByteCeilings must save at most that many bytes.
//
// The exact bytes each family writes are pinned by the committed fixtures
// of tests/rec/golden_snapshot_test.cc, not here; this bench gates sizes.
//
// Peak-RSS probe (topic only, needs procfs): the bench re-execs itself
// with MICROREC_SNAPSHOT_RSS_CHILD="<mode>;<model>;<path>" set; the child
// rebuilds the same deterministic workbench, warm-starts in <mode>, ranks
// the whole cohort and prints `RSS_CHILD rss_peak_kb=<n>`. The parent
// reports both numbers; if MICROREC_MMAP_RSS_CEILING_KB is set (> 0) and
// the mmap child's peak exceeds it, the bench exits 1.
//
// Output: BENCH_snapshot_size.json (via --report=) with
// snapshot.bytes_per_model.* / snapshot.bytes_ceiling.* /
// snapshot.bytes_per_user.* gauges and the RSS pair.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "rec/engine.h"
#include "rec/model_config.h"
#include "util/string_util.h"

using namespace microrec;

namespace {

uint64_t HashMix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double is 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Builds every cohort user and scores every test candidate, folding
/// (user, candidate, score bits) into one fingerprint. Sequential and in a
/// fixed order, so topic-model inference consumes rng draws identically
/// across engines — any divergence between serving modes lands in the hash.
Status BuildAndFingerprint(rec::Engine* engine,
                           const eval::ExperimentRunner& runner,
                           const std::vector<corpus::UserId>& users,
                           rec::EngineContext* ctx, uint64_t* fingerprint) {
  uint64_t h = 1469598103934665603ull;  // FNV offset basis
  for (corpus::UserId u : users) {
    MICROREC_RETURN_IF_ERROR(engine->BuildUser(u, ctx->train_set(u), *ctx));
  }
  for (corpus::UserId u : users) {
    for (corpus::TweetId d : runner.SplitOf(u).TestSet()) {
      h = HashMix(h, u);
      h = HashMix(h, d);
      h = HashMix(h, DoubleBits(engine->Score(u, d, *ctx)));
    }
  }
  *fingerprint = h;
  return Status::OK();
}

Result<rec::ModelConfig> FirstConfig(rec::ModelKind kind,
                                     corpus::Source source) {
  rec::ModelConfig config;
  config.kind = kind;
  if (kind == rec::ModelKind::kPLSA) return config;
  for (const rec::ModelConfig& candidate : rec::EnumerateConfigs(kind)) {
    if (candidate.IsValidForSource(corpus::HasNegativeExamples(source))) {
      return candidate;
    }
  }
  return Status::InvalidArgument("no valid configuration");
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  uint64_t size = std::filesystem::file_size(path, ec);
  return ec ? 0 : size;
}

long PeakRssKb() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // kilobytes on Linux
}

/// Child half of the RSS probe: warm-start in the requested mode, serve the
/// whole cohort, report the process's peak RSS. Exits non-zero on any error
/// or on a ranking fingerprint of zero (never produced by real scoring
/// traffic plus the basis constant).
int RunRssChild(const std::string& spec) {
  const size_t m1 = spec.find(';');
  const size_t m2 = spec.find(';', m1 + 1);
  if (m1 == std::string::npos || m2 == std::string::npos) {
    std::fprintf(stderr, "bad MICROREC_SNAPSHOT_RSS_CHILD '%s'\n",
                 spec.c_str());
    return 1;
  }
  const std::string mode_name = spec.substr(0, m1);
  const std::string model_name = spec.substr(m1 + 1, m2 - m1 - 1);
  const std::string path = spec.substr(m2 + 1);

  bench::Workbench wb = bench::MakeWorkbench();
  Result<rec::ModelKind> kind = rec::ParseModelKind(model_name);
  if (!kind.ok()) return 1;
  Result<rec::ModelConfig> config = FirstConfig(*kind, corpus::Source::kR);
  if (!config.ok()) return 1;
  rec::EngineContext ctx =
      wb.runner->MakeContext(*config, corpus::Source::kR);
  rec::ServeMode mode = rec::ServeMode::kResident;
  if (Status st = rec::ParseServeMode(mode_name, &mode); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  ctx.serve_mode = mode;
  std::unique_ptr<rec::Engine> engine = rec::MakeEngine(*config);
  Status loaded = engine->WarmStart(path, ctx);
  if (!loaded.ok()) {
    std::fprintf(stderr, "warm start failed: %s\n",
                 loaded.ToString().c_str());
    return 1;
  }
  const std::vector<corpus::UserId>& users =
      wb.runner->GroupUsers(corpus::UserType::kAllUsers);
  uint64_t fingerprint = 0;
  if (Status st = BuildAndFingerprint(engine.get(), *wb.runner, users, &ctx,
                                      &fingerprint);
      !st.ok()) {
    std::fprintf(stderr, "ranking failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("RSS_CHILD rss_peak_kb=%ld fingerprint=%llx\n", PeakRssKb(),
              static_cast<unsigned long long>(fingerprint));
  return 0;
}

/// Parent half: re-exec ourselves with the child spec in the environment
/// and scrape the RSS line. Returns -1 on any failure (the probe is
/// best-effort except under an explicit ceiling).
long SpawnRssChild(const std::string& mode, const std::string& model,
                   const std::string& path, uint64_t* fingerprint) {
  // Resolve our own binary here: inside popen's `sh -c`, /proc/self/exe
  // names the shell, not this process.
  char self[4096];
  const ssize_t len = readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (len <= 0) return -1;
  self[len] = '\0';
  const std::string spec = mode + ";" + model + ";" + path;
  setenv("MICROREC_SNAPSHOT_RSS_CHILD", spec.c_str(), 1);
  const std::string command = "'" + std::string(self) + "' 2>/dev/null";
  FILE* pipe = popen(command.c_str(), "r");
  unsetenv("MICROREC_SNAPSHOT_RSS_CHILD");
  if (pipe == nullptr) return -1;
  long rss_kb = -1;
  unsigned long long fp = 0;
  char line[512];
  while (std::fgets(line, sizeof(line), pipe) != nullptr) {
    std::sscanf(line, "RSS_CHILD rss_peak_kb=%ld fingerprint=%llx", &rss_kb,
                &fp);
  }
  const int status = pclose(pipe);
  if (status != 0) return -1;
  if (fingerprint != nullptr) *fingerprint = fp;
  return rss_kb;
}

// Byte ceilings on the default workbench at MICROREC_SCALE=small: each is
// the family's size there (TN 161,728, TNG 224,124, LDA 607,924 bytes)
// plus 1%, for libm differences between machines.
struct ByteCeiling {
  const char* model;
  uint64_t bytes;
};
constexpr ByteCeiling kByteCeilings[] = {
    {"TN", 163345},
    {"TNG", 226365},
    {"LDA", 614003},
};

uint64_t CeilingFor(const std::string& model) {
  for (const ByteCeiling& ceiling : kByteCeilings) {
    if (model == ceiling.model) return ceiling.bytes;
  }
  return 0;
}

struct FamilyRow {
  std::string label;
  size_t users = 0;
  uint64_t bytes = 0;
  uint64_t ceiling = 0;  // 0 = not gated
  bool identical = false;
};

}  // namespace

int main(int argc, char** argv) {
  if (const char* child = std::getenv("MICROREC_SNAPSHOT_RSS_CHILD");
      child != nullptr && child[0] != '\0') {
    return RunRssChild(child);
  }
  bench::BenchIo io = bench::ParseBenchArgs(argc, argv);
  bench::Workbench wb = bench::MakeWorkbench();
  auto& registry = obs::MetricsRegistry::Global();

  const char* models_env = std::getenv("MICROREC_SNAPSHOT_MODELS");
  const std::string models_spec =
      models_env != nullptr && models_env[0] != '\0' ? models_env
                                                     : "TN,TNG,LDA";
  std::vector<std::string> model_names;
  for (size_t start = 0; start <= models_spec.size();) {
    size_t comma = models_spec.find(',', start);
    if (comma == std::string::npos) comma = models_spec.size();
    if (comma > start) {
      model_names.push_back(models_spec.substr(start, comma - start));
    }
    start = comma + 1;
  }
  // The ceilings were measured on the small corpus; other scales report
  // sizes without gating them.
  const char* scale = std::getenv("MICROREC_SCALE");
  const bool gate_sizes =
      scale == nullptr || scale[0] == '\0' || std::string(scale) == "small";
  const corpus::Source source = corpus::Source::kR;
  const std::vector<corpus::UserId>& users =
      wb.runner->GroupUsers(corpus::UserType::kAllUsers);
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("microrec_bench_snap_" + std::to_string(getpid()));
  std::filesystem::create_directories(dir);

  bool all_identical = true;
  std::vector<FamilyRow> rows;
  std::string topic_path;  // RSS probe target
  std::string topic_label;

  for (const std::string& name : model_names) {
    Result<rec::ModelKind> kind = rec::ParseModelKind(name);
    if (!kind.ok()) {
      std::fprintf(stderr, "unknown model '%s'\n", name.c_str());
      return 1;
    }
    Result<rec::ModelConfig> config = FirstConfig(*kind, source);
    if (!config.ok()) {
      std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
      return 1;
    }
    rec::EngineContext ctx = wb.runner->MakeContext(*config, source);
    std::unique_ptr<rec::Engine> engine = rec::MakeEngine(*config);
    if (Status st = engine->Prepare(ctx); !st.ok()) {
      std::fprintf(stderr, "prepare %s: %s\n", name.c_str(),
                   st.ToString().c_str());
      return 1;
    }
    // Build + rank BEFORE saving so the topic inference cache — persisted
    // state — covers the test sets; warm serving is then all cache hits.
    uint64_t trained_fp = 0;
    if (Status st = BuildAndFingerprint(engine.get(), *wb.runner, users,
                                        &ctx, &trained_fp);
        !st.ok()) {
      std::fprintf(stderr, "rank %s: %s\n", name.c_str(),
                   st.ToString().c_str());
      return 1;
    }
    const std::string path = (dir / (name + ".snap")).string();
    if (Status st = engine->SaveSnapshot(path, ctx); !st.ok()) {
      std::fprintf(stderr, "save %s: %s\n", name.c_str(),
                   st.ToString().c_str());
      return 1;
    }

    FamilyRow row;
    row.label = name;
    row.users = users.size();
    row.bytes = FileBytes(path);
    row.ceiling = gate_sizes ? CeilingFor(name) : 0;
    row.identical = true;

    // Both residencies must reproduce the trainer's rankings bit for bit.
    for (rec::ServeMode mode :
         {rec::ServeMode::kResident, rec::ServeMode::kMmap}) {
      rec::EngineContext warm_ctx = wb.runner->MakeContext(*config, source);
      warm_ctx.serve_mode = mode;
      std::unique_ptr<rec::Engine> warm = rec::MakeEngine(*config);
      Status loaded = warm->WarmStart(path, warm_ctx);
      uint64_t fp = 0;
      if (loaded.ok()) {
        loaded = BuildAndFingerprint(warm.get(), *wb.runner, users,
                                     &warm_ctx, &fp);
      }
      if (!loaded.ok() || fp != trained_fp) {
        std::fprintf(stderr, "FAIL %s %s: %s (fingerprint %llx vs %llx)\n",
                     name.c_str(), rec::ServeModeName(mode),
                     loaded.ok() ? "fingerprint mismatch"
                                 : loaded.ToString().c_str(),
                     static_cast<unsigned long long>(fp),
                     static_cast<unsigned long long>(trained_fp));
        row.identical = false;
        all_identical = false;
      }
    }
    const bool is_topic =
        *kind != rec::ModelKind::kTN && *kind != rec::ModelKind::kCN &&
        *kind != rec::ModelKind::kTNG && *kind != rec::ModelKind::kCNG;
    if (is_topic) {
      topic_path = path;
      topic_label = name;
    }
    rows.push_back(row);
  }

  bool sizes_ok = true;
  std::printf("\n%-8s %12s %12s %12s %10s\n", "model", "bytes", "ceiling",
              "bytes/user", "identical");
  for (const FamilyRow& row : rows) {
    const double per_user =
        row.users > 0 ? static_cast<double>(row.bytes) / row.users : 0.0;
    std::printf("%-8s %12llu %12s %12.0f %10s\n", row.label.c_str(),
                static_cast<unsigned long long>(row.bytes),
                row.ceiling > 0 ? std::to_string(row.ceiling).c_str() : "-",
                per_user, row.identical ? "yes" : "NO");
    registry.GetGauge("snapshot.bytes_per_model." + row.label)
        ->Set(static_cast<double>(row.bytes));
    registry.GetGauge("snapshot.bytes_per_user." + row.label)->Set(per_user);
    if (row.ceiling > 0) {
      registry.GetGauge("snapshot.bytes_ceiling." + row.label)
          ->Set(static_cast<double>(row.ceiling));
      if (row.bytes > row.ceiling) {
        std::fprintf(stderr, "FAIL %s snapshot is %llu bytes, over its "
                     "ceiling of %llu\n",
                     row.label.c_str(),
                     static_cast<unsigned long long>(row.bytes),
                     static_cast<unsigned long long>(row.ceiling));
        sizes_ok = false;
      }
    }
  }

  // Peak-RSS probe on the topic family (the one whose model dwarfs the
  // working set). Skipped silently when /proc/self/exe is unavailable.
  if (!topic_path.empty()) {
    uint64_t resident_fp = 0, mmap_fp = 0;
    const long resident_kb =
        SpawnRssChild("resident", topic_label, topic_path, &resident_fp);
    const long mmap_kb =
        SpawnRssChild("mmap", topic_label, topic_path, &mmap_fp);
    if (resident_kb > 0 && mmap_kb > 0) {
      std::printf("\npeak RSS (%s, fresh process): resident %ld KB, "
                  "mmap %ld KB\n",
                  topic_label.c_str(), resident_kb, mmap_kb);
      registry.GetGauge("snapshot.rss_peak_kb.resident")
          ->Set(static_cast<double>(resident_kb));
      registry.GetGauge("snapshot.rss_peak_kb.mmap")
          ->Set(static_cast<double>(mmap_kb));
      if (resident_fp != mmap_fp) {
        std::fprintf(stderr,
                     "FAIL cross-process fingerprints differ "
                     "(resident %llx, mmap %llx)\n",
                     static_cast<unsigned long long>(resident_fp),
                     static_cast<unsigned long long>(mmap_fp));
        all_identical = false;
      }
      const double ceiling_kb =
          bench::EnvDouble("MICROREC_MMAP_RSS_CEILING_KB", 0.0);
      if (ceiling_kb > 0 && static_cast<double>(mmap_kb) > ceiling_kb) {
        std::fprintf(stderr, "FAIL mmap peak RSS %ld KB over ceiling %.0f "
                     "KB\n",
                     mmap_kb, ceiling_kb);
        all_identical = false;
      }
    } else {
      std::fprintf(stderr, "# RSS probe unavailable (child spawn failed)\n");
    }
  }

  const bool gate_ok = all_identical && sizes_ok;
  std::printf("\nsnapshot-size gate: %s\n", gate_ok ? "PASS" : "FAIL");

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  int rc = bench::FinishBench(io, "bench_snapshot_size");
  return gate_ok ? rc : 1;
}

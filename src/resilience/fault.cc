#include "resilience/fault.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>

#include "obs/metrics.h"
#include "util/fnv.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace microrec::resilience {

namespace internal {
std::atomic<int> g_fault_state{0};
}  // namespace internal

namespace {

struct SiteState {
  FaultSpec spec;
  uint64_t hits = 0;
  uint64_t fires = 0;
  Rng rng;  // only used in probability mode

  SiteState() : rng(0, 1) {}
};

struct FaultRegistry {
  std::mutex mu;
  std::map<std::string, SiteState, std::less<>> sites;
};

FaultRegistry& Registry() {
  static FaultRegistry* registry = new FaultRegistry();
  return *registry;
}

obs::Counter* InjectedCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "resilience.faults.injected");
  return counter;
}

// FNV-1a over the site name, mixed with the seed, so each site draws from
// an independent deterministic stream.
uint64_t SiteStream(std::string_view site) {
  const uint64_t hash = FnvMix(kFnvBasis, site);
  // Hashed ids are not in the reserved-stream registry (util/rng.h): the
  // caller also perturbs the seed, so a collision with a reserved id could
  // not correlate sequences anyway.
  return hash | 1;  // PCG stream ids must be odd after internal shifting
}

bool AllDigits(std::string_view text) {
  if (text.empty()) return false;
  return std::all_of(text.begin(), text.end(), [](unsigned char c) {
    return std::isdigit(c) != 0;
  });
}

// Strict by construction: digit-only integers (strtoull alone would accept
// "-3" and wrap it to a huge, never-firing cadence), finite probabilities in
// (0, 1], and `+N` kill-after thresholds. Anything else is an error naming
// the offending token — a spec that cannot fire must not arm silently.
Result<FaultSpec> ParseSpec(std::string_view text) {
  if (text.empty()) return Status::InvalidArgument("empty activation spec");
  std::string spec_str(text);
  if (spec_str[0] == '+') {
    std::string_view digits = text.substr(1);
    if (!AllDigits(digits)) {
      return Status::InvalidArgument(
          "kill-after threshold must be '+<non-negative integer>', got '" +
          spec_str + "'");
    }
    FaultSpec spec;
    spec.kill_after = true;
    spec.after_nth = std::strtoull(spec_str.c_str() + 1, nullptr, 10);
    return spec;
  }
  if (spec_str.find('.') != std::string::npos) {
    char* end = nullptr;
    double p = std::strtod(spec_str.c_str(), &end);
    if (end == nullptr || *end != '\0' || !std::isfinite(p) || !(p > 0.0) ||
        p > 1.0) {
      return Status::InvalidArgument(
          "fault probability must be finite and in (0, 1], got '" + spec_str +
          "'");
    }
    FaultSpec spec;
    spec.probability = p;
    return spec;
  }
  if (!AllDigits(spec_str) || spec_str == std::string(spec_str.size(), '0')) {
    return Status::InvalidArgument(
        "fault cadence must be a positive integer, got '" + spec_str + "'");
  }
  FaultSpec spec;
  spec.every_nth = std::strtoull(spec_str.c_str(), nullptr, 10);
  return spec;
}

}  // namespace

namespace internal {

bool FaultsArmedSlow() {
  static std::mutex init_mu;
  std::lock_guard<std::mutex> lock(init_mu);
  int state = g_fault_state.load(std::memory_order_acquire);
  if (state != 0) return state == 2;
  const char* env = std::getenv("MICROREC_FAULTS");
  if (env == nullptr || env[0] == '\0') {
    g_fault_state.store(1, std::memory_order_release);
    return false;
  }
  uint64_t seed = 0;
  if (const char* seed_env = std::getenv("MICROREC_FAULT_SEED")) {
    seed = std::strtoull(seed_env, nullptr, 10);
  }
  Result<size_t> armed =
      ArmFaultsFromSpec(env, seed, /*validate_sites=*/true);
  if (!armed.ok()) {
    // A chaos run with a typo'd or malformed MICROREC_FAULTS would otherwise
    // pass trivially with everything dormant — fail loudly instead.
    std::fprintf(stderr, "fatal: bad MICROREC_FAULTS: %s\n",
                 armed.status().ToString().c_str());
    std::fprintf(stderr, "known sites: microrec faults --list\n");
    std::exit(2);
  }
  // ArmFaultsFromSpec already stored 2; re-read in case the spec was empty.
  return g_fault_state.load(std::memory_order_acquire) == 2;
}

}  // namespace internal

Status CheckFault(std::string_view site) {
  if (!FaultsArmed()) return Status::OK();
  FaultRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mu);
  auto it = registry.sites.find(site);
  if (it == registry.sites.end()) return Status::OK();
  SiteState& state = it->second;
  ++state.hits;
  bool fire = false;
  if (state.spec.every_nth > 0) {
    fire = state.hits % state.spec.every_nth == 0;
  } else if (state.spec.probability > 0.0) {
    fire = state.rng.Bernoulli(state.spec.probability);
  } else if (state.spec.kill_after) {
    fire = state.hits > state.spec.after_nth;
  }
  if (!fire) return Status::OK();
  ++state.fires;
  InjectedCounter()->Increment();
  return Status::Internal("injected fault at " + std::string(site) +
                          " (hit #" + std::to_string(state.hits) + ")");
}

void MaybeThrowFault(std::string_view site) {
  Status status = CheckFault(site);
  if (!status.ok()) throw FaultInjectedError(status.ToString());
}

void ArmFault(std::string_view site, FaultSpec spec, uint64_t seed) {
  FaultRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mu);
  SiteState state;
  state.spec = spec;
  state.rng = Rng(seed ^ 0xFA0175EEDULL, SiteStream(site));
  registry.sites.insert_or_assign(std::string(site), std::move(state));
  internal::g_fault_state.store(2, std::memory_order_release);
}

Result<size_t> ArmFaultsFromSpec(std::string_view spec, uint64_t seed,
                                 bool validate_sites) {
  size_t armed = 0;
  size_t index = 0;
  // Parse and validate the whole spec before arming anything, so a bad
  // trailing entry cannot leave a half-armed process behind. The split
  // pieces must outlive both loops: `entries` holds views into them.
  const std::vector<std::string> pieces = SplitAny(spec, ",");
  std::vector<std::pair<std::string_view, FaultSpec>> entries;
  for (std::string_view entry : pieces) {
    ++index;
    const std::string where =
        "fault spec entry " + std::to_string(index) + " '" +
        std::string(entry) + "': ";
    size_t colon = entry.rfind(':');
    if (colon == std::string_view::npos || colon == 0) {
      return Status::InvalidArgument(where + "expected <site>:<activation>");
    }
    std::string_view site = entry.substr(0, colon);
    if (validate_sites && !IsKnownFaultSite(site)) {
      return Status::InvalidArgument(
          where + "unknown fault site '" + std::string(site) +
          "' (see KnownFaultSites / `microrec faults --list`)");
    }
    Result<FaultSpec> parsed = ParseSpec(entry.substr(colon + 1));
    if (!parsed.ok()) {
      return Status::InvalidArgument(where + parsed.status().message());
    }
    entries.emplace_back(site, *parsed);
  }
  for (const auto& [site, parsed] : entries) {
    ArmFault(site, parsed, seed);
    ++armed;
  }
  if (armed == 0) {
    return Status::InvalidArgument("no fault entries in spec");
  }
  return armed;
}

void ClearFaults() {
  FaultRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mu);
  registry.sites.clear();
  internal::g_fault_state.store(1, std::memory_order_release);
}

uint64_t FaultHitCount(std::string_view site) {
  FaultRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mu);
  auto it = registry.sites.find(site);
  return it == registry.sites.end() ? 0 : it->second.hits;
}

uint64_t FaultFireCount(std::string_view site) {
  FaultRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mu);
  auto it = registry.sites.find(site);
  return it == registry.sites.end() ? 0 : it->second.fires;
}

std::vector<std::string> ArmedFaultSites() {
  FaultRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mu);
  std::vector<std::string> names;
  names.reserve(registry.sites.size());
  for (const auto& [name, state] : registry.sites) names.push_back(name);
  return names;
}

const std::vector<std::string_view>& KnownFaultSites() {
  static const std::vector<std::string_view>* sites = [] {
    auto* list = new std::vector<std::string_view>{
        kSiteCheckpointWrite, kSiteCorpusIoRead,      kSiteEngineScore,
        kSiteEpochSwap,       kSitePoolTask,          kSiteShardQuery,
        kSiteShardSnapshotLoad, kSiteShardWarm,       kSiteSnapshotLoad,
        kSiteSnapshotWrite,   kSiteStreamApply,       kSiteSweepConfig,
        kSiteTopicGibbsSweep, kSiteWalAppend,         kSiteWalReplay,
    };
    std::sort(list->begin(), list->end());
    return list;
  }();
  return *sites;
}

bool IsKnownFaultSite(std::string_view site) {
  size_t hash = site.rfind('#');
  if (hash != std::string_view::npos) {
    std::string_view suffix = site.substr(hash + 1);
    if (!AllDigits(suffix)) return false;
    site = site.substr(0, hash);
  }
  const std::vector<std::string_view>& known = KnownFaultSites();
  return std::binary_search(known.begin(), known.end(), site);
}

}  // namespace microrec::resilience

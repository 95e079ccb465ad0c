#include "sim/faults.hpp"

#include <algorithm>
#include <charconv>

#include "sim/machine.hpp"
#include "support/rng.hpp"
#include "support/strutil.hpp"
#include "telemetry/registry.hpp"

namespace mfbc::sim {

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kTransient:
      return "transient";
    case FaultKind::kRankFailure:
      return "rank";
    case FaultKind::kCorruption:
      return "corrupt";
  }
  return "?";
}

const char* recovery_event_kind_name(RecoveryEvent::Kind k) {
  switch (k) {
    case RecoveryEvent::Kind::kRankFailure:
      return "rank_failure";
    case RecoveryEvent::Kind::kSpareRehome:
      return "spare_rehome";
    case RecoveryEvent::Kind::kSurvivorDouble:
      return "survivor_double";
    case RecoveryEvent::Kind::kGridShrink:
      return "grid_shrink";
    case RecoveryEvent::Kind::kCheckpointRestore:
      return "checkpoint_restore";
    case RecoveryEvent::Kind::kResume:
      return "resume";
  }
  return "?";
}

FaultError::FaultError(FaultKind kind, std::uint64_t charge_index, int rank,
                       bool recoverable, const std::string& what)
    : ::mfbc::Error(what),
      kind_(kind),
      charge_index_(charge_index),
      rank_(rank),
      recoverable_(recoverable) {}

bool FaultSpec::any_rank_faults() const {
  if (rank_failure_rate > 0) return true;
  for (const Scheduled& s : scheduled)
    if (s.kind == FaultKind::kRankFailure) return true;
  return false;
}

bool FaultSpec::any_corruption() const {
  if (corruption_rate > 0) return true;
  for (const Scheduled& s : scheduled)
    if (s.kind == FaultKind::kCorruption) return true;
  return false;
}

namespace {

/// The `what` of a malformed item: the parse error names the whole item.
std::string spec_item(const std::string& item) {
  return "bad --faults item '" + item + "'";
}

[[noreturn]] void bad_spec(const std::string& item, const char* why) {
  throw ::mfbc::Error(spec_item(item) + ": " + why);
}

FaultKind kind_of(const std::string& name) {
  if (name == "transient") return FaultKind::kTransient;
  if (name == "corrupt" || name == "corruption") return FaultKind::kCorruption;
  if (name == "rank") return FaultKind::kRankFailure;
  return FaultKind::kNone;
}

}  // namespace

FaultSpec FaultSpec::parse(const std::string& text, std::uint64_t seed) {
  FaultSpec spec;
  spec.seed = seed;
  for (const std::string& item : split(text, ',')) {
    if (item.empty()) continue;
    if (item == "trace") {
      spec.record_trace = true;
      continue;
    }
    const std::size_t at = item.find('@');
    const std::size_t colon = item.find(':');
    if (at != std::string::npos && (colon == std::string::npos || at < colon)) {
      // name@index[:victim] — an explicitly scheduled fault.
      Scheduled s;
      s.kind = kind_of(item.substr(0, at));
      if (s.kind == FaultKind::kNone) bad_spec(item, "unknown fault kind");
      std::string rest = item.substr(at + 1);
      const std::size_t vcolon = rest.find(':');
      if (vcolon != std::string::npos) {
        if (s.kind != FaultKind::kRankFailure)
          bad_spec(item, "only rank@I:V takes a victim");
        s.victim = parse_int<int>(spec_item(item), rest.substr(vcolon + 1));
        rest = rest.substr(0, vcolon);
      }
      s.charge_index = parse_int<std::uint64_t>(spec_item(item), rest);
      spec.scheduled.push_back(s);
      continue;
    }
    if (colon == std::string::npos) bad_spec(item, "expected name:value");
    const std::string name = item.substr(0, colon);
    const std::string value = item.substr(colon + 1);
    if (name == "retries") {
      spec.max_retries = parse_int<int>(spec_item(item), value);
    } else if (name == "batch-retries") {
      spec.max_batch_retries = parse_int<int>(spec_item(item), value);
    } else if (name == "spares") {
      spec.spares = parse_int<int>(spec_item(item), value);
    } else if (name == "shrinks") {
      spec.max_shrinks = parse_int<int>(spec_item(item), value);
    } else if (name == "seed") {
      spec.seed = parse_int<std::uint64_t>(spec_item(item), value);
    } else if (kind_of(name) == FaultKind::kTransient) {
      spec.transient_rate = parse_rate(spec_item(item), value);
    } else if (kind_of(name) == FaultKind::kCorruption) {
      spec.corruption_rate = parse_rate(spec_item(item), value);
    } else if (kind_of(name) == FaultKind::kRankFailure) {
      spec.rank_failure_rate = parse_rate(spec_item(item), value);
    } else {
      bad_spec(item, "unknown item");
    }
  }
  return spec;
}

namespace {

/// Shortest decimal form that parses back to the same double (parse_rate
/// reads it with std::from_chars, which round-trips std::to_chars).
std::string rate_str(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace

std::string FaultSpec::to_string() const {
  const FaultSpec defaults;
  std::vector<std::string> items;
  if (transient_rate > 0) items.push_back("transient:" + rate_str(transient_rate));
  if (corruption_rate > 0) items.push_back("corrupt:" + rate_str(corruption_rate));
  if (rank_failure_rate > 0) items.push_back("rank:" + rate_str(rank_failure_rate));
  for (const Scheduled& s : scheduled) {
    std::string item = std::string(fault_kind_name(s.kind)) + "@" +
                       std::to_string(s.charge_index);
    if (s.victim >= 0) item += ":" + std::to_string(s.victim);
    items.push_back(std::move(item));
  }
  if (max_retries != defaults.max_retries) {
    items.push_back("retries:" + std::to_string(max_retries));
  }
  if (max_batch_retries != defaults.max_batch_retries) {
    items.push_back("batch-retries:" + std::to_string(max_batch_retries));
  }
  if (spares != defaults.spares) {
    items.push_back("spares:" + std::to_string(spares));
  }
  if (max_shrinks != defaults.max_shrinks) {
    items.push_back("shrinks:" + std::to_string(max_shrinks));
  }
  if (seed != defaults.seed) items.push_back("seed:" + std::to_string(seed));
  if (record_trace) items.push_back("trace");
  std::string out;
  for (const std::string& item : items) {
    if (!out.empty()) out += ',';
    out += item;
  }
  return out;
}

FaultInjector::FaultInjector(FaultSpec spec, int nranks)
    : spec_(std::move(spec)), map_(nranks), alive_(nranks) {
  MFBC_CHECK(nranks > 0, "fault injector needs at least one rank");
  MFBC_CHECK(spec_.spares >= 0, "spares must be non-negative");
  MFBC_CHECK(spec_.max_shrinks >= 0, "shrinks must be non-negative");
  spares_provisioned_ = spec_.spares;
  const int physical = nranks + spares_provisioned_;
  dead_.assign(static_cast<std::size_t>(physical), 0);
  active_.assign(static_cast<std::size_t>(physical), 0);
  for (int r = 0; r < nranks; ++r) {
    map_[r] = r;
    active_[r] = 1;
  }
  spare_pool_.reserve(static_cast<std::size_t>(spares_provisioned_));
  for (int s = nranks; s < physical; ++s) spare_pool_.push_back(s);
  if (spares_provisioned_ > 0) {
    telemetry::count("spare.provisioned",
                     static_cast<double>(spares_provisioned_));
  }
  for (const FaultSpec::Scheduled& s : spec_.scheduled) {
    MFBC_CHECK(s.victim < nranks, "scheduled fault victim out of range");
  }
}

double FaultInjector::draw(std::uint64_t index, std::uint64_t stream) const {
  // SplitMix64 over a mixed key: consecutive indices give independent,
  // platform-stable streams, so the schedule is a pure function of
  // (seed, charge index) — the determinism contract tests rely on.
  SplitMix64 mix(spec_.seed ^ (index * 0x9E3779B97F4A7C15ull) ^
                 (stream * 0xBF58476D1CE4E5B9ull));
  mix.next();
  return static_cast<double>(mix.next() >> 11) * 0x1.0p-53;
}

FaultInjector::Decision FaultInjector::next(std::span<const int> group) {
  Decision d;
  d.index = next_index_++;
  for (const FaultSpec::Scheduled& s : spec_.scheduled) {
    if (s.charge_index == d.index) {
      d.kind = s.kind;
      d.victim = s.victim;
      break;
    }
  }
  if (d.kind == FaultKind::kNone) {
    const double u = draw(d.index, 0);
    if (u < spec_.transient_rate) {
      d.kind = FaultKind::kTransient;
    } else if (u < spec_.transient_rate + spec_.corruption_rate) {
      d.kind = FaultKind::kCorruption;
    } else if (u < spec_.transient_rate + spec_.corruption_rate +
                       spec_.rank_failure_rate) {
      d.kind = FaultKind::kRankFailure;
    }
  }
  if (d.kind == FaultKind::kRankFailure && d.victim < 0) {
    const auto i = static_cast<std::size_t>(
        draw(d.index, 1) * static_cast<double>(group.size()));
    d.victim = group[std::min(i, group.size() - 1)];
  }
  if (spec_.record_trace) {
    trace_.push_back(
        {d.index, static_cast<int>(group.size()), d.kind, d.victim});
  }
  return d;
}

std::vector<int> FaultInjector::physical_group(
    std::span<const int> group) const {
  std::vector<int> phys;
  phys.reserve(group.size());
  for (int v : group) phys.push_back(map_[v]);
  std::sort(phys.begin(), phys.end());
  phys.erase(std::unique(phys.begin(), phys.end()), phys.end());
  return phys;
}

void FaultInjector::kill(int physical) {
  MFBC_CHECK(physical >= 0 && physical < physical_ranks(),
             "kill: rank out of range");
  if (dead_[physical]) return;
  dead_[physical] = 1;
  if (active_[physical]) {
    --alive_;
  } else {
    // A cold spare died in the pool: it can never be activated.
    spare_pool_.erase(
        std::remove(spare_pool_.begin(), spare_pool_.end(), physical),
        spare_pool_.end());
  }
}

bool FaultInjector::fits(const std::vector<int>& candidate,
                         const RemapContext& ctx) const {
  if (ctx.vrank_resident_words.empty() || ctx.machine == nullptr) return true;
  std::vector<double> load(static_cast<std::size_t>(physical_ranks()), 0.0);
  for (int v = 0; v < nranks(); ++v) {
    const auto r = std::min(static_cast<std::size_t>(v),
                            ctx.vrank_resident_words.size() - 1);
    load[static_cast<std::size_t>(candidate[static_cast<std::size_t>(v)])] +=
        ctx.vrank_resident_words[r];
  }
  const auto& profiles = ctx.machine->profiles;
  for (std::size_t h = 0; h < load.size(); ++h) {
    // Spares provisioned beyond the profiled fleet price as the scalar
    // (cpu-class) memory; Sim::enable_faults extends the profiles so this
    // fallback only triggers for standalone injectors in tests.
    const double cap = h < profiles.size()
                           ? profiles[h].memory_words
                           : ctx.machine->memory_words;
    if (load[h] > cap) return false;
  }
  return true;
}

RemapOutcome FaultInjector::remap(const RemapContext& ctx) {
  RemapOutcome out;
  if (alive_ == 0 && spare_pool_.empty()) {
    throw FaultError(FaultKind::kRankFailure, next_index_, -1, false,
                     "unrecoverable: every physical rank is dead");
  }
  // Dead hosts still carrying virtual ranks, in ascending physical order.
  std::vector<int> dead_hosts;
  for (int v = 0; v < nranks(); ++v) {
    if (dead_[map_[v]]) dead_hosts.push_back(map_[v]);
  }
  std::sort(dead_hosts.begin(), dead_hosts.end());
  dead_hosts.erase(std::unique(dead_hosts.begin(), dead_hosts.end()),
                   dead_hosts.end());
  // 1. Spare re-home: each dead host's virtual ranks move wholesale onto
  // the next cold spare, preserving the placement shape exactly.
  for (int h : dead_hosts) {
    if (spare_pool_.empty()) break;
    const int s = spare_pool_.front();
    spare_pool_.erase(spare_pool_.begin());
    active_[static_cast<std::size_t>(s)] = 1;
    ++alive_;
    spare_activation_seconds_.push_back(ctx.now_seconds);
    telemetry::count("spare.activated");
    for (int v = 0; v < nranks(); ++v) {
      if (map_[v] == h) {
        map_[v] = s;
        telemetry::count("spare.rehomed_vranks");
        record_event({RecoveryEvent::Kind::kSpareRehome, next_index_,
                      ctx.batch, v, s, ctx.now_seconds});
      }
    }
    out.used_spare = true;
    out.spares_activated.push_back(s);
  }
  bool any_dead = false;
  for (int v = 0; v < nranks(); ++v) any_dead |= dead_[map_[v]] != 0;
  if (any_dead) {
    MFBC_CHECK(alive_ > 0, "remap: no active host survives");
    std::vector<int> alive;
    alive.reserve(static_cast<std::size_t>(alive_));
    for (int r = 0; r < physical_ranks(); ++r) {
      if (active_[r] && !dead_[r]) alive.push_back(r);
    }
    // 2. Survivor doubling (the pre-elastic policy), if it fits.
    std::vector<int> candidate = map_;
    for (int v = 0; v < nranks(); ++v) {
      if (dead_[candidate[v]]) {
        candidate[v] = alive[static_cast<std::size_t>(v) % alive.size()];
      }
    }
    if (fits(candidate, ctx)) {
      for (int v = 0; v < nranks(); ++v) {
        if (map_[v] != candidate[v]) {
          telemetry::count("degrade.doubled_vranks");
          record_event({RecoveryEvent::Kind::kSurvivorDouble, next_index_,
                        ctx.batch, v, candidate[v], ctx.now_seconds});
        }
      }
      map_ = std::move(candidate);
      out.doubled = true;
    } else {
      // 3. Grid shrink: balanced contiguous placement of the whole virtual
      // fleet onto the survivors.
      if (shrinks_ >= spec_.max_shrinks) {
        throw FaultError(
            FaultKind::kRankFailure, next_index_, -1, false,
            "unrecoverable: survivor doubling violates the memory fit and "
            "the grid-shrink budget (shrinks:" +
                std::to_string(spec_.max_shrinks) + ") is exhausted");
      }
      std::vector<int> shrunk(map_.size());
      for (int v = 0; v < nranks(); ++v) {
        shrunk[v] = alive[static_cast<std::size_t>(v) * alive.size() /
                          map_.size()];
      }
      if (!fits(shrunk, ctx)) {
        throw FaultError(
            FaultKind::kRankFailure, next_index_, -1, false,
            "unrecoverable: resident blocks do not fit the surviving ranks' "
            "memory even after a grid shrink");
      }
      map_ = std::move(shrunk);
      ++shrinks_;
      out.shrunk = true;
      telemetry::count("degrade.shrinks");
      record_event({RecoveryEvent::Kind::kGridShrink, next_index_, ctx.batch,
                    -1, -1, ctx.now_seconds});
    }
  }
  identity_ = true;
  for (int v = 0; v < nranks(); ++v) identity_ &= map_[v] == v;
  return out;
}

SpareReport FaultInjector::spare_report(double end_seconds) const {
  SpareReport r;
  r.provisioned = spares_provisioned_;
  r.activated = spares_activated();
  for (double t : spare_activation_seconds_) {
    r.idle_seconds += std::min(t, end_seconds);
  }
  r.idle_seconds +=
      static_cast<double>(r.provisioned - r.activated) * end_seconds;
  return r;
}

void FaultInjector::record_corruption(Corruption c) {
  pending_.push_back(std::move(c));
}

std::vector<FaultInjector::Corruption> FaultInjector::drain_corruptions() {
  std::vector<Corruption> out;
  out.swap(pending_);
  return out;
}

namespace {
void mirror(const char* event, FaultKind k, std::uint64_t n) {
  telemetry::count(std::string("faults.") + event, static_cast<double>(n));
  if (k != FaultKind::kNone) {
    telemetry::count(std::string("faults.") + event + "." + fault_kind_name(k),
                     static_cast<double>(n));
  }
}
}  // namespace

void FaultInjector::count_injected(FaultKind k) {
  ++counters_.injected;
  switch (k) {
    case FaultKind::kTransient:
      ++counters_.injected_transient;
      break;
    case FaultKind::kRankFailure:
      ++counters_.injected_rank;
      break;
    case FaultKind::kCorruption:
      ++counters_.injected_corruption;
      break;
    case FaultKind::kNone:
      break;
  }
  mirror("injected", k, 1);
}

void FaultInjector::count_detected(FaultKind k, std::uint64_t n) {
  counters_.detected += n;
  mirror("detected", k, n);
}

void FaultInjector::count_recovered(FaultKind k, std::uint64_t n) {
  counters_.recovered += n;
  mirror("recovered", k, n);
}

void FaultInjector::count_aborted(FaultKind k) {
  ++counters_.aborted;
  mirror("aborted", k, 1);
}

}  // namespace mfbc::sim

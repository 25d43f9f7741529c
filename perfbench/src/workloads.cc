#include "workloads.h"

#include <cmath>

namespace perfbench {
namespace {

using bistream::BicliqueOptions;
using bistream::JoinPredicate;
using bistream::kRelationR;
using bistream::kRelationS;
using bistream::TimedTuple;

const std::vector<WorkloadSpec>& Table() {
  static const std::vector<WorkloadSpec> table = {
      {.name = "equi_firehose",
       .open_loop = false,
       .band = 0,
       .key_domain = 1'000'000,
       .rate_per_relation = 190'000,
       .total_tuples = 1'000'000,
       .cont_hash = true},
      {.name = "band_open",
       .open_loop = true,
       .band = 2,
       .key_domain = 20'000,
       .rate_per_relation = 30'000,
       .duration_s = 8,
       .cont_hash = false},
      {.name = "equi_ft_open",
       .open_loop = true,
       .band = 0,
       .key_domain = 20'000,
       .rate_per_relation = 40'000,
       .duration_s = 6,
       .cont_hash = true,
       .fault_tolerance = true,
       .crash_at_s = 3},
  };
  return table;
}

// splitmix64: a small, fully specified generator, so a seed names the same
// inputs on every toolchain.
struct Rng {
  uint64_t state;
  uint64_t Next() {
    uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  // Uniform in (0, 1].
  double Unit() {
    return (static_cast<double>(Next() >> 11) + 1.0) * 0x1.0p-53;
  }
};

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Table()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : Table()) names.push_back(spec.name);
  return names;
}

BicliqueOptions EngineOptions(const WorkloadSpec& spec) {
  BicliqueOptions options;
  options.backend = bistream::runtime::BackendKind::kParallel;
  options.num_routers = 2;
  options.joiners_r = 2;
  options.joiners_s = 2;
  options.subgroups_r = spec.cont_hash ? 2 : 1;
  options.subgroups_s = spec.cont_hash ? 2 : 1;
  options.predicate =
      spec.band > 0 ? JoinPredicate::Band(spec.band) : JoinPredicate::Equi();
  options.window = kWindow;
  options.archive_period = kWindow / 8;
  options.expiry_slack = kExpirySlack;
  options.punct_interval = 10 * bistream::kMillisecond;
  options.batch_size = 1;
  if (spec.fault_tolerance) {
    options.fault_tolerance.enabled = true;
    options.fault_tolerance.checkpoint_rounds = 16;
  }
  return options;
}

std::vector<TimedTuple> MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  Rng rng{seed * 0x2545F4914F6CDD1DULL + 0x1F123BB5ULL};
  // Two independent Poisson processes merged in time order.
  const double mean_gap_ns = 1e9 / spec.rate_per_relation;
  double next[2] = {-std::log(rng.Unit()) * mean_gap_ns,
                    -std::log(rng.Unit()) * mean_gap_ns};
  const double horizon_ns = spec.duration_s * 1e9;
  std::vector<TimedTuple> out;
  if (spec.total_tuples > 0) out.reserve(spec.total_tuples);
  for (;;) {
    int side = next[0] <= next[1] ? 0 : 1;
    double at = next[side];
    if (spec.total_tuples > 0 ? out.size() >= spec.total_tuples
                              : at >= horizon_ns) {
      break;
    }
    TimedTuple tt;
    tt.arrival = static_cast<bistream::SimTime>(at);
    tt.tuple.id = out.size() + 1;
    tt.tuple.relation = side == 0 ? kRelationR : kRelationS;
    tt.tuple.ts = kTsOrigin + static_cast<bistream::EventTime>(
                                  tt.arrival / bistream::kMicrosecond);
    tt.tuple.key = static_cast<int64_t>(
        rng.Next() % static_cast<uint64_t>(spec.key_domain));
    out.push_back(std::move(tt));
    next[side] += -std::log(rng.Unit()) * mean_gap_ns;
  }
  return out;
}

}  // namespace perfbench

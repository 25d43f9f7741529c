// Workload definitions and seeded input generation for the steady-state
// benchmark. Every workload runs the same topology (2 routers, 2 joiners
// per side, 10 ms punctuation, W = 1 s, archive period W/8, expiry slack
// W/2, batch 1) on the parallel backend; they differ in loop type,
// predicate, routing, key domain, rate and fault tolerance.
// perfbench/NOTES.md records why each one exists and which numbers it
// starts with.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "workload/generator.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  /// Open loop: tuple i is due at drive start + arrival_i on the wall
  /// clock and the generator keeps that schedule however the system
  /// behaves. Closed loop: each tuple is due as soon as the previous
  /// InjectNow returned, so the bounded inboxes are the only throttle.
  bool open_loop = false;
  /// Band join with this half-width; 0 = equi join.
  int64_t band = 0;
  int64_t key_domain = 0;
  /// Poisson arrival rate per relation, tuples per event second. For the
  /// open loop event time equals the due time, so this is also the offered
  /// wall rate.
  double rate_per_relation = 0;
  /// Closed loop: total tuples (both relations). Open loop: 0.
  uint64_t total_tuples = 0;
  /// Open loop: seconds of arrivals. Closed loop: 0.
  double duration_s = 0;
  /// ContHash (subgroups = joiners per side) instead of ContRand.
  bool cont_hash = false;
  bool fault_tolerance = false;
  /// Seconds after drive start of the one planned joiner crash; < 0: none.
  double crash_at_s = -1;
};

/// The workload table; nullptr when `name` is not one of them.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// The shared topology plus the workload's predicate, routing and fault
/// tolerance settings.
bistream::BicliqueOptions EngineOptions(const WorkloadSpec& spec);

/// Seeded input stream: tuples carry globally unique ids 1..N in arrival
/// order, `arrival` is the offset from drive start in ns and `ts` the
/// matching event time in microseconds (plus a fixed 1 s origin).
std::vector<bistream::TimedTuple> MakeInputs(const WorkloadSpec& spec,
                                             uint64_t seed);

inline constexpr bistream::EventTime kWindow = bistream::kEventSecond;
/// How far behind the newest probe a joiner has seen a probe may arrive
/// and still find all its matches. The engine's own bound is three
/// punctuation intervals (30 ms here), but on the parallel backend probes
/// reach the joiners up to ~130 ms out of timestamp order at these loads
/// (order.probe_disorder_max_ms), and the joiners then expire sub-indexes
/// older probes still need. The benchmark sets the slack the engine leaves
/// to drivers whose disorder exceeds that bound, with a wide margin, so
/// every workload returns the exact result.
inline constexpr bistream::EventTime kExpirySlack = kWindow / 2;
inline constexpr bistream::EventTime kTsOrigin = bistream::kEventSecond;

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

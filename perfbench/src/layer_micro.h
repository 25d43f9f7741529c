// Single-layer measurements that the traced run cannot take from spans.

#ifndef PERFBENCH_LAYER_MICRO_H_
#define PERFBENCH_LAYER_MICRO_H_

#include <vector>

#include "tuple/join_predicate.h"
#include "workload/generator.h"

namespace perfbench {

/// Feeds `inputs` in order through two ChainedIndex instances in one thread
/// (ExpireAndProbe into the opposite side, then Insert into the own side)
/// with the engine's W and archive period: the index layer's isolated
/// throughput, tuples per second. `results` receives the match count.
double SoloIndexTps(const std::vector<bistream::TimedTuple>& inputs,
                    const bistream::JoinPredicate& pred, uint64_t* results);

/// Mean wall nanoseconds per LockingResultSink::OnResult call when 4
/// threads deliver results concurrently into one sink, as the joiners do.
double SinkOnResultNs4Threads();

}  // namespace perfbench

#endif  // PERFBENCH_LAYER_MICRO_H_

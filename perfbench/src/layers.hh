/**
 * @file
 * Per-layer metrics of the traced run: each layer's public call timed
 * from the benchmark on the workload's own inputs, and the stage
 * breakdown read back from the library's existing trace spans.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <string>

#include "common.hh"
#include "workloads.hh"

namespace perfbench
{

/** Time lang/opt/isa/sim/profile/synth/cache/support calls over every
 *  input of @p w (after its set-up) into @p m. */
void measureLayers(Workload &w, Gate &gate, Metrics &m);

/** Busy time per span name, computed-span counts and the self time of
 *  workload/arrival spans from the Chrome trace at @p path. */
void traceMetrics(const std::string &path, Metrics &m);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH

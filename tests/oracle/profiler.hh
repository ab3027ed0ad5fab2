/**
 * @file
 * The reference profiler: an ExecObserver over the reference
 * interpreter that measures a run from the live callback stream. Block
 * starts, intra-function edges and the retire-order mix are observed
 * directly (with its own PC -> block map), not reconstructed from
 * per-PC counters, and memory accesses go through the reference cache.
 * profile::assembleProfile() turns the measurements into the profile,
 * so the fused profiler must produce the same bytes. It also counts
 * each PC's accesses and branch executions, which the profile derives
 * from the exec counts, and panics unless the derivation agrees.
 */

#ifndef BSYN_ORACLE_PROFILER_HH
#define BSYN_ORACLE_PROFILER_HH

#include "profile/profiler.hh"

namespace bsyn::oracle
{

/** Same contract as profile::profileWorkload(). */
profile::StatisticalProfile
profileWorkload(const ir::Module &mod, const isa::MachineProgram &prog,
                const profile::ProfileOptions &opts = {});

/** Same contract as profile::profileModule(). */
profile::StatisticalProfile
profileModule(const ir::Module &mod,
              const profile::ProfileOptions &opts = {});

} // namespace bsyn::oracle

#endif // BSYN_ORACLE_PROFILER_HH

/**
 * @file
 * The reference copy-propagation pass: block-local propagation over an
 * ordered map of live copies, and coalescing that scans the rest of the
 * block for each candidate pair. Quadratic in block length, and the
 * golden model the linear pass (opt/copy_prop.hh) is differentially
 * tested against.
 */

#ifndef BSYN_ORACLE_COPY_PROP_HH
#define BSYN_ORACLE_COPY_PROP_HH

#include "ir/module.hh"

namespace bsyn::oracle
{

/** Same contract as opt::propagateCopies(ir::Function &). */
bool propagateCopies(ir::Function &fn);

/** Same contract as opt::propagateCopies(ir::Module &). */
bool propagateCopies(ir::Module &mod);

} // namespace bsyn::oracle

#endif // BSYN_ORACLE_COPY_PROP_HH

// Lint pass 3: deadlock detection.
//
// A pure function of the happens-before run (lint/hb.hpp). That machine
// interprets the trace untimed — every blocking condition reduced to its
// pure dependency: a blocking receive needs a matching send issued, a
// rendezvous send (synchronous, or larger than the eager threshold) needs
// its matching receive posted, a wait needs its requests' partners, and a
// collective needs every rank to arrive — to a fixed point under
// round-robin scheduling. Because completion in this model is monotone
// (once satisfiable, always satisfiable), any rank still blocked at the
// fixed point can never progress in a real replay either; the machine
// records each one in HbAnalysis::stuck with its blame targets.
//
// This pass connects the stuck ranks into a cross-rank wait-for graph and
// reports its strongly connected components: cyclic components as deadlock
// cycles with the full blame chain (who waits on whom, at which record),
// acyclic stuck ranks as starvation (waiting on a peer that terminates
// without satisfying them).
#pragma once

#include "lint/diagnostics.hpp"
#include "lint/hb.hpp"
#include "trace/trace.hpp"

namespace osim::lint {

void check_deadlock(const trace::Trace& trace, const HbAnalysis& hb,
                    Report& report);

}  // namespace osim::lint

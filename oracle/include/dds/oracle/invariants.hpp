// Physical per-interval invariants of an engine run, as GoogleTest
// expectations (header-only; include it from test code only).
//
// Checked on every interval:
//  * Omega and Gamma lie in [0, 1];
//  * fluid backend, every PE: the messages offered in the interval
//    (offered_rate x dt: new arrivals, the carried backlog and migrated
//    messages that landed) equal the messages processed plus the backlog
//    left, to a relative 1e-9. Crash drops and migrations happen between
//    steps, so they move the next interval's offer, not this balance.
// Not checked: that cost_cumulative never decreases. Billing rounds a
// running VM up to whole hours and a reclaimed spot VM down, so the cost
// read at an interval end can fall when a VM is reclaimed.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "dds/core/experiment.hpp"

namespace dds::oracle {

inline void expectIntervalInvariants(const ExperimentResult& r,
                                     SimBackend backend) {
  const auto& intervals = r.run.intervals();
  ASSERT_GE(intervals.size(), 2u) << "need two intervals to read dt";
  const SimTime dt = intervals[1].start - intervals[0].start;
  for (const IntervalMetrics& m : intervals) {
    EXPECT_TRUE(m.omega >= 0.0 && m.omega <= 1.0)
        << "interval " << m.index << ": omega " << m.omega;
    EXPECT_TRUE(m.gamma >= 0.0 && m.gamma <= 1.0)
        << "interval " << m.index << ": gamma " << m.gamma;
    if (backend != SimBackend::Fluid) continue;
    for (std::size_t pe = 0; pe < m.pe_stats.size(); ++pe) {
      const PeIntervalStats& st = m.pe_stats[pe];
      const double offered = st.offered_rate * dt;
      const double kept = st.processed_rate * dt + st.backlog_msgs;
      const double scale = std::max(std::abs(offered), std::abs(kept));
      if (!(std::abs(offered - kept) <= 1e-9 * scale)) {
        ADD_FAILURE() << "interval " << m.index << ", PE " << pe
                      << ": offered " << offered << " msgs != processed "
                      << st.processed_rate * dt << " + backlog "
                      << st.backlog_msgs;
        return;  // one report per run is enough to locate the fault
      }
    }
  }
}

}  // namespace dds::oracle

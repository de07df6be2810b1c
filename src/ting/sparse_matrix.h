// Forwarding header: the daemon's store is meas::RttMatrix (ting/rtt_matrix.h).
// The alias stays only because the pipeline benchmark under perfbench/
// includes this header and names meas::SparseRttMatrix; nothing else may
// use it.
#pragma once

#include "ting/rtt_matrix.h"

namespace ting::meas {

using SparseRttMatrix = RttMatrix;

}  // namespace ting::meas

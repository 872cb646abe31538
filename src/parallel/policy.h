#pragma once
// Communication policies for the multi-GPU operator.

namespace quda {

// Section VI-D: the two communication strategies whose tradeoff the paper's
// strong-scaling study maps out
enum class CommPolicy {
  NoOverlap, // all transfers up front with synchronous cudaMemcpy, then one kernel
  Overlap,   // 3-stream pipeline: interior kernel overlapped with async copies + MPI
};

inline const char* to_string(CommPolicy p) {
  return p == CommPolicy::NoOverlap ? "not overlapped" : "overlapped";
}

} // namespace quda

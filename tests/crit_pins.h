#pragma once
// Bitwise pins shared by test_critpath.cpp and test_seq_golden.cpp: a whole
// CritSummary, and the exported bytes of a run.
//
// Every numeric field is compared with ==: the analyzer works on recorded
// doubles only, so any change in how a gap, an edge or a projection lane is
// charged moves at least one bit of the category split or the projections.
// On a mismatch the actual summary is printed as hex-float designated
// initializers, ready to paste once the change is verified to be intended.

#include "field_pins.h"

#include "trace/attribution.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <istream>
#include <string>
#include <vector>

namespace quda {

// FNV-1a over the bytes of a line-oriented export (Chrome trace JSON,
// telemetry JSONL), skipping its provenance line: that line names the
// build and the thread budget, not the run, so the digest pins everything
// a run wrote
inline std::uint64_t export_digest(std::istream& in) {
  std::uint64_t h = kFnvBasis;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"provenance\"") != std::string::npos) continue;
    line += '\n';
    h = fnv1a(h, line.data(), line.size());
  }
  return h;
}

inline void print_summary_pin(const trace::CritSummary& s) {
  std::printf("    .makespan_us = %a,\n    .path_us = %a,\n    .cat_us = {", s.makespan_us,
              s.path_us);
  for (int c = 0; c < trace::kNumPathCats; ++c)
    std::printf("%s%a", c == 0 ? "" : ", ", s.cat_us[c]);
  std::printf("},\n    .critical_rank = %d,\n    .cross_rank_jumps = %ld,\n"
              "    .segments = %zu,\n    .compute_bound_us = %a,\n"
              "    .replay_identity_us = %a,\n    .whatif_zero_latency_us = %a,\n"
              "    .whatif_free_pcie_us = %a,\n    .whatif_infinite_overlap_us = %a,\n",
              s.critical_rank, s.cross_rank_jumps, s.segments, s.compute_bound_us,
              s.replay_identity_us, s.whatif_zero_latency_us, s.whatif_free_pcie_us,
              s.whatif_infinite_overlap_us);
}

inline void expect_summary_pinned(const trace::CritSummary& got, const trace::CritSummary& want) {
  ASSERT_TRUE(got.valid) << got.error;
  struct Field {
    const char* name;
    double got, want; // the integer fields are far below 2^53: exact
  };
  std::vector<Field> fields = {
      {"makespan_us", got.makespan_us, want.makespan_us},
      {"path_us", got.path_us, want.path_us},
      {"critical_rank", double(got.critical_rank), double(want.critical_rank)},
      {"cross_rank_jumps", double(got.cross_rank_jumps), double(want.cross_rank_jumps)},
      {"segments", double(got.segments), double(want.segments)},
      {"compute_bound_us", got.compute_bound_us, want.compute_bound_us},
      {"replay_identity_us", got.replay_identity_us, want.replay_identity_us},
      {"whatif_zero_latency_us", got.whatif_zero_latency_us, want.whatif_zero_latency_us},
      {"whatif_free_pcie_us", got.whatif_free_pcie_us, want.whatif_free_pcie_us},
      {"whatif_infinite_overlap_us", got.whatif_infinite_overlap_us,
       want.whatif_infinite_overlap_us},
  };
  for (int c = 0; c < trace::kNumPathCats; ++c)
    fields.push_back({trace::path_cat_name(static_cast<trace::PathCat>(c)), got.cat_us[c],
                      want.cat_us[c]});
  bool same = true;
  for (const Field& f : fields) {
    EXPECT_EQ(f.got, f.want) << f.name;
    same = same && f.got == f.want;
  }
  if (!same) print_summary_pin(got);
}

} // namespace quda

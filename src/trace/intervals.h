#pragma once
// Interval algebra over the windows metrics.h classify() collects, shared
// by the trace metrics (metrics.cpp) and the telemetry timelines and
// monitors (telemetry.cpp).  Windows are [Event::ts_us, Event::end_us), the
// exact recorded begin and end doubles.

#include <algorithm>
#include <utility>
#include <vector>

namespace quda::trace {

using Interval = std::pair<double, double>;

// merge possibly-overlapping intervals into a disjoint sorted union
inline std::vector<Interval> interval_union(std::vector<Interval> in) {
  std::sort(in.begin(), in.end());
  std::vector<Interval> out;
  for (const Interval& iv : in) {
    if (iv.second <= iv.first) continue;
    if (!out.empty() && iv.first <= out.back().second) {
      out.back().second = std::max(out.back().second, iv.second);
    } else {
      out.push_back(iv);
    }
  }
  return out;
}

inline double total_length(const std::vector<Interval>& u) {
  double t = 0;
  for (const Interval& iv : u) t += iv.second - iv.first;
  return t;
}

// length of the intersection of two disjoint sorted unions
inline double intersection_length(const std::vector<Interval>& a, const std::vector<Interval>& b) {
  double t = 0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const double lo = std::max(a[i].first, b[j].first);
    const double hi = std::min(a[i].second, b[j].second);
    if (hi > lo) t += hi - lo;
    if (a[i].second < b[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return t;
}

// a \ b for disjoint sorted unions (the exposed-communication windows)
inline std::vector<Interval> interval_subtract(const std::vector<Interval>& a,
                                               const std::vector<Interval>& b) {
  std::vector<Interval> out;
  std::size_t j = 0;
  for (const Interval& iv : a) {
    double lo = iv.first;
    while (j < b.size() && b[j].second <= lo) ++j;
    std::size_t k = j;
    while (k < b.size() && b[k].first < iv.second && lo < iv.second) {
      if (b[k].first > lo) out.emplace_back(lo, b[k].first);
      lo = std::max(lo, b[k].second);
      ++k;
    }
    if (lo < iv.second) out.emplace_back(lo, iv.second);
  }
  return out;
}

} // namespace quda::trace

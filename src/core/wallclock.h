#pragma once
// The single allowlisted wall-clock shim.
//
// The determinism contract (DESIGN.md, exec/host_engine.h) forbids reading
// real time anywhere simulated time is computed: one stray steady_clock
// read in a timing path silently breaks bit-identical makespans.  Rule
// sim-nondeterminism in tools/static_check.py therefore bans every clock /
// entropy source across src/, bench/, and tests/ -- except inside this
// file, which is the one allowlisted call site.
//
// Its one consumer is wall-time measurement in the benches (bench_util.h
// BenchJson), which never feeds back into simulated time.

#include <chrono>

namespace quda::core {

using WallClock = std::chrono::steady_clock;

// monotonic wall-clock read for measurement (benches, tooling)
inline WallClock::time_point wall_now() { return WallClock::now(); }

} // namespace quda::core

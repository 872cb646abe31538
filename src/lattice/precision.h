#pragma once
// Precision tags for device fields.
//
// Device kernels are templated on one of these tags; the tag supplies the
// storage type, the compute type (half-precision storage computes in float,
// as on the GPU's texture path), the Nvec used for coalescing, and whether a
// separate norm array accompanies the field.

#include "lattice/layout.h"
#include "su3/halfprec.h"

#include <cstdint>
#include <string>

namespace quda {

enum class Precision { Double, Single, Half };

inline const char* to_string(Precision p) {
  switch (p) {
    case Precision::Double: return "double";
    case Precision::Single: return "single";
    case Precision::Half: return "half";
  }
  return "?";
}

inline std::int64_t bytes_per_real(Precision p) {
  switch (p) {
    case Precision::Double: return 8;
    case Precision::Single: return 4;
    case Precision::Half: return 2;
  }
  return 0;
}

struct PrecDouble {
  using store_t = double;
  using real_t = double;
  static constexpr Precision value = Precision::Double;
  static constexpr bool has_norm = false;
  static constexpr int nvec = 2; // double2
};

struct PrecSingle {
  using store_t = float;
  using real_t = float;
  static constexpr Precision value = Precision::Single;
  static constexpr bool has_norm = false;
  static constexpr int nvec = 4; // float4
};

struct PrecHalf {
  using store_t = half_t;
  using real_t = float; // compute in float after normalized-int conversion
  static constexpr Precision value = Precision::Half;
  static constexpr bool has_norm = true;
  static constexpr int nvec = 4; // short4
};

// f(PrecDouble{}), f(PrecSingle{}) or f(PrecHalf{}): a run-time precision
// as the tag the kernels are templated on
template <typename F> decltype(auto) with_precision(Precision p, F&& f) {
  if (p == Precision::Double) return f(PrecDouble{});
  if (p == Precision::Single) return f(PrecSingle{});
  return f(PrecHalf{});
}

} // namespace quda

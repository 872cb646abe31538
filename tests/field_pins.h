#pragma once
// Bitwise pins of field contents, shared by the kernel, conversion and
// solver tests: FNV-1a over the bytes a field or a solution holds, so a
// pinned digest moves when any stored bit does.  crit_pins.h hashes
// exported traces with the same fnv1a.  The pins are taken in the
// default (portable) build; -march=native may contract multiply-adds.

#include "lattice/host_field.h"
#include "lattice/spinor_field.h"

#include <cstddef>
#include <cstdint>

namespace quda {

inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

inline std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

// the stored payload (body, pad and end zone) and the norm array
template <typename P> std::uint64_t stored_digest(const SpinorField<P>& f) {
  const std::uint64_t h =
      fnv1a(kFnvBasis, f.raw_data().data(), f.raw_data().size() * sizeof(typename P::store_t));
  return fnv1a(h, f.norm_data().data(), f.norm_data().size() * sizeof(float));
}

// the loaded sites in site order: equal for two fields that hold the same
// values under different pads
template <typename P> std::uint64_t loaded_digest(const SpinorField<P>& f) {
  std::uint64_t h = kFnvBasis;
  for (std::int64_t i = 0; i < f.sites(); ++i) {
    const auto s = f.load(i);
    h = fnv1a(h, &s, sizeof s);
  }
  return h;
}

inline std::uint64_t solution_digest(const HostSpinorField& x) {
  std::uint64_t h = kFnvBasis;
  for (std::int64_t i = 0; i < x.geom().volume(); ++i) h = fnv1a(h, &x[i], sizeof x[i]);
  return h;
}

} // namespace quda

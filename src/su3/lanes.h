#pragma once
// Site lanes: one real component of W lattice sites side by side, the host
// analogue of one CUDA thread per site (Section V of the paper).
//
// Lanes<S, W> is an arithmetic type whose every operation runs the scalar
// operation once per lane.  The Complex, ColorVector, SU3, Spinor,
// HalfSpinor and HermitianBlock templates and the compile-time spin algebra
// instantiate on it unchanged, so a kernel body written once runs W sites at
// a time, and each lane computes exactly the bits the scalar type computes
// for its site: the same operations on the same operands in the same order
// (the default flags contract no multiply-adds).  W = 1 is the scalar body.
//
// The lanes are stored as a std::array, so element access and the constexpr
// spin tables work as for any array.  For the 16-byte shapes (float x 4,
// double x 2) + - * / and negation run on whole vectors: the operands are
// bit_cast to a GCC/Clang vector_size(16) type, which the compiler maps
// to one SSE instruction, and the result back.  Each such instruction is
// the scalar IEEE operation in every lane, under the same rounding mode and
// denormal handling, so no bit moves.  Other shapes, and constant
// evaluation, run the element loop.  No vector type is ever stored or
// referenced element by element.
//
// Aggregates of lanes (Spinor<Lanes<S, W>>, ...) hold W sites' values;
// set_lane() moves one site's aggregate into lane k, for the lanes a kernel
// fills site by site.

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>

namespace quda {

template <typename S, std::size_t W> struct Lanes {
  static_assert(W > 0);
  std::array<S, W> v;

  // value-initialization zeroes every lane; default-initialization leaves
  // them unset, as for S
  constexpr Lanes() = default;
  // every lane s
  constexpr Lanes(S s) : v(splat(s)) {}
  // every lane static_cast<S>(u)
  template <typename U>
    requires(std::is_arithmetic_v<U> && !std::is_same_v<U, S>)
  constexpr explicit Lanes(U u) : Lanes(static_cast<S>(u)) {}

  constexpr S& operator[](std::size_t k) { return v[k]; }
  constexpr const S& operator[](std::size_t k) const { return v[k]; }

  constexpr Lanes& operator+=(const Lanes& o) { return lanewise(o, std::plus<>{}); }
  constexpr Lanes& operator-=(const Lanes& o) { return lanewise(o, std::minus<>{}); }
  constexpr Lanes& operator*=(const Lanes& o) { return lanewise(o, std::multiplies<>{}); }
  constexpr Lanes& operator/=(const Lanes& o) { return lanewise(o, std::divides<>{}); }

  friend constexpr Lanes operator+(Lanes a, const Lanes& b) { return a += b; }
  friend constexpr Lanes operator-(Lanes a, const Lanes& b) { return a -= b; }
  friend constexpr Lanes operator*(Lanes a, const Lanes& b) { return a *= b; }
  friend constexpr Lanes operator/(Lanes a, const Lanes& b) { return a /= b; }
  friend constexpr Lanes operator-(Lanes a) {
    if constexpr (kVectorShape)
      if (!std::is_constant_evaluated()) return std::bit_cast<Lanes>(-std::bit_cast<Vector>(a));
    for (std::size_t k = 0; k < W; ++k) a.v[k] = -a.v[k];
    return a;
  }

  // every lane equal: the spin algebra's compile-time zero tests compare
  // constants, which hold one value in every lane
  friend constexpr bool operator==(const Lanes& a, const Lanes& b) {
    for (std::size_t k = 0; k < W; ++k)
      if (!(a.v[k] == b.v[k])) return false;
    return true;
  }

private:
  // the vector type of the 16-byte shapes
  static constexpr bool kVectorShape =
      sizeof(S) * W == 16 && (std::is_same_v<S, float> || std::is_same_v<S, double>);
  using VectorElement = std::conditional_t<kVectorShape, S, float>;
  typedef VectorElement Vector __attribute__((vector_size(16)));

  // s in every lane; the vector shapes build one vector, which the compiler
  // keeps in a register where it splits an array filled element by element
  // into integer pieces
  static constexpr std::array<S, W> splat(S s) {
    if constexpr (kVectorShape)
      if (!std::is_constant_evaluated())
        return [s]<std::size_t... K>(std::index_sequence<K...>) {
          return std::bit_cast<std::array<S, W>>(Vector{((void)K, s)...});
        }(std::make_index_sequence<W>{});
    std::array<S, W> a{};
    for (std::size_t k = 0; k < W; ++k) a[k] = s;
    return a;
  }

  // *this = *this op o, lane by lane
  template <typename Op> constexpr Lanes& lanewise(const Lanes& o, Op op) {
    if constexpr (kVectorShape)
      if (!std::is_constant_evaluated())
        return *this =
                   std::bit_cast<Lanes>(op(std::bit_cast<Vector>(*this), std::bit_cast<Vector>(o)));
    for (std::size_t k = 0; k < W; ++k) v[k] = op(v[k], o.v[k]);
    return *this;
  }
};

// the lanes of a compute type: one 16-byte vector register of it
template <typename S> inline constexpr std::size_t kSiteLanes = 16 / sizeof(S);

// the site (or face site, or pad slot) each lane of a group reads
template <std::size_t W> using LaneSites = std::array<std::int64_t, W>;

// sites x0, x0 + 1, ..., x0 + W - 1
template <std::size_t W> constexpr LaneSites<W> consecutive_sites(std::int64_t x0) {
  LaneSites<W> x{};
  for (std::size_t k = 0; k < W; ++k) x[k] = x0 + std::int64_t(k);
  return x;
}

// a lane count as a type
template <std::size_t W> using LaneCount = std::integral_constant<std::size_t, W>;

// group(w, x0) over the sites [b, e): W consecutive sites from x0 at a time,
// then the last sites one at a time, with w = LaneCount<W> or LaneCount<1>
template <std::size_t W, typename Group>
void for_each_lane_group(std::int64_t b, std::int64_t e, Group&& group) {
  std::int64_t x0 = b;
  for (; x0 + std::int64_t(W) <= e; x0 += std::int64_t(W)) group(LaneCount<W>{}, x0);
  for (; x0 < e; ++x0) group(LaneCount<1>{}, x0);
}

// real n of an array, as of the aggregates (Spinor, SU3, ...) that name
// their reals in memory order
template <typename T, std::size_t N> constexpr T& real_at(std::array<T, N>& a, std::size_t n) {
  return a[n];
}

// set lane k of an aggregate of lanes from the aggregate of one lane
template <template <typename> class A, typename S, std::size_t W>
void set_lane(A<Lanes<S, W>>& a, std::size_t k, const A<Lanes<S, 1>>& s) {
  constexpr std::size_t n = sizeof(a) / (W * sizeof(S));
  static_assert(sizeof(a) == n * W * sizeof(S));
  auto to = std::bit_cast<std::array<Lanes<S, W>, n>>(a);
  const auto from = std::bit_cast<std::array<S, n>>(s);
  for (std::size_t i = 0; i < n; ++i) to[i][k] = from[i];
  a = std::bit_cast<A<Lanes<S, W>>>(to);
}

} // namespace quda

#pragma once
// 4-D lattice geometry: coordinates, linear indices, even-odd (red-black)
// checkerboarding, and neighbor arithmetic.
//
// Conventions:
//  * dimensions are ordered {X, Y, Z, T}; mu = 0..2 spatial, mu = 3 temporal;
//  * the linear ("lexicographic") site index runs x fastest, t slowest:
//      i = x + X*(y + Y*(z + Z*t))
//    so the two faces on the temporal boundaries are contiguous (Fig. 2);
//  * parity(x) = (x+y+z+t) mod 2; 0 = even, 1 = odd;
//  * the checkerboard (cb) index of a site within its parity is i/2, which
//    is a bijection because X is required to be even.

#include <array>
#include <cstdint>
#include <string>

namespace quda {

using Coords = std::array<int, 4>;

enum class Parity : int { Even = 0, Odd = 1 };

// temporal fermion boundary condition (spatial BCs are periodic)
enum class TimeBoundary { Periodic, Antiperiodic };

inline Parity other(Parity p) { return p == Parity::Even ? Parity::Odd : Parity::Even; }
inline int parity_int(Parity p) { return static_cast<int>(p); }

struct LatticeDims {
  int x = 0, y = 0, z = 0, t = 0;

  constexpr int operator[](int mu) const {
    return mu == 0 ? x : mu == 1 ? y : mu == 2 ? z : t;
  }
  constexpr std::int64_t volume() const {
    return std::int64_t(x) * y * z * t;
  }
  constexpr std::int64_t spatial_volume() const { return std::int64_t(x) * y * z; }

  std::string to_string() const;

  friend constexpr bool operator==(const LatticeDims&, const LatticeDims&) = default;
};

class Geometry {
public:
  Geometry() = default;
  explicit Geometry(LatticeDims dims);

  const LatticeDims& dims() const { return dims_; }
  std::int64_t volume() const { return volume_; }
  std::int64_t spatial_volume() const { return vs_; }
  // sites of one parity
  std::int64_t half_volume() const { return volume_ / 2; }
  // spatial sites of one parity (the size of a temporal face per parity)
  std::int64_t half_spatial_volume() const { return vs_ / 2; }

  std::int64_t linear_index(const Coords& c) const;
  Coords coords(std::int64_t linear) const;

  static Parity site_parity(const Coords& c) {
    return ((c[0] + c[1] + c[2] + c[3]) & 1) ? Parity::Odd : Parity::Even;
  }

  std::int64_t cb_index(const Coords& c) const { return linear_index(c) / 2; }

  // inverse of cb_index for a given parity
  Coords cb_coords(Parity parity, std::int64_t cb) const;

  // coordinates shifted by +/-1 in direction mu with periodic wrap
  Coords neighbor(const Coords& c, int mu, int dir) const;

  // cb_index(neighbor(c, Mu, Dir)) for the site c with checkerboard index
  // cb, without the coordinates.  With X even, cb = (x>>1) +
  // (X/2)(y + Y(z + Z t)): a hop in y, z or t moves cb by X/2, XY/2 or
  // XYZ/2 and wraps back by (L-1) of those steps at the edge; a hop in x
  // moves it by 0 or +-1 by the parity of x, and by -+(X/2 - 1) at the edge.
  template <int Mu, int Dir> std::int64_t neighbor_cb(std::int64_t cb, const Coords& c) const {
    static_assert(Mu >= 0 && Mu < 4 && (Dir == 1 || Dir == -1));
    if constexpr (Mu == 0) {
      const int x = c[0];
      const std::int64_t wrap = dims_.x / 2 - 1;
      if constexpr (Dir > 0)
        return x == dims_.x - 1 ? cb - wrap : cb + (x & 1);
      else
        return x == 0 ? cb + wrap : cb - 1 + (x & 1);
    } else {
      const std::int64_t step = cb_step_[Mu];
      const int last = dims_[Mu] - 1;
      if constexpr (Dir > 0)
        return c[Mu] == last ? cb - last * step : cb + step;
      else
        return c[Mu] == 0 ? cb + last * step : cb - step;
    }
  }

  // true when moving from c by dir in mu wraps around the lattice edge
  bool crosses_boundary(const Coords& c, int mu, int dir) const {
    return dir > 0 ? c[mu] == dims_[mu] - 1 : c[mu] == 0;
  }

  // --- faces (for the halo exchange) ---------------------------------------
  //
  // The face perpendicular to direction mu contains V / L_mu sites; half of
  // them per parity.  Face sites are indexed by checkerboarding the
  // lexicographic order of the three remaining dimensions (lowest dimension
  // fastest), which requires that lowest dimension to be even: X, always
  // even, for the y, z and t faces, but Y for the x face.  A decomposition
  // therefore needs an even local extent in every cut dimension (so local
  // and global parity agree) and, when it cuts x, an even local Y.

  std::int64_t face_sites(int mu) const { return volume_ / dims_[mu] / 2; }

  // face checkerboard index of a site (its c[mu] is ignored)
  std::int64_t face_index(int mu, const Coords& c) const;

  // inverse: the coordinates of face site `fs` on slice c[mu] = slice for a
  // field of parity `field_parity`
  Coords face_site_coords(int mu, Parity field_parity, int slice, std::int64_t fs) const;

private:
  LatticeDims dims_{};
  std::int64_t volume_ = 0;
  std::int64_t vs_ = 0;
  // checkerboard-index step of a hop in y, z, t (entry 0 unused)
  std::array<std::int64_t, 4> cb_step_{};
};

} // namespace quda

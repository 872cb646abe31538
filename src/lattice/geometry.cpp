#include "lattice/geometry.h"

#include <sstream>
#include <stdexcept>

namespace quda {

std::string LatticeDims::to_string() const {
  std::ostringstream os;
  os << x << "x" << y << "x" << z << "x" << t;
  return os.str();
}

Geometry::Geometry(LatticeDims dims) : dims_(dims) {
  if (dims.x <= 0 || dims.y <= 0 || dims.z <= 0 || dims.t <= 0)
    throw std::invalid_argument("lattice dimensions must be positive");
  if (dims.x % 2 != 0)
    throw std::invalid_argument("X dimension must be even for checkerboarding");
  volume_ = dims.volume();
  vs_ = dims.spatial_volume();
  cb_step_ = {0, dims.x / 2, std::int64_t(dims.x / 2) * dims.y,
              std::int64_t(dims.x / 2) * dims.y * dims.z};
}

std::int64_t Geometry::linear_index(const Coords& c) const {
  return c[0] +
         std::int64_t(dims_.x) * (c[1] + std::int64_t(dims_.y) * (c[2] + std::int64_t(dims_.z) * c[3]));
}

Coords Geometry::coords(std::int64_t linear) const {
  Coords c;
  c[0] = static_cast<int>(linear % dims_.x);
  linear /= dims_.x;
  c[1] = static_cast<int>(linear % dims_.y);
  linear /= dims_.y;
  c[2] = static_cast<int>(linear % dims_.z);
  c[3] = static_cast<int>(linear / dims_.z);
  return c;
}

Coords Geometry::cb_coords(Parity parity, std::int64_t cb) const {
  // cb indexes pairs of sites along x; the parity selects which of the two
  // x values in the pair belongs to this checkerboard.
  const int xh = dims_.x / 2;
  const int x_half = static_cast<int>(cb % xh);
  std::int64_t rest = cb / xh;
  Coords c;
  c[1] = static_cast<int>(rest % dims_.y);
  rest /= dims_.y;
  c[2] = static_cast<int>(rest % dims_.z);
  c[3] = static_cast<int>(rest / dims_.z);
  const int odd_shift = (c[1] + c[2] + c[3] + parity_int(parity)) & 1;
  c[0] = 2 * x_half + odd_shift;
  return c;
}

std::int64_t Geometry::face_index(int mu, const Coords& c) const {
  // lexicographic index over the three remaining dims, lowest fastest
  std::int64_t lin = 0;
  std::int64_t scale = 1;
  for (int d = 0; d < 4; ++d) {
    if (d == mu) continue;
    lin += c[d] * scale;
    scale *= dims_[d];
  }
  return lin / 2;
}

Coords Geometry::face_site_coords(int mu, Parity field_parity, int slice,
                                  std::int64_t fs) const {
  // remaining dims in increasing order
  int rem[3];
  int k = 0;
  for (int d = 0; d < 4; ++d)
    if (d != mu) rem[k++] = d;

  Coords c{};
  c[mu] = slice;
  // the fastest remaining dim is checkerboarded: reconstruct the other two
  // first, then fix the fastest one's low bit from the site parity
  const int fast = rem[0];
  const std::int64_t half_fast = dims_[fast] / 2;
  const std::int64_t x_half = fs % half_fast;
  std::int64_t rest = fs / half_fast;
  c[rem[1]] = static_cast<int>(rest % dims_[rem[1]]);
  c[rem[2]] = static_cast<int>(rest / dims_[rem[1]]);
  const int odd =
      (c[rem[1]] + c[rem[2]] + slice + parity_int(field_parity)) & 1;
  c[fast] = static_cast<int>(2 * x_half + odd);
  return c;
}

Coords Geometry::neighbor(const Coords& c, int mu, int dir) const {
  Coords n = c;
  const int len = dims_[mu];
  n[mu] += dir;
  if (n[mu] >= len) n[mu] -= len;
  if (n[mu] < 0) n[mu] += len;
  return n;
}

} // namespace quda

#pragma once
// Abstract linear operator interface of the Krylov solvers.  Solvers see
// only this interface, so the same Krylov code runs unchanged on one device
// or on a 32-GPU simulated cluster -- the even-odd Wilson-clover operator
// (parallel/parallel_op.h) supplies halo-exchanged matrix application and
// MPI-reduced global sums (Section VI-E).  The interface keeps the solvers
// below the parallel layer.

#include "blas/blas.h"
#include "lattice/spinor_field.h"

#include <cstdint>

namespace quda {

template <typename P> class LinearOperator {
public:
  virtual ~LinearOperator() = default;

  // single-parity local sites of the vectors this operator acts on
  virtual std::int64_t sites() const = 0;

  virtual void apply(SpinorField<P>& out, const SpinorField<P>& in) = 0;
  virtual void apply_dagger(SpinorField<P>& out, const SpinorField<P>& in) = 0;

  // a zero vector shaped for this operator (correct ghost-zone layout for
  // its decomposition); solvers allocate their temporaries through this
  virtual SpinorField<P> make_vector() const = 0;

  // reduce a locally-computed sum across all ranks
  virtual double global_sum(double local) = 0;
  virtual complexd global_sum(const complexd& local) = 0;

  // notify the timing layer that a fused BLAS kernel swept `vectors` of
  // this operator's size; the numerics layer has already done the work
  virtual void account_blas(int vectors_read, int vectors_written) = 0;
};

} // namespace quda

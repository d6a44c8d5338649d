// Builders for the 1D cubic B-spline Jastrow functors.
//
// The paper's production functors are variationally optimized for each
// material (Fig. 3). qmcxx substitutes analytic target forms with the
// correct cusp conditions and cutoffs, fitted onto the same B-spline
// representation, so the evaluation cost, branching and memory traffic
// are identical to production (see docs/API.md, "Substitutions").
#ifndef QMCXX_NUMERICS_SPLINE_BUILDER_H
#define QMCXX_NUMERICS_SPLINE_BUILDER_H

#include <functional>
#include <vector>

#include "numerics/cubic_bspline_1d.h"

namespace qmcxx
{

/// Fit a cubic B-spline to samples of f at the uniform knots of
/// [0, rcut] (num_knots segments), with derivative df0 at r = 0 and a
/// smooth zero (value, slope and curvature) at the cutoff.
template<typename T>
CubicBsplineFunctor<T> build_bspline_functor(const std::function<double(double)>& f, double df0,
                                             double rcut, int num_knots);

/// Electron-electron Jastrow target: RPA-like short-range correlation
/// hole,  u(r) = -c * F * exp(-r/F) + const  shifted to vanish at rcut,
/// where c is the cusp (-1/2 antiparallel, -1/4 parallel spins in a.u.).
std::function<double(double)> ee_jastrow_shape(double cusp, double rcut);

/// Electron-ion Jastrow target: Gaussian well of depth `depth` and width
/// `width`, shifted to vanish at rcut (matches the shapes of Fig. 3).
std::function<double(double)> ei_jastrow_shape(double depth, double width, double rcut);

} // namespace qmcxx

#endif

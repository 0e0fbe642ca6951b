// Receiver-side math for the packet-level plane: advertised unwanted
// spaces (what a receiver's light-weight CTS broadcasts) and post-projection
// zero-forcing SINR.
//
// A receiver with N antennas that wants n streams has an (N - n)-dimensional
// unwanted space (Table 1 of the paper). It must contain everything the
// receiver intends to ignore: the span of the interference it already sees.
// When the existing interference spans fewer than N - n dimensions the
// receiver tops the space up with directions orthogonal to its wanted
// channels — advertising the largest possible unwanted space minimizes the
// constraints future joiners must satisfy (keeping Claim 3.2's m = M - K
// count exact).
#pragma once

#include <vector>

#include "linalg/mat.h"
#include "phy/link_abstraction.h"

namespace nplus::sim {

using linalg::CMat;

// Builds the advertised unwanted space U (N x (N-n), orthonormal columns)
// from the receiver's *estimates* of its wanted effective channels
// `g_est` (N x j_w columns spanning where the wanted signal can arrive —
// typically the effective RTS-preamble channels) and of the present
// interference `f_est` (N x j, possibly zero columns). `n_wanted` is the
// stream count n the receiver will decode; 0 means use g_est.cols().
CMat advertised_unwanted_space(const CMat& g_est, const CMat& f_est,
                               std::size_t n_wanted = 0);

// Observation model at one receiver on one subcarrier.
struct RxObservation {
  CMat g_true;  // true effective channels of the wanted streams (N x n)
  CMat g_est;   // the receiver's estimate of the same (N x n)
  // True effective channels of everything else on the air (N x j); the
  // receiver does NOT know these exactly — it only relies on its advertised
  // unwanted space to reject them, so imperfect alignment/nulling leaks
  // through here. Residual error becomes measurable SINR loss.
  CMat interference_true;
  CMat unwanted_basis;  // advertised U (N x (N-n)), orthonormal
  double noise_power = 0.0;
};

// Both functions below run one receiver: it projects onto the complement
// of `unwanted_basis` and applies an MMSE-regularized zero-forcing
// combiner built from the estimated effective channel (g_est). The true
// channels then decide what comes out: the wanted gain, self-distortion
// from sibling streams, residual interference and enhanced noise. Both
// return zeros (zero gain, zero SINR) when the projected space has fewer
// free dimensions than streams or the regularized Gram is singular.

// Post-projection SINR of each wanted stream. The same sums, in the same
// order, as the models' sinr fields, so the two are bit-equal; this one
// allocates nothing per stream, because rate selection calls it on every
// subcarrier of every join attempt.
std::vector<double> zf_stream_sinr(const RxObservation& obs);

// One phy::StreamRxModel per wanted stream — the post-combining symbol
// observation model the full-PHY scorer realizes term by term (see
// phy/link_abstraction.h).
using phy::StreamRxModel;
std::vector<StreamRxModel> zf_stream_rx_models(const RxObservation& obs);

}  // namespace nplus::sim
